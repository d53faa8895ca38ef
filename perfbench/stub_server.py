"""Stub completion server for the ``eval_http`` workload.

Run:  python3 perfbench/stub_server.py --table stub_table.jsonl

It answers ``POST`` requests in the wire format ``linefix.client.HttpBackend``
speaks. The wire carries no sample id, so responses are keyed by the sha256
of the prompt. Each table row names a fault:

* ``none``: 200 with the row's candidates;
* ``transient``: 503 on the first attempt since the last reset, 200 after;
* ``permanent``: 400 on every attempt.

Every answer, error or not, waits ``LATENCY_S`` first. ``POST /reset``
clears the attempt counts, so each measured pass sees the same schedule.
Connections are HTTP/1.1 keep-alive, so a client that reuses connections
gains over one that opens a connection per request. On start the server
prints its port on one line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Large enough that waiting, not the host's CPU speed, sets most of an
# attempt's time: at 2-10 ms the per-sample latencies spread 15-33% between
# runs on a shared two-core VM.
LATENCY_S = 0.025


class StubState:
    """Response table plus the per-prompt attempt counts of the current run."""

    def __init__(self, table: dict[str, dict], latency_s: float = LATENCY_S):
        self.table = table
        self.latency_s = latency_s
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str) -> "StubState":
        table = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                table[row["prompt_sha256"]] = row
        return cls(table)

    def reset(self) -> None:
        with self._lock:
            self._attempts.clear()

    def answer(self, prompt: str) -> tuple[int, dict]:
        """Status and JSON body for one attempt at ``prompt``."""
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        row = self.table.get(key)
        if row is None:
            return 404, {"error": "unknown prompt"}
        with self._lock:
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
        if row["fault"] == "permanent":
            return 400, {"error": "rejected"}
        if row["fault"] == "transient" and attempt == 1:
            return 503, {"error": "overloaded"}
        choices = [{"text": c, "tokens": len(c.split())} for c in row["candidates"]]
        return 200, {"choices": choices}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def log_message(self, *args):
        pass

    def _send(self, code: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        state = self.server.state
        if self.path == "/reset":
            state.reset()
            self._send(200, {"reset": True})
            return
        try:
            prompt = json.loads(raw)["prompt"]
        except (ValueError, KeyError, TypeError):
            self._send(422, {"error": "no prompt"})
            return
        time.sleep(state.latency_s)
        self._send(*state.answer(prompt))


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], state: StubState):
        super().__init__(address, _Handler)
        self.state = state


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    args = parser.parse_args(argv)
    server = StubServer(("127.0.0.1", 0), StubState.from_file(args.table))
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
