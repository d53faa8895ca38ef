import hashlib
import http.client
import json
import threading

import pytest

from stub_server import StubServer, StubState


def _key(prompt):
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@pytest.fixture()
def stub():
    table = {
        _key(p): {"prompt_sha256": _key(p), "candidates": [f"{p}-a", f"{p}-b"], "fault": f}
        for p, f in (("ok", "none"), ("flaky", "transient"), ("bad", "permanent"))
    }
    server = StubServer(("127.0.0.1", 0), StubState(table, latency_s=0.0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
    yield conn
    conn.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _post(conn, path, obj):
    conn.request("POST", path, body=json.dumps(obj), headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def test_fault_schedule(stub):
    status, body = _post(stub, "/v1/completions", {"prompt": "ok", "n": 2})
    assert status == 200
    assert [c["text"] for c in body["choices"]] == ["ok-a", "ok-b"]
    assert [_post(stub, "/v1/completions", {"prompt": "flaky"})[0] for _ in range(3)] == [503, 200, 200]
    assert [_post(stub, "/v1/completions", {"prompt": "bad"})[0] for _ in range(3)] == [400] * 3
    assert _post(stub, "/v1/completions", {"prompt": "unknown"})[0] == 404


def test_reset_restarts_the_schedule(stub):
    assert _post(stub, "/v1/completions", {"prompt": "flaky"})[0] == 503
    assert _post(stub, "/v1/completions", {"prompt": "flaky"})[0] == 200
    assert _post(stub, "/reset", {})[0] == 200
    assert _post(stub, "/v1/completions", {"prompt": "flaky"})[0] == 503


def test_connection_is_kept_alive(stub):
    _post(stub, "/v1/completions", {"prompt": "ok"})
    sock = stub.sock
    _post(stub, "/v1/completions", {"prompt": "ok"})
    assert sock is not None and stub.sock is sock
