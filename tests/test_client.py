"""Backend client: config validation, mock replay, retries, batching, HTTP."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import URLError
from urllib.parse import urlsplit

import pytest

from linefix.client import (
    BackendSpec,
    DecodeConfig,
    HttpBackend,
    MockBackend,
    batch_pool,
    generate,
    generate_batch,
)
from linefix.errors import (
    BackendError,
    CapabilityError,
    GenerationTimeout,
    MalformedResponse,
    TransportError,
    UnknownSampleId,
)

CFG = DecodeConfig(strategy="beam", k=3)


def mock_backend(samples: dict, spec: BackendSpec | None = None, **script) -> MockBackend:
    return MockBackend({"samples": samples, **script}, spec)


def run_batch(prompts, backend):
    with batch_pool(backend) as pool:
        return generate_batch(prompts, CFG, backend, pool=pool)


# --- configs ------------------------------------------------------------------


def test_decode_config_defaults():
    cfg = DecodeConfig()
    assert cfg.strategy == "beam"
    assert cfg.k == 5
    assert cfg.stop_sequences == ()
    assert cfg.seed is None


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(strategy="greedy")
    with pytest.raises(ValueError):
        DecodeConfig(k=0)
    with pytest.raises(ValueError):
        DecodeConfig(strategy="sample", temperature=0.0)
    # beam ignores temperature entirely
    DecodeConfig(strategy="beam", temperature=0.0)


def test_decode_config_coerces_stop_tuple():
    assert DecodeConfig(stop_sequences=["[/INST]"]).stop_sequences == ("[/INST]",)


@pytest.mark.parametrize(
    "field,value",
    [
        ("k", 2.5),
        ("k", True),
        ("k", "3"),
        ("k", float("inf")),
        ("max_new_tokens", "9"),
        ("max_new_tokens", 2.5),
        ("stop_sequences", "ab"),
        ("stop_sequences", [1]),
        ("stop_sequences", (True,)),
        ("strategy", "greedy"),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        pytest.param("temperature", 10**400, id="temperature-401-digit int"),
        ("max_new_tokens", 0),
        ("k", 0),
        ("seed", 1.5),
    ],
)
def test_decode_config_rejects_bad_value(field, value):
    with pytest.raises(ValueError, match=f"^{field}: expected"):
        DecodeConfig(**{field: value})


def test_backend_spec_validation():
    with pytest.raises(ValueError):
        BackendSpec(max_attempts=0)
    with pytest.raises(ValueError):
        BackendSpec(max_in_flight=0)
    for bad in (
        {"endpoint": None},
        {"auth_env": b"TOKEN"},
        {"timeout_s": "60"},
        {"timeout_s": False},
        {"max_attempts": True},
        {"backoff_s": None},
        {"extra_params": [("k", 1)]},
        {"timeout_s": -1},
        {"timeout_s": 0},
        {"timeout_s": float("nan")},
        {"timeout_s": 10**400},
        {"backoff_s": -0.5},
        {"backoff_s": float("inf")},
    ):
        with pytest.raises(ValueError, match=f"{next(iter(bad))}: expected"):
            BackendSpec(**bad)
    BackendSpec(timeout_s=5, backoff_s=0, auth_env="TOKEN", extra_params={"n": 1})
    with pytest.raises(ValueError, match="^auth_env: expected an environment variable name"):
        BackendSpec(endpoint="http://localhost:1/", auth_env="")  # would send no credential
    # one integer rule for every setting: a whole-number float is the int it holds
    assert BackendSpec(max_in_flight=2.0, max_attempts=3.0).max_in_flight == 2


# --- mock backend ----------------------------------------------------------------


def test_mock_pads_and_truncates_to_k():
    backend = mock_backend({"s": {"candidates": ["a"]}})
    out = generate("p", CFG, backend, sample_id="s")
    assert out.candidates == ["a", "", ""]
    backend = mock_backend({"s": {"candidates": ["a", "b", "c", "d"]}})
    out = generate("p", CFG, backend, sample_id="s")
    assert out.candidates == ["a", "b", "c"]


def test_backend_spec_is_frozen_once_checked():
    spec = BackendSpec(max_in_flight=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.max_in_flight = 0
    with pytest.raises(ValueError, match="^max_in_flight: expected"):
        dataclasses.replace(spec, max_in_flight=0)
    assert spec.max_in_flight == 2


def test_mock_pads_tuples_to_k():
    backend = mock_backend({"s": {"candidates": ("a", "b"), "tokens": (7, 8.0)}})
    out = generate("p", CFG, backend, sample_id="s")
    assert out.candidates == ["a", "b", ""]
    assert out.tokens_generated == [7, 8, 0]
    assert out.backend_reported


def test_mock_tokens_padded_and_reported():
    backend = mock_backend({"s": {"candidates": ["a", "b"], "tokens": [7]}})
    out = generate("p", CFG, backend, sample_id="s")
    assert out.tokens_generated == [7, 0, 0]
    assert out.backend_reported


def test_mock_tokens_estimated_when_absent():
    backend = mock_backend({"s": {"candidates": ["fix the bug now", "b"]}})
    out = generate("p", CFG, backend, sample_id="s")
    assert not out.backend_reported
    assert out.tokens_generated == [4, 1, 0]


def test_mock_latency_is_accounting_only():
    backend = mock_backend({"s": {"candidates": ["a"], "latency_s": 30.0}})
    t0 = time.perf_counter()
    out = generate("p", CFG, backend, sample_id="s")
    assert time.perf_counter() - t0 < 1.0  # nothing sleeps
    assert out.wall_time_s == 30.0


def test_mock_unknown_sample_id():
    backend = mock_backend({})
    with pytest.raises(UnknownSampleId):
        generate("p", CFG, backend, sample_id="missing")


def test_mock_capability_error_not_retried():
    backend = mock_backend({"s": {"candidates": ["a"]}}, strategies=["beam"])
    with pytest.raises(CapabilityError):
        generate("p", DecodeConfig(strategy="sample", k=1), backend, sample_id="s")


def test_mock_transient_failures_retried():
    spec = BackendSpec(endpoint="mock:", max_attempts=3, backoff_s=10.0)
    backend = mock_backend({"s": {"candidates": ["a"], "fail_times": 2}}, spec)
    t0 = time.perf_counter()
    out = generate("p", CFG, backend, sample_id="s")
    assert time.perf_counter() - t0 < 1.0  # synthetic retries never sleep
    assert out.attempts == 3
    assert out.candidates[0] == "a"


class Flaky:
    """A backend that is not synthetic: it raises each of ``errors`` in turn, then answers."""

    synthetic = False

    def __init__(self, errors: list, spec: BackendSpec):
        self.errors, self.spec = errors, spec

    def complete(self, sample_id, prompt, cfg):
        if self.errors:
            raise self.errors.pop(0)
        return ["a"] * cfg.k, None, None


def test_backoff_doubles_and_sleeps_only_where_a_retry_may_cure(monkeypatch):
    slept = []
    monkeypatch.setattr("linefix.client.time.sleep", slept.append)
    spec = BackendSpec(endpoint="http://backend", max_attempts=3, backoff_s=0.01)
    backend = Flaky([TransportError("reset"), BackendError("HTTP 503", 503)], spec)
    assert generate("p", CFG, backend, sample_id="s").attempts == 3
    assert slept == [0.01, 0.02]
    slept.clear()
    with pytest.raises(BackendError):  # a 400 repeats itself: no retry, no sleep
        generate("p", CFG, Flaky([BackendError("HTTP 400", 400)], spec), sample_id="s")
    mock = mock_backend({"s": {"candidates": ["a"], "fail_times": 2}},
                        BackendSpec(endpoint="mock:", max_attempts=3, backoff_s=0.01))
    assert generate("p", CFG, mock, sample_id="s").attempts == 3
    assert slept == []


def test_mock_failures_exhaust_attempts():
    spec = BackendSpec(endpoint="mock:", max_attempts=2, backoff_s=0.0)
    backend = mock_backend({"s": {"candidates": ["a"], "fail_times": 5}}, spec)
    with pytest.raises(TransportError):
        generate("p", CFG, backend, sample_id="s")


def test_mock_determinism():
    def run():
        backend = mock_backend({"s": {"candidates": ["a", "b"], "latency_s": 0.5}})
        return generate("p", CFG, backend, sample_id="s")

    assert run() == run()


# --- batches ----------------------------------------------------------------------


def test_batch_preserves_order_and_times():
    samples = {f"s{i}": {"candidates": [f"c{i}"], "latency_s": 0.25} for i in range(8)}
    backend = mock_backend(samples)
    result = run_batch([(f"s{i}", f"p{i}") for i in range(8)], backend)
    assert [o.sample_id for o in result] == [f"s{i}" for i in range(8)]
    assert [o.candidates[0] for o in result] == [f"c{i}" for i in range(8)]
    assert [o.wall_time_s for o in result] == [0.25] * 8


def test_batch_requires_unique_ids():
    backend = mock_backend({"s": {"candidates": ["a"]}})
    with pytest.raises(ValueError):
        run_batch([("s", "p"), ("s", "q")], backend)


def test_batch_embeds_per_sample_failures():
    spec = BackendSpec(endpoint="mock:", max_attempts=2, backoff_s=0.0)
    backend = mock_backend(
        {
            "good": {"candidates": ["a"], "latency_s": 1.0},
            "bad": {"candidates": ["b"], "fail_times": 9},
        },
        spec,
    )
    result = run_batch([("good", "p"), ("bad", "q")], backend)
    good, bad = result
    assert good.ok
    assert not bad.ok
    assert bad.error.startswith("TransportError")
    assert bad.candidates == []
    assert bad.attempts == 2
    assert bad.wall_time_s == 0.0  # a failed sample adds no time to a synthetic run


def test_batch_counts_one_attempt_for_errors_no_retry_cures():
    spec = BackendSpec(endpoint="mock:", max_attempts=3, backoff_s=0.0)
    result = run_batch([("missing", "p")], mock_backend({}, spec))
    (outcome,) = result
    assert outcome.error.startswith("UnknownSampleId")
    assert outcome.attempts == 1


def test_batch_concurrency_does_not_change_results():
    samples = {f"s{i}": {"candidates": [f"c{i}"], "latency_s": 0.1} for i in range(12)}
    prompts = [(f"s{i}", f"p{i}") for i in range(12)]
    serial = run_batch(prompts, mock_backend(samples))
    spec = BackendSpec(endpoint="mock:", max_in_flight=4)
    threaded = run_batch(prompts, mock_backend(samples, spec))
    assert serial == threaded


def test_batches_share_a_pool_the_caller_keeps_open():
    samples = {f"s{i}": {"candidates": [f"c{i}"], "latency_s": 0.1} for i in range(12)}
    prompts = [(f"s{i}", f"p{i}") for i in range(12)]
    backend = mock_backend(samples, BackendSpec(endpoint="mock:", max_in_flight=3))
    with batch_pool(backend) as pool:
        assert pool._max_workers == 3
        halves = [generate_batch(prompts[:6], CFG, backend, pool=pool),
                  generate_batch(prompts[6:], CFG, backend, pool=pool)]
        assert pool.submit(len, "open").result() == 4  # the batches left it open
    outcomes = halves[0] + halves[1]
    assert [o.candidates[0] for o in outcomes] == [f"c{i}" for i in range(12)]


# --- HTTP backend -------------------------------------------------------------------


# a route's one choice holds "one two three" with this token count
TOKEN_COUNTS = {"/bool-tokens": True, "/negative-tokens": -3, "/float-tokens": 2.0}


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output quiet
        pass

    def _send(self, code: int, body: bytes, ctype: str = "application/json"):
        try:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # /slow answers after the client has timed out on purpose

    def do_POST(self):
        n = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(n) or b"{}")
        self.server.requests.append((self.path, dict(self.headers), payload))
        path = urlsplit(self.path).path  # a proxied request names the whole URL
        if path == "/ok":
            self._send(200, json.dumps(
                {"choices": [{"text": "fix A", "tokens": 3}, {"text": "fix B", "tokens": 4}]}
            ).encode())
        elif path == "/no-tokens":
            self._send(200, json.dumps({"choices": [{"text": "one two three"}]}).encode())
        elif path in TOKEN_COUNTS:
            self._send(200, json.dumps({"choices": [
                {"text": "one two three", "tokens": TOKEN_COUNTS[path]}]}).encode())
        elif path == "/bad-json":
            self._send(200, b"not json at all")
        elif path == "/no-choices":
            self._send(200, json.dumps({"result": "nope"}).encode())
        elif path == "/no-text":
            self._send(200, json.dumps({"choices": [{"tokens": 3}]}).encode())
        elif path == "/boom":
            self._send(503, b"overloaded", "text/plain")
        elif path == "/auth":
            if self.headers.get("Authorization") == "Bearer tok-123":
                self._send(200, json.dumps({"choices": [{"text": "ok", "tokens": 1}]}).encode())
            else:
                self._send(401, b"who are you")
        elif path == "/slow":
            time.sleep(0.5)
            self._send(200, json.dumps({"choices": [{"text": "late", "tokens": 1}]}).encode())
        elif path.startswith("/status/"):
            self._send(int(path.rsplit("/", 1)[1]), b"status as asked", "text/plain")
        else:
            self._send(404, b"no such route")


@pytest.fixture(scope="module")
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _spec(server, path: str, **kw) -> BackendSpec:
    host, port = server.server_address
    defaults = dict(endpoint=f"http://{host}:{port}{path}", max_attempts=1, backoff_s=0.0)
    defaults.update(kw)
    return BackendSpec(**defaults)


def test_http_happy_path(http_server):
    backend = HttpBackend(_spec(http_server, "/ok"))
    out = generate("prompt", CFG, backend, sample_id="s")
    assert out.candidates == ["fix A", "fix B"]
    assert out.tokens_generated == [3, 4]
    assert out.backend_reported
    assert out.wall_time_s > 0.0


def test_http_payload_shape(http_server):
    http_server.requests.clear()
    spec = _spec(http_server, "/ok", model="m-large", extra_params={"top_p": 0.9})
    cfg = DecodeConfig(strategy="beam", k=2, max_new_tokens=64,
                       stop_sequences=("[/INST]",), seed=11)
    generate("the prompt", cfg, HttpBackend(spec), sample_id="s")
    _, _, payload = http_server.requests[-1]
    assert payload == {
        "prompt": "the prompt",
        "n": 2,
        "max_tokens": 64,
        "stop": ["[/INST]"],
        "model": "m-large",
        "num_beams": 2,
        "seed": 11,
        "top_p": 0.9,
    }


def test_http_sampling_payload(http_server):
    http_server.requests.clear()
    cfg = DecodeConfig(strategy="sample", k=2, temperature=0.65)
    generate("p", cfg, HttpBackend(_spec(http_server, "/ok")), sample_id="s")
    _, _, payload = http_server.requests[-1]
    assert payload["temperature"] == 0.65
    assert "num_beams" not in payload


@pytest.mark.parametrize(
    "path,tokens,reported",
    [
        # a count missing, or one a mock script could not hold, is a whitespace-split estimate
        pytest.param("/no-tokens", [3], False, id="no-tokens"),
        pytest.param("/bool-tokens", [3], False, id="bool-tokens"),
        pytest.param("/negative-tokens", [3], False, id="negative-tokens"),
        pytest.param("/float-tokens", [2], True, id="float-tokens"),
    ],
)
def test_http_tokens_estimated_when_missing(http_server, path, tokens, reported):
    backend = HttpBackend(_spec(http_server, path))
    out = generate("p", DecodeConfig(k=1), backend, sample_id="s")
    assert out.backend_reported is reported
    assert out.tokens_generated == tokens
    assert all(type(t) is int for t in out.tokens_generated)


def test_http_error_status(http_server):
    with pytest.raises(BackendError) as info:
        generate("p", CFG, HttpBackend(_spec(http_server, "/boom")), sample_id="s")
    assert str(info.value) == "HTTP 503: overloaded"
    assert info.value.status == 503


@pytest.mark.parametrize(
    "path, attempts",
    [
        ("/boom", 3),  # 503
        ("/status/500", 3),
        ("/status/408", 3),
        ("/status/429", 3),
        ("/status/400", 1),
        ("/status/404", 1),
        ("/auth", 1),  # 401 without a token
    ],
)
def test_http_retries_transient_statuses_only(http_server, path, attempts):
    http_server.requests.clear()
    backend = HttpBackend(_spec(http_server, path, max_attempts=3))
    with pytest.raises(BackendError) as info:
        generate("p", CFG, backend, sample_id="s")
    assert info.value.attempts == attempts
    assert [p for p, _, _ in http_server.requests] == [path] * attempts


def test_batch_records_attempts_made(http_server):
    backend = HttpBackend(_spec(http_server, "/status/400", max_attempts=3))
    result = run_batch([("s", "p")], backend)
    (outcome,) = result
    assert outcome.error == "BackendError: HTTP 400: status as asked"
    assert outcome.attempts == 1


def test_http_malformed_response(http_server):
    with pytest.raises(MalformedResponse):
        generate("p", CFG, HttpBackend(_spec(http_server, "/bad-json")), sample_id="s")
    with pytest.raises(MalformedResponse):
        generate("p", CFG, HttpBackend(_spec(http_server, "/no-choices")), sample_id="s")
    with pytest.raises(MalformedResponse, match="^choice without a text field$"):
        generate("p", CFG, HttpBackend(_spec(http_server, "/no-text")), sample_id="s")


def test_http_auth_header_from_env(http_server, monkeypatch):
    monkeypatch.setenv("TEST_BACKEND_TOKEN", "tok-123")
    spec = _spec(http_server, "/auth", auth_env="TEST_BACKEND_TOKEN")
    out = generate("p", DecodeConfig(k=1), HttpBackend(spec), sample_id="s")
    assert out.candidates == ["ok"]


def test_http_auth_env_missing(http_server, monkeypatch):
    monkeypatch.delenv("TEST_BACKEND_TOKEN", raising=False)
    spec = _spec(http_server, "/auth", auth_env="TEST_BACKEND_TOKEN")
    with pytest.raises(ValueError, match="TEST_BACKEND_TOKEN is not set"):
        HttpBackend(spec)


def test_http_connection_refused_is_transport_error():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    spec = BackendSpec(endpoint=f"http://127.0.0.1:{port}/gen", max_attempts=1)
    with pytest.raises(TransportError):
        generate("p", CFG, HttpBackend(spec), sample_id="s")


def test_http_uses_env_proxy_read_at_construction(http_server, monkeypatch):
    host, port = http_server.server_address
    for name in ("http_proxy", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://{host}:{port}")
    spec = BackendSpec(endpoint="http://completions.example/ok", max_attempts=1)
    backend = HttpBackend(spec)
    monkeypatch.delenv("HTTP_PROXY")
    http_server.requests.clear()
    out = generate("p", CFG, backend, sample_id="s")
    assert out.candidates == ["fix A", "fix B"]
    assert [p for p, _, _ in http_server.requests] == ["http://completions.example/ok"]


@pytest.mark.parametrize(
    "raised,error,message",
    [(URLError(TimeoutError("timed out")), GenerationTimeout, "timed out"),
     (OSError("connection reset by peer"), TransportError, "connection reset by peer")],
    ids=["URLError timeout", "OSError"],
)
def test_http_opener_errors_are_classified(monkeypatch, raised, error, message):
    # a timeout while connecting arrives wrapped in a URLError
    backend = HttpBackend(BackendSpec(endpoint="http://127.0.0.1:9/gen"))

    def fail(request, timeout):
        raise raised

    monkeypatch.setattr(backend._opener, "open", fail)
    with pytest.raises(error, match=f"^{message}$"):
        backend.complete("s", "p", CFG)


def test_http_timeout(http_server):
    spec = _spec(http_server, "/slow", timeout_s=0.05)
    with pytest.raises(GenerationTimeout):
        generate("p", DecodeConfig(k=1), HttpBackend(spec), sample_id="s")


def test_https_backend_builds_tls_opener_without_network():
    backend = HttpBackend(BackendSpec(endpoint="https://127.0.0.1:9/v1/completions"))
    assert any(isinstance(h, urllib.request.HTTPSHandler) for h in backend._opener.handlers)


def test_http_requires_endpoint():
    with pytest.raises(ValueError):
        HttpBackend(BackendSpec())
