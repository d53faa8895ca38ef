"""Completion-backend client: decoding config, retries, bounded concurrency.

Two backends share one small wire contract. ``HttpBackend`` POSTs
``{prompt, n, max_tokens, stop, temperature | num_beams, ...}`` as JSON and
expects ``{"choices": [{"text": ..., "tokens": ...?}, ...]}`` back, which maps
onto common completion-serving APIs via ``BackendSpec.extra_params``. Both
backends answer alike: at most k candidates, never padded, and one token
count per candidate (``checks.check_number``, an integer >= 0) or None. A
script whose counts break that is refused; an answer whose counts miss or
break it gives None, as a script without counts does.
``MockBackend`` replays a deterministic JSON script keyed by sample id, so
evaluations can run byte-reproducibly with no server; its scripted latencies
are accounting only, nothing sleeps.

``HttpBackend`` speaks HTTP/1.1 through the standard library's ``http.client``
and keeps each connection it opens for the next request, so with one
connection per in-flight slot it pays a connection's setup once, not once
per attempt. After sending each request it sets ``TCP_NODELAY``, and
``TCP_QUICKACK`` where the platform has it, so a server that leaves Nagle's
algorithm on does not wait for a delayed acknowledgement. A request that
finds its idle connection dropped by the server is sent once more on a new
connection, within the same attempt; a connection whose exchange failed or
timed out is closed, never reused. No redirect is followed. The proxy is
read from the ``HTTP(S)_PROXY``/``NO_PROXY`` settings when the backend is
built, and HTTPS is verified against the system's CA store. What the
backend sends from its spec is checked then too: the credential (never shown
in a message, and refused in the endpoint URL, which a proxy would receive),
the request target and ``extra_params``, which may not set ``prompt``. A
message or manifest shows the endpoint as ``shown_endpoint`` does, query
values masked. ``generate`` retries timeouts, transport faults, malformed
answers, 5xx, 408 and 429 with exponential backoff, and fails at once on any
other status and on errors no retry can cure (an unknown sample id, an
unsupported decoding strategy). The HTTP, socket and TLS modules load only
when an ``HttpBackend`` is built, so importing this module stays cheap.

``submit_batch`` queues a batch's samples on a ``batch_pool`` and returns
their futures in input order, so a caller can queue the next batch before it
collects this one. It keeps no clock. The pool runs up to
``BackendSpec.max_in_flight`` requests at once, one worker per slot, also
when there is only one slot.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from linefix.checks import check_list, check_mapping, check_number, check_type
from linefix.errors import (
    BackendError,
    CapabilityError,
    GenerationError,
    GenerationTimeout,
    MalformedResponse,
    TransportError,
    UnknownSampleId,
)

STRATEGIES = ("beam", "sample")


@dataclass(frozen=True)
class DecodeConfig:
    """How candidates are decoded; temperature only applies to sampling.

    ``seed`` is forwarded to the backend so sampled runs can be replayed.
    """

    strategy: str = "beam"
    k: int = 5
    temperature: float = 0.8
    max_new_tokens: int = 256
    stop_sequences: tuple[str, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy: expected one of {list(STRATEGIES)}, got {self.strategy!r}")
        for name, rule in (("k", {"integer": True, "low": 1}), ("temperature", {}),
                           ("max_new_tokens", {"integer": True, "low": 1}),
                           ("seed", {"integer": True, "null": True})):
            object.__setattr__(self, name, check_number(name, getattr(self, name), **rule))
        if self.strategy == "sample" and self.temperature <= 0:
            raise ValueError("sampling requires temperature > 0")
        check_list("stop_sequences", self.stop_sequences, str, "a list of strings")
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))


@dataclass(frozen=True)
class BackendSpec:
    """Frozen connection and retry settings; auth_env names an env var, never a secret."""

    endpoint: str = ""
    model: str = ""
    auth_env: str | None = None
    timeout_s: float = 60.0
    max_attempts: int = 3
    backoff_s: float = 0.5
    max_in_flight: int = 1
    extra_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_type("endpoint", self.endpoint, (str,), "a string")
        check_type("model", self.model, (str,), "a string")
        check_type("auth_env", self.auth_env, (str, type(None)), "a string or null")
        if self.auth_env == "":
            raise ValueError("auth_env: expected an environment variable name or null, got ''")
        for name, rule in (("timeout_s", {"low": 0, "above": True}), ("backoff_s", {"low": 0}),
                           ("max_attempts", {"integer": True, "low": 1}),
                           ("max_in_flight", {"integer": True, "low": 1})):
            object.__setattr__(self, name, check_number(name, getattr(self, name), **rule))
        check_type("extra_params", self.extra_params, (Mapping,), "a mapping")


@dataclass
class CandidateSet:
    """Candidates for one sample and its backend's counts, one each or None; or its error."""

    sample_id: str
    candidates: list[str]
    tokens: list[int] | None
    wall_time_s: float
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def shown_endpoint(endpoint: str) -> str:
    """``endpoint`` with each query value, or a query part with no ``=``, written ``***``."""
    url, hash_, fragment = endpoint.partition("#")  # split where urlsplit splits
    base, mark, query = url.partition("?")
    parts = (part.partition("=") for part in query.split("&")) if query else ()
    masked = "&".join(f"{key}=***" if eq else "***" for key, eq, _ in parts)
    return base + mark + masked + hash_ + fragment


def _transient(exc: GenerationError) -> bool:
    """Whether a retry may succeed: any status but a 5xx, 408 or 429 repeats itself."""
    if isinstance(exc, BackendError):
        return exc.status >= 500 or exc.status in (408, 429)
    return isinstance(exc, (GenerationTimeout, TransportError, MalformedResponse))


class MockBackend:
    """Deterministic scripted backend.

    Script shape::

        {
          "strategies": ["beam", "sample"],        # optional, default both
          "default_latency_s": 0.0,                # optional
          "samples": {
            "<sample_id>": {
              "candidates": ["...", ...],
              "tokens": [10, 20, ...],             # optional
              "latency_s": 0.25,                   # optional
              "fail_times": 1                      # optional transient failures
            }
          }
        }

    Candidates and tokens are cut to k, never padded. The script's shape and
    keys are checked once, here: a fault raises ValueError.
    """

    synthetic = True

    def __init__(self, script: Mapping, spec: BackendSpec | None = None):
        self.spec = spec if spec is not None else BackendSpec(endpoint="mock:")
        check_mapping("script", script, ("strategies", "default_latency_s", "samples"))
        strategies = script.get("strategies", list(STRATEGIES))
        drawn = f"a list drawn from {list(STRATEGIES)}"
        check_list("strategies", strategies, str, drawn)
        if not all(s in STRATEGIES for s in strategies):
            raise ValueError(f"strategies: expected {drawn}, got {strategies!r}")
        self.strategies = tuple(strategies)
        default_latency = check_number(
            "default_latency_s", script.get("default_latency_s", 0.0), low=0)
        samples = script.get("samples", {})
        check_type("samples", samples, (Mapping,), "a mapping")
        # sample id -> (candidates, tokens or None, latency)
        self.samples: dict[str, tuple[list[str], list[int] | None, float]] = {}
        self._fail_budget: dict[str, int] = {}
        for sid, entry in samples.items():
            at = f"samples[{sid!r}]"
            check_mapping(at, entry, ("candidates", "tokens", "latency_s", "fail_times"))
            candidates = entry.get("candidates", [])
            check_list(f"{at}.candidates", candidates, str, "a list of strings")
            tokens = entry.get("tokens")
            if tokens is not None:
                check_type(f"{at}.tokens", tokens, (list, tuple), "a list of integers")
                tokens = [check_number(f"{at}.tokens[{i}]", count, integer=True, low=0)
                          for i, count in enumerate(tokens)]
            fail_times = check_number(
                f"{at}.fail_times", entry.get("fail_times", 0), integer=True, low=0)
            latency = check_number(
                f"{at}.latency_s", entry.get("latency_s", default_latency), low=0)
            if tokens is not None and len(tokens) != len(candidates):
                raise ValueError(f"{at}.tokens: expected one count per candidate"
                                 f" ({len(candidates)}), got {len(tokens)}")
            self.samples[sid] = (list(candidates), tokens, latency)
            self._fail_budget[sid] = fail_times
        self._lock = threading.Lock()

    def complete(
        self, sample_id: str, prompt: str, cfg: DecodeConfig
    ) -> tuple[list[str], list[int] | None, float]:
        if cfg.strategy not in self.strategies:
            raise CapabilityError(f"mock backend does not support {cfg.strategy!r} decoding")
        entry = self.samples.get(sample_id)
        if entry is None:
            raise UnknownSampleId(f"no scripted entry for sample {sample_id!r}")
        with self._lock:
            if self._fail_budget[sample_id] > 0:
                self._fail_budget[sample_id] -= 1
                raise TransportError(f"scripted failure for sample {sample_id!r}")
        candidates, tokens, latency = entry
        return candidates[: cfg.k], None if tokens is None else tokens[: cfg.k], latency


class HttpBackend:
    """JSON-over-HTTP adapter for completion servers, one persistent connection per slot.

    Idle connections wait on a stack. ``complete`` takes one, or opens one,
    and puts it back only after a whole exchange whose answer did not ask to
    close; ``close`` closes the idle ones.
    """

    synthetic = False

    def __init__(self, spec: BackendSpec):
        import base64
        import functools
        import http.client
        import socket
        import urllib.request
        from urllib.parse import unquote, urlsplit

        url = urlsplit(spec.endpoint)
        if url.username is not None:  # any user info, also ":password@"; never echo it
            raise ValueError("endpoint: a URL must not hold credentials; put the credential in"
                             " an environment variable and name it in auth_env")
        https = url.scheme == "https"
        if not (https or url.scheme == "http") or not url.hostname:
            raise ValueError("endpoint: expected an http or https URL,"
                             f" got {shown_endpoint(spec.endpoint)!r}")
        self.spec = spec
        self.headers = {"Content-Type": "application/json"}
        if spec.auth_env:
            token = os.environ.get(spec.auth_env)
            if not token:
                raise ValueError(f"credential env var {spec.auth_env} is not set")
            if not (token.isascii() and token.isprintable()):  # the message never shows it
                raise ValueError(f"credential env var {spec.auth_env} holds a control or"
                                 " non-ASCII character, which a header cannot carry")
            self.headers["Authorization"] = f"Bearer {token}"
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        address, self._tunnel = (url.hostname, url.port), None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            login = {}
            if proxy_url.username is not None:
                pair = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                login["Proxy-Authorization"] = f"Basic {base64.b64encode(pair.encode()).decode()}"
            if https:  # a CONNECT tunnel through the proxy
                self._tunnel = (url.hostname, url.port, login)
            else:  # the proxy takes the absolute URL
                self._target = url._replace(fragment="").geturl()
                self.headers.update(login)
            address = (proxy_url.hostname, proxy_url.port)
        if any(c <= " " or c >= "\x7f" for c in self._target):
            raise ValueError(f"endpoint: the request target {shown_endpoint(self._target)!r}"
                             " holds a space, a control character or a non-ASCII character")
        try:
            json.dumps(spec.extra_params, allow_nan=False)
        except (TypeError, ValueError) as exc:  # a YAML date, a NaN
            raise ValueError(f"extra_params: {exc}") from None
        if "prompt" in spec.extra_params:  # it would replace each sample's prompt in the request
            raise ValueError("extra_params: 'prompt' is the sample's own and cannot be set")
        if https:
            import ssl

            # one TLS context for every connection: each new one reloads the CA store
            self._new = functools.partial(http.client.HTTPSConnection, *address,
                                          timeout=spec.timeout_s,
                                          context=ssl.create_default_context())
        else:
            self._new = functools.partial(http.client.HTTPConnection, *address,
                                          timeout=spec.timeout_s)
        # Set after each request is sent. A server that leaves Nagle's algorithm on
        # holds its body until the headers are acknowledged, and on a reused
        # connection Linux delays that acknowledgement by about 40 ms.
        self._socket_options = [(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)]
        if hasattr(socket, "TCP_QUICKACK"):
            self._socket_options.append((socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1))
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self):
        conn = self._new()
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _send(self, conn, body: bytes):
        conn.request("POST", self._target, body, self.headers)
        for option in self._socket_options:
            conn.sock.setsockopt(*option)
        return conn.getresponse()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST; a stale idle connection costs one re-send."""
        import http.client

        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
        keep = False
        try:
            try:
                response = self._send(conn, body)
            except (OSError, http.client.HTTPException) as exc:
                if not reused or isinstance(exc, TimeoutError):
                    raise
                conn.close()  # the server dropped it while it was idle
                conn = self._connect()
                response = self._send(conn, body)
            data = response.read()
            keep = not response.will_close
        except TimeoutError as exc:
            raise GenerationTimeout(str(exc))
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(str(exc))
        finally:  # never reuse a connection whose exchange did not finish
            if keep:
                self._idle.append(conn)
            else:
                conn.close()
        return response.status, data

    def complete(
        self, sample_id: str, prompt: str, cfg: DecodeConfig
    ) -> tuple[list[str], list[int] | None, float | None]:
        payload: dict = {
            "prompt": prompt,
            "n": cfg.k,
            "max_tokens": cfg.max_new_tokens,
            "stop": list(cfg.stop_sequences),
        }
        if self.spec.model:
            payload["model"] = self.spec.model
        if cfg.strategy == "sample":
            payload["temperature"] = cfg.temperature
        else:
            payload["num_beams"] = cfg.k
        if cfg.seed is not None:
            payload["seed"] = cfg.seed
        payload.update(self.spec.extra_params)
        status, body = self._post(json.dumps(payload).encode("utf-8"))
        if status >= 300:
            text = body.decode("utf-8", "replace")
            raise BackendError(f"HTTP {status}: {text[:300]}", status)
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise MalformedResponse(f"response is not JSON: {exc}")
        choices = data.get("choices") if isinstance(data, dict) else None
        if not isinstance(choices, list):
            raise MalformedResponse("response has no choices list")
        candidates: list[str] = []
        tokens: list[int] = []
        reported = True
        for choice in choices[: cfg.k]:
            if not isinstance(choice, dict) or not isinstance(choice.get("text"), str):
                raise MalformedResponse("choice without a text field")
            candidates.append(choice["text"])
            try:  # the count rule MockBackend applies to its scripted tokens
                tokens.append(check_number("tokens", choice.get("tokens"), integer=True, low=0))
            except ValueError:
                reported = False
        return candidates, tokens if reported else None, None


def generate(
    prompt: str,
    cfg: DecodeConfig,
    backend,
    *,
    sample_id: str = "",
) -> CandidateSet:
    """One request with the backend's retry policy.

    Raises the last error once ``max_attempts`` are spent, or the first error
    that a retry cannot cure, with the attempts made in its ``attempts``.
    """
    spec: BackendSpec = backend.spec
    start = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            candidates, tokens, latency = backend.complete(sample_id, prompt, cfg)
            break
        except GenerationError as exc:
            if attempt == spec.max_attempts or not _transient(exc):
                exc.attempts = attempt
                raise
        delay = spec.backoff_s * (2 ** (attempt - 1))
        if delay > 0 and not backend.synthetic:
            time.sleep(delay)
    wall = latency if latency is not None else time.perf_counter() - start
    return CandidateSet(sample_id, candidates, tokens, wall, attempt)


def batch_pool(backend) -> ThreadPoolExecutor:
    """A thread pool with one worker per ``max_in_flight`` slot of ``backend``.

    A pool also with one slot: generating on the caller's thread instead made
    mock evaluations swing between two speeds from run to run on a shared
    2-vCPU host. The caller keeps one pool open across its batches and shuts
    it down itself; a fresh pool per batch made the caller wait on almost
    every sample in turn.
    """
    return ThreadPoolExecutor(max_workers=backend.spec.max_in_flight)


def submit_batch(
    prompts: Sequence[tuple[str, str]],
    cfg: DecodeConfig,
    backend,
    *,
    pool: ThreadPoolExecutor,
) -> list[Future[CandidateSet]]:
    """Queue one task per (sample_id, prompt) pair on ``pool``; returns their futures.

    Each future's result is the sample's CandidateSet; a failed sample becomes
    an error-bearing CandidateSet rather than an exception. The caller waits
    once for the whole batch (``concurrent.futures.wait``), not once for each
    result in turn, and then reads the results in input order. Sample ids are
    not checked here; ``evaluation.evaluate`` holds them unique.
    """

    def one(item: tuple[str, str]) -> CandidateSet:
        sid, prompt = item
        try:
            return generate(prompt, cfg, backend, sample_id=sid)
        except GenerationError as exc:
            return CandidateSet(sid, [], None, 0.0, exc.attempts, f"{type(exc).__name__}: {exc}")

    return [pool.submit(one, item) for item in prompts]
