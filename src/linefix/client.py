"""Completion-backend client: decoding config, retries, bounded concurrency.

Two backends share one small wire contract. ``HttpBackend`` POSTs
``{prompt, n, max_tokens, stop, temperature | num_beams, ...}`` as JSON and
expects ``{"choices": [{"text": ..., "tokens": ...?}, ...]}`` back, which maps
onto common completion-serving APIs via ``BackendSpec.extra_params``.
``MockBackend`` replays a deterministic JSON script keyed by sample id, so
evaluations can run byte-reproducibly with no server; its scripted latencies
are accounting only, nothing sleeps.

``HttpBackend`` speaks HTTP through the standard library's ``urllib.request``,
one connection per attempt. Its opener is built with the backend, so it uses
the ``HTTP(S)_PROXY``/``NO_PROXY`` settings of that moment and verifies HTTPS
against the system's CA store. ``generate`` retries timeouts, transport
faults, malformed answers, 5xx, 408 and 429 with exponential backoff, and
fails at once on any other 4xx and on errors no retry can cure (an unknown
sample id, an unsupported decoding strategy). The HTTP and TLS modules load
only when an ``HttpBackend`` is built, so importing this module stays cheap.

``generate_batch`` runs up to ``BackendSpec.max_in_flight`` requests at once
on a thread pool, one worker per slot, also when there is only one slot.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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


def _check_type(config: object, name: str, types: tuple[type, ...], expected: str) -> None:
    """Raise ValueError unless the field is an instance of ``types``; bools never pass."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


def _check_finite(config: object, name: str) -> float:
    """``_check_type`` for a real number a float can hold; returns it as a float.

    nan, the infinities and ints too large for a float raise ValueError.
    """
    _check_type(config, name, (int, float), "a number")
    value = getattr(config, name)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name}: expected a finite number, got an int too large for a float")
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected a finite number, got {number!r}")
    return number


def _check_int(config: object, name: str) -> None:
    """``_check_type`` for an int field that also takes an integral float, stored as an int."""
    value = getattr(config, name)
    if isinstance(value, float) and value.is_integer():
        object.__setattr__(config, name, int(value))
    _check_type(config, name, (int,), "an integer")


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
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        _check_int(self, "k")
        _check_int(self, "max_new_tokens")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "temperature", _check_finite(self, "temperature"))
        _check_type(self, "seed", (int, type(None)), "an integer or null")
        if self.strategy == "sample" and self.temperature <= 0:
            raise ValueError("sampling requires temperature > 0")
        stops = self.stop_sequences
        if not isinstance(stops, (list, tuple)) or not all(isinstance(s, str) for s in stops):
            raise ValueError(f"stop_sequences: expected a list of strings, got {stops!r}")
        object.__setattr__(self, "stop_sequences", tuple(stops))


@dataclass
class BackendSpec:
    """Connection and retry settings. auth_env names an env var, never a secret."""

    endpoint: str = ""
    model: str = ""
    auth_env: str | None = None
    timeout_s: float = 60.0
    max_attempts: int = 3
    backoff_s: float = 0.5
    max_in_flight: int = 1
    extra_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_type(self, "endpoint", (str,), "a string")
        _check_type(self, "model", (str,), "a string")
        _check_type(self, "auth_env", (str, type(None)), "a string or null")
        if _check_finite(self, "timeout_s") <= 0:
            raise ValueError(f"timeout_s: expected a number > 0, got {self.timeout_s!r}")
        _check_type(self, "max_attempts", (int,), "an integer")
        if _check_finite(self, "backoff_s") < 0:
            raise ValueError(f"backoff_s: expected a number >= 0, got {self.backoff_s!r}")
        _check_type(self, "max_in_flight", (int,), "an integer")
        _check_type(self, "extra_params", (Mapping,), "a mapping")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass
class CandidateSet:
    """Candidates for one sample, or the error that prevented them."""

    sample_id: str
    candidates: list[str]
    tokens_generated: list[int]
    wall_time_s: float
    backend_reported: bool
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchResult:
    outcomes: list[CandidateSet]
    total_time_s: float
    synthetic_time: bool


def _transient(exc: GenerationError) -> bool:
    """Whether a retry may succeed: a 4xx other than 408 or 429 repeats itself."""
    if isinstance(exc, BackendError):
        return not 400 <= exc.status < 500 or exc.status in (408, 429)
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

    Candidates are truncated or padded with empty strings to exactly k.
    """

    synthetic = True

    def __init__(self, script: dict, spec: BackendSpec | None = None):
        self.spec = spec if spec is not None else BackendSpec(endpoint="mock:")
        self.strategies = tuple(script.get("strategies", STRATEGIES))
        self.default_latency_s = float(script.get("default_latency_s", 0.0))
        self.samples = script.get("samples", {})
        self._fail_budget = {
            sid: int(entry.get("fail_times", 0)) for sid, entry in self.samples.items()
        }
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str, spec: BackendSpec | None = None) -> "MockBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh), spec)

    def complete(
        self, sample_id: str, prompt: str, cfg: DecodeConfig
    ) -> tuple[list[str], list[int] | None, float]:
        if cfg.strategy not in self.strategies:
            raise CapabilityError(f"mock backend does not support {cfg.strategy!r} decoding")
        entry = self.samples.get(sample_id)
        if entry is None:
            raise UnknownSampleId(f"no scripted entry for sample {sample_id!r}")
        with self._lock:
            if self._fail_budget.get(sample_id, 0) > 0:
                self._fail_budget[sample_id] -= 1
                raise TransportError(f"scripted failure for sample {sample_id!r}")
        candidates = [str(c) for c in entry.get("candidates", [])][: cfg.k]
        candidates += [""] * (cfg.k - len(candidates))
        tokens = entry.get("tokens")
        if tokens is not None:
            tokens = [int(t) for t in tokens][: cfg.k]
            tokens += [0] * (cfg.k - len(tokens))
        latency = float(entry.get("latency_s", self.default_latency_s))
        return candidates, tokens, latency


class HttpBackend:
    """JSON-over-HTTP adapter for completion servers."""

    synthetic = False

    def __init__(self, spec: BackendSpec):
        if not spec.endpoint:
            raise ValueError("HttpBackend needs an endpoint")
        self.spec = spec
        self.headers = {"Content-Type": "application/json"}
        if spec.auth_env:
            token = os.environ.get(spec.auth_env)
            if not token:
                raise ValueError(f"credential env var {spec.auth_env} is not set")
            self.headers["Authorization"] = f"Bearer {token}"
        import ssl
        import urllib.request

        handlers = []
        if spec.endpoint.startswith("https:"):
            # One TLS context for every attempt: each new one reloads the CA store.
            handlers.append(urllib.request.HTTPSHandler(context=ssl.create_default_context()))
        self._opener = urllib.request.build_opener(*handlers)

    def complete(
        self, sample_id: str, prompt: str, cfg: DecodeConfig
    ) -> tuple[list[str], list[int] | None, float | None]:
        import http.client
        import urllib.request
        from urllib.error import HTTPError, URLError

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
        request = urllib.request.Request(
            self.spec.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers=self.headers,
            method="POST",
        )
        try:
            try:
                response = self._opener.open(request, timeout=self.spec.timeout_s)
            except HTTPError as exc:
                response = exc  # an error status; its body is still unread
            with response:
                status, body = response.status, response.read()
        except URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise GenerationTimeout(str(exc.reason))
            raise TransportError(str(exc.reason))
        except TimeoutError as exc:
            raise GenerationTimeout(str(exc))
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(str(exc))
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
            if isinstance(choice.get("tokens"), int):
                tokens.append(choice["tokens"])
            else:
                reported = False
        return candidates, tokens if reported and tokens else None, None


def _approx_tokens(text: str) -> int:
    return len(text.split())


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
    if tokens is None:
        tokens = [_approx_tokens(c) for c in candidates]
        reported = False
    else:
        reported = True
    return CandidateSet(
        sample_id=sample_id,
        candidates=candidates,
        tokens_generated=tokens,
        wall_time_s=wall,
        backend_reported=reported,
        attempts=attempt,
    )


def batch_pool(backend) -> ThreadPoolExecutor:
    """A thread pool with one worker per ``max_in_flight`` slot of ``backend``."""
    return ThreadPoolExecutor(max_workers=max(1, backend.spec.max_in_flight))


def generate_batch(
    prompts: Sequence[tuple[str, str]],
    cfg: DecodeConfig,
    backend,
    *,
    pool: ThreadPoolExecutor,
) -> BatchResult:
    """Generate for (sample_id, prompt) pairs with bounded concurrency.

    Up to ``backend.spec.max_in_flight`` samples run at once on a thread
    pool, also with one slot: generating on the caller's thread instead made
    mock evaluations swing between two speeds from run to run on a shared
    2-vCPU host. Outcomes come back in input order; a failed sample becomes
    an error-bearing CandidateSet rather than aborting the batch. Total time
    is measured once around the whole batch, or summed from scripted
    latencies for a synthetic backend so reports stay reproducible.

    The batch runs on ``pool``, a ``batch_pool`` the caller keeps open across
    its batches and shuts down itself. A fresh pool per batch of 128 mock
    samples made the caller wait on almost every sample in turn, where one
    pool kept open waited on about one in seven.
    """
    ids = [sid for sid, _ in prompts]
    if len(set(ids)) != len(ids):
        raise ValueError("sample ids must be unique within a batch")

    def one(item: tuple[str, str]) -> CandidateSet:
        sid, prompt = item
        try:
            return generate(prompt, cfg, backend, sample_id=sid)
        except GenerationError as exc:
            return CandidateSet(
                sample_id=sid,
                candidates=[],
                tokens_generated=[],
                wall_time_s=0.0,
                backend_reported=False,
                attempts=exc.attempts,
                error=f"{type(exc).__name__}: {exc}",
            )

    start = time.perf_counter()
    outcomes = list(pool.map(one, prompts))
    elapsed = time.perf_counter() - start
    synthetic = bool(getattr(backend, "synthetic", False))
    walls = (o.wall_time_s for o in outcomes)
    return BatchResult(outcomes, batch_time(walls, elapsed, synthetic), synthetic)


def batch_time(walls: Iterable[float], elapsed: float, synthetic: bool) -> float:
    """The time a batch reports: the sum of its samples' wall times, in input
    order, for a synthetic backend, so reports stay reproducible; otherwise
    the ``elapsed`` time measured around it."""
    return sum(walls) if synthetic else elapsed
