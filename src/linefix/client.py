"""Completion-backend client: decoding config, retries, bounded concurrency.

Two backends share one small wire contract. ``HttpBackend`` POSTs
``{prompt, n, max_tokens, stop, temperature | num_beams, ...}`` as JSON and
expects ``{"choices": [{"text": ..., "tokens": ...?}, ...]}`` back, which maps
onto common completion-serving APIs via ``BackendSpec.extra_params``. Both
backends hold token counts to one rule (``_check_number``, an integer >= 0):
a script that breaks it is refused, and an answer whose counts miss or break it
gets whitespace-split estimates, as a script without counts does.
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

``generate_batch`` returns a batch's outcomes in input order and keeps no clock.
It runs up to ``BackendSpec.max_in_flight`` requests at once on a thread pool,
one worker per slot, also when there is only one slot.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
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


def _check_type(name: str, value: object, types: tuple[type, ...], expected: str) -> None:
    """Raise ValueError unless ``value`` is an instance of ``types``; bools never pass."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


def check_mapping(name: str, value: object, known: tuple[str, ...]) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a mapping of ``known`` keys."""
    _check_type(name, value, (Mapping,), "a mapping")
    for key in value:
        if key not in known:
            raise ValueError(f"{name}: unknown key {key!r}; expected one of {', '.join(known)}")


def _integral(value: object) -> object:
    """An integral float as the int it holds; any other value unchanged."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _check_number(name: str, value: object, *, integer: bool = False,
                  low: float | None = None, above: bool = False, null: bool = False):
    """The one rule for every numeric setting; returns ``value`` as an int or a float.

    ``integer`` asks for an int, which may be given as an integral float;
    otherwise any real number a float can hold is returned as a float. ``low``
    is the least value allowed, or the bound to stay ``above``, and ``null``
    lets None through. Anything else raises ValueError; bools never pass.
    """
    if null and value is None:
        return None
    kind = "an integer" if integer else "a number"
    expected = f"{kind} or null" if null else kind
    if integer:
        value = number = _integral(value)
        _check_type(name, value, (int,), expected)
    else:
        _check_type(name, value, (int, float), expected)
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name}: expected a finite number, got an int too large for a float")
        if not math.isfinite(number):
            raise ValueError(f"{name}: expected a finite number, got {number!r}")
    if low is not None and (number <= low if above else number < low):
        raise ValueError(f"{name}: expected {kind} {'>' if above else '>='} {low}, got {value!r}")
    return number


def check_list(name: str, value: object, item: type, expected: str) -> None:
    """Raise ValueError unless ``value`` is a list or tuple of ``item``s; bools never pass."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, item) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


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
            object.__setattr__(self, name, _check_number(name, getattr(self, name), **rule))
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
        _check_type("endpoint", self.endpoint, (str,), "a string")
        _check_type("model", self.model, (str,), "a string")
        _check_type("auth_env", self.auth_env, (str, type(None)), "a string or null")
        if self.auth_env == "":
            raise ValueError("auth_env: expected an environment variable name or null, got ''")
        for name, rule in (("timeout_s", {"low": 0, "above": True}), ("backoff_s", {"low": 0}),
                           ("max_attempts", {"integer": True, "low": 1}),
                           ("max_in_flight", {"integer": True, "low": 1})):
            object.__setattr__(self, name, _check_number(name, getattr(self, name), **rule))
        _check_type("extra_params", self.extra_params, (Mapping,), "a mapping")


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

    Candidates are truncated or padded with empty strings to exactly k. The
    script's shape and keys are checked once, here: a fault raises ValueError.
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
        default_latency = _check_number(
            "default_latency_s", script.get("default_latency_s", 0.0), low=0)
        samples = script.get("samples", {})
        _check_type("samples", samples, (Mapping,), "a mapping")
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
                if isinstance(tokens, (list, tuple)):
                    tokens = [_integral(t) for t in tokens]
                check_list(f"{at}.tokens", tokens, int, "a list of integers")
                for i, count in enumerate(tokens):
                    _check_number(f"{at}.tokens[{i}]", count, integer=True, low=0)
            fail_times = _check_number(
                f"{at}.fail_times", entry.get("fail_times", 0), integer=True, low=0)
            latency = _check_number(
                f"{at}.latency_s", entry.get("latency_s", default_latency), low=0)
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
        scripted, tokens, latency = entry
        candidates = scripted[: cfg.k]
        candidates += [""] * (cfg.k - len(candidates))
        if tokens is not None:
            tokens = tokens[: cfg.k]
            tokens += [0] * (cfg.k - len(tokens))
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
            try:  # the count rule MockBackend applies to its scripted tokens
                tokens.append(_check_number("tokens", choice.get("tokens"), integer=True, low=0))
            except ValueError:
                reported = False
        return candidates, tokens if reported and tokens else None, None


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
    reported = tokens is not None  # else a whitespace-split estimate
    return CandidateSet(
        sample_id=sample_id,
        candidates=candidates,
        tokens_generated=tokens if reported else [len(c.split()) for c in candidates],
        wall_time_s=wall,
        backend_reported=reported,
        attempts=attempt,
    )


def batch_pool(backend) -> ThreadPoolExecutor:
    """A thread pool with one worker per ``max_in_flight`` slot of ``backend``."""
    return ThreadPoolExecutor(max_workers=backend.spec.max_in_flight)


def generate_batch(
    prompts: Sequence[tuple[str, str]],
    cfg: DecodeConfig,
    backend,
    *,
    pool: ThreadPoolExecutor,
) -> list[CandidateSet]:
    """Generate for (sample_id, prompt) pairs with bounded concurrency.

    Up to ``backend.spec.max_in_flight`` samples run at once on a thread
    pool, also with one slot: generating on the caller's thread instead made
    mock evaluations swing between two speeds from run to run on a shared
    2-vCPU host. Outcomes come back in input order; a failed sample becomes
    an error-bearing CandidateSet rather than aborting the batch.

    The batch runs on ``pool``, a ``batch_pool`` the caller keeps open across
    its batches and shuts down itself; a fresh pool per batch made the caller
    wait on almost every sample in turn. Each sample is its own task, and the
    caller waits once for the whole batch, not once for each result in turn.
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

    futures = [pool.submit(one, item) for item in prompts]
    wait(futures)
    return [f.result() for f in futures]
