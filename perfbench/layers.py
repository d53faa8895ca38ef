"""The layers of linefix as the traced run sees them, and their metrics.

Each layer is one module of the package. ``instrument`` wraps that module's
public functions (and ``VulnRecord.validate`` and the backends' ``complete``)
under the span name ``<module>.<function>``; ``layer_metrics`` turns one
traced pass into the per-layer metrics listed in ``PER_LAYER``.

A function the program no longer has is skipped and reads as 0 calls.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict

from tracer import Tracer, self_times

# (module, attribute, observer name or None); the span is "<module>.<attr>"
# except for methods, named in SPAN_NAMES.
TARGETS = [
    ("linediff", "edit_runs", "lines"),
    ("engine", "derive_patch", None),
    ("engine", "apply_patch", None),
    ("engine", "validate_patch", None),
    ("engine", "applied_equivalent", None),
    ("prompting", "build_prompt", None),
    ("prompting", "parse_prompt", None),
    ("prompting", "render_training_example", None),
    ("prompting", "VulnRecord.validate", None),
    ("patchfmt", "parse_patch", None),
    ("patchfmt", "serialize_patch", None),
    ("source", "from_text", None),
    ("source", "to_text", None),
    ("source", "number_lines", None),
    ("dataset", "ingest", "ingest"),
    ("dataset", "refine", None),
    ("dataset", "compute_fingerprint", None),
    ("dataset", "export_jsonl", "export"),
    ("dataset", "write_records_jsonl", None),
    ("client", "generate", None),
    ("client", "generate_batch", "batch"),
    ("client", "HttpBackend.complete", None),
    ("client", "MockBackend.complete", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "score_batch", "score"),
    ("evaluation", "render_report", None),
]

SPAN_NAMES = {
    "VulnRecord.validate": "prompting.validate",
    "HttpBackend.complete": "client.complete",
    "MockBackend.complete": "client.complete",
}

CLI_COMMANDS = ("ingest", "refine", "export-train", "evaluate")
CLIENT_ERRORS = ("BackendError", "TransportError", "GenerationTimeout", "MalformedResponse", "other")


def span_name(module: str, attr: str) -> str:
    return SPAN_NAMES.get(attr, f"{module}.{attr}")


def _observe_lines(tracer: Tracer, args: tuple, result, duration: float) -> None:
    tracer.count("linediff.lines_in", len(args[0]) + len(args[1]))


def _observe_ingest(tracer: Tracer, args: tuple, result, duration: float) -> None:
    quarantined = len(getattr(result, "quarantined", ()))
    tracer.count("dataset.records_in", len(getattr(result, "records", ())) + quarantined)
    tracer.count("dataset.quarantined", quarantined)


def _observe_export(tracer: Tracer, args: tuple, result, duration: float) -> None:
    tracer.count("dataset.quarantined", len(getattr(result, "quarantined", ())))


def _observe_batch(tracer: Tracer, args: tuple, result, duration: float) -> None:
    in_flight = getattr(getattr(args[2], "spec", None), "max_in_flight", 1)
    tracer.count("client.batch_capacity_s", duration * in_flight)


def _observe_score(tracer: Tracer, args: tuple, result, duration: float) -> None:
    tracer.count("evaluation.pp_hits", getattr(result, "pp_hits", 0))
    tracer.count("evaluation.format_errors", getattr(result, "format_error_count", 0))
    tracer.count("evaluation.applied_equivalent_misses",
                 getattr(result, "applied_equivalent_misses", 0))


OBSERVERS = {
    "lines": _observe_lines,
    "ingest": _observe_ingest,
    "export": _observe_export,
    "batch": _observe_batch,
    "score": _observe_score,
}


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every target in the loaded ``linefix`` modules; returns missing targets."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "linefix" or name.startswith("linefix."))]
    missing = []
    for module_name, attr, observer in TARGETS:
        module = sys.modules.get(f"linefix.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        name = span_name(module_name, attr)
        observe = OBSERVERS.get(observer)
        if owner_name and owner is not None and method in vars(owner):
            tracer.wrap_method(owner, method, name, observe)
        elif not owner_name and callable(getattr(module, attr, None)):
            tracer.wrap_function(modules, getattr(module, attr), name, observe)
        else:
            missing.append(f"linefix.{module_name}.{attr}")
    executor = getattr(sys.modules.get("linefix.client"), "ThreadPoolExecutor", None)
    if executor is not None:
        tracer.link_executor(modules, executor)
    return missing


SPAN_METRICS = list(dict.fromkeys(span_name(module, attr) for module, attr, _ in TARGETS))


def _per_layer() -> list[tuple[str, str, str]]:
    out = []
    for name in SPAN_METRICS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [
        ("linediff.edit_runs.p99_us", "us", "lower"),
        ("linediff.lines_in", "count", "lower"),
        ("engine.apply_patch.per_record", "calls/record", "lower"),
        ("prompting.validate.per_record", "calls/record", "lower"),
        ("patchfmt.parse_patch.errors", "count", "lower"),
        ("dataset.quarantined", "count", "lower"),
        ("client.complete.p50_ms", "ms", "lower"),
        ("client.complete.p99_ms", "ms", "lower"),
        ("client.attempts", "count", "lower"),
        ("client.retries", "count", "lower"),
    ]
    out += [(f"client.errors.{cls}", "count", "lower") for cls in CLIENT_ERRORS]
    out += [
        ("client.inflight_utilization", "ratio", "higher"),
        ("evaluation.pp_hits", "count", "higher"),
        ("evaluation.format_errors", "count", "lower"),
        ("evaluation.applied_equivalent_misses", "count", "lower"),
    ]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.self_s", "s", "lower")]
    out += [("tracing.overhead_s", "s", "lower"), ("tracing.spans", "count", "lower")]
    return out


# (name, unit, better) of every metric the traced run reports.
PER_LAYER = _per_layer()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``tracing.overhead_s`` excepted)."""
    selfs = self_times(tracer.spans)
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    total_s: Counter[str] = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    errors: dict[str, Counter[str]] = defaultdict(Counter)
    for sid, _, name, start, end, error in tracer.spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        total_s[name] += end - start
        durations[name].append(end - start)
        if error is not None:
            errors[name][error] += 1

    m: dict[str, float] = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    c = tracer.counters
    records_in = c["dataset.records_in"]
    m["linediff.edit_runs.p99_us"] = percentile(durations["linediff.edit_runs"], 99) * 1e6
    m["linediff.lines_in"] = c["linediff.lines_in"]
    m["engine.apply_patch.per_record"] = calls["engine.apply_patch"] / records_in if records_in else 0.0
    m["prompting.validate.per_record"] = calls["prompting.validate"] / records_in if records_in else 0.0
    m["patchfmt.parse_patch.errors"] = sum(errors["patchfmt.parse_patch"].values())
    m["dataset.quarantined"] = c["dataset.quarantined"]
    complete = durations["client.complete"]
    m["client.complete.p50_ms"] = percentile(complete, 50) * 1e3
    m["client.complete.p99_ms"] = percentile(complete, 99) * 1e3
    m["client.attempts"] = len(complete)
    m["client.retries"] = max(0, len(complete) - calls["client.generate"])
    for cls in CLIENT_ERRORS:
        m[f"client.errors.{cls}"] = 0
    for cls, n in errors["client.complete"].items():
        key = f"client.errors.{cls}" if cls in CLIENT_ERRORS else "client.errors.other"
        m[key] += n
    capacity = c["client.batch_capacity_s"]
    m["client.inflight_utilization"] = total_s["client.generate"] / capacity if capacity else 0.0
    for key in ("evaluation.pp_hits", "evaluation.format_errors",
                "evaluation.applied_equivalent_misses"):
        m[key] = c[key]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = total_s[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
    m["tracing.spans"] = len(tracer.spans)
    return m
