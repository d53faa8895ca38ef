"""Run one workload's CLI command sequence in this process for a time budget.

Started by ``run.py`` as a child process, so that its peak RSS is the
workload's alone. It runs passes until their summed wall time would pass
``--seconds``, but at least two, so that the outputs of two passes are always
compared; it hashes the outputs after each pass and writes
``runner_result.json`` into the work directory.

Untraced passes time one public per-item call (``SAMPLE_CALLS``) for the
sample latency. With ``--trace 1`` passes alternate untraced and traced; the
traced ones wrap every layer (see ``layers.py``) and the spans of the last
traced pass are written to ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import urllib.parse
import urllib.request
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from linefix.cli import main as cli_main  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

# The per-item call whose durations give the sample latency: in corpus_prep
# the patch derivation of one record, made by every command that reads it, so
# the samples cover the whole pass; in eval_* one sample's candidates,
# retries included.
SAMPLE_CALLS = {
    "corpus_prep": ("linefix.dataset", "derive_patch"),
    "eval_mock": ("linefix.client", "generate"),
    "eval_http": ("linefix.client", "generate"),
}


class CommandFailed(RuntimeError):
    pass


def steps(workload: str, work: str) -> list[tuple[str, list[str]]]:
    """``(command, argv)`` of one pass, paths inside ``work``."""
    p = lambda name: os.path.join(work, name)  # noqa: E731
    if workload == "corpus_prep":
        return [
            ("ingest", ["ingest", "--input", p("raw_train.jsonl"), "--out", p("train.jsonl")]),
            ("ingest", ["ingest", "--input", p("raw_test.jsonl"), "--out", p("test.jsonl")]),
            ("refine", ["refine", "--train", p("train.jsonl"), "--test", p("test.jsonl"),
                        "--out", p("refined.jsonl")]),
            ("export-train", ["export-train", "--records", p("refined.jsonl"),
                              "--out", p("train_export.jsonl")]),
            ("export-train", ["export-train", "--records", p("test.jsonl"),
                              "--out", p("test_export.jsonl")]),
        ]
    backend = (["--mock-script", p("mock_script.json"), "--config", p("mock.yaml")]
               if workload == "eval_mock" else ["--backend-config", p("http.yaml")])
    return [("evaluate", ["evaluate", "--records", p("test_export.jsonl"), *backend,
                          "--k", "10", "--report-dir", p("report")])]  # k: corpus.K


def outputs(workload: str, work: str) -> list[str]:
    """Files a pass writes; each must be byte-identical across passes."""
    if workload == "corpus_prep":
        names = ["train.jsonl", "test.jsonl", "refined.jsonl", "train_export.jsonl",
                 "test_export.jsonl"]
        names += [f"{n}.manifest.json" for n in names]
        names += ["train.jsonl.quarantine.json", "test.jsonl.quarantine.json",
                  "train_export.jsonl.quarantine.json", "test_export.jsonl.quarantine.json"]
        return [os.path.join(work, n) for n in names]
    report = os.path.join(work, "report")
    names = ["report.json", "report.csv", "resolved_config.json"]
    if workload == "eval_mock":
        names.append("report.txt")  # the HTTP text report carries wall time
    return [os.path.join(report, n) for n in names]


def digest(path: str) -> str:
    """sha256 of a pass output; an HTTP report's wall-clock efficiency is left out."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.json":
        report = json.loads(data)
        if not report.get("time_synthetic", True):
            report.pop("efficiency", None)
            data = json.dumps(report, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def invoke(argv: list[str]) -> None:
    try:
        cli_main.main(args=argv, prog_name="linefix", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise CommandFailed(f"linefix {' '.join(argv)} exited {exc.code}") from None


def run_pass(plan: list[tuple[str, list[str]]], tracer: Tracer | None) -> float:
    start = perf_counter()
    for command, argv in plan:
        if tracer is None:
            invoke(argv)
        else:
            tracer.traced(invoke, f"cli.{command}")(argv)
    return perf_counter() - start


def timed_sample_call(workload: str, samples: list[float]):
    """Patch the workload's per-item call to append its successful durations."""
    module = sys.modules[SAMPLE_CALLS[workload][0]]
    attr = SAMPLE_CALLS[workload][1]
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        samples.append(perf_counter() - start)
        return result

    setattr(module, attr, timed)
    return lambda: setattr(module, attr, original)


def reset_stub(endpoint: str) -> None:
    parts = urllib.parse.urlsplit(endpoint)
    url = f"{parts.scheme}://{parts.netloc}/reset"
    request = urllib.request.Request(url, data=b"{}", method="POST")
    with urllib.request.urlopen(request, timeout=10) as resp:
        resp.read()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SAMPLE_CALLS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--endpoint", default=None)
    args = parser.parse_args(argv)

    plan = steps(args.workload, args.work)
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    samples: list[list[float]] = []
    per_pass: list[dict[str, float]] = []
    hashes: list[dict[str, str]] = []
    missing: list[str] = []
    last_tracer = None
    measured = 0.0
    while True:
        traced = bool(args.trace) and len(walls["untraced"]) > len(walls["traced"])
        if args.endpoint:
            reset_stub(args.endpoint)
        if traced:
            tracer = Tracer()
            missing = layers.instrument(tracer)
            try:
                wall = run_pass(plan, tracer)
            finally:
                tracer.restore()
            per_pass.append(layers.layer_metrics(tracer))
            last_tracer = tracer
        else:
            samples.append([])
            restore = timed_sample_call(args.workload, samples[-1])
            try:
                wall = run_pass(plan, None)
            finally:
                restore()
        walls["traced" if traced else "untraced"].append(wall)
        hashes.append({os.path.relpath(p, args.work): digest(p)
                       for p in outputs(args.workload, args.work)})
        measured += wall
        # two passes at least: the byte-identity gate compares their outputs,
        # and with --trace 1 the second one is the traced pass
        if len(hashes) >= 2 and measured + wall > args.seconds:
            break

    if last_tracer is not None:
        last_tracer.write_jsonl(os.path.join(args.work, "spans.jsonl"))
    layer = {}
    if per_pass:
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layer["tracing.overhead_s"] = (statistics.median(walls["traced"])
                                       - statistics.median(walls["untraced"]))
    result = {
        "walls": walls,
        "sample_s": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hashes": hashes,
        "layer_metrics": layer,
        "missing_targets": missing,
    }
    with open(os.path.join(args.work, "runner_result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
