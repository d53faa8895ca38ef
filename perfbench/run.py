"""Seeded end-to-end benchmark of the linefix pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_prep --seed 1 --seconds 20 --trace 0

Workloads (see README.md next to this file for why each exists):

* ``corpus_prep``: ``ingest`` (train, test), ``refine``, ``export-train``
  (train, test) on a seeded raw corpus of 5,000 train and 1,000 test records.
* ``eval_mock``: ``evaluate`` of the exported test split against a mock
  backend script with k=10 planted candidates per sample.
* ``eval_http``: the same evaluation through the HTTP backend against a stub
  server in its own process, two callers in a closed loop.

The workload runs in a child process (``runner.py``), untraced with
``--trace 0`` and alternately untraced and traced with ``--trace 1``. This
process generates the inputs, starts and stops the stub, checks every output
against the generator's oracle and prints one metric per line, then the
result as one JSON object on the last line. A failed correctness gate makes
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCHMARKS = os.path.join(ROOT, "benchmarks")

WORKLOADS = ("corpus_prep", "eval_mock", "eval_http")
# Fresh imports timed before the workload and as many again after it; their
# median is setup_s. The host's speed drifts, so the two groups let the
# median cover the whole run rather than its first few seconds.
SETUP_REPEATS = 6
# Two HTTP callers because the machine the benchmark was sized on has two
# cores. The mock never waits, so a second caller would only contend for the
# interpreter lock and blur the per-sample times. The small backoff is the
# deployment's retry delay against a local server.
BACKEND = {"max_attempts": 3, "backoff_s": 0.005, "max_in_flight": 2, "timeout_s": 30}
MOCK_BACKEND = {**BACKEND, "max_in_flight": 1}

END_TO_END = [
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("sample_latency_p50_ms", "ms"),
    ("sample_latency_p99_ms", "ms"),
    ("failed_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
]


def time_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing ``linefix.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import linefix.cli"]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls every 50 ms, which would
        # round each time up to that grid; the timer only stops a hung import
        guard = threading.Timer(60, proc.kill)
        guard.start()
        code = proc.wait()
        times.append(perf_counter() - start)
        guard.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def prepare(workload: str, seed: int, work: str) -> dict:
    """Generate the workload's input files and oracle side-files into ``work``."""
    import corpus
    from runner import invoke

    if workload == "corpus_prep":
        info = corpus.write_corpus(seed, work)
        return {"items": info["input_records"]}
    corpus.write_corpus(seed, work, with_train=False)
    export = os.path.join(work, "test_export.jsonl")
    invoke(["export-train", "--records", os.path.join(work, "raw_test.jsonl"), "--out", export])
    info = corpus.write_candidates(seed, export, work)
    write_json(os.path.join(work, "mock.yaml"), {"backend": MOCK_BACKEND})
    return {"items": info["samples"], "oracle_samples": info["oracle_samples"]}


class Stub:
    """The stub completion server as a child process."""

    def __init__(self, work: str):
        self.log = open(os.path.join(work, "stub.log"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub_server.py"),
             "--table", os.path.join(work, "stub_table.jsonl")],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub server did not report its port")
        self.endpoint = f"http://127.0.0.1:{int(line)}/v1/completions"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def run_child(args, work: str, endpoint: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), "--workload", args.workload,
           "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if endpoint:
        cmd += ["--endpoint", endpoint]
    log_path = os.path.join(work, "runner.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=150)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"workload runner exited {proc.returncode}")
    with open(os.path.join(work, "runner_result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, work: str, inputs: dict, result: dict):
    """``(attempted, failed, gates)`` of one pass; gates also cover every pass."""
    import verify

    gates = {"outputs_identical_across_passes": verify.check_deterministic(result["hashes"])}
    if workload == "corpus_prep":
        attempted, failed, more = verify.check_corpus(work)
        gates.update(more)
        return attempted, failed, gates
    attempted, failed, more, hits = verify.check_eval(
        os.path.join(work, "report"), inputs["oracle_samples"])
    gates.update(more)
    if workload == "eval_http":
        from runner import invoke, steps

        mock_dir = os.path.join(work, "mock_check")
        argv = steps("eval_mock", work)[0][1]
        invoke(argv[:-1] + [mock_dir])
        *_, mock_hits = verify.check_eval(mock_dir, inputs["oracle_samples"])
        gates["hit_vector_equals_eval_mock"] = hits == mock_hits
    return attempted, failed, gates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(SRC, "linefix", "cli.py"), os.path.join(BENCHMARKS, "bench_diff.py")):
        if not os.path.isfile(needed):
            print(f"error: run from the repository root; {needed} is missing", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, BENCHMARKS, HERE]
    import layers

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setup_times = []
    if not args.trace:
        time_setup(1)  # fills the file cache and writes the bytecode
        setup_times = time_setup(SETUP_REPEATS)
    inputs = prepare(args.workload, args.seed, work)
    stub = None
    try:
        if args.workload == "eval_http":
            stub = Stub(work)
            write_json(os.path.join(work, "http.yaml"),
                       {"backend": {**BACKEND, "endpoint": stub.endpoint}})
        result = run_child(args, work, stub.endpoint if stub else None)
    finally:
        if stub is not None:
            stub.close()
    if not args.trace:
        setup_times += time_setup(SETUP_REPEATS)
    attempted, failed, gates = check(args.workload, work, inputs, result)

    untraced = result["walls"]["untraced"]
    passes = len(untraced) + len(result["walls"]["traced"])
    if args.trace:
        metrics = {name: (result["layer_metrics"].get(name, 0), unit)
                   for name, unit, _ in layers.PER_LAYER}
    else:
        per_pass = result["sample_s"]
        gates["sample_latencies_recorded"] = all(per_pass)
        # each pass's percentile, then the median over passes, so a pass
        # that met a host hiccup does not move the tail
        latency = {q: statistics.median(layers.percentile(p, q) for p in per_pass) * 1e3
                   for q in (50, 99)}
        values = {
            "setup_s": statistics.median(setup_times),
            "records_per_s": inputs["items"] / statistics.median(untraced),
            "sample_latency_p50_ms": latency[50],
            "sample_latency_p99_ms": latency[99],
            "failed_fraction": failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    for name, ok in gates.items():
        print(f"gate {name}: {'ok' if ok else 'FAILED'}")
    if result["missing_targets"]:
        print("not traced (missing): " + ", ".join(result["missing_targets"]))
    print(f"passes {passes} (untraced walls: {', '.join(f'{w:.3f}' for w in untraced)} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = all(gates.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted * passes,
        "failed": failed * passes,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    for name in os.listdir(work):
        if name.endswith(".jsonl") and name != "spans.jsonl":
            os.remove(os.path.join(work, name))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
