"""The names the benchmark's tracer and sample timer wrap still exist in linefix.

``perfbench/layers.py`` wraps each entry of ``TARGETS`` by name and reads a
name it cannot find as 0 calls, so a rename would silently zero a traced
layer. ``perfbench/runner.py`` times each workload's ``SAMPLE_CALLS`` entry
by patching that module attribute, so a name the module stopped exposing
would leave the sample latency with no samples. The score observer reads
counts off ``score_batch``'s result with ``getattr`` and a default of 0, so a
result that lost one of those attributes would zero its traced count. The
tables and the observer are read with ``ast`` so perfbench is not imported.

The benchmark's records are drawn by ``synth_pair`` in
``benchmarks/bench_diff.py``, so its draws are pinned by a digest, and that
file may import nothing that would load into the benchmark runner's own
process and raise the floor of its measured memory.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import random
import runpy
from pathlib import Path

from linefix.evaluation import score_batch
from tests.test_evaluation import REFERENCE, outcomes, record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
RUNNER = PERFBENCH / "runner.py"
SYNTH = PERFBENCH.parent / "benchmarks" / "bench_diff.py"

# engine.applied_equivalent was deleted (score_batch compares applied results
# itself); dataset.ingest, the list dataset.refine and client.generate_batch were
# deleted as copies of dataset.stream, LeakFilter and client.submit_batch, and each
# read 0 calls on every workload before its deletion. perfbench still lists all
# four and reports them as not traced.
KNOWN_MISSING = {
    "engine.applied_equivalent",
    "dataset.ingest",
    "dataset.refine",
    "client.generate_batch",
}


def _literal(path: Path, name: str):
    """The literal value a module-level assignment binds to ``name``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


def _targets() -> list[tuple[str, str]]:
    return [(module, attr) for module, attr, _ in _literal(LAYERS, "TARGETS")]


def _resolves(module_name: str, attr: str) -> bool:
    module = importlib.import_module(f"linefix.{module_name}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        return name in vars(getattr(module, owner_name, object))
    return callable(getattr(module, name, None))


def test_every_traced_target_resolves():
    targets = _targets()
    missing = {f"{m}.{a}" for m, a in targets if not _resolves(m, a)}
    assert missing == KNOWN_MISSING
    assert len(targets) > len(KNOWN_MISSING)


def test_every_sample_call_resolves():
    calls = _literal(RUNNER, "SAMPLE_CALLS")
    assert calls
    for module, attr in calls.values():
        assert module.startswith("linefix.")
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_score_batch_result_has_every_attribute_the_score_observer_reads():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    (observer,) = [n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "_observe_score"]
    names = {call.args[1].value for call in ast.walk(observer)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"}
    assert names
    result = score_batch([record("r0")], outcomes([[REFERENCE]]))
    assert [n for n in sorted(names) if not hasattr(result, n)] == []
    assert result.pp_hits == 1


def test_the_synthetic_fixes_are_the_ones_the_benchmark_was_measured_on():
    synth = runpy.run_path(str(SYNTH))
    pairs = [synth["synth_pair"](random.Random(seed), lines, edits)
             for seed, lines, edits in [(1, 20, 1), (2, 200, 3), (3, 800, 48)]]
    digest = hashlib.sha256(json.dumps([synth["VOCAB"], pairs]).encode()).hexdigest()
    assert digest == "9979b36c768366d82997eaed9c0c7a8f6d4fd7500e3aa4553b3f9b28375d68d5"


def test_the_synthetic_fix_generator_imports_only_the_standard_random():
    imported = set()
    for node in ast.walk(ast.parse(SYNTH.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "random"}
