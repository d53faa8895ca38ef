"""The names the benchmark's tracer and sample timer wrap still exist in linefix.

``perfbench/layers.py`` wraps each entry of ``TARGETS`` by name and reads a
name it cannot find as 0 calls, so a rename would silently zero a traced
layer. ``perfbench/runner.py`` times each workload's ``SAMPLE_CALLS`` entry
by patching that module attribute, so a name the module stopped exposing
would leave the sample latency with no samples. The score observer reads
counts off ``score_batch``'s result with ``getattr`` and a default of 0, so a
result that lost one of those attributes would zero its traced count. The
tables and the observer are read with ``ast`` so perfbench is not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from linefix import client
from linefix.evaluation import score_batch
from tests.test_evaluation import REFERENCE, outcomes, record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
RUNNER = PERFBENCH / "runner.py"

# engine.applied_equivalent was deleted (score_batch compares applied results
# itself); perfbench still lists it and reports it as not traced
KNOWN_MISSING = {"engine.applied_equivalent"}


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


def test_generate_batch_takes_backend_third():
    # perfbench's batch observer reads the backend as args[2]
    params = list(inspect.signature(client.generate_batch).parameters)
    assert params[2] == "backend"


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
