"""The names the benchmark's tracer wraps still exist in linefix.

``perfbench/layers.py`` wraps each entry of ``TARGETS`` by name and reads a
name it cannot find as 0 calls, so a rename would silently zero a traced
layer. ``TARGETS`` is read with ``ast`` so perfbench is not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from linefix import client

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# engine.applied_equivalent was deleted (score_batch compares applied results
# itself); perfbench still lists it and reports it as not traced
KNOWN_MISSING = {"engine.applied_equivalent"}


def _targets() -> list[tuple[str, str]]:
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no TARGETS in {LAYERS}")


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


def test_generate_batch_takes_backend_third():
    # perfbench's batch observer reads the backend as args[2]
    params = list(inspect.signature(client.generate_batch).parameters)
    assert params[2] == "backend"
