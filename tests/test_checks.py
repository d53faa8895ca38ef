"""The shared shape rules in ``linefix.checks``, and the modules that use them."""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from linefix import dataset
from linefix.checks import repeats
from linefix.errors import LinefixError
from tests.test_dataset import raw_row

SRC = Path(__file__).resolve().parents[1] / "src" / "linefix"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _vuln_lines_shape_fault(value: object) -> bool:
    """Whether a raw row whose ``vuln_lines`` is ``value`` fails the row's shape rules."""
    try:
        dataset._record_from_raw(raw_row(0, vuln_lines=value))
    except ValueError:
        return True
    except LinefixError:  # a well-shaped row that breaks a record invariant is quarantined
        pass
    return False


@settings(deadline=None, max_examples=300)
@given(JSON_VALUES | st.lists(st.integers(min_value=0, max_value=4), max_size=4))
def test_the_vuln_lines_rule_accepts_what_the_old_rule_accepted(value):
    # the rule the records reader kept before it shared checks.check_list;
    # type, not isinstance: a bool is an int but no line number
    old_rule = isinstance(value, list) and all(type(i) is int for i in value)
    absent = value is None  # a null vuln_lines is a missing field, not a fault
    assert _vuln_lines_shape_fault(value) == (not absent and not old_rule)


@given(st.lists(st.none() | st.integers(min_value=0, max_value=3) | st.sampled_from("ab")))
def test_repeats_are_the_items_an_earlier_item_equals(xs):
    assert repeats(xs) == [x for i, x in enumerate(xs) if x in xs[:i]]
    assert repeats(iter(xs)) == repeats(xs)


def _imports(module: str) -> set[str]:
    """The modules that ``linefix/<module>.py`` imports, or imports names from.

    ``from linefix import client`` counts as importing ``linefix.client``.
    """
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            if node.module == "linefix":
                names.update(f"linefix.{alias.name}" for alias in node.names)
    return names


def test_checks_imports_only_the_standard_library_it_needs():
    # so every module that reads input can share the rules without the client's machinery
    assert _imports("checks") <= {"__future__", "math", "collections.abc"}


def test_dataset_imports_nothing_from_the_client():
    assert "linefix.client" not in _imports("dataset")
