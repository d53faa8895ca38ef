"""Diff kernel: minimality, run shape, tie placement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefix.linediff import edit_runs
from tests.helpers import lcs_length, random_pair, reference_edit_runs


def _changed_counts(runs):
    deleted = sum(a_end - a_start for a_start, a_end, _, _ in runs)
    inserted = sum(b_end - b_start for _, _, b_start, b_end in runs)
    return deleted, inserted


def test_identical_inputs_no_runs():
    assert edit_runs(["a", "b"], ["a", "b"]) == []
    assert edit_runs([], []) == []


def test_pure_insertion():
    assert edit_runs(["a", "c"], ["a", "b", "c"]) == [(1, 1, 1, 2)]


def test_pure_deletion():
    assert edit_runs(["a", "b", "c"], ["a", "c"]) == [(1, 2, 1, 1)]


def test_replacement():
    assert edit_runs(["1", "2", "3"], ["1", "9", "3"]) == [(1, 2, 1, 2)]


def test_empty_sides():
    assert edit_runs([], ["a", "b"]) == [(0, 0, 0, 2)]
    assert edit_runs(["a", "b"], []) == [(0, 2, 0, 0)]


def test_adjacent_changes_merge_into_one_run():
    runs = edit_runs(["a", "x", "y", "d"], ["a", "p", "q", "r", "d"])
    assert runs == [(1, 3, 1, 4)]


def test_runs_separated_by_unchanged_line():
    runs = edit_runs(["a", "x", "b", "y", "c"], ["a", "X", "b", "Y", "c"])
    assert runs == [(1, 2, 1, 2), (3, 4, 3, 4)]


@pytest.mark.parametrize(
    "a,b,expected",
    [
        # repeated lines: the change lands at the earliest position
        (["a", "a"], ["a"], [(0, 1, 0, 0)]),
        (["a"], ["a", "a"], [(0, 0, 0, 1)]),
        (["", "x", ""], [""], [(0, 2, 0, 0)]),
        (["{", "}", "{", "}"], ["{", "}"], [(0, 2, 0, 0)]),
    ],
)
def test_ambiguity_resolves_earliest(a, b, expected):
    assert edit_runs(a, b) == expected


def test_minimality_against_dp_oracle():
    rng = random.Random(0xD1FF)
    for case_no in range(250):
        before, after = random_pair(rng, case_no)
        a, b = list(before.lines), list(after.lines)
        runs = edit_runs(a, b)
        deleted, inserted = _changed_counts(runs)
        lcs = lcs_length(a, b)
        assert deleted == len(a) - lcs, (a, b, runs)
        assert inserted == len(b) - lcs, (a, b, runs)


def test_run_shape_invariants():
    rng = random.Random(0xA11)
    for case_no in range(250):
        before, after = random_pair(rng, case_no)
        runs = edit_runs(list(before.lines), list(after.lines))
        prev_a = prev_b = -1
        for a_start, a_end, b_start, b_end in runs:
            assert 0 <= a_start <= a_end
            assert 0 <= b_start <= b_end
            assert a_end > a_start or b_end > b_start  # no empty runs
            # ascending with at least one unchanged line between runs
            assert a_start > prev_a and b_start > prev_b
            prev_a, prev_b = a_end, b_end


# Exact agreement with the per-line reference kernel, not just minimality.
ALPHABETS = (("a", "b"), ("", "{", "}", "a"))


@st.composite
def line_pairs(draw):
    alphabet = st.sampled_from(draw(st.sampled_from(ALPHABETS)))
    a = draw(st.lists(alphabet, max_size=40))
    if draw(st.booleans()):
        return a, draw(st.lists(alphabet, max_size=40))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(b)))
        stop = draw(st.integers(start, min(len(b), start + 4)))
        b[start:stop] = draw(st.lists(alphabet, max_size=4))
    return a, b


@settings(deadline=None, max_examples=400)
@given(line_pairs(), st.booleans(), st.booleans())
def test_matches_reference_kernel(pair, a_as_tuple, b_as_tuple):
    a, b = pair
    a = tuple(a) if a_as_tuple else a
    b = tuple(b) if b_as_tuple else b
    assert edit_runs(a, b) == reference_edit_runs(a, b)


SNAKE_LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65)


def _snake_cases(n):
    """(a, b, expected runs) around an unchanged stretch of ``n`` lines."""
    common = [f"line {i}" for i in range(n)]
    return [
        (common, list(common), []),
        (["old", *common], ["new", *common], [(0, 1, 0, 1)]),
        ([*common, "old"], [*common, "new"], [(n, n + 1, n, n + 1)]),
        (["old", *common, "old"], ["new", *common, "new"], [(0, 1, 0, 1), (n + 1, n + 2, n + 1, n + 2)]),
        (common, [*common, "new"], [(n, n, n, n + 1)]),
        (["old", *common], common, [(0, 1, 0, 0)]),
        ([""] * (n + 1), [""] * n, [(0, 1, 0, 0)]),
        (["{", *[""] * n, "}"], ["{", *[""] * (n + 1), "}"], [(1, 1, 1, 2)]),
    ]


@pytest.mark.parametrize("n", SNAKE_LENGTHS)
def test_snakes_across_galloping_widths(n):
    for a, b, expected in _snake_cases(n):
        assert edit_runs(a, b) == expected, (n, a, b)
        assert edit_runs(tuple(a), b) == reference_edit_runs(a, b), (n, a, b)
