"""Validation, application, derivation: goldens plus independent oracles."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from linefix.engine import apply_patch, derive_patch, validate_patch
from linefix.errors import ConflictingSpans, InvalidPatch, PatchFormatError
from linefix.patchfmt import EditSpan, PatchSet, parse_patch, round_trips, serialize_patch
from linefix.source import SourceUnit, to_text
from tests.conftest import (
    STB_INSERT_AFTER,
    STB_INSERTED_LINE,
    VPX_REFERENCE_PATCH_TEXT,
)
from tests.helpers import (
    before_ranges,
    no_text_form,
    random_pair,
    reference_edit_runs,
    random_patchset,
    shifted_sequential_apply,
    splice_apply,
)

SRC = SourceUnit(tuple(f"line {i}" for i in range(10)), had_trailing_newline=True)


# --- validation ---------------------------------------------------------------


def test_validate_ok_patch():
    validate_patch(SRC, PatchSet((EditSpan(2, 4, ("x",)),)))


def test_validate_out_of_range():
    # spans given out of order are numbered in anchor order; in-range ones are not named
    patch = PatchSet((EditSpan(11, 14, ("y",)), EditSpan(1, 3, ()), EditSpan(8, 11, ("x",))))
    message = "span 1: span 8-11 outside [-1, 10]; span 2: span 11-14 outside [-1, 10]"
    with pytest.raises(InvalidPatch, match=f"^{re.escape(message)}$"):
        validate_patch(SRC, patch)


def test_validate_duplicate_and_overlap():
    # conflicting spans never reach validate_patch: the PatchSet cannot be built
    with pytest.raises(ConflictingSpans, match="duplicate span 1-3"):
        PatchSet((EditSpan(1, 3, ("a",)), EditSpan(1, 3, ("b",))))
    with pytest.raises(ConflictingSpans, match="span 1-5 overlaps 2-7"):
        PatchSet((EditSpan(1, 5, ("a",)), EditSpan(2, 7, ("b",))))


# --- application ----------------------------------------------------------------


def test_apply_replacement():
    out = apply_patch(SRC, PatchSet((EditSpan(2, 5, ("A", "B")),)))
    assert out.lines == (
        "line 0", "line 1", "line 2", "A", "B", "line 5",
        "line 6", "line 7", "line 8", "line 9",
    )


def test_apply_insertion_deletion_noop():
    ins = apply_patch(SRC, PatchSet((EditSpan(0, 1, ("new",)),)))
    assert ins.lines[:3] == ("line 0", "new", "line 1")
    dele = apply_patch(SRC, PatchSet((EditSpan(0, 3, ()),)))
    assert dele.lines[:2] == ("line 0", "line 3")
    noop = apply_patch(SRC, PatchSet((EditSpan(0, 1, ()),)))
    assert noop.lines == SRC.lines


def test_apply_at_boundaries():
    top = apply_patch(SRC, PatchSet((EditSpan(-1, 0, ("first",)),)))
    assert top.lines[0] == "first"
    n = len(SRC.lines)
    end = apply_patch(SRC, PatchSet((EditSpan(n - 1, n, ("last",)),)))
    assert end.lines[-1] == "last"
    whole = apply_patch(SRC, PatchSet((EditSpan(-1, n, ("only",)),)))
    assert whole.lines == ("only",)


def test_apply_empty_patch_is_identity():
    assert apply_patch(SRC, PatchSet(())) == SRC


def test_apply_preserves_flags():
    for flag in (False, True):
        src = SourceUnit(("a", "b"), had_trailing_newline=flag)
        out = apply_patch(src, PatchSet((EditSpan(0, 1, ("x",)),)))
        assert out == SourceUnit(("a", "x", "b"), had_trailing_newline=flag)


def test_apply_rejects_invalid():
    with pytest.raises(InvalidPatch):
        apply_patch(SRC, PatchSet((EditSpan(8, 12, ("x",)),)))
    with pytest.raises(ConflictingSpans):
        PatchSet((EditSpan(1, 4, ("a",)), EditSpan(2, 6, ("b",))))


def test_apply_matches_splice_oracle():
    rng = random.Random(0x5EED)
    for _ in range(300):
        patch = random_patchset(rng, max_line=40)
        n = max(s.line_af for s in patch.spans)
        lines = tuple(f"L{i}" for i in range(n + rng.randrange(3)))
        src = SourceUnit(lines, had_trailing_newline=True)
        assert list(apply_patch(src, patch).lines) == splice_apply(lines, patch)


def test_apply_is_order_independent():
    rng = random.Random(0x0BD)
    for _ in range(120):
        patch = random_patchset(rng, max_line=30)
        n = max(s.line_af for s in patch.spans)
        lines = tuple(f"L{i}" for i in range(n + 2))
        expected = splice_apply(lines, patch)
        indices = list(range(len(patch.spans)))
        orders = (
            list(itertools.permutations(indices))
            if len(indices) <= 3
            else [rng.sample(indices, len(indices)) for _ in range(6)]
        )
        for order in orders:
            assert shifted_sequential_apply(lines, patch, list(order)) == expected


# --- derivation ------------------------------------------------------------------


def test_derive_reference_golden(vpx_source, vpx_record):
    patch, _ = derive_patch(vpx_source, apply_patch(vpx_source, vpx_record.reference_patch))
    assert serialize_patch(patch) == VPX_REFERENCE_PATCH_TEXT


def test_derive_insertion_golden(stb_before, stb_after):
    patch, changed = derive_patch(stb_before, stb_after)
    assert changed == []  # a pure insertion replaces no line
    assert len(patch) == 1
    s = patch.spans[0]
    assert (s.line_bef, s.line_af) == (STB_INSERT_AFTER, STB_INSERT_AFTER + 1)
    assert s.body == (STB_INSERTED_LINE,)


def test_derive_identity_is_empty():
    assert derive_patch(SRC, SRC) == (PatchSet(()), [])


def test_derive_apply_inversion_randomized():
    rng = random.Random(0xBEEF)
    for case_no in range(400):
        before, after = random_pair(rng, case_no)
        patch, changed = derive_patch(before, after)
        assert apply_patch(before, patch).lines == after.lines
        assert changed == before_ranges(reference_edit_runs(before.lines, after.lines))
        validate_patch(before, patch)
        assert round_trips(patch) != no_text_form(before.lines, after.lines)


@pytest.mark.parametrize(
    "before,after,text",
    [
        # interior lone blank: widened over the next line
        ("abcd", ("a", "", "b", "c", "D"), "0-2<MID>\nb<sep>2-4<MID>D"),
        # final span: widened until its body ends in a non-empty line
        ("ab", ("a", "", "b"), "0-2<MID>\nb"),
        (("a", "b", "", "c"), ("a", "X", "", "", "c"), "0-4<MID>X\n\n\nc"),
        # final span reaching EOF: an insertion, then an empty-bodied deletion
        ("ab", ("a", "X", ""), "0-1<MID>X\n<sep>0-2<MID>"),
        # pure insertion at EOF: first widened back over one line
        ("ab", ("a", "b", "x", ""), "0-1<MID>b\nx\n<sep>0-2<MID>"),
        ("ab", ("a", "b", ""), "0-1<MID>b\n<sep>0-2<MID>"),
        # EOF merge with the previous span, overlapping and touching
        ("ab", ("a", "", "b", ""), "0-1<MID>\nb\n<sep>0-2<MID>"),
        ("x", ("x", "x", ""), "-1-0<MID>x\nx\n<sep>-1-1<MID>"),
        # widened over "b", which the body carries unchanged
        ("abc", ("a", "", "b", "c"), "0-2<MID>\nb"),
        # the EOF split: an insertion that carries line 0, then its deletion
        ("x", ("x", ""), "-1-0<MID>x\n<sep>-1-1<MID>"),
        # the same split after two appended empty lines
        ("ab", ("a", "b", "", ""), "0-1<MID>b\n\n<sep>0-2<MID>"),
        # the EOF split over a changed line
        ("ab", ("a", "c", ""), "0-1<MID>c\n<sep>0-2<MID>"),
        # the split's body carries "c" unchanged, then appends two empty lines
        ("abc", ("a", "z", "c", "", ""), "0-1<MID>z\nc\n\n<sep>0-3<MID>"),
    ],
)
def test_derive_widens_lossy_spans(before, after, text):
    before, after = SourceUnit(tuple(before)), SourceUnit(tuple(after))
    patch, changed = derive_patch(before, after)
    # widening leaves the changed lines as the minimal diff has them
    assert changed == before_ranges(reference_edit_runs(before.lines, after.lines))
    assert serialize_patch(patch) == text
    assert parse_patch(text) == patch
    assert apply_patch(before, patch).lines == after.lines


@pytest.mark.parametrize("before,after", [((), ("",)), ((), ("x", "")), (("x",), ("",))])
def test_derive_without_text_form_keeps_the_minimal_patch(before, after):
    patch, _ = derive_patch(SourceUnit(before), SourceUnit(after))
    assert no_text_form(before, after)
    assert apply_patch(SourceUnit(before), patch).lines == after
    assert not round_trips(patch)
    with pytest.raises(PatchFormatError, match="no lossless text form"):
        serialize_patch(patch)


def test_derive_trailing_flag_comes_from_before():
    before = SourceUnit(("a",), had_trailing_newline=False)
    after = SourceUnit(("b",), had_trailing_newline=True)
    patched = apply_patch(before, derive_patch(before, after)[0])
    assert patched.lines == after.lines
    assert not patched.had_trailing_newline


# --- equivalence and reporting ------------------------------------------------------


def test_applied_equivalent_spans_differ():
    # same result expressed two ways: replace line 2, or rewrite lines 2-3
    a = PatchSet((EditSpan(1, 3, ("X",)),))
    b = PatchSet((EditSpan(1, 4, ("X", "line 3")),))
    assert apply_patch(SRC, a) == apply_patch(SRC, b)
    c = PatchSet((EditSpan(1, 3, ("Y",)),))
    assert apply_patch(SRC, a) != apply_patch(SRC, c)


def test_to_text_of_applied(vpx_source, vpx_reference_patch):
    out = apply_patch(vpx_source, vpx_reference_patch)
    assert to_text(out).endswith(");\n    for ( i = 1; i < cpi->common.MBs; i ++ )\n    {\n      ...\n")
