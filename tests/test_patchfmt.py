"""Patch grammar: parsing, serialization, span validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefix.errors import (
    BelowSentinel,
    ConflictingSpans,
    MalformedBody,
    MalformedHeader,
    NonIncreasingSpan,
    PatchFormatError,
)
from linefix.patchfmt import (
    MID,
    SEP,
    EditSpan,
    PatchSet,
    parse_patch,
    round_trips,
    serialize_patch,
)
from tests.conftest import VPX_REFERENCE_PATCH_TEXT
from tests.helpers import random_patchset, spans_conflict

BODY_LINE = st.text(
    alphabet=st.characters(blacklist_characters="\n\r<"), max_size=10
)


# --- parsing ----------------------------------------------------------------


def test_parse_single_span():
    patch = parse_patch("10-13<MID>new line")
    assert len(patch) == 1
    s = patch.spans[0]
    assert (s.line_bef, s.line_af) == (10, 13)
    assert s.body == ("new line",)


def test_parse_reference_golden():
    patch = parse_patch(VPX_REFERENCE_PATCH_TEXT)
    assert len(patch) == 1
    s = patch.spans[0]
    assert (s.line_bef, s.line_af) == (10, 13)
    assert s.body == (
        " memcpy( sortlist, cpi->mb_activity_map,",
        "sizeof(unsigned int) * cpi->common.MBs );",
    )


def test_parse_multiline_body():
    patch = parse_patch("3-6<MID>a\nb\nc")
    assert patch.spans[0].body == ("a", "b", "c")


def test_parse_multi_span():
    patch = parse_patch("1-3<MID>x<sep>5-6<MID>y\nz")
    assert [(s.line_bef, s.line_af) for s in patch.spans] == [(1, 3), (5, 6)]
    assert patch.spans[1].body == ("y", "z")


def test_parse_empty_body_is_deletion():
    patch = parse_patch("4-7<MID>")
    assert patch.spans[0].body == ()


def test_parse_sentinel_header():
    patch = parse_patch("-1-2<MID>top")
    assert patch.spans[0].line_bef == -1


def test_parse_trims_one_trailing_lf():
    assert parse_patch("1-2<MID>x\n") == parse_patch("1-2<MID>x")


def test_parse_empty_input_is_empty_patch():
    assert parse_patch("") == PatchSet(())
    assert parse_patch("\n") == PatchSet(())


def test_parse_returns_spans_in_anchor_order():
    patch = parse_patch("5-6<MID>b<sep>1-4<MID>c<sep>1-2<MID>a")
    assert [(s.line_bef, s.line_af) for s in patch.spans] == [(1, 2), (1, 4), (5, 6)]


@pytest.mark.parametrize(
    "text",
    [
        "x",
        "10<MID>body",
        "10-<MID>body",
        "-13<MID>body",
        "10.5-13<MID>body",
        " 10-13<MID>body",
        "<sep>",
        "\u0660-\u0662<MID>x",  # Arabic-Indic digits are not ASCII
    ],
)
def test_parse_rejects_bad_header(text):
    with pytest.raises(MalformedHeader):
        parse_patch(text)


def test_parse_rejects_non_increasing_span():
    with pytest.raises(NonIncreasingSpan):
        parse_patch("5-5<MID>x")
    with pytest.raises(NonIncreasingSpan):
        parse_patch("5-3<MID>x")


def test_parse_rejects_below_sentinel():
    with pytest.raises(BelowSentinel):
        parse_patch("-2-1<MID>x")


def test_parse_rejects_duplicate_spans():
    with pytest.raises(ConflictingSpans):
        parse_patch("1-3<MID>a<sep>1-3<MID>b")


def test_parse_rejects_overlapping_spans():
    with pytest.raises(ConflictingSpans):
        parse_patch("1-5<MID>a<sep>2-7<MID>b")


def test_touching_spans_are_allowed():
    # s.line_af == t.line_bef + 1: replaced ranges are disjoint
    patch = parse_patch("1-3<MID>a<sep>2-5<MID>b")
    assert len(patch) == 2


# --- spans ------------------------------------------------------------------


def test_span_rejects_reserved_tokens_in_body():
    for bad in ("a<MID>b", "a<sep>b", "a\rb"):
        with pytest.raises(MalformedBody):
            EditSpan(1, 2, (bad,))
    with pytest.raises(MalformedBody):
        EditSpan(1, 2, ("a\nb",))


# --- serialization ----------------------------------------------------------


def test_serialize_golden_byte_identical():
    patch = parse_patch(VPX_REFERENCE_PATCH_TEXT)
    assert serialize_patch(patch) == VPX_REFERENCE_PATCH_TEXT


def test_serialize_sorts_spans():
    patch = PatchSet((EditSpan(5, 6, ("b",)), EditSpan(1, 2, ("a",))))
    assert serialize_patch(patch) == "1-2<MID>a<sep>5-6<MID>b"


def test_serialize_no_trailing_lf():
    assert not serialize_patch(parse_patch("1-2<MID>x")).endswith("\n")


def test_serialize_empty_patch():
    assert serialize_patch(PatchSet(())) == ""


def test_serialize_rejects_conflicts():
    # a conflicting patch cannot be built, so it never reaches serialize_patch
    with pytest.raises(ConflictingSpans, match="span 1-5 overlaps 2-7"):
        PatchSet((EditSpan(2, 7, ("b",)), EditSpan(1, 5, ("a",))))
    with pytest.raises(ConflictingSpans, match="duplicate span 1-3"):
        PatchSet((EditSpan(1, 3, ("a",)), EditSpan(1, 3, ("b",))))


def test_patchset_holds_spans_in_anchor_order():
    patch = PatchSet((EditSpan(5, 6), EditSpan(1, 2), EditSpan(1, 4)))
    assert [(s.line_bef, s.line_af) for s in patch.spans] == [
        (1, 2),
        (1, 4),
        (5, 6),
    ]
    assert patch == PatchSet((EditSpan(1, 2), EditSpan(1, 4), EditSpan(5, 6)))


def test_trailing_empty_body_line_does_not_roundtrip():
    # documented grammar ambiguity: the text's trailing LF is trimmed, so
    # serialize_patch refuses the patch rather than write that text
    assert parse_patch("1-2<MID>x\n").spans[0].body == ("x",)
    with pytest.raises(PatchFormatError, match="no lossless text form"):
        serialize_patch(PatchSet((EditSpan(1, 2, ("x", "")),)))


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=-1, max_value=500),
    st.integers(min_value=1, max_value=40),
    st.lists(BODY_LINE, max_size=4),
)
def test_single_span_roundtrip(bef, gap, body):
    if body and body[-1] == "":
        body = body[:-1] + ["eol"]
    patch = PatchSet((EditSpan(bef, bef + gap, tuple(body)),))
    assert parse_patch(serialize_patch(patch)) == patch


def test_patchset_roundtrip_randomized():
    rng = random.Random(0xF0)
    for _ in range(300):
        patch = random_patchset(rng)
        assert parse_patch(serialize_patch(patch)) == patch


SPAN = st.builds(
    lambda bef, gap: EditSpan(bef, bef + gap),
    st.integers(min_value=-1, max_value=12),
    st.integers(min_value=1, max_value=4),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(SPAN, max_size=6))
def test_patchset_rejects_exactly_the_conflicting_spans(spans):
    try:
        patch = PatchSet(tuple(spans))
    except ConflictingSpans:
        assert spans_conflict(spans)
        return
    assert not spans_conflict(spans)
    anchors = [(s.line_bef, s.line_af) for s in patch.spans]
    assert anchors == sorted((s.line_bef, s.line_af) for s in spans)
    assert parse_patch(serialize_patch(patch)) == patch


@st.composite
def blank_heavy_patchsets(draw):
    """Disjoint spans, touching ones included, with bodies rich in empty lines."""
    spans: list[EditSpan] = []
    bef = -1
    body_line = st.one_of(st.just(""), BODY_LINE)
    for gap, width, body in draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 3), st.lists(body_line, max_size=3)),
        max_size=5,
    )):
        bef += gap
        if spans and (bef, bef + width) == (spans[-1].line_bef, spans[-1].line_af):
            width += 1
        spans.append(EditSpan(bef, bef + width, tuple(body)))
        bef += width - 1
    return PatchSet(tuple(spans))


@settings(deadline=None, max_examples=500)
@given(blank_heavy_patchsets())
def test_round_trips_predicts_the_text_round_trip(patch):
    text = SEP.join(f"{s.line_bef}-{s.line_af}{MID}" + "\n".join(s.body) for s in patch.spans)
    assert round_trips(patch) == (parse_patch(text) == patch)
    if round_trips(patch):
        assert serialize_patch(patch) == text
    else:
        with pytest.raises(PatchFormatError):
            serialize_patch(patch)


@pytest.mark.parametrize(
    "spans,expected",
    [
        ((), True),
        ((EditSpan(1, 2, ("x", "")), EditSpan(4, 5, ("y",))), True),
        ((EditSpan(1, 2, ("",)), EditSpan(4, 5, ("y",))), False),
        ((EditSpan(1, 2, ("y",)), EditSpan(4, 5, ("x", ""))), False),
        ((EditSpan(1, 3),), True),
    ],
)
def test_round_trips_cases(spans, expected):
    assert round_trips(PatchSet(spans)) is expected
