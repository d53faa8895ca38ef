"""Line splitting and joining round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefix.source import SourceUnit, from_text, number_lines, to_text

LINE = st.text(alphabet=st.characters(blacklist_characters="\n\r"), max_size=12)


def test_empty_text_is_zero_lines():
    unit = from_text("")
    assert unit.lines == ()
    assert not unit.had_trailing_newline
    assert to_text(unit) == ""


def test_trailing_newline_recorded_and_restored():
    unit = from_text("a\nb\n")
    assert unit.lines == ("a", "b")
    assert unit.had_trailing_newline
    assert to_text(unit) == "a\nb\n"


def test_no_trailing_newline():
    unit = from_text("a\nb")
    assert unit.lines == ("a", "b")
    assert not unit.had_trailing_newline
    assert to_text(unit) == "a\nb"


def test_lone_newline_is_one_empty_line():
    unit = from_text("\n")
    assert unit.lines == ("",)
    assert unit.had_trailing_newline


def test_crlf_folded_once_and_flagged():
    unit = from_text("a\r\nb\r\n")
    assert unit.lines == ("a", "b")
    assert unit.had_trailing_newline
    assert to_text(unit) == "a\nb\n"
    # the fold leaves no trace: equal lines make equal units
    assert unit == from_text("a\nb\n")


def test_lines_reject_embedded_newline():
    with pytest.raises(ValueError):
        SourceUnit(("a\nb",))


def test_lines_coerced_to_tuple():
    unit = SourceUnit(["a", "b"])
    assert isinstance(unit.lines, tuple)


def test_number_lines_layout():
    unit = SourceUnit(("int x;", "", "return;"))
    assert number_lines(unit) == "0 int x;\n1 \n2 return;"


def test_number_lines_empty():
    assert number_lines(SourceUnit(())) == ""


def test_empty_unit_has_no_trailing_newline():
    unit = SourceUnit((), had_trailing_newline=True)
    assert not unit.had_trailing_newline
    assert unit == from_text("")
    assert to_text(unit) == ""


@settings(deadline=None, max_examples=200)
@given(st.lists(LINE, max_size=8), st.booleans())
def test_roundtrip_from_lines(lines, trailing):
    unit = SourceUnit(tuple(lines), had_trailing_newline=trailing)
    text = to_text(unit)
    back = from_text(text)
    # ("",) without a trailing flag writes the same empty text as ();
    # equality holds at the text level, and lines survive whenever text does
    assert to_text(back) == text


@settings(deadline=None, max_examples=200)
@given(st.text(alphabet=st.characters(blacklist_characters="\r"), max_size=40))
def test_roundtrip_from_text(text):
    assert to_text(from_text(text)) == text
