"""Line splitting and joining round-trips."""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefix import source
from linefix.engine import apply_patch
from linefix.patchfmt import EditSpan, PatchSet
from linefix.prompting import build_prompt, parse_prompt
from linefix.source import SourceUnit, from_text, number_lines, to_text
from tests.conftest import VPX_REFERENCE_PATCH_TEXT
from tests.helpers import LINE_POOL, reference_number_lines

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


@pytest.mark.parametrize("lines", [("a\nb",), ("\n",), ("", "\n"), ("a", "b\n", "c"), ["x\n"]])
def test_lf_in_a_line_raises_the_same_error(lines):
    with pytest.raises(ValueError, match="^source lines must not contain newline characters$"):
        SourceUnit(lines)


def test_text_is_the_lf_joined_lines_on_every_construction_path(vpx_record):
    units = [
        SourceUnit(()),
        SourceUnit(("",)),
        SourceUnit(("a", "", "b"), had_trailing_newline=True),
        SourceUnit(["a", "b"]),
        from_text(""),
        from_text("\n"),
        from_text("a\r\nb\r\n"),
        from_text("a\rb\nc"),  # a lone CR stays in its line
        dataclasses.replace(SourceUnit(("a",)), lines=("x", "y")),
        apply_patch(SourceUnit(("a", "b")), PatchSet((EditSpan(0, 2, ("c",)),))),
        parse_prompt(build_prompt(vpx_record), completion=VPX_REFERENCE_PATCH_TEXT).source,
    ]
    for unit in units:
        assert unit.text == "\n".join(unit.lines), unit


def test_text_is_left_out_of_equality_hash_and_repr():
    unit = from_text("a\nb\n")
    assert unit.text == "a\nb"  # joined once, when the unit was built
    other = SourceUnit(("a", "b"), True)  # built from its lines
    assert unit == other
    assert hash(unit) == hash(other)
    assert repr(unit) == repr(other) == "SourceUnit(lines=('a', 'b'), had_trailing_newline=True)"
    assert [f.name for f in dataclasses.fields(unit)] == ["lines", "had_trailing_newline"]


@settings(deadline=None, max_examples=200)
@given(st.lists(LINE, max_size=8), st.booleans())
def test_text_matches_the_lines(lines, trailing):
    unit = SourceUnit(lines, had_trailing_newline=trailing)
    assert unit.text == "\n".join(lines)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(("", "a", "\r", "\n", "a\nb", "\n\n")), max_size=5))
@example(())
@example(("",))
@example(("\n",))
def test_lf_rule_counts_the_lfs_of_the_one_join(lines):
    """The join holds one LF between each two lines; a unit refuses any other."""
    if any("\n" in line for line in lines):
        with pytest.raises(ValueError, match="^source lines must not contain newline characters$"):
            SourceUnit(lines)
    else:
        assert SourceUnit(lines).text == "\n".join(lines)


def test_lines_coerced_to_tuple():
    unit = SourceUnit(["a", "b"])
    assert isinstance(unit.lines, tuple)


def test_number_lines_layout():
    unit = SourceUnit(("int x;", "", "return;"))
    assert number_lines(unit) == "0 int x;\n1 \n2 return;"


def test_number_lines_empty():
    assert number_lines(SourceUnit(())) == ""


def test_number_lines_matches_reference():
    rng = random.Random(0x5EED)
    # sizes past the prefix table's first size make it grow, twice
    for n in (0, 1, 2, 9, 10, 11, 255, 256, 257, 600, 1_500, 3):
        unit = SourceUnit(tuple(rng.choice(LINE_POOL) for _ in range(n)))
        assert number_lines(unit) == reference_number_lines(unit)


def test_number_lines_under_concurrent_table_growth(monkeypatch):
    """Threads numbering sources while the table grows never see a partial table."""
    monkeypatch.setattr(source, "_PREFIXES", ())
    rng = random.Random(7)
    units = [SourceUnit(tuple(rng.choice(LINE_POOL) for _ in range(n)))
             for n in (3, 120, 300, 700, 1_300, 2_600)]
    expected = [reference_number_lines(u) for u in units]
    workers = min(64, len(os.sched_getaffinity(0)) + 4)  # more threads than cores
    deadline = time.monotonic() + 1.0
    mismatches: list[int] = []
    rounds = [0] * workers

    def work(w: int) -> None:
        order = list(range(len(units)))
        random.Random(w).shuffle(order)
        while time.monotonic() < deadline:
            for i in order:
                if number_lines(units[i]) != expected[i]:
                    mismatches.append(len(units[i].lines))
            rounds[w] += 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        while time.monotonic() < deadline:
            source._PREFIXES = ()  # start the growth race again
            time.sleep(0.001)
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert all(rounds)
    assert mismatches == []


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
