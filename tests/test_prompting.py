"""Prompt layout and its parsing inverse."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefix.engine import apply_patch, derive_patch
from linefix.errors import InvalidRecord, LinefixError, MalformedHeader, MalformedPrompt
from linefix.patchfmt import EditSpan, PatchSet, serialize_patch
from linefix.prompting import (
    BUG_END,
    BUG_START,
    INST_CLOSE,
    INST_OPEN,
    RESERVED_TOKENS,
    VulnRecord,
    build_prompt,
    parse_prompt,
    render_training_example,
)
from linefix.source import SourceUnit
from tests.conftest import VPX_PROMPT_PREFIX
from tests.helpers import LINE_POOL

DESCRIPTIONS = (
    "The product performs operations on a memory buffer.",
    "Improper neutralization of special elements used in an SQL command.",
    "7 defences fail when the input is not validated",  # digits up front
    "",
)


INSERT_TOP = PatchSet((EditSpan(-1, 0, ("x",)),))  # applies to any source, even an empty one
INSERT_TOP_TEXT = "-1-0<MID>x"


def _record(**kw) -> VulnRecord:
    base = dict(
        id="r1",
        cwe_id="CWE-20",
        cwe_description="Improper input validation.",
        vuln_lines=(1,),
        source=SourceUnit(("int f()", "{", "}")),
        reference_patch=INSERT_TOP,
    )
    base.update(kw)
    return VulnRecord(**base)


# --- building ---------------------------------------------------------------


def test_prompt_golden_prefix(vpx_record):
    prompt = build_prompt(vpx_record)
    assert prompt.startswith(VPX_PROMPT_PREFIX)
    assert prompt.endswith("\n[/INST]")


def test_prompt_line_count():
    record = _record()
    prompt = build_prompt(record)
    assert len(prompt.split("\n")) == 2 + len(record.source.lines)


def test_prompt_multiple_vuln_lines():
    prompt = build_prompt(_record(vuln_lines=(0, 2)))
    assert prompt.startswith("[INST]0 2 CWE-20 ")


def test_prompt_no_vuln_lines():
    prompt = build_prompt(_record(vuln_lines=()))
    assert prompt.startswith("[INST] CWE-20 ")


def test_prompt_is_deterministic():
    record = _record()
    assert build_prompt(record) == build_prompt(record)


def test_build_validates_record():
    for cwe_id in ("CWE-XX", "CWE-\u0662\u0660"):  # Arabic-Indic digits are not ASCII
        with pytest.raises(InvalidRecord, match="bad cwe_id"):
            build_prompt(_record(cwe_id=cwe_id))
    with pytest.raises(InvalidRecord):
        build_prompt(_record(vuln_lines=(7,)))  # outside the 3-line source
    with pytest.raises(InvalidRecord):
        build_prompt(_record(vuln_lines=(2, 1)))


def test_record_validated_at_construction():
    with pytest.raises(InvalidRecord, match="reference patch does not validate"):
        _record(reference_patch=PatchSet((EditSpan(1, 4, ("z",)),)))  # 3-line source
    with pytest.raises(InvalidRecord, match="outside"):
        _record(vuln_lines=(3,))
    with pytest.raises(InvalidRecord, match="ascending"):
        _record(vuln_lines=(1, 1))
    # a no-op fix, and a fix whose text would drop its final empty line
    with pytest.raises(InvalidRecord, match="^record 'r1': reference patch is empty$"):
        _record(reference_patch=PatchSet(()))
    with pytest.raises(InvalidRecord, match="reference patch has no lossless text form"):
        _record(reference_patch=PatchSet((EditSpan(0, 1, ("",)),)))
    # no patch body may hold a CR, so no fix could rewrite a line holding one
    with pytest.raises(InvalidRecord, match="^record 'r1': source contains a carriage return$"):
        _record(source=SourceUnit(("int f()", "{\r", "}")))
    record = _record(reference_patch=PatchSet((EditSpan(0, 2, ("{ return 0;",)),)))
    assert apply_patch(record.source, record.reference_patch).lines == ("int f()", "{ return 0;", "}")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.vuln_lines = (7,)
    listed = _record(vuln_lines=[0, 1])  # held as a tuple, so the record hashes
    assert listed.vuln_lines == (0, 1)
    assert hash(listed) == hash(_record(vuln_lines=(0, 1)))


def test_record_requires_reference_patch():
    with pytest.raises(TypeError, match="reference_patch"):
        VulnRecord(
            id="r1",
            cwe_id="CWE-20",
            cwe_description="d.",
            vuln_lines=(),
            source=SourceUnit(("a",)),
        )


@pytest.mark.parametrize("token", RESERVED_TOKENS)
def test_record_refuses_reserved_tokens(token):
    with pytest.raises(InvalidRecord, match=f"^record 'r1': cwe_description contains "
                                            f"reserved token {re.escape(token)}$"):
        _record(cwe_description=f"a {token} b")
    with pytest.raises(InvalidRecord, match=f"^record 'r1': source contains "
                                            f"reserved token {re.escape(token)}$"):
        _record(source=SourceUnit(("int f()", f"{{ {token}", "}")))


@pytest.mark.parametrize("token", [INST_OPEN, INST_CLOSE, BUG_START, BUG_END])
def test_record_refuses_reserved_tokens_in_patch_body(token):
    # <MID> and <sep> never get this far: EditSpan refuses them in a body
    patch = PatchSet((EditSpan(-1, 0, ("x",)), EditSpan(0, 2, ("ok", f"y; {token}"))))
    with pytest.raises(InvalidRecord, match=f"^record 'r1': reference patch contains "
                                            f"reserved token {re.escape(token)}$"):
        _record(reference_patch=patch)


def test_record_refuses_line_feed_in_description():
    with pytest.raises(InvalidRecord, match="^record 'r1': cwe_description contains a line feed$"):
        _record(cwe_description="two\nlines")
    assert _record(cwe_description="carriage\rreturn").cwe_description == "carriage\rreturn"


# --- parsing ----------------------------------------------------------------


def test_parse_inverts_build():
    record = _record(reference_patch=PatchSet((EditSpan(0, 2, ("{ return 0;",)),)))
    example = render_training_example(record)
    parsed = parse_prompt(example.prompt, completion=example.completion)
    assert parsed.cwe_id == record.cwe_id
    assert parsed.cwe_description == record.cwe_description
    assert parsed.vuln_lines == record.vuln_lines
    assert parsed.source.lines == record.source.lines
    assert parsed.id == ""
    assert parsed.reference_patch == record.reference_patch


def test_parse_roundtrip_randomized():
    rng = random.Random(0x9A12)
    for i in range(500):
        lines = tuple(rng.choice(LINE_POOL) for _ in range(rng.randint(0, 12)))
        k = rng.randint(0, min(3, len(lines)))
        vuln = tuple(sorted(rng.sample(range(len(lines)), k))) if lines else ()
        record = _record(
            id=f"r{i}",
            cwe_id=f"CWE-{rng.randint(1, 1400)}",
            cwe_description=rng.choice(DESCRIPTIONS),
            vuln_lines=vuln,
            source=SourceUnit(lines),
        )
        prompt = build_prompt(record)
        parsed = parse_prompt(prompt, completion=INSERT_TOP_TEXT)
        assert parsed.cwe_id == record.cwe_id
        assert parsed.cwe_description == record.cwe_description
        assert parsed.vuln_lines == record.vuln_lines
        assert parsed.source.lines == record.source.lines
        assert build_prompt(parsed) == prompt


@pytest.mark.parametrize(
    "text",
    [
        "",
        "CWE-20 x\n0 a\n[/INST]",
        "[INST]CWE-20 x\n0 a",
        "[INST]CWE-20 x\n0 a[/INST]",  # terminator must follow an LF
        "[INST]no cwe here\n0 a\n[/INST]",
        "[INST]1 CWE-20 x\n1 a\n[/INST]",  # numbering must start at 0
        "[INST]1 CWE-20 x\n0 a\n2 b\n[/INST]",  # and be dense
        "[INST]1 CWE-20 x\n0a\n[/INST]",  # missing space after number
        "[INST]CWE-20 x",
        # headers build_prompt never writes, though their fields would be valid
        "[INST]01 CWE-20 d\n0 a\n1 b\n[/INST]",  # leading zero
        "[INST] 1 CWE-20 d\n0 a\n1 b\n[/INST]",  # leading space before line numbers
        "[INST]CWE-20 d\n0 a\n1 b\n[/INST]",  # no vuln lines: the space is written
        "[INST]\u0661 CWE-20 d\n0 a\n1 b\n[/INST]",  # non-ASCII digit
        "[INST]1 CWE-\u0662\u0660 d\n0 a\n1 b\n[/INST]",
        "[INST]1 CWE-20 d\n[/INST]",  # a header and no source block
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedPrompt):
        parse_prompt(text, completion="")


def test_parse_empty_source_block():
    record = _record(source=SourceUnit(()), vuln_lines=())
    parsed = parse_prompt(build_prompt(record), completion=INSERT_TOP_TEXT)
    assert parsed.source.lines == ()


def test_parse_roundtrip_long_sources():
    """Sources longer than the prefix table's first size make it grow."""
    rng = random.Random(0x10C)
    for n in (300, 1_000, *(rng.randint(300, 1_000) for _ in range(6))):
        lines = tuple(rng.choice(LINE_POOL) for _ in range(n))
        fix = rng.randrange(n)
        record = _record(
            id=f"long-{n}",
            vuln_lines=tuple(sorted(rng.sample(range(n), 3))),
            source=SourceUnit(lines),
            reference_patch=PatchSet((EditSpan(fix - 1, fix + 1, ("    fixed();",)),)),
        )
        prompt = build_prompt(record)
        completion = serialize_patch(record.reference_patch)
        assert parse_prompt(prompt, completion=completion) == dataclasses.replace(record, id="")
        assert parse_prompt(
            prompt, id=record.id, cwe_id=record.cwe_id, completion=completion
        ) == record


PLAIN = ("a", "b;", " ", "0 ", "{", "}", "CWE-7 ")


@st.composite
def record_fields(draw) -> dict:
    """A record's fields; one text field may also hold reserved tokens, LF and CR."""
    dirty = draw(st.sampled_from(("", "cwe_description", "source", "reference_patch")))

    def text(field: str) -> str:
        pieces = PLAIN + RESERVED_TOKENS + ("\r", "\n") if field == dirty else PLAIN
        return "".join(draw(st.lists(st.sampled_from(pieces), max_size=3)))

    lines = tuple(text("source") for _ in range(draw(st.integers(0, 4))))
    n = len(lines)
    bodies = [[text("reference_patch") for _ in range(draw(st.integers(1, 2)))]]
    if n:  # rewrite or delete the last line too
        bodies.append([text("reference_patch") for _ in range(draw(st.integers(0, 2)))])
    return dict(
        cwe_description=text("cwe_description"),
        vuln_lines=tuple(i for i in range(n) if draw(st.booleans())),
        # no trailing newline: a prompt does not carry the flag
        source=lines,
        spans=list(zip((-1, n - 2), (0, n), bodies)),
    )


@settings(deadline=None, max_examples=300)
@given(record_fields())
@example(dict(cwe_description="two\n0 lines", vuln_lines=(0,), source=("a",),
              spans=[(-1, 0, ["x"])]))
def test_every_record_parses_back_from_its_training_example(fields):
    try:
        record = VulnRecord(
            id="r9",
            cwe_id="CWE-20",
            cwe_description=fields["cwe_description"],
            vuln_lines=fields["vuln_lines"],
            source=SourceUnit(fields["source"]),
            reference_patch=PatchSet(tuple(EditSpan(*span) for span in fields["spans"])),
        )
    except (ValueError, LinefixError):
        return  # no record carries these fields
    completion = serialize_patch(record.reference_patch)
    prompt = build_prompt(record)
    assert parse_prompt(prompt, completion=completion, id=record.id, cwe_id=record.cwe_id) == record


HEADERS = (" CWE-20 d", "0 CWE-20 d", "0 2 CWE-7 ", "2 0 CWE-20 d", "9 CWE-20 d", "01 CWE-20 d",
           "CWE-20 d")
CONTENT = ("", "a", " b", "0 ", "1 x", "{")


@st.composite
def numbered_blocks(draw) -> list[str]:
    """Source lines, most numbered as build_prompt numbers them, some not, some swapped."""
    lines = []
    for i in range(draw(st.integers(0, 12))):
        prefix = draw(st.sampled_from(
            (f"{i} ",) * 6 + (f"{i}", f"{i + 1} ", f"{abs(i - 1)} ", f"0{i} ", f" {i} ", "")))
        lines.append(prefix + draw(st.sampled_from(CONTENT)))
    if len(lines) >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    return lines


@settings(deadline=None, max_examples=400)
@given(header=st.sampled_from(HEADERS), block=numbered_blocks())
def test_parse_accepts_only_the_prompts_it_rebuilds(header, block):
    """A prompt parses only when each line carries its own number, and then rebuilds
    byte for byte; a misnumbered one names its first bad line, as a per-line
    ``startswith`` check would."""
    numbered = "\n".join(block)
    text = f"{INST_OPEN}{header}\n{numbered}\n{INST_CLOSE}"
    rows = numbered.split("\n") if numbered else []
    bad = next((i for i, line in enumerate(rows) if not line.startswith(f"{i} ")), None)
    try:
        parsed = parse_prompt(text, completion=INSERT_TOP_TEXT)
    except MalformedPrompt as exc:
        if not str(exc).startswith("bad prompt header"):
            assert str(exc) == f"source line {bad} not numbered as '{bad} '"
        return
    except InvalidRecord:  # a vuln line out of range or out of order, after the numbering
        assert bad is None
        return
    assert bad is None
    assert vars(parsed)["prompt"] is text  # kept, not rendered again
    assert build_prompt(parsed) == text
    assert build_prompt(dataclasses.replace(parsed)) == text  # a fresh render


@pytest.mark.parametrize("bad", [0, 1, 255, 256, 299])
def test_parse_names_first_misnumbered_line(bad):
    lines = [f"{i} x" for i in range(300)]
    lines[bad] = f"{bad}x"
    lines[-1] = "7 later damage is not reported"
    text = "[INST] CWE-20 d\n" + "\n".join(lines) + "\n[/INST]"
    with pytest.raises(MalformedPrompt, match=f"^source line {bad} not numbered as '{bad} '$"):
        parse_prompt(text, completion="")


@pytest.mark.parametrize(
    "prompt,cwe_id,completion,error,message",
    [
        # layout first, even when every later check would fail too
        ("[INST]7 CWE-20 d\n0a\n[/INST]", "CWE-1", "x", MalformedPrompt, "source line 0"),
        # then the cwe_id field, before the completion is parsed
        ("[INST]7 CWE-20 d\n0 a\n[/INST]", "CWE-1", "x", InvalidRecord, "disagrees"),
        # then the completion, before the record invariants
        ("[INST]7 CWE-20 d\n0 a\n[/INST]", "CWE-20", "x", MalformedHeader, None),
        # the invariants name the row's id
        ("[INST]7 CWE-20 d\n0 a\n[/INST]", "CWE-20", "-1-1<MID>b", InvalidRecord,
         "^record 'row-9': vuln line 7 outside"),
    ],
    ids=["layout", "cwe_id", "completion", "invariants"],
)
def test_parse_training_fields_error_order(prompt, cwe_id, completion, error, message):
    with pytest.raises(error, match=message):
        parse_prompt(prompt, id="row-9", cwe_id=cwe_id, completion=completion)


# --- training examples --------------------------------------------------------


def test_render_uses_stored_patch(vpx_record):
    example = render_training_example(vpx_record)
    assert example.prompt == build_prompt(vpx_record)
    assert example.completion == "10-13<MID> memcpy( sortlist, cpi->mb_activity_map,\nsizeof(unsigned int) * cpi->common.MBs );"


def test_render_derives_when_patch_missing(stb_before, stb_after):
    record = _record(
        source=stb_before,
        vuln_lines=(6,),
        reference_patch=derive_patch(stb_before, stb_after)[0],
    )
    example = render_training_example(record)
    assert example.completion == "5-6<MID>   if (w == NULL) return 0;"
