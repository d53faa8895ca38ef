"""Prompt layout and its parsing inverse."""

from __future__ import annotations

import dataclasses
import logging
import random

import pytest

from linefix.engine import derive_patch
from linefix.errors import InvalidRecord, MalformedHeader, MalformedPrompt, MissingReference
from linefix.patchfmt import EditSpan, PatchSet, serialize_patch
from linefix.prompting import (
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


def _record(**kw) -> VulnRecord:
    base = dict(
        id="r1",
        cwe_id="CWE-20",
        cwe_description="Improper input validation.",
        vuln_lines=(1,),
        source=SourceUnit(("int f()", "{", "}")),
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
    with pytest.raises(InvalidRecord):
        build_prompt(_record(cwe_id="CWE-XX"))
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
    record = _record(reference_patch=PatchSet((EditSpan(0, 2, ("{ return 0;",)),)))
    assert record.reference_after.lines == ("int f()", "{ return 0;", "}")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.vuln_lines = (7,)


# --- parsing ----------------------------------------------------------------


def test_parse_inverts_build():
    record = _record()
    parsed = parse_prompt(build_prompt(record))
    assert parsed.cwe_id == record.cwe_id
    assert parsed.cwe_description == record.cwe_description
    assert parsed.vuln_lines == record.vuln_lines
    assert parsed.source.lines == record.source.lines
    assert parsed.id == ""
    assert parsed.reference_patch is None


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
        parsed = parse_prompt(prompt)
        assert parsed.cwe_id == record.cwe_id
        assert parsed.cwe_description == record.cwe_description
        assert parsed.vuln_lines == record.vuln_lines
        assert parsed.source.lines == record.source.lines
        assert build_prompt(
            VulnRecord(
                id=record.id,
                cwe_id=parsed.cwe_id,
                cwe_description=parsed.cwe_description,
                vuln_lines=parsed.vuln_lines,
                source=parsed.source,
            )
        ) == prompt


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
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedPrompt):
        parse_prompt(text)


def test_parse_empty_source_block():
    record = _record(source=SourceUnit(()), vuln_lines=())
    parsed = parse_prompt(build_prompt(record))
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
        parsed = parse_prompt(prompt)
        assert parsed == dataclasses.replace(record, id="", reference_patch=None)
        assert parse_prompt(
            prompt,
            id=record.id,
            cwe_id=record.cwe_id,
            completion=serialize_patch(record.reference_patch),
        ) == record


@pytest.mark.parametrize("bad", [0, 1, 255, 256, 299])
def test_parse_names_first_misnumbered_line(bad):
    lines = [f"{i} x" for i in range(300)]
    lines[bad] = f"{bad}x"
    lines[-1] = "7 later damage is not reported"
    text = "[INST]CWE-20 d\n" + "\n".join(lines) + "\n[/INST]"
    with pytest.raises(MalformedPrompt, match=f"^source line {bad} not numbered as '{bad} '$"):
        parse_prompt(text)


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
        reference_patch=derive_patch(stb_before, stb_after),
    )
    example = render_training_example(record)
    assert example.completion == "5-6<MID>   if (w == NULL) return 0;"


def test_render_without_reference_raises():
    with pytest.raises(MissingReference):
        render_training_example(_record())


def test_render_empty_patch_warns(caplog):
    src = SourceUnit(("a", "b"))
    record = _record(source=src, vuln_lines=(0,), reference_patch=PatchSet(()))
    with caplog.at_level(logging.WARNING, logger="linefix.prompting"):
        example = render_training_example(record)
    assert example.completion == ""
    assert any("empty patch" in m for m in caplog.messages)
