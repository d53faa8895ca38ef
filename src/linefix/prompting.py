"""Instruction prompts for repair models, and their auditing inverse.

Layout, byte for byte::

    [INST]<vuln lines, space joined> <cwe_id> <cwe_description>
    <numbered source lines>
    [/INST]

The numbered block is ``number_lines(source)``; with an LF-free description
the prompt is exactly ``2 + len(source.lines)`` lines. ``parse_prompt``
recovers the record fields so exported prompts can be audited mechanically.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from linefix.engine import apply_patch, validate_patch
from linefix.errors import InvalidRecord, MalformedPrompt, MissingReference
from linefix.patchfmt import MID, SEP, PatchSet, serialize_patch
from linefix.source import SourceUnit, number_lines

logger = logging.getLogger(__name__)

INST_OPEN = "[INST]"
INST_CLOSE = "[/INST]"

RESERVED_TOKENS = (INST_OPEN, INST_CLOSE, MID, SEP)

_CWE_RE = re.compile(r"CWE-\d+")
# optional leading space covers the empty vuln_lines case
_HEADER_RE = re.compile(r" ?((?:\d+ )*)(CWE-\d+) (.*)")


@dataclass(frozen=True)
class VulnRecord:
    """One vulnerable function, the metadata the prompt carries, and its fix.

    The fix is one line-addressed reference patch against ``source``; the
    fixed source is derived from it. A record is validated once, when it is
    constructed, and is immutable afterwards.
    """

    id: str
    cwe_id: str
    cwe_description: str
    vuln_lines: tuple[int, ...]
    source: SourceUnit
    cve_id: str | None = None
    reference_patch: PatchSet | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.vuln_lines, tuple):
            object.__setattr__(self, "vuln_lines", tuple(self.vuln_lines))
        self.validate()

    def validate(self) -> None:
        """Raise InvalidRecord on any invariant violation."""
        if not _CWE_RE.fullmatch(self.cwe_id):
            raise InvalidRecord(f"record {self.id!r}: bad cwe_id {self.cwe_id!r}")
        if self.reference_patch is not None:
            report = validate_patch(self.source, self.reference_patch)
            if not report.ok:
                raise InvalidRecord(
                    f"record {self.id!r}: reference patch does not validate: {report.summary()}"
                )
        n = len(self.source.lines)
        for ln in self.vuln_lines:
            if not 0 <= ln < n:
                raise InvalidRecord(
                    f"record {self.id!r}: vuln line {ln} outside [0, {n})"
                )
        if any(a >= b for a, b in zip(self.vuln_lines, self.vuln_lines[1:])):
            raise InvalidRecord(f"record {self.id!r}: vuln_lines not strictly ascending")

    def reference(self) -> PatchSet:
        """The reference patch; raises MissingReference when the record has none."""
        if self.reference_patch is None:
            raise MissingReference(f"record {self.id!r} has no reference fix")
        return self.reference_patch

    @property
    def reference_after(self) -> SourceUnit:
        """The fixed source: the reference patch applied to ``source``."""
        return apply_patch(self.source, self.reference())


@dataclass(frozen=True)
class TrainingExample:
    prompt: str
    completion: str


def build_prompt(record: VulnRecord) -> str:
    """Render the instruction prompt for a record. Deterministic."""
    nums = " ".join(str(i) for i in record.vuln_lines)
    header = f"{INST_OPEN}{nums} {record.cwe_id} {record.cwe_description}"
    return f"{header}\n{number_lines(record.source)}\n{INST_CLOSE}"


def parse_prompt(text: str) -> VulnRecord:
    """Recover the record from a prompt built by build_prompt.

    The returned record has an empty id and no reference. Raises
    MalformedPrompt when the layout does not match and InvalidRecord when the
    recovered fields break a record invariant.
    """
    if not text.startswith(INST_OPEN):
        raise MalformedPrompt(f"prompt must start with {INST_OPEN}")
    if not text.endswith("\n" + INST_CLOSE):
        raise MalformedPrompt(f"prompt must end with LF + {INST_CLOSE}")
    inner = text[len(INST_OPEN): -(len(INST_CLOSE) + 1)]
    header, sep, numbered = inner.partition("\n")
    if not sep:
        raise MalformedPrompt("prompt has no source block")
    m = _HEADER_RE.fullmatch(header)
    if m is None:
        raise MalformedPrompt(f"bad prompt header: {header[:60]!r}")
    vuln_lines = tuple(int(t) for t in m.group(1).split())
    lines = []
    if numbered:
        for i, line in enumerate(numbered.split("\n")):
            prefix = f"{i} "
            if not line.startswith(prefix):
                raise MalformedPrompt(f"source line {i} not numbered as {prefix!r}")
            lines.append(line[len(prefix):])
    return VulnRecord(
        id="",
        cwe_id=m.group(2),
        cwe_description=m.group(3),
        vuln_lines=vuln_lines,
        source=SourceUnit(tuple(lines)),
    )


def render_training_example(record: VulnRecord) -> TrainingExample:
    """Prompt plus serialized reference patch.

    Raises MissingReference when the record carries no reference patch.
    """
    patch = record.reference()
    if not patch.spans:
        logger.warning("record %s: reference fix is an empty patch", record.id)
    return TrainingExample(build_prompt(record), serialize_patch(patch))
