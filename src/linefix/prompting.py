"""Instruction prompts for repair models, and their auditing inverse.

Layout, byte for byte::

    [INST]<vuln lines, space joined> <cwe_id> <cwe_description>
    <numbered source lines>
    [/INST]

The numbered block is ``number_lines(source)``, and the prompt is exactly
``2 + len(source.lines)`` lines: ``VulnRecord.validate``, the one rule set for
every record, refuses an LF in the description, a CR in a source line and a
``RESERVED_TOKENS`` entry in any of the record's texts. ``parse_prompt`` takes
a prompt and its training completion back to the record, so it inverts
``render_training_example`` and exported rows can be audited mechanically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from linefix.engine import apply_patch, validate_patch
from linefix.errors import InvalidPatch, InvalidRecord, MalformedPrompt
from linefix.patchfmt import MID, SEP, PatchSet, parse_patch, round_trips, serialize_patch
from linefix.source import SourceUnit, line_prefixes, number_lines

INST_OPEN = "[INST]"
INST_CLOSE = "[/INST]"

BUG_START = "<S2SV_StartBug>"
BUG_END = "<S2SV_EndBug>"

RESERVED_TOKENS = (INST_OPEN, INST_CLOSE, MID, SEP, BUG_START, BUG_END)

_CWE_RE = re.compile(r"CWE-[0-9]+")
# exactly what build_prompt writes: canonical line numbers, each followed by a
# space, or a lone space when there are none
_HEADER_RE = re.compile(r"((?:(?:0|[1-9][0-9]*) )+| )(CWE-[0-9]+) (.*)")


@dataclass(frozen=True)
class VulnRecord:
    """One vulnerable function, the metadata the prompt carries, and its fix.

    The fix is one non-empty line-addressed reference patch against
    ``source`` whose text round-trips; the fixed source is derived from it.
    A record is validated once, when it is constructed, and is immutable
    afterwards; ``errors.InvalidRecord`` lists the invariants.
    """

    id: str
    cwe_id: str
    cwe_description: str
    vuln_lines: tuple[int, ...]
    source: SourceUnit
    reference_patch: PatchSet
    cve_id: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.vuln_lines, tuple):
            object.__setattr__(self, "vuln_lines", tuple(self.vuln_lines))
        self.validate()

    def validate(self) -> None:
        """Raise InvalidRecord on any invariant violation."""
        if not _CWE_RE.fullmatch(self.cwe_id):
            raise InvalidRecord(f"record {self.id!r}: bad cwe_id {self.cwe_id!r}")
        if "\n" in self.cwe_description:
            raise InvalidRecord(f"record {self.id!r}: cwe_description contains a line feed")
        source = self.source.text
        if "\r" in source:  # no patch body may hold one, so no fix could rewrite the line
            raise InvalidRecord(f"record {self.id!r}: source contains a carriage return")
        bodies = "\n".join(line for s in self.reference_patch.spans for line in s.body)
        for name, text in (("cwe_description", self.cwe_description),
                           ("source", source), ("reference patch", bodies)):
            for token in RESERVED_TOKENS:
                if token in text:
                    raise InvalidRecord(
                        f"record {self.id!r}: {name} contains reserved token {token}"
                    )
        if not self.reference_patch.spans:
            raise InvalidRecord(f"record {self.id!r}: reference patch is empty")
        if not round_trips(self.reference_patch):
            raise InvalidRecord(f"record {self.id!r}: reference patch has no lossless text form")
        try:
            validate_patch(self.source, self.reference_patch)
        except InvalidPatch as exc:
            raise InvalidRecord(
                f"record {self.id!r}: reference patch does not validate: {exc}"
            ) from None
        n = len(self.source.lines)
        for ln in self.vuln_lines:
            if not 0 <= ln < n:
                raise InvalidRecord(
                    f"record {self.id!r}: vuln line {ln} outside [0, {n})"
                )
        if any(a >= b for a, b in zip(self.vuln_lines, self.vuln_lines[1:])):
            raise InvalidRecord(f"record {self.id!r}: vuln_lines not strictly ascending")

    @property
    def reference_after(self) -> SourceUnit:
        """The fixed source: the reference patch applied to ``source``."""
        return apply_patch(self.source, self.reference_patch)


@dataclass(frozen=True)
class TrainingExample:
    prompt: str
    completion: str


def build_prompt(record: VulnRecord) -> str:
    """Render the instruction prompt for a record. Deterministic."""
    nums = " ".join(str(i) for i in record.vuln_lines)
    header = f"{INST_OPEN}{nums} {record.cwe_id} {record.cwe_description}"
    return f"{header}\n{number_lines(record.source)}\n{INST_CLOSE}"


def parse_prompt(
    text: str, *, completion: str, id: str = "", cwe_id: str | None = None
) -> VulnRecord:
    """Recover the record from a training example; inverse of render_training_example.

    ``completion`` is parsed as the reference patch. A training row also
    passes its ``id`` and its ``cwe_id`` field, which must agree with the
    prompt's; the record is built and validated once. The header must be
    exactly what build_prompt writes.

    Errors are reported in this order: MalformedPrompt for the layout,
    InvalidRecord for a disagreeing ``cwe_id``, PatchFormatError for the
    completion, then InvalidRecord for a broken record invariant.
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
    lines: tuple[str, ...] = ()
    if numbered:
        numbered_lines = numbered.split("\n")
        prefixes = line_prefixes(len(numbered_lines))
        if not all(map(str.startswith, numbered_lines, prefixes)):
            for i, (line, prefix) in enumerate(zip(numbered_lines, prefixes)):
                if not line.startswith(prefix):
                    raise MalformedPrompt(f"source line {i} not numbered as {prefix!r}")
        lines = tuple(map(str.removeprefix, numbered_lines, prefixes))
    if cwe_id is not None and cwe_id != m.group(2):
        raise InvalidRecord(f"cwe_id field {cwe_id!r} disagrees with prompt {m.group(2)!r}")
    return VulnRecord(
        id=id,
        cwe_id=m.group(2),
        cwe_description=m.group(3),
        vuln_lines=tuple(int(t) for t in m.group(1).split()),
        source=SourceUnit(lines),
        reference_patch=parse_patch(completion),
    )


def render_training_example(record: VulnRecord) -> TrainingExample:
    """Prompt plus serialized reference patch."""
    return TrainingExample(build_prompt(record), serialize_patch(record.reference_patch))
