"""Instruction prompts for repair models, and their auditing inverse.

Layout, byte for byte::

    [INST]<vuln lines, space joined> <cwe_id> <cwe_description>
    <numbered source lines>
    [/INST]

The numbered block is ``number_lines(source)``, and the prompt is exactly
``2 + len(source.lines)`` lines: ``VulnRecord.validate``, the one rule set for
every record, refuses an LF in the description, a CR in a source line and a
``RESERVED_TOKENS`` entry in any of the record's texts. ``parse_prompt`` takes
a prompt, its training completion and its split back to the record, so it
inverts ``render_training_example`` and exported rows can be audited
mechanically. A record renders its prompt and its completion once and keeps
them; a parsed one keeps the prompt text it parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from linefix.engine import validate_patch
from linefix.errors import InvalidPatch, InvalidRecord, MalformedPrompt
from linefix.patchfmt import MID, SEP, PatchSet, parse_patch, round_trips, serialize_patch
from linefix.source import SourceUnit, line_prefixes, number_lines, prefixes_length

INST_OPEN = "[INST]"
INST_CLOSE = "[/INST]"

BUG_START = "<S2SV_StartBug>"
BUG_END = "<S2SV_EndBug>"

RESERVED_TOKENS = (INST_OPEN, INST_CLOSE, MID, SEP, BUG_START, BUG_END)

CWE_ID = re.compile(r"CWE-[0-9]+")
# exactly what build_prompt writes: canonical line numbers, each followed by a
# space, or a lone space when there are none
_HEADER_RE = re.compile(rf"((?:(?:0|[1-9][0-9]*) )+| )({CWE_ID.pattern}) (.*)")


@dataclass(frozen=True)
class VulnRecord:
    """One vulnerable function, the metadata the prompt carries, its fix and its split.

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
    split: str  # the reader that builds the record checks it; validate does not
    cve_id: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.vuln_lines, tuple):
            object.__setattr__(self, "vuln_lines", tuple(self.vuln_lines))
        self.validate()

    def validate(self) -> None:
        """Raise InvalidRecord on any invariant violation."""
        if not CWE_ID.fullmatch(self.cwe_id):
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

    @cached_property
    def prompt(self) -> str:
        """The instruction prompt, rendered on first use and kept; not a field."""
        nums = " ".join(map(str, self.vuln_lines))
        header = f"{INST_OPEN}{nums} {self.cwe_id} {self.cwe_description}"
        return f"{header}\n{number_lines(self.source)}\n{INST_CLOSE}"

    @cached_property
    def completion(self) -> str:
        """The reference patch's text, serialized on first use and kept; not a field."""
        return serialize_patch(self.reference_patch)


@dataclass(frozen=True)
class TrainingExample:
    prompt: str
    completion: str


def build_prompt(record: VulnRecord) -> str:
    """The instruction prompt for a record, ``record.prompt``. Deterministic."""
    return record.prompt


def parse_prompt(
    text: str, *, completion: str, split: str, id: str = "", cwe_id: str | None = None,
    cve_id: str | None = None,
) -> VulnRecord:
    """Recover the record from a training example; inverse of render_training_example.

    ``completion`` is parsed as the reference patch. A training row also
    passes its ``split``, ``id`` and ``cve_id``, which no prompt holds, and
    its ``cwe_id`` field, which must agree with the prompt's; the record is
    built and validated once. No prompt holds the source's trailing LF
    either, so the source has none. The header must be exactly what
    build_prompt writes.

    Errors are reported in this order: MalformedPrompt for the layout,
    InvalidRecord for a disagreeing ``cwe_id``, ValueError for a line number
    too long to convert, PatchFormatError for the completion, then
    InvalidRecord for a broken record invariant.
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
    numbered_lines = numbered.split("\n") if numbered else []
    prefixes = line_prefixes(len(numbered_lines))
    source = SourceUnit(tuple(map(str.removeprefix, numbered_lines, prefixes)))
    # removeprefix strips a whole prefix or none: the lengths agree when all lines are numbered
    if len(numbered) - len(source.text) != prefixes_length(len(numbered_lines)):
        for i, (line, prefix) in enumerate(zip(numbered_lines, prefixes)):
            if not line.startswith(prefix):
                raise MalformedPrompt(f"source line {i} not numbered as {prefix!r}")
    if cwe_id is not None and cwe_id != m.group(2):
        raise InvalidRecord(f"cwe_id field {cwe_id!r} disagrees with prompt {m.group(2)!r}")
    try:
        vuln_lines = tuple(map(int, m.group(1).split()))
    except ValueError:  # a line number past the interpreter's integer-string limit
        digits = max(map(len, m.group(1).split()))
        raise ValueError(f"prompt header: line number of {digits} digits") from None
    record = VulnRecord(
        id=id,
        cwe_id=m.group(2),
        cwe_description=m.group(3),
        vuln_lines=vuln_lines,
        source=source,
        reference_patch=parse_patch(completion),
        split=split,
        cve_id=cve_id,
    )
    object.__setattr__(record, "prompt", text)  # the bytes build_prompt would write
    return record


def render_training_example(record: VulnRecord) -> TrainingExample:
    """The record's prompt and its completion, the serialized reference patch."""
    return TrainingExample(build_prompt(record), record.completion)
