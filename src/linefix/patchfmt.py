"""The line-addressed patch format.

A patch is one or more spans separated by ``<sep>``::

    patch := span ("<sep>" span)*
    span  := INT "-" INT "<MID>" rawbody

``line_bef`` is the 0-based index of the last unchanged line before the edit
and ``line_af`` the first unchanged line after it; the open interval between
them is replaced by the body. ``line_bef = -1`` addresses the position before
line 0 and ``line_af = len(lines)`` the position after the last line, so edits
at either boundary stay expressible. The body is carried verbatim: everything
after ``<MID>`` up to the next ``<sep>`` or end of input, split on LF. One
trailing LF of the whole input is trimmed before parsing. A patch's spans are
held in anchor order and are disjoint by construction.

A lone-empty-line body ``("",)`` anywhere, and a final span whose body ends
with an empty line, do not survive serialize/parse: the empty-body deletion
encoding and the trailing-LF trim claim the same bytes. ``round_trips`` states
this rule; ``serialize_patch`` refuses such a patch, and ``engine.derive_patch``
widens the Myers spans that break it forwards over unchanged lines: a lone
``("",)`` by one line, the final span until its body ends non-empty. At EOF it
becomes an insertion, first widened back one line (and merged with a span it
then touches) if it replaces nothing or is ``("",)``, then a last, empty
deletion. No text form exists for an empty before whose after ends empty, or
for an after of one empty line where before has none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from linefix.errors import (
    BelowSentinel,
    ConflictingSpans,
    MalformedBody,
    MalformedHeader,
    NonIncreasingSpan,
    PatchFormatError,
)

MID = "<MID>"
SEP = "<sep>"

_HEADER_RE = re.compile(r"(-?[0-9]+)-(-?[0-9]+)<MID>")
_ANCHORS = attrgetter("line_bef", "line_af")


@dataclass(frozen=True)
class EditSpan:
    """One edit: replace lines ``line_bef+1 .. line_af-1`` with ``body``."""

    line_bef: int
    line_af: int
    body: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if self.line_bef < -1:
            raise BelowSentinel(f"line_bef {self.line_bef} is below the -1 sentinel")
        if self.line_bef >= self.line_af:
            raise NonIncreasingSpan(
                f"span {self.line_bef}-{self.line_af} must have line_bef < line_af"
            )
        for line in self.body:
            if "\n" in line:
                raise MalformedBody("body lines must not contain LF")
            if "\r" in line:
                raise MalformedBody("body lines must not contain CR")
            if MID in line or SEP in line:
                raise MalformedBody(f"body lines must not contain {MID} or {SEP}")


@dataclass(frozen=True)
class PatchSet:
    """Disjoint edit spans against one source, held in (line_bef, line_af) order.

    Spans may touch (s.line_af == t.line_bef + 1); their replaced ranges are
    still disjoint, which keeps application order independent.
    """

    spans: tuple[EditSpan, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        spans = tuple(sorted(self.spans, key=_ANCHORS))
        for s, t in zip(spans, spans[1:]):
            if _ANCHORS(s) == _ANCHORS(t):
                raise ConflictingSpans(f"duplicate span {s.line_bef}-{s.line_af}")
            if s.line_af > t.line_bef + 1:
                raise ConflictingSpans(
                    f"span {s.line_bef}-{s.line_af} overlaps {t.line_bef}-{t.line_af}"
                )
        object.__setattr__(self, "spans", spans)

    def __len__(self) -> int:
        return len(self.spans)


def parse_patch(text: str) -> PatchSet:
    """Parse patch text into a PatchSet; its spans come back in anchor order.

    Raises MalformedHeader, MalformedBody, NonIncreasingSpan, BelowSentinel,
    or ConflictingSpans. Empty input parses to an empty PatchSet.
    """
    if text.endswith("\n"):
        text = text[:-1]
    if text == "":
        return PatchSet(())
    spans = []
    for fragment in text.split(SEP):
        m = _HEADER_RE.match(fragment)
        if m is None:
            snippet = fragment[:40]
            raise MalformedHeader(f"expected INT-INT{MID} at start of span: {snippet!r}")
        rawbody = fragment[m.end():]
        body = tuple(rawbody.split("\n")) if rawbody else ()
        spans.append(EditSpan(int(m.group(1)), int(m.group(2)), body))
    return PatchSet(tuple(spans))


def serialize_patch(patch: PatchSet) -> str:
    """Serialize spans in anchor order, with no trailing LF added; lossy text raises."""
    if not round_trips(patch):
        raise PatchFormatError("patch has no lossless text form: an empty body line would be lost")
    return SEP.join(
        f"{s.line_bef}-{s.line_af}{MID}" + "\n".join(s.body) for s in patch.spans
    )


def round_trips(patch: PatchSet) -> bool:
    """Whether ``parse_patch(serialize_patch(patch)) == patch``."""
    spans = patch.spans
    return all(s.body != ("",) for s in spans) and not (spans and spans[-1].body[-1:] == ("",))
