"""Line-oriented source text with lossless round-tripping.

Functions are line addressed: a source is a dense 0-based sequence of lines.
CR-LF pairs are folded to LF once at ingestion, so everything downstream can
assume LF-only text; ``to_text`` always writes LF.

Prompts number their lines ``"0 "``, ``"1 "``, ... (``number_lines``, and
``prompting.parse_prompt`` on the way back). Both take those prefixes from
one shared table, ``line_prefixes``, instead of formatting an integer per
line. The table starts empty and grows on demand, never at import. Growing
builds a new, longer tuple and rebinds the module name; the old tuple is
never changed. A thread that reads the name while another grows it therefore
sees either the old or the new table, each complete, and needs no lock.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

_PREFIXES: tuple[str, ...] = ()


@dataclass(frozen=True)
class SourceUnit:
    """A source snippet split into lines.

    Attributes:
        lines: the text lines, without line terminators.
        had_trailing_newline: whether the original text ended with LF.
    """

    lines: tuple[str, ...]
    had_trailing_newline: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.lines, tuple):
            object.__setattr__(self, "lines", tuple(self.lines))
        if not self.lines:
            # Empty text has no line to end, as from_text("") reads it.
            object.__setattr__(self, "had_trailing_newline", False)
        if "\n" in "".join(self.lines):
            raise ValueError("source lines must not contain newline characters")

    @cached_property
    def text(self) -> str:
        """The lines joined with LF, without the trailing one.

        Joined on first use and kept, so a record's validation, fingerprint
        and writer share one join. It is not a field: equality, hash and repr
        ignore it. Units that are only compared, such as the results of
        ``apply_patch`` during scoring, never join.
        """
        return "\n".join(self.lines)


def from_text(text: str) -> SourceUnit:
    """Split text into a SourceUnit, folding CR-LF to LF."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if text == "":
        return SourceUnit(())
    trailing = text.endswith("\n")
    if trailing:
        text = text[:-1]
    return SourceUnit(tuple(text.split("\n")), trailing)


def to_text(unit: SourceUnit) -> str:
    """Join lines back into text, restoring the trailing newline if present."""
    return unit.text + "\n" if unit.had_trailing_newline else unit.text


def line_prefixes(n: int) -> tuple[str, ...]:
    """The numbering prefixes ``"0 "``, ``"1 "``, ...: at least ``n`` of them."""
    global _PREFIXES
    table = _PREFIXES
    if len(table) < n:
        table += tuple(f"{i} " for i in range(len(table), max(n, 2 * len(table), 256)))
        _PREFIXES = table
    return table


def number_lines(unit: SourceUnit) -> str:
    """Render each line as ``<decimal index><one space><line>``, LF separated."""
    lines = unit.lines
    return "\n".join(map(operator.add, line_prefixes(len(lines)), lines))
