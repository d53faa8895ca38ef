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

_PREFIXES: tuple[str, ...] = ()


@dataclass(frozen=True)
class SourceUnit:
    """A source snippet split into lines.

    Attributes:
        lines: the text lines, without line terminators.
        had_trailing_newline: whether the original text ended with LF.
        text: the lines joined with LF, without the trailing one, joined when the
            unit is built. Not a field: equality, hash and repr ignore it.
    """

    lines: tuple[str, ...]
    had_trailing_newline: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.lines, tuple):
            object.__setattr__(self, "lines", tuple(self.lines))
        if not self.lines:
            # Empty text has no line to end, as from_text("") reads it.
            object.__setattr__(self, "had_trailing_newline", False)
        text = "\n".join(self.lines)
        if self.lines and text.count("\n") != len(self.lines) - 1:  # one LF between lines
            raise ValueError("source lines must not contain newline characters")
        object.__setattr__(self, "text", text)


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


def prefixes_length(n: int) -> int:
    """The total length of the first ``n`` numbering prefixes."""
    total, power = 2 * n, 10  # a digit and a space each, one more digit from each power of ten
    while power < n:
        total += n - power
        power *= 10
    return total


def number_lines(unit: SourceUnit) -> str:
    """Render each line as ``<decimal index><one space><line>``, LF separated."""
    lines = unit.lines
    return "\n".join(map(operator.add, line_prefixes(len(lines)), lines))
