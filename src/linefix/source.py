"""Line-oriented source text with lossless round-tripping.

Functions are line addressed: a source is a dense 0-based sequence of lines.
CR-LF pairs are folded to LF once at ingestion, so everything downstream can
assume LF-only text; ``to_text`` always writes LF.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def from_text(text: str) -> SourceUnit:
    """Split text into a SourceUnit, folding CR-LF to LF."""
    text = text.replace("\r\n", "\n")
    if text == "":
        return SourceUnit(())
    trailing = text.endswith("\n")
    if trailing:
        text = text[:-1]
    return SourceUnit(tuple(text.split("\n")), trailing)


def to_text(unit: SourceUnit) -> str:
    """Join lines back into text, restoring the trailing newline if present."""
    text = "\n".join(unit.lines)
    if unit.had_trailing_newline:
        text += "\n"
    return text


def number_lines(unit: SourceUnit) -> str:
    """Render each line as ``<decimal index><one space><line>``, LF separated."""
    return "\n".join(f"{i} {line}" for i, line in enumerate(unit.lines))
