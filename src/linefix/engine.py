"""Patch validation, application, and derivation.

Application and derivation address lines only; the trailing-newline flag of
the input source carries through to the result unchanged.
"""

from __future__ import annotations

from linefix.errors import InvalidPatch
from linefix.linediff import edit_runs
from linefix.patchfmt import EditSpan, PatchSet
from linefix.source import SourceUnit


def validate_patch(src: SourceUnit, patch: PatchSet) -> None:
    """Raise InvalidPatch unless every span lies within the source.

    The message names each out-of-range span by its index in anchor order.
    """
    n = len(src.lines)
    issues = [
        f"span {i}: span {s.line_bef}-{s.line_af} outside [-1, {n}]"
        for i, s in enumerate(patch.spans)
        if s.line_af > n
    ]
    if issues:
        raise InvalidPatch("; ".join(issues))


def apply_patch(src: SourceUnit, patch: PatchSet) -> SourceUnit:
    """Apply a validated patch; raises InvalidPatch when validation fails.

    Spans are spliced in descending (line_bef, line_af) order, so every span
    addresses original line numbers.
    """
    validate_patch(src, patch)
    out = list(src.lines)
    for s in reversed(patch.spans):
        out[s.line_bef + 1: s.line_af] = s.body
    return SourceUnit(tuple(out), src.had_trailing_newline)


def derive_patch(before: SourceUnit, after: SourceUnit) -> PatchSet:
    """Minimal patch turning ``before`` into ``after``.

    Each maximal changed run of the line diff becomes one span; runs separated
    by an unchanged line are never merged. Identical inputs yield an empty
    patch, and apply_patch(before, derive_patch(before, after)) reproduces
    ``after`` line for line.
    """
    runs = edit_runs(before.lines, after.lines)
    spans = tuple(
        EditSpan(a_start - 1, a_end, after.lines[b_start:b_end])
        for a_start, a_end, b_start, b_end in runs
    )
    return PatchSet(spans)


def changed_before_lines(patch: PatchSet) -> list[int]:
    """Sorted 0-based indices of the before-side lines any span replaces."""
    seen: set[int] = set()
    for s in patch.spans:
        seen.update(s.replaced_range())
    return sorted(seen)
