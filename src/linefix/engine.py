"""Patch validation, application, and derivation.

Application and derivation address lines only; the trailing-newline flag of
the input source carries through to the result unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from linefix.errors import InvalidPatch
from linefix.linediff import edit_runs
from linefix.patchfmt import EditSpan, PatchSet, span_conflicts
from linefix.source import SourceUnit, to_text


@dataclass(frozen=True)
class Issue:
    span_index: int
    kind: str  # "OutOfRange" | "Overlap" | "Duplicate"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[Issue, ...]
    uses_sentinel: bool

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"span {i.span_index}: {i.message}" for i in self.issues)


def validate_patch(src: SourceUnit, patch: PatchSet) -> ValidationReport:
    """Check a patch against a source; reports issues instead of raising."""
    n = len(src.lines)
    issues: list[Issue] = []
    for i, s in enumerate(patch.spans):
        if s.line_af > n:
            issues.append(
                Issue(i, "OutOfRange", f"span {s.line_bef}-{s.line_af} outside [-1, {n}]")
            )
    for prev, cur, kind in span_conflicts(patch.spans):
        s, t = patch.spans[prev], patch.spans[cur]
        if kind == "Duplicate":
            message = f"span {t.line_bef}-{t.line_af} duplicates span {prev}"
        else:
            message = f"span {t.line_bef}-{t.line_af} overlaps span {s.line_bef}-{s.line_af}"
        issues.append(Issue(cur, kind, message))
    uses_sentinel = any(s.line_bef == -1 or s.line_af == n for s in patch.spans)
    return ValidationReport(not issues, tuple(issues), uses_sentinel)


def apply_patch(src: SourceUnit, patch: PatchSet) -> SourceUnit:
    """Apply a validated patch; raises InvalidPatch when validation fails.

    Spans are spliced in descending (line_bef, line_af) order, so every span
    addresses original line numbers.
    """
    report = validate_patch(src, patch)
    if not report.ok:
        raise InvalidPatch(report.summary())
    out = list(src.lines)
    for s in reversed(patch.canonical().spans):
        out[s.line_bef + 1: s.line_af] = s.body
    return SourceUnit(tuple(out), src.had_trailing_newline, src.newline_normalized)


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


def applied_equivalent(src: SourceUnit, a: PatchSet, b: PatchSet) -> bool:
    """Whether two patches produce byte-identical results on ``src``."""
    return to_text(apply_patch(src, a)) == to_text(apply_patch(src, b))


def changed_before_lines(patch: PatchSet) -> list[int]:
    """Sorted 0-based indices of the before-side lines any span replaces."""
    seen: set[int] = set()
    for s in patch.spans:
        seen.update(s.replaced_range())
    return sorted(seen)
