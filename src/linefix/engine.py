"""Patch validation, application, and derivation.

Application and derivation address lines only; the trailing-newline flag of
the input source carries through to the result unchanged.
"""

from __future__ import annotations

from linefix.errors import InvalidPatch
from linefix.linediff import Run, edit_runs
from linefix.patchfmt import EditSpan, PatchSet, round_trips
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
    """Apply a validated patch; raises InvalidPatch when validation fails."""
    validate_patch(src, patch)
    return SourceUnit(tuple(splice(src.lines, patch, 0, len(src.lines))), src.had_trailing_newline)


def splice(lines: tuple[str, ...], patch: PatchSet, lo: int, hi: int) -> list[str]:
    """``lines[lo:hi]`` with ``patch``, whose spans lie inside, spliced in last span first."""
    out = list(lines[lo:hi])
    for s in reversed(patch.spans):
        out[s.line_bef + 1 - lo: s.line_af - lo] = s.body
    return out


def derive_patch(before: SourceUnit, after: SourceUnit) -> tuple[PatchSet, list[int]]:
    """Patch turning ``before`` into ``after``, and the ``before`` lines it changes.

    Each maximal changed run of the line diff becomes one span, widened only
    where its text would not round-trip, as ``patchfmt`` states; a pair with
    no text form keeps the minimal patch. Identical inputs yield an empty
    patch, and the patch applied to ``before`` reproduces ``after``. The
    changed lines are ``changed_lines`` of that diff: widening adds none.
    """
    lines = before.lines
    runs = edit_runs(lines, after.lines)
    changed = changed_lines(runs)
    spans = [
        EditSpan(a_start - 1, a_end, after.lines[b_start:b_end])
        for a_start, a_end, b_start, b_end in runs
    ]
    patch = PatchSet(tuple(spans))
    if round_trips(patch):
        return patch, changed
    out = [EditSpan(s.line_bef, s.line_af + 1, ("", lines[s.line_af])) if s.body == ("",) else s
           for s in spans[:-1]]
    bef, af, body = spans[-1].line_bef, spans[-1].line_af, spans[-1].body
    while body[-1:] == ("",) and af < len(lines):
        body += (lines[af],)
        af += 1
    if body[-1:] == ("",):  # at EOF: insert the body, then delete in a last, empty span
        if af == bef + 1 or body == ("",):
            if bef < 0:
                return patch, changed  # no text form
            bef -= 1
            body = (lines[bef + 1],) + body
            if out and out[-1].line_af > bef:  # touches or overlaps the previous span
                prev = out.pop()
                bef, body = prev.line_bef, prev.body + body[prev.line_af - bef - 1:]
        out.append(EditSpan(bef, bef + 1, body))
        body = ()
    return PatchSet((*out, EditSpan(bef, af, body))), changed


def changed_lines(runs: list[Run]) -> list[int]:
    """Sorted indices of the before lines that ``edit_runs``' runs replace or delete."""
    return [i for a_start, a_end, _, _ in runs for i in range(a_start, a_end)]
