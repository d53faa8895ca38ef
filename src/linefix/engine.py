"""Patch validation, application, and derivation.

Application and derivation address lines only; the trailing-newline flag of
the input source carries through to the result unchanged.
"""

from __future__ import annotations

from linefix.errors import InvalidPatch
from linefix.linediff import edit_runs
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
    """Patch turning ``before`` into ``after``, derived as ``patchfmt`` states.

    Each maximal changed run of the line diff becomes one span, widened only
    where its text would not round-trip; a pair with no text form keeps the
    minimal patch. Identical inputs yield an empty patch, and
    apply_patch(before, derive_patch(before, after)) reproduces ``after``.
    """
    lines = before.lines
    spans = [
        EditSpan(a_start - 1, a_end, after.lines[b_start:b_end])
        for a_start, a_end, b_start, b_end in edit_runs(lines, after.lines)
    ]
    patch = PatchSet(tuple(spans))
    if round_trips(patch):
        return patch
    out = [EditSpan(s.line_bef, s.line_af + 1, ("", lines[s.line_af])) if s.body == ("",) else s
           for s in spans[:-1]]
    bef, af, body = spans[-1].line_bef, spans[-1].line_af, spans[-1].body
    while body[-1:] == ("",) and af < len(lines):
        body += (lines[af],)
        af += 1
    if body[-1:] == ("",):  # at EOF: insert the body, then delete in a last, empty span
        if af == bef + 1 or body == ("",):
            if bef < 0:
                return patch  # no text form
            bef -= 1
            body = (lines[bef + 1],) + body
            if out and out[-1].line_af > bef:  # touches or overlaps the previous span
                prev = out.pop()
                bef, body = prev.line_bef, prev.body + body[prev.line_af - bef - 1:]
        out.append(EditSpan(bef, bef + 1, body))
        body = ()
    return PatchSet((*out, EditSpan(bef, af, body)))


def changed_before_lines(src: SourceUnit, patch: PatchSet) -> list[int]:
    """Sorted 0-based indices of the ``src`` lines the patch changes.

    A span marks the lines it replaces, less the trailing and then the
    leading ones its body repeats unchanged, so a span derive_patch widened
    over an unchanged line does not mark that line. Lines past the end of
    ``src`` are never marked. An empty-bodied span right after an insertion
    with the same ``line_bef`` is derive_patch's EOF split: its lines are
    compared with that insertion's body, which may append lines past the end
    of ``src``, so the trailing lines are matched against the body cut where
    most of them match. ``x`` -> ``x``, ``""`` inserts both lines and deletes
    line 0, and marks nothing; ``a``, ``b``, ``c`` -> ``a``, ``z``, ``c``,
    ``""`` marks line 1 only.
    """
    marked: list[int] = []
    spans = patch.spans
    for prev, s in zip((None, *spans), spans):
        replaced = s.replaced_range()
        old = src.lines[replaced.start: replaced.stop]
        body = s.body
        ends = (len(body),)
        if not body and prev and prev.line_bef == s.line_bef and not prev.replaced_range():
            body = prev.body
            ends = range(len(body) + 1)
        # on a tie the longest cut wins, so no more of the body counts as appended
        trail, end = max((_common_prefix(old[::-1], body[:end][::-1]), end) for end in ends)
        lead = _common_prefix(old[:len(old) - trail], body[:end - trail])
        marked.extend(replaced[lead: len(old) - trail])
    return marked


def _common_prefix(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
