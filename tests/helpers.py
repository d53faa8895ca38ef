"""Test-only oracles and generators, independent of the implementations under test."""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence

from linefix.patchfmt import EditSpan, PatchSet
from linefix.source import SourceUnit

LINE_POOL = (
    "",
    "{",
    "}",
    "    return 0;",
    "    int i, j;",
    "    buf[i] = 0;",
    "    if (n < 0)",
    "        goto fail;",
    "    for (i = 0; i < n; i++) {",
    "    memcpy(dst, src, n);",
)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Textbook O(n*m) dynamic program; oracle for diff minimality."""
    n, m = len(a), len(b)
    prev = [0] * (m + 1)
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[m]


def lcs_pairs(a: list[int], b: list[int]) -> list[tuple[int, int]]:
    """Matched index pairs of the greedy forward Myers search, one pair per matched line.

    Where a path can be reached by a deletion or an insertion, the deletion
    (consuming ``a``) wins unless the insertion comes from a strictly longer
    prefix. Walks every snake one line at a time.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    max_d = n + m
    offset = max_d
    v = [0] * (2 * max_d + 1)
    trace: list[list[int]] = []
    end_d = -1
    for d in range(max_d + 1):
        trace.append(v[offset - d: offset + d + 1])
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[offset + k - 1] < v[offset + k + 1]):
                x = v[offset + k + 1]
            else:
                x = v[offset + k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[offset + k] = x
            if x >= n and y >= m:
                end_d = d
                break
        if end_d >= 0:
            break
    pairs: list[tuple[int, int]] = []
    x, y = n, m
    for d in range(end_d, -1, -1):
        if d == 0:
            prev_x = prev_y = 0
        else:
            snap = trace[d]
            k = x - y
            if k == -d or (k != d and snap[k - 1 + d] < snap[k + 1 + d]):
                prev_k = k + 1
            else:
                prev_k = k - 1
            prev_x = snap[prev_k + d]
            prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            pairs.append((x, y))
        x, y = prev_x, prev_y
    pairs.reverse()
    return pairs


def reference_edit_runs(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int, int, int]]:
    """Oracle for the exact output of ``linediff.edit_runs``.

    Interns lines to ints, runs ``lcs_pairs`` over the reversed sequences
    (so changes land at their earliest position), maps the pairs back and
    assembles the maximal changed runs between them.
    """
    table: dict[str, int] = {}
    a_ids = [table.setdefault(line, len(table)) for line in a]
    b_ids = [table.setdefault(line, len(table)) for line in b]
    n, m = len(a_ids), len(b_ids)
    rev_pairs = lcs_pairs(a_ids[::-1], b_ids[::-1])
    pairs = [(n - 1 - x, m - 1 - y) for x, y in rev_pairs]
    pairs.reverse()
    runs = []
    ai = bi = 0
    for x, y in [*pairs, (n, m)]:
        if x > ai or y > bi:
            runs.append((ai, x, bi, y))
        ai, bi = x + 1, y + 1
    return runs


def before_ranges(runs: list[tuple[int, int, int, int]]) -> list[int]:
    """The before-side line indices that diff runs replace or delete, ascending."""
    return [i for a_start, a_end, _, _ in runs for i in range(a_start, a_end)]


def reference_number_lines(unit: SourceUnit) -> str:
    """``source.number_lines`` as one f-string per line; oracle for the prefix table."""
    return "\n".join(f"{i} {line}" for i, line in enumerate(unit.lines))


def footprint(span: EditSpan) -> set[int]:
    """Half-line positions a span rewrites: line i is 2i, the gap after it 2i+1.

    A replacement or deletion owns its lines and the gaps between them; an
    insertion or no-op owns only the gap it fills.
    """
    if span.line_af == span.line_bef + 1:
        return {2 * span.line_bef + 1}
    return set(range(2 * span.line_bef + 2, 2 * span.line_af - 1))


def spans_conflict(spans: list[EditSpan]) -> bool:
    """Pairwise oracle: some two spans share anchors or rewrite a common position."""
    return any(
        (s.line_bef, s.line_af) == (t.line_bef, t.line_af) or footprint(s) & footprint(t)
        for s, t in itertools.combinations(spans, 2)
    )


def splice_apply(lines: tuple[str, ...], patch: PatchSet) -> list[str]:
    """Naive top-down splice: walk spans ascending, copying untouched lines."""
    ordered = sorted(patch.spans, key=lambda s: (s.line_bef, s.line_af))
    out: list[str] = []
    cursor = 0
    for s in ordered:
        out.extend(lines[cursor: s.line_bef + 1])
        out.extend(s.body)
        cursor = s.line_af
    out.extend(lines[cursor:])
    return out


def shifted_sequential_apply(
    lines: tuple[str, ...], patch: PatchSet, order: list[int]
) -> list[str]:
    """Apply spans one at a time in the given order, tracking index shifts."""
    work = list(lines)
    remaining = [
        [s.line_bef, s.line_af, list(s.body)] for s in patch.spans
    ]
    for idx in order:
        bef, af, body = remaining[idx]
        work[bef + 1: af] = body
        delta = len(body) - (af - bef - 1)
        for other in remaining:
            if other is remaining[idx]:
                continue
            if other[0] >= af - 1:
                other[0] += delta
                other[1] += delta
    return work


def no_text_form(before: Sequence[str], after: Sequence[str]) -> bool:
    """The two (before, after) line pairs whose fix the patch text cannot carry."""
    after = tuple(after)
    return (not before and after[-1:] == ("",)) or (after == ("",) and "" not in before)


def random_lines(rng: random.Random, max_len: int = 30) -> list[str]:
    n = rng.randrange(max_len + 1)
    return [rng.choice(LINE_POOL) for _ in range(n)]


def mutate(rng: random.Random, before: list[str]) -> list[str]:
    """Derive an 'after' by a few random edits; repeats in LINE_POOL force ties."""
    after = list(before)
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("insert", "delete", "replace"))
        if kind == "insert" or not after:
            pos = rng.randint(0, len(after))
            after[pos:pos] = [rng.choice(LINE_POOL) for _ in range(rng.randint(1, 3))]
        elif kind == "delete":
            pos = rng.randrange(len(after))
            del after[pos: pos + rng.randint(1, 3)]
        else:
            pos = rng.randrange(len(after))
            after[pos: pos + rng.randint(1, 2)] = [
                rng.choice(LINE_POOL) + " /* new */" for _ in range(rng.randint(1, 2))
            ]
    return after


def random_pair(rng: random.Random, case_no: int) -> tuple[SourceUnit, SourceUnit]:
    """Random (before, after); every fourth case is a boundary shape."""
    shape = case_no % 8
    before = random_lines(rng)
    if shape == 0:  # prepend
        after = [rng.choice(LINE_POOL) + " /* top */"] + before
    elif shape == 1:  # append
        after = before + [rng.choice(LINE_POOL) + " /* end */"]
    elif shape == 2:  # delete everything
        after = []
    elif shape == 3:  # replace everything
        after = [rng.choice(LINE_POOL) + " /* all */" for _ in range(rng.randint(1, 5))]
    else:
        after = mutate(rng, before)
    trailing = rng.random() < 0.8
    return (
        SourceUnit(tuple(before), had_trailing_newline=trailing),
        SourceUnit(tuple(after), had_trailing_newline=trailing),
    )


def random_body(rng: random.Random, allow_empty: bool = True) -> tuple[str, ...]:
    """Body lines that survive serialize/parse (last line nonempty)."""
    if allow_empty and rng.random() < 0.2:
        return ()
    n = rng.randint(1, 3)
    body = [rng.choice(LINE_POOL) for _ in range(n)]
    body[-1] = body[-1] if body[-1] else "x = 1;"
    return tuple(body)


def random_patchset(rng: random.Random, max_line: int = 60) -> PatchSet:
    """Random valid PatchSet: disjoint spans, parse-safe bodies."""
    spans = []
    cursor = -1
    while cursor < max_line and len(spans) < 6 and rng.random() < 0.8:
        bef = rng.randint(cursor, min(cursor + 10, max_line))
        af = rng.randint(bef + 1, bef + 5)
        if spans and (bef, af) == (spans[-1].line_bef, spans[-1].line_af):
            af += 1
        spans.append(EditSpan(bef, af, random_body(rng)))
        # next span must stay disjoint: t.line_bef >= s.line_af - 1
        cursor = af - 1
        if rng.random() < 0.5:
            cursor += rng.randint(1, 4)
    if not spans:
        spans.append(EditSpan(-1, 1, random_body(rng)))
    return PatchSet(tuple(spans))
