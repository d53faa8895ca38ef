"""Minimal line diffs as maximal changed runs.

``edit_runs`` computes a shortest edit script between two line sequences and
reports each maximal changed run as ``(a_start, a_end, b_start, b_end)``:
lines ``a[a_start:a_end]`` are replaced by ``b[b_start:b_end]``. Runs are
ascending and separated by at least one unchanged line.

The kernel is Myers' greedy forward search ("An O(ND) Difference Algorithm
and Its Variations", 1986) over the reversed sequences, comparing the line
strings directly. Where several minimal scripts exist (repeated lines such as
blank lines or braces), a deletion wins unless the insertion comes from a
strictly longer prefix; as the search starts from the end, common suffixes
match greedily and each change lands at its earliest position in the file.
The result is deterministic across runs and platforms.

Once the first line of a snake (a diagonal of equal lines) matches, the snake
is measured with slice comparisons of doubling, then halving, width, so L
unchanged lines cost O(log L) interpreter steps; the d=0 snake is the common
suffix. Time is O((n+m)*D) and the backtracking trace O(D^2) for edit
distance D, small for the near-identical functions diffed here. Backtracking
visits one snake per edit and emits the changed runs between them directly.
"""

from __future__ import annotations

from collections.abc import Sequence

Run = tuple[int, int, int, int]


def _snake_end(a: list[str], b: list[str], x: int, y: int, end: int) -> int:
    """Where the run of equal lines ``a[x] == b[y], a[x+1] == b[y+1], ...`` stops, up to ``end``."""
    width = 1
    while x + width <= end and a[x:x + width] == b[y:y + width]:
        x, y = x + width, y + width
        width *= 2
    while width > 1:
        width //= 2
        if x + width <= end and a[x:x + width] == b[y:y + width]:
            x, y = x + width, y + width
    return x


def _trace(a: list[str], b: list[str]) -> list[list[int]]:
    """Furthest-reaching x per diagonal before each depth, up to the depth reaching the end."""
    n, m = len(a), len(b)
    offset = n + m
    v = [0] * (2 * offset + 1)
    trace: list[list[int]] = []
    for d in range(offset + 1):
        lo, hi = offset - d, offset + d  # diagonals -d and d, shifted by offset
        trace.append(v[lo:hi + 1])
        for i in range(lo, hi + 1, 2):
            if i == lo or (i != hi and v[i - 1] < v[i + 1]):
                x = v[i + 1]
            else:
                x = v[i - 1] + 1
            y = x - i + offset
            if x < n and y < m and a[x] == b[y]:
                x = _snake_end(a, b, x + 1, y + 1, min(n, m + x - y))
                y = x - i + offset
            v[i] = x
            if x >= n and y >= m:
                return trace
    raise AssertionError("unreachable: depth n + m always reaches the end")


def edit_runs(a: Sequence[str], b: Sequence[str]) -> list[Run]:
    """Maximal changed runs of a minimal line diff between ``a`` and ``b``."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return [(0, n, 0, m)] if n or m else []
    trace = _trace(list(reversed(a)), list(reversed(b)))
    # Walk the trace back from the end of the reversed sequences, which is
    # the start of the originals, so unchanged blocks come out ascending.
    runs: list[Run] = []
    ai = bi = 0
    x, y = n, m
    for d in range(len(trace) - 1, -1, -1):
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
        snake = min(x - prev_x, y - prev_y)
        if snake:
            if n - x > ai or m - y > bi:
                runs.append((ai, n - x, bi, m - y))
            ai, bi = n - x + snake, m - y + snake
        x, y = prev_x, prev_y
    if n > ai or m > bi:
        runs.append((ai, n, bi, m))
    return runs
