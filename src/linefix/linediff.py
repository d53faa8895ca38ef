"""Minimal line diffs as maximal changed runs.

``edit_runs`` computes a shortest edit script between two line sequences and
reports each maximal changed run as ``(a_start, a_end, b_start, b_end)``:
lines ``a[a_start:a_end]`` are replaced by ``b[b_start:b_end]``. Runs are
ascending and separated by at least one unchanged line.

Where several minimal scripts exist (repeated lines such as blank lines or
braces), changes are placed earliest: the kernel runs over the reversed
sequences, so common suffixes are matched greedily and ambiguity resolves
toward the top of the file. The result is deterministic across runs and
platforms.
"""

from __future__ import annotations

from collections.abc import Sequence

from linefix._myers_py import lcs_pairs

Run = tuple[int, int, int, int]


def edit_runs(a: Sequence[str], b: Sequence[str]) -> list[Run]:
    """Maximal changed runs of a minimal line diff between ``a`` and ``b``."""
    table: dict[str, int] = {}
    a_ids = [table.setdefault(line, len(table)) for line in a]
    b_ids = [table.setdefault(line, len(table)) for line in b]
    n, m = len(a_ids), len(b_ids)
    rev_pairs = lcs_pairs(a_ids[::-1], b_ids[::-1])
    pairs = [(n - 1 - x, m - 1 - y) for x, y in rev_pairs]
    pairs.reverse()
    runs: list[Run] = []
    ai = bi = 0
    for x, y in [*pairs, (n, m)]:
        if x > ai or y > bi:
            runs.append((ai, x, bi, y))
        ai, bi = x + 1, y + 1
    return runs
