"""Pure-Python shortest-edit-script kernel.

Greedy forward search over the edit graph with a per-depth trace for
backtracking. Time is O((n+m)*D) and trace memory O(D^2), where D is the
edit distance; both are small for the near-identical sequences this package
diffs.
"""

from __future__ import annotations

from collections.abc import Sequence


def lcs_pairs(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int]]:
    """Matched index pairs of one minimal edit script, ascending in both coords.

    The greedy forward convention is deterministic: when a path can be reached
    by either a deletion or an insertion, the deletion (consuming ``a``) wins
    unless the insertion comes from a strictly longer prefix.
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
