"""Benchmark the line diff.

Synthesizes function-sized line sequences, mutates a few runs the way real
fixes do, and times edit_runs over each workload.

Run from the repository root:  PYTHONPATH=src python3 benchmarks/bench_diff.py
"""

from __future__ import annotations

import random
import time

from linefix.linediff import edit_runs

VOCAB = [
    "{",
    "}",
    "",
    "    return ret;",
    "    if (len < 0)",
    "        goto fail;",
    "    buf[i] = 0;",
    "    for (i = 0; i < n; i++) {",
    "    int ret = 0;",
    "    memcpy(dst, src, n);",
]


def synth_pair(rng: random.Random, n_lines: int, n_edits: int) -> tuple[list[str], list[str]]:
    before = [
        f"{rng.choice(VOCAB)} /* {rng.randrange(n_lines // 4 + 1)} */"
        if rng.random() < 0.3
        else rng.choice(VOCAB)
        for _ in range(n_lines)
    ]
    after = list(before)
    for _ in range(n_edits):
        kind = rng.choice(("insert", "delete", "replace"))
        pos = rng.randrange(max(1, len(after)))
        if kind == "insert":
            after[pos:pos] = [rng.choice(VOCAB) + " /* new */"]
        elif kind == "delete" and after:
            del after[pos: pos + rng.randint(1, 3)]
        else:
            after[pos: pos + rng.randint(1, 3)] = [rng.choice(VOCAB) + " /* repl */"]
    return before, after


def bench(pairs: list[tuple[list[str], list[str]]]) -> float:
    start = time.perf_counter()
    for before, after in pairs:
        edit_runs(before, after)
    return time.perf_counter() - start


def main() -> None:
    rng = random.Random(20240816)
    workloads = {
        "small fixes (200 lines, 3 edits, x400)": [synth_pair(rng, 200, 3) for _ in range(400)],
        "medium fixes (800 lines, 8 edits, x100)": [synth_pair(rng, 800, 8) for _ in range(100)],
        "heavy rewrites (600 lines, 120 edits, x40)": [synth_pair(rng, 600, 120) for _ in range(40)],
    }
    print(f"{'workload':<45}{'edit_runs':>12}")
    for label, pairs in workloads.items():
        print(f"{label:<45}{bench(pairs):>11.3f}s")


if __name__ == "__main__":
    main()
