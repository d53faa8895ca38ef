"""Synthetic fixes: function-sized line sequences with a few runs mutated.

``synth_pair`` draws a before/after pair the way real fixes change code;
``perfbench/corpus.py`` builds its records from it, so its draws are part of
the benchmark's inputs.
"""

from __future__ import annotations

import random

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
