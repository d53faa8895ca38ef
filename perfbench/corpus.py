"""Seeded benchmark inputs and the oracle side-files that check them.

Everything here is a pure function of the seed. The program under test only
ever sees the files written by ``write_corpus`` and ``write_candidates``; the
oracle files next to them are read back by ``verify``.

Record shapes come from ``synth_pair`` in ``benchmarks/bench_diff.py``:

* normal records: 20-200 lines, 1-3 edits;
* heavy records (1 in 50): 400-800 lines, 24-48 edits, so a change to the
  diff kernel shows end to end;
* lone-blank records (1 in 100): the whole fix inserts one blank line, inside
  the function or at its end. Their minimal patch has the body ``[""]``, which
  the patch text cannot carry, so they surface as failures until the format
  learns to carry them. They are never dropped to make the numbers look clean.

Counts are exact per split and sizes evenly cover their ranges; the seed
draws positions and contents, so every seed asks for the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re

from bench_diff import synth_pair

N_TRAIN = 5000
N_TEST = 1000
OVERLAP_SHARE = 0.4  # test records planted in train, as in the paper's corpus
HEAVY_EVERY = 50
BLANK_EVERY = 100

# The candidate traffic mix is an assumption, not a measurement: no model's
# candidate statistics are available here. It is chosen so that both paths of
# scoring carry real work. A hit stops at the first exact match; a miss goes
# on to validate every parsed candidate and compare it with the reference by
# applying both. With these shares 40% of samples take the hit path, up to 20%
# stop part-way through the miss scan at an equivalent candidate, and the rest
# scan all eight parsable candidates. The fault shares are small, so retries
# and permanent failures are exercised while 97% of samples score cleanly.
K = 10  # candidates per sample; runner.py asks evaluate for the same k
HIT_SHARE = 0.4  # samples with an exact reference among their candidates
EQUIV_SHARE = 0.2  # samples whose best candidate only applies equivalently
TRANSIENT_SHARE = 0.02  # samples failing their first attempt only
PERMANENT_SHARE = 0.01  # samples failing every attempt
MAX_ATTEMPTS = 3
# Besides the one exact, equivalent or wrong candidate that sets the sample's
# kind: whitespace variants (parse, but miss exact match), malformed headers
# (format errors) and wrong patches (parse, apply, not equivalent).
FILLER = ["whitespace"] * 3 + ["malformed"] * 2 + ["wrong"] * (K - 6)

WRONG_LINE = "    return -1; /* wrong */"

CWES = [
    ("CWE-787", "Out-of-bounds Write"),
    ("CWE-79", "Improper Neutralization of Input During Web Page Generation"),
    ("CWE-89", "Improper Neutralization of Special Elements used in an SQL Command"),
    ("CWE-416", "Use After Free"),
    ("CWE-78", "Improper Neutralization of Special Elements used in an OS Command"),
    ("CWE-20", "Improper Input Validation"),
    ("CWE-125", "Out-of-bounds Read"),
    ("CWE-22", "Improper Limitation of a Pathname to a Restricted Directory"),
    ("CWE-190", "Integer Overflow or Wraparound"),
    ("CWE-476", "NULL Pointer Dereference"),
]

_HEADER_RE = re.compile(r"(-?\d+)-(-?\d+)<MID>")


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# (lines, edits) ranges per record kind
SHAPES = {
    "normal": ((20, 200), (1, 3)),
    "heavy": ((400, 800), (24, 48)),
    "blank": ((20, 200), (0, 0)),
}


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integers evenly covering ``[lo, hi]``, in drawn order."""
    values = [lo + (hi - lo + 1) * i // n for i in range(n)]
    rng.shuffle(values)
    return values


def _shapes(rng: random.Random, n: int) -> list[tuple[str, int, int]]:
    """``(kind, lines, edits)`` per record.

    Kind counts are exact and sizes evenly cover their ranges, so only
    positions and contents change with the seed; the work per pass does not.
    """
    counts = {"heavy": n // HEAVY_EVERY, "blank": n // BLANK_EVERY}
    counts["normal"] = n - sum(counts.values())
    shapes = []
    for kind, ((lines_lo, lines_hi), (edits_lo, edits_hi)) in SHAPES.items():
        lines = _spread(rng, counts[kind], lines_lo, lines_hi)
        edits = _spread(rng, counts[kind], edits_lo, edits_hi)
        shapes += [(kind, a, b) for a, b in zip(lines, edits)]
    rng.shuffle(shapes)
    return shapes


def _pair(rng: random.Random, kind: str, lines: int, edits: int) -> tuple[list[str], list[str]]:
    before, after = synth_pair(rng, lines, edits)
    if kind == "blank":
        pos = rng.randint(1, len(before))  # len(before) appends at the end
        after = before[:pos] + [""] + before[pos:]
    return before, after


def _records(rng: random.Random, prefix: str, n: int, seen: set[str]) -> list[dict]:
    out = []
    for i, (kind, lines, edits) in enumerate(_shapes(rng, n)):
        while True:
            before, after = _pair(rng, kind, lines, edits)
            key = _text(before)
            if after != before and key not in seen:
                break
        seen.add(key)
        cwe_id, description = rng.choice(CWES)
        out.append(
            {
                "id": f"{prefix}{i:05d}",
                "kind": kind,
                "cwe_id": cwe_id,
                "cwe_description": description,
                "before": before,
                "after": after,
            }
        )
    return out


def make_corpus(seed: int, n_train: int = N_TRAIN, n_test: int = N_TEST, *, with_train: bool = True):
    """Generate ``(train, test, planted)`` records for a seed.

    The test split is drawn first, so a caller that only needs the test split
    (``with_train=False``) gets the same records. ``train`` holds
    ``n_train - planted`` unique records plus ``planted`` copies of test
    records under train ids, at drawn positions.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    test = _records(rng, "t", n_test, seen)
    if not with_train:
        return [], test, 0
    planted = round(OVERLAP_SHARE * n_test)
    train = _records(rng, "r", n_train - planted, seen)
    for j, src in enumerate(rng.sample(test, planted)):
        copy = dict(src, id=f"p{j:05d}", planted_from=src["id"])
        train.insert(rng.randint(0, len(train)), copy)
    return train, test, planted


def _write_raw(records: list[dict], split: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            row = {
                "id": r["id"],
                "cve_id": f"CVE-2021-{r['id']}",
                "cwe_id": r["cwe_id"],
                "cwe_description": r["cwe_description"],
                "source_before": _text(r["before"]),
                "source_after": _text(r["after"]),
                "split": split,
            }
            fh.write(json.dumps(row) + "\n")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_corpus(seed: int, work: str, *, with_train: bool = True) -> dict:
    """Write ``raw_train.jsonl``/``raw_test.jsonl`` and the oracle side-files.

    ``oracle_records.jsonl`` holds, per record, the expected ``after`` lines
    and a hash of the ``before`` lines; ``oracle_corpus.json`` the planted
    overlap and the ids each export must contain.
    """
    train, test, planted = make_corpus(seed, with_train=with_train)
    paths = {"raw_test": os.path.join(work, "raw_test.jsonl")}
    _write_raw(test, "test", paths["raw_test"])
    if with_train:
        paths["raw_train"] = os.path.join(work, "raw_train.jsonl")
        _write_raw(train, "train", paths["raw_train"])
    with open(os.path.join(work, "oracle_records.jsonl"), "w", encoding="utf-8") as fh:
        for r in [*test, *train]:
            if "planted_from" in r:
                continue
            fh.write(json.dumps({
                "id": r["id"],
                "kind": r["kind"],
                "before_sha256": _sha("\n".join(r["before"])),
                "after": r["after"],
            }) + "\n")
    oracle = {
        "seed": seed,
        "planted_overlap": planted,
        "input_records": len(train) + len(test),
        "expected_train_ids": [r["id"] for r in train if "planted_from" not in r],
        "expected_test_ids": [r["id"] for r in test],
    }
    with open(os.path.join(work, "oracle_corpus.json"), "w", encoding="utf-8") as fh:
        json.dump(oracle, fh)
    return {**paths, **oracle}


# --- planted candidates --------------------------------------------------------


def split_completion(text: str) -> list[tuple[int, int, str]] | None:
    """``(line_bef, line_af, rawbody)`` per span, or None when a header is bad."""
    if text.endswith("\n"):
        text = text[:-1]
    if text == "":
        return []
    spans = []
    for fragment in text.split("<sep>"):
        m = _HEADER_RE.match(fragment)
        if m is None:
            return None
        spans.append((int(m.group(1)), int(m.group(2)), fragment[m.end():]))
    return spans


def _join(spans: list[tuple[int, int, str]]) -> str:
    return "<sep>".join(f"{lb}-{la}<MID>{raw}" for lb, la, raw in spans)


def prompt_source(prompt: str) -> list[str]:
    """The source lines of an ``[INST]`` prompt, with their numbers removed."""
    numbered = prompt.split("\n")[1:-1]
    return [line[len(f"{i} "):] for i, line in enumerate(numbered)]


def _equivalent(reference: str, source: list[str]) -> tuple[str, str] | None:
    """A candidate that applies like the reference but differs byte-wise.

    Multi-span references are reordered; single spans are widened over one
    unchanged neighbour line. Returns ``(class, text)`` or None when neither
    form is representable.
    """
    spans = split_completion(reference)
    if not spans:
        return None
    if len(spans) > 1:
        if any(raw.endswith("\n") for _, _, raw in spans):
            return None
        return "reordered", _join(spans[::-1])
    ((lb, la, raw),) = spans
    body = raw.split("\n") if raw else []
    if lb >= 0:
        widened = [source[lb], *body]
        if widened[-1] != "":
            return "widened", _join([(lb - 1, la, "\n".join(widened))])
    if la < len(source):
        widened = [*body, source[la]]
        if widened[-1] != "":
            return "widened", _join([(lb, la + 1, "\n".join(widened))])
    return None


def _wrong(reference: str) -> str:
    first, sep, rest = reference.partition("<sep>")
    first = first + WRONG_LINE if first.endswith("<MID>") else first + "\n" + WRONG_LINE
    return first + sep + rest


def _candidate(cls: str, reference: str, equivalent: str | None) -> str:
    if cls == "exact":
        return reference
    if cls == "whitespace":
        return reference + " "
    if cls == "malformed":
        return "L" + reference
    if cls == "wrong":
        return _wrong(reference)
    return equivalent


def _exact_draw(rng: random.Random, n: int, shares: dict[str, float], rest: str) -> list[str]:
    labels = []
    for label, share in shares.items():
        labels += [label] * round(share * n)
    labels += [rest] * (n - len(labels))
    rng.shuffle(labels)
    return labels


def plan_samples(seed: int, exported: list[dict]) -> list[dict]:
    """Planted candidate classes and fault per exported test record.

    ``exported`` rows are in the training schema. Sample kinds and faults are
    exact shares of the sample count; only their positions are drawn.
    """
    rng = random.Random(f"candidates-{seed}")
    kinds = _exact_draw(rng, len(exported), {"hit": HIT_SHARE, "equiv": EQUIV_SHARE}, "miss")
    faults = _exact_draw(
        rng, len(exported), {"transient": TRANSIENT_SHARE, "permanent": PERMANENT_SHARE}, "none"
    )
    plans = []
    for row, kind, fault in zip(exported, kinds, faults):
        reference = row["completion"]
        equivalent = None
        if kind == "equiv":
            equivalent = _equivalent(reference, prompt_source(row["prompt"]))
            if equivalent is None:
                kind = "miss"
        first = {"hit": "exact", "miss": "wrong"}.get(kind) or equivalent[0]
        classes = [first, *FILLER]
        rng.shuffle(classes)
        candidates = [
            _candidate(c, reference, equivalent[1] if equivalent else None) for c in classes
        ]
        plans.append({
            "id": row["id"],
            "prompt_sha256": _sha(row["prompt"]),
            "fault": fault,
            "classes": classes,
            "candidates": candidates,
        })
    return plans


def expected_sample(plan: dict) -> dict:
    """What scoring must report for one planted sample."""
    if plan["fault"] == "permanent":
        return {"hit": False, "hit_index": None, "format_errors": 0,
                "applied_equivalent": False, "failed": True}
    classes = plan["classes"]
    hit = "exact" in classes
    return {
        "hit": hit,
        "hit_index": classes.index("exact") if hit else None,
        "format_errors": classes.count("malformed"),
        "applied_equivalent": not hit and any(c in ("reordered", "widened") for c in classes),
        "failed": False,
    }


def write_candidates(seed: int, export_path: str, work: str) -> dict:
    """Write the mock script, the stub's response table and the sample oracle."""
    with open(export_path, encoding="utf-8") as fh:
        exported = [json.loads(line) for line in fh if line.strip()]
    plans = plan_samples(seed, exported)
    fail_times = {"none": 0, "transient": 1, "permanent": MAX_ATTEMPTS}
    script = {
        "samples": {
            p["id"]: {"candidates": p["candidates"], "fail_times": fail_times[p["fault"]]}
            for p in plans
        }
    }
    paths = {
        "mock_script": os.path.join(work, "mock_script.json"),
        "stub_table": os.path.join(work, "stub_table.jsonl"),
        "oracle_samples": os.path.join(work, "oracle_samples.jsonl"),
    }
    with open(paths["mock_script"], "w", encoding="utf-8") as fh:
        json.dump(script, fh)
    with open(paths["stub_table"], "w", encoding="utf-8") as fh:
        for p in plans:
            fh.write(json.dumps({
                "prompt_sha256": p["prompt_sha256"],
                "candidates": p["candidates"],
                "fault": p["fault"],
            }) + "\n")
    with open(paths["oracle_samples"], "w", encoding="utf-8") as fh:
        for p in plans:
            fh.write(json.dumps({"id": p["id"], "classes": p["classes"], "fault": p["fault"],
                                 **expected_sample(p)}) + "\n")
    return {**paths, "samples": len(plans)}
