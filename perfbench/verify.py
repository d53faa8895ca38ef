"""Correctness gates: the program's outputs against the generator's oracle.

The oracle side of the format (splitting a completion into spans, applying
them, reading the source out of a prompt) is re-implemented in ``corpus``
from the format's definition, so the program is never its own judge.
"""

from __future__ import annotations

import hashlib
import json
import os

from corpus import prompt_source, split_completion


def _jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def apply_completion(source: list[str], completion: str) -> list[str] | None:
    """``source`` with the completion's spans spliced in; None if unparsable."""
    spans = split_completion(completion)
    if spans is None:
        return None
    out = list(source)
    for lb, la, raw in sorted(spans, key=lambda s: (s[0], s[1]), reverse=True):
        out[lb + 1:la] = raw.split("\n") if raw else []
    return out


def check_corpus(work: str) -> tuple[int, int, dict[str, bool]]:
    """``(attempted, failed, gates)`` for one corpus_prep pass.

    A record fails when it is missing from its export (quarantined) or when
    its exported completion does not turn the prompt's source into the
    generator's ``after``.
    """
    with open(os.path.join(work, "oracle_corpus.json"), encoding="utf-8") as fh:
        oracle = json.load(fh)
    records = {r["id"]: r for r in _jsonl(os.path.join(work, "oracle_records.jsonl"))}
    with open(os.path.join(work, "refined.jsonl.manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    gates = {"refine_overlap_equals_planted":
             manifest["result"]["overlap_count"] == oracle["planted_overlap"]}
    attempted = failed = 0
    for split in ("train", "test"):
        expected = oracle[f"expected_{split}_ids"]
        rows = _jsonl(os.path.join(work, f"{split}_export.jsonl"))
        ids = [row["id"] for row in rows]
        gates[f"{split}_export_ids_expected"] = (
            len(set(ids)) == len(ids) and set(ids) <= set(expected)
        )
        attempted += len(expected)
        failed += len(set(expected) - set(ids))
        for row in rows:
            rec = records.get(row["id"])
            source = prompt_source(row["prompt"])
            before_sha = hashlib.sha256("\n".join(source).encode("utf-8")).hexdigest()
            if (rec is None or before_sha != rec["before_sha256"]
                    or apply_completion(source, row["completion"]) != rec["after"]):
                failed += 1
    return attempted, failed, gates


def check_eval(report_dir: str, oracle_path: str) -> tuple[int, int, dict[str, bool], list]:
    """``(attempted, failed, gates, hit_vector)`` for one evaluation report."""
    with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    oracle = _jsonl(oracle_path)
    samples = report["samples"]
    got = [
        (s["sample_id"], s["hit"], s["hit_index"], s["format_errors"],
         s["applied_equivalent"], s["backend_error"] is not None)
        for s in samples
    ]
    want = [
        (o["id"], o["hit"], o["hit_index"], o["format_errors"],
         o["applied_equivalent"], o["failed"])
        for o in oracle
    ]
    planted_failures = sum(o["failed"] for o in oracle)
    gates = {
        "samples_match_oracle": got == want,
        "pp_hits_equals_planted": report["pp_hits"] == sum(o["hit"] for o in oracle),
        "format_errors_equal_planted":
            report["format_error_count"] == sum(o["format_errors"] for o in oracle),
        "applied_equivalent_misses_equal_planted":
            report["applied_equivalent_misses"] == sum(o["applied_equivalent"] for o in oracle),
        "failed_equals_planted_permanent": report["backend_error_count"] == planted_failures,
    }
    hits = [(s["sample_id"], s["hit"]) for s in samples]
    return report["pp_total"], report["backend_error_count"], gates, hits


def check_deterministic(hashes: list[dict[str, str]]) -> bool:
    """Every pass wrote the same bytes as the first."""
    return bool(hashes) and all(h == hashes[0] for h in hashes)
