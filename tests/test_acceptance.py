"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints one ``ACCEPTANCE <name>: PASS`` line when it holds; a failed
criterion fails its test. The corpus-count checks only run when the
``LINEFIX_CORPUS`` environment variable points at a directory holding
``train.jsonl``, ``validation.jsonl``, and ``test.jsonl``.
"""

from __future__ import annotations

import os
import random
import re
import time
from contextlib import contextmanager

import pytest

from linefix.client import BackendSpec, DecodeConfig, MockBackend
from linefix.dataset import detect_overlap
from linefix.engine import apply_patch, derive_patch, validate_patch
from linefix.evaluation import (
    DEFAULT_CWE_ORDER,
    WINDOW,
    efficiency,
    evaluate,
    is_perfect,
    render_report,
)
from linefix.patchfmt import EditSpan, PatchSet, parse_patch, serialize_patch
from linefix.prompting import VulnRecord, build_prompt
from linefix.source import SourceUnit
from tests.conftest import (
    VPX_PREDICTED_PATCH_TEXT,
    VPX_PROMPT_PREFIX,
    VPX_REFERENCE_PATCH_TEXT,
)
from tests.helpers import random_pair, random_patchset, read_records, refined
from tests.test_dataset import mem_record, texts


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds:.0f}s"


def eval_record(rid: str, cwe: str) -> VulnRecord:
    src = SourceUnit((f"int {rid}(void)", "{", "  return 5;", "}"), had_trailing_newline=True)
    patch = PatchSet((EditSpan(1, 3, ("  return 6;",)),))
    return VulnRecord(
        id=rid,
        cwe_id=cwe,
        cwe_description="Out-of-bounds write.",
        vuln_lines=(2,),
        source=src,
        reference_patch=patch,
        split="test",
    )


EVAL_REFERENCE = "1-3<MID>  return 6;"
EVAL_MISS = "1-3<MID>  return 7;"


def synthetic_eval(n: int, hits: int, *, latency: float = 0.33):
    cwes = [*DEFAULT_CWE_ORDER, "CWE-9999"]
    records = [eval_record(f"s{i:04d}", cwes[i % len(cwes)]) for i in range(n)]
    samples = {
        r.id: {"candidates": [EVAL_REFERENCE if i < hits else EVAL_MISS]}
        for i, r in enumerate(records)
    }
    script = {"default_latency_s": latency, "samples": samples}
    return records, script


def test_acceptance_format_goldens(vpx_record):
    patch = parse_patch(VPX_REFERENCE_PATCH_TEXT)
    assert len(patch) == 1
    span = patch.spans[0]
    assert (span.line_bef, span.line_af) == (10, 13)
    assert len(span.body) == 2
    assert serialize_patch(patch) == VPX_REFERENCE_PATCH_TEXT

    prompt = build_prompt(vpx_record)
    assert prompt.startswith(VPX_PROMPT_PREFIX)
    assert prompt.endswith("\n[/INST]")

    derived, _ = derive_patch(vpx_record.source, apply_patch(vpx_record.source, vpx_record.reference_patch))
    assert serialize_patch(derived) == VPX_REFERENCE_PATCH_TEXT
    print("ACCEPTANCE format_goldens: PASS")


def _text_representable(patch: PatchSet) -> bool:
    """Whether serialize/parse preserves every body byte-for-byte.

    Bodies whose joined text is empty, or a final body ending in an empty
    line, fall into the documented grammar ambiguity and re-parse shorter.
    """
    spans = patch.spans
    for i, span in enumerate(spans):
        joined = "\n".join(span.body)
        if span.body and joined == "":
            return False
        if i == len(spans) - 1 and joined.endswith("\n"):
            return False
    return True


def test_acceptance_roundtrip_sweep():
    with budget(10.0):
        rng = random.Random(0xACC2)
        for case_no in range(1000):
            before, after = random_pair(rng, case_no)
            patch, _ = derive_patch(before, after)
            validate_patch(before, patch)
            assert apply_patch(before, patch).lines == after.lines
            if _text_representable(patch):
                assert parse_patch(serialize_patch(patch)) == patch
        for _ in range(1000):
            patch = random_patchset(rng)
            assert parse_patch(serialize_patch(patch)) == patch
    print("ACCEPTANCE roundtrip_sweep: PASS")


def test_acceptance_whitespace_sensitivity(vpx_source, vpx_record):
    reference = VPX_REFERENCE_PATCH_TEXT
    predicted = VPX_PREDICTED_PATCH_TEXT
    assert predicted != reference
    # the prediction is well-formed and repairs the function, but one leading
    # space differs, so exact-match scoring counts it as a miss
    patch = parse_patch(predicted)
    validate_patch(vpx_source, patch)
    assert not is_perfect(predicted, reference)
    assert not is_perfect(predicted, reference, strict=True)
    print("ACCEPTANCE whitespace_sensitivity: PASS")


def test_acceptance_throughput_table():
    rows = [
        (567.06, 3.01),
        (4658.97, 0.37),
        (567.32, 3.01),
        (938.44, 1.82),
        (527.28, 3.24),
        (5333.54, 0.32),
        (521.55, 3.27),
        (941.89, 1.81),
    ]
    for total_time_s, expected_pps in rows:
        stats = efficiency(1706, total_time_s)
        assert stats.patches_per_second == pytest.approx(expected_pps, abs=0.01), (
            total_time_s,
            expected_pps,
        )
    print("ACCEPTANCE throughput_table: PASS")


def test_acceptance_refine_invariant():
    with budget(5.0):
        rng = random.Random(0x5AFE)
        for corpus_no in range(20):
            bodies = [f"x = {rng.randrange(50)};" for _ in range(rng.randint(4, 12))]
            train = [
                mem_record(f"c{corpus_no}-t{i}", f"f()\n{{\n  {b}\n}}\n",
                           f"f()\n{{\n  fixed_{b}\n}}\n")
                for i, b in enumerate(bodies)
            ]
            # inject intra-train duplicates and test-side leaks
            for i in range(rng.randint(0, 3)):
                src = rng.choice(train)
                train.append(mem_record(f"dup{i}", *texts(src)))
            test = [
                mem_record(f"e{i}", *texts(r), "test")
                for i, r in enumerate(rng.sample(train, rng.randint(1, 3)))
            ] + [mem_record("fresh", "g()\n{\n  y;\n}\n", "g()\n{\n  z;\n}\n", "test")]
            kept, manifest = refined(train, test)
            if kept:
                assert detect_overlap(kept, test).overlap_count == 0
                again, manifest2 = refined(kept, test)
                assert [r.id for r in again] == [r.id for r in kept]
                assert manifest2.overlap_count == 0
                assert manifest2.train_duplicates == 0
            assert manifest.counts["train"] == len(kept)
    print("ACCEPTANCE refine_invariant: PASS")


CORPUS_DIR = os.environ.get("LINEFIX_CORPUS")


@pytest.mark.skipif(
    CORPUS_DIR is None, reason="LINEFIX_CORPUS not set; corpus checks need local data"
)
def test_acceptance_corpus_counts():
    splits = {
        name: read_records(os.path.join(CORPUS_DIR, f"{name}.jsonl"))[0]
        for name in ("train", "validation", "test")
    }
    assert len(splits["train"]) == 6429
    assert len(splits["validation"]) == 338
    assert len(splits["test"]) == 1706
    manifest = detect_overlap(splits["train"], splits["test"])
    assert manifest.overlap_fraction == pytest.approx(0.40, abs=0.05)
    kept, _ = refined(splits["train"], splits["test"])
    assert len(kept) == pytest.approx(4163, rel=0.05)
    print("ACCEPTANCE corpus_counts: PASS")


def test_acceptance_mock_determinism():
    # several windows at either slot count, split differently at each
    records, script = synthetic_eval(2 * WINDOW + 44, 97, latency=0.4)
    cfg = DecodeConfig(strategy="beam", k=5)
    reports = []
    for max_in_flight in (1, 4):
        for _ in range(2):
            spec = BackendSpec(endpoint="mock:", max_in_flight=max_in_flight)
            backend = MockBackend(script, spec)
            report, stats = evaluate(records, backend, cfg)
            reports.append((report.to_json(), stats))
    assert len(set(reports)) == 1  # byte-identical across runs and concurrency
    print("ACCEPTANCE mock_determinism: PASS")


def test_acceptance_headline_rate():
    with budget(30.0):
        records, script = synthetic_eval(1706, 436)
        backend = MockBackend(script, BackendSpec(endpoint="mock:", max_in_flight=4))
        report, stats = evaluate(records, backend, DecodeConfig(strategy="beam", k=5))
    assert report.pp_hits == 436
    assert report.pp_total == 1706
    assert report.pp_rate == pytest.approx(0.2556, abs=1e-4)
    assert stats.time_synthetic
    assert stats.total_time_s == pytest.approx(1706 * 0.33)
    print("ACCEPTANCE headline_rate: PASS")


def test_acceptance_per_cwe_render():
    with budget(1.0):
        records, script = synthetic_eval(44, 17, latency=0.1)
        backend = MockBackend(script, BackendSpec(endpoint="mock:"))
        report, _ = evaluate(records, backend, DecodeConfig(strategy="beam", k=5))
        text = render_report(report, "text")
        positions = [text.index(f"\n{cwe} ") for cwe in DEFAULT_CWE_ORDER]
        assert positions == sorted(positions)  # stated order, all present
        for line in text.splitlines()[1: len(DEFAULT_CWE_ORDER) + 2]:
            assert re.fullmatch(r"\S+\s+\d+/\d+", line), line
        assert len(report.per_cwe) == len(DEFAULT_CWE_ORDER) + 1
        assert report.per_cwe[-1].cwe_id == "other"
        assert [r.cwe_id for r in report.per_cwe[:-1]] == list(DEFAULT_CWE_ORDER)
    print("ACCEPTANCE per_cwe_render: PASS")
