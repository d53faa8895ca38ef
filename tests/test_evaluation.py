"""Scoring semantics, per-CWE breakdown, throughput, report rendering."""

from __future__ import annotations

import dataclasses
import json

import pytest

from linefix.client import BackendSpec, DecodeConfig, MockBackend, generate_batch
from linefix.errors import EmptyEvaluation, MissingReference
from linefix.evaluation import (
    DEFAULT_CWE_ORDER,
    EvalReport,
    efficiency,
    evaluate,
    first_hit_index,
    is_perfect,
    render_report,
    score_batch,
)
from linefix.patchfmt import EditSpan, PatchSet, serialize_patch
from linefix.prompting import VulnRecord
from linefix.source import SourceUnit

REFERENCE = "1-3<MID>  return 6;"


def record(rid: str, cwe: str = "CWE-787") -> VulnRecord:
    src = SourceUnit((f"int {rid}(void)", "{", "  return 5;", "}"), had_trailing_newline=True)
    patch = PatchSet((EditSpan(1, 3, ("  return 6;",)),))
    return VulnRecord(
        id=rid,
        cwe_id=cwe,
        cwe_description="Out-of-bounds write.",
        vuln_lines=(2,),
        source=src,
        reference_patch=patch,
    )


def run_eval(records, samples, *, k=3, latency=0.5, strict=False, cwe_order=DEFAULT_CWE_ORDER,
             max_attempts=2):
    script = {"default_latency_s": latency, "samples": samples}
    spec = BackendSpec(endpoint="mock:", max_attempts=max_attempts, backoff_s=0.0)
    backend = MockBackend(script, spec)
    cfg = DecodeConfig(strategy="beam", k=k)
    return evaluate(records, backend, cfg, cwe_order=cwe_order, strict=strict)


@pytest.fixture
def mixed_report() -> EvalReport:
    records = [
        record("r1", "CWE-787"),
        record("r2", "CWE-787"),
        record("r3", "CWE-79"),
        record("r4", "CWE-89"),
        record("r5", "CWE-79"),
        record("r6", "CWE-9999"),
    ]
    samples = {
        "r1": {"candidates": [REFERENCE], "tokens": [5, 6, 7]},
        "r2": {"candidates": ["garbage, no header"]},
        "r3": {"candidates": ["1-3<MID>  return 7;", "1-3<MID>  return 8;", REFERENCE]},
        "r4": {"candidates": ["1-3<MID>  return 9;"]},
        "r5": {"candidates": ["1-4<MID>  return 6;\n}"]},
        "r6": {"candidates": ["never delivered"], "fail_times": 5},
    }
    return run_eval(records, samples)


# --- match predicate -------------------------------------------------------------


def test_is_perfect_exact():
    assert is_perfect("a\nb", "a\nb")
    assert not is_perfect("a\nb", "a\nc")
    assert not is_perfect("a\nb ", "a\nb")  # interior whitespace counts


def test_is_perfect_allows_one_trailing_lf():
    assert is_perfect("a\nb\n", "a\nb")
    assert is_perfect("a\nb", "a\nb\n")
    assert not is_perfect("a\nb\n\n", "a\nb")


def test_is_perfect_strict():
    assert not is_perfect("a\nb\n", "a\nb", strict=True)
    assert is_perfect("a\nb", "a\nb", strict=True)


def test_first_hit_index_and_sample_hit():
    cands = ["x", "ref", "ref"]
    assert first_hit_index(cands, "ref") == 1
    assert first_hit_index(["x"], "ref") is None
    assert first_hit_index([], "ref") is None


def test_whitespace_prediction_is_a_miss(vpx_reference_patch):
    from tests.conftest import VPX_PREDICTED_PATCH_TEXT

    reference = serialize_patch(vpx_reference_patch)
    assert not is_perfect(VPX_PREDICTED_PATCH_TEXT, reference)


# --- efficiency ---------------------------------------------------------------------


def test_efficiency_patches_per_second():
    stats = efficiency(1706, 567.06)
    assert stats.patches_per_second == pytest.approx(3.01, abs=0.01)
    assert stats.total_time_s == 567.06


def test_efficiency_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        efficiency(10, 0.0)
    with pytest.raises(ValueError):
        efficiency(10, -1.0)


# --- evaluate ------------------------------------------------------------------------


def test_headline_counts(mixed_report):
    rep = mixed_report
    assert rep.pp_hits == 2
    assert rep.pp_total == 6
    assert rep.pp_rate == 2 / 6
    assert rep.format_error_count == 1
    assert rep.applied_equivalent_misses == 1
    assert rep.backend_error_count == 1
    assert rep.tokens_estimated  # r2..r5 carry no token counts
    assert rep.time_synthetic


def test_per_cwe_rows(mixed_report):
    rows = {row.cwe_id: (row.hits, row.total) for row in mixed_report.per_cwe}
    assert rows["CWE-787"] == (1, 2)
    assert rows["CWE-79"] == (1, 2)
    assert rows["CWE-89"] == (0, 1)
    assert rows["other"] == (0, 1)  # CWE-9999 is outside the listed order
    assert rows["CWE-416"] == (0, 0)
    assert [row.cwe_id for row in mixed_report.per_cwe] == [*DEFAULT_CWE_ORDER, "other"]


def test_sample_rows(mixed_report):
    by_id = {s.sample_id: s for s in mixed_report.samples}
    assert by_id["r1"].hit and by_id["r1"].hit_index == 0
    assert not by_id["r1"].applied_equivalent  # only tracked for misses
    assert by_id["r2"].format_errors == 1
    assert by_id["r3"].hit_index == 2
    assert by_id["r5"].applied_equivalent and not by_id["r5"].hit
    assert by_id["r6"].backend_error is not None
    assert by_id["r6"].backend_error.startswith("TransportError")


def test_synthetic_time_sums_scripted_latencies(mixed_report):
    # five successful samples at 0.5s each; the failed one contributes nothing
    assert mixed_report.efficiency.total_time_s == pytest.approx(2.5)
    assert mixed_report.efficiency.patches_per_second == pytest.approx(6 / 2.5)


def test_custom_cwe_order():
    records = [record("a", "CWE-89"), record("b", "CWE-125")]
    samples = {"a": {"candidates": [REFERENCE]}, "b": {"candidates": [REFERENCE]}}
    rep = run_eval(records, samples, cwe_order=("CWE-89",))
    assert [row.cwe_id for row in rep.per_cwe] == ["CWE-89", "other"]
    assert rep.per_cwe[1].total == 1


def test_strict_mode_rejects_trailing_lf():
    records = [record("a")]
    samples = {"a": {"candidates": [REFERENCE + "\n"]}}
    assert run_eval(records, samples).pp_hits == 1
    assert run_eval(records, samples, strict=True).pp_hits == 0


def test_evaluate_empty_records():
    backend = MockBackend({"samples": {}})
    with pytest.raises(EmptyEvaluation):
        evaluate([], backend, DecodeConfig())


def test_evaluate_needs_reference():
    bare = VulnRecord(
        id="x",
        cwe_id="CWE-20",
        cwe_description="d.",
        vuln_lines=(),
        source=SourceUnit(("a",)),
    )
    backend = MockBackend({"samples": {}})
    with pytest.raises(MissingReference):
        evaluate([bare], backend, DecodeConfig())


def test_evaluate_is_deterministic():
    records = [record(f"r{i}", "CWE-79") for i in range(6)]
    samples = {
        f"r{i}": {"candidates": [REFERENCE if i % 2 else "1-3<MID>  no;"]}
        for i in range(6)
    }
    assert run_eval(records, samples).to_json() == run_eval(records, samples).to_json()


def test_zero_time_guard():
    records = [record("a")]
    samples = {"a": {"candidates": [REFERENCE]}}
    rep = run_eval(records, samples, latency=0.0)
    assert rep.efficiency.total_time_s == 0.0
    assert rep.efficiency.patches_per_second == 0.0
    assert rep.pp_hits == 1


def test_score_batch_reusable_without_backend():
    records = [record("a"), record("b")]
    samples = {
        "a": {"candidates": [REFERENCE], "latency_s": 1.0},
        "b": {"candidates": ["1-3<MID>  no;"], "latency_s": 1.0},
    }
    backend = MockBackend({"samples": samples})
    cfg = DecodeConfig(strategy="beam", k=1)
    batch = generate_batch([("a", "p1"), ("b", "p2")], cfg, backend)
    rep = score_batch(records, [r.reference() for r in records], batch)
    assert rep.pp_hits == 1
    assert rep.efficiency.total_time_s == pytest.approx(2.0)


# --- report serialization ---------------------------------------------------------------


def test_render_json_matches_to_json(mixed_report):
    assert render_report(mixed_report, "json") == mixed_report.to_json()


def test_to_json_matches_asdict_rendering(mixed_report):
    """Serializing through ``vars`` writes the bytes a deep ``asdict`` copy would."""
    expected = json.dumps(dataclasses.asdict(mixed_report), indent=2, ensure_ascii=False)
    assert mixed_report.to_json() == expected + "\n"


def test_render_csv(mixed_report):
    lines = render_report(mixed_report, "csv").splitlines()
    assert lines[0] == "cwe_id,hits,total"
    assert lines[1] == "CWE-787,1,2"
    assert lines[-1] == "other,0,1"
    assert len(lines) == len(DEFAULT_CWE_ORDER) + 2


def test_render_text(mixed_report):
    text = render_report(mixed_report, "text")
    assert "CWE-787" in text
    assert "1/2" in text
    assert "perfect predictions: 2/6 (rate 0.3333)" in text
    assert "format errors: 1" in text
    assert "applied-equivalent misses: 1" in text
    assert "backend errors: 1" in text


def test_render_unknown_format(mixed_report):
    with pytest.raises(ValueError):
        render_report(mixed_report, "html")
