"""Scoring semantics, per-CWE breakdown, throughput, report rendering."""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linefix import client, evaluation
from linefix.client import (
    BackendSpec,
    CandidateSet,
    DecodeConfig,
    MockBackend,
    batch_pool,
    submit_batch,
)
from linefix.engine import apply_patch, derive_patch, splice, validate_patch
from linefix.errors import ConflictingSpans, EmptyEvaluation, InvalidPatch, PatchFormatError
from linefix.evaluation import (
    DEFAULT_CWE_ORDER,
    EfficiencyStats,
    EvalReport,
    SampleResult,
    efficiency,
    evaluate,
    is_perfect,
    render_report,
    score_batch,
)
from linefix.patchfmt import EditSpan, PatchSet, parse_patch, serialize_patch
from linefix.prompting import VulnRecord
from linefix.source import SourceUnit
from tests.helpers import random_patchset

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
        split="test",
    )


def run_eval(records, samples, *, k=3, latency=0.5, strict=False, cwe_order=DEFAULT_CWE_ORDER,
             max_attempts=2):
    script = {"default_latency_s": latency, "samples": samples}
    spec = BackendSpec(endpoint="mock:", max_attempts=max_attempts, backoff_s=0.0)
    backend = MockBackend(script, spec)
    cfg = DecodeConfig(strategy="beam", k=k)
    return evaluate(records, backend, cfg, cwe_order=cwe_order, strict=strict)


@pytest.fixture
def mixed_run() -> tuple[EvalReport, EfficiencyStats]:
    records = [
        record("r1", "CWE-787"),
        record("r2", "CWE-787"),
        record("r3", "CWE-79"),
        record("r4", "CWE-89"),
        record("r5", "CWE-79"),
        record("r6", "CWE-9999"),
    ]
    samples = {
        "r1": {"candidates": [REFERENCE], "tokens": [18]},
        "r2": {"candidates": ["garbage, no header"]},
        "r3": {"candidates": ["1-3<MID>  return 7;", "1-3<MID>  return 8;", REFERENCE]},
        "r4": {"candidates": ["1-3<MID>  return 9;"]},
        "r5": {"candidates": ["1-4<MID>  return 6;\n}"]},
        "r6": {"candidates": ["never delivered"], "fail_times": 5},
    }
    return run_eval(records, samples)


@pytest.fixture
def mixed_report(mixed_run) -> EvalReport:
    return mixed_run[0]


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


def test_a_perfect_text_parses_to_the_reference():
    # score_batch takes a perfect candidate as the reference patch without parsing it
    rng = random.Random(0x1F)
    for _ in range(300):
        patch = random_patchset(rng)  # its text round-trips by construction
        text = serialize_patch(patch)
        for candidate in (text, text + "\n"):
            assert is_perfect(candidate, text)
            assert parse_patch(candidate) == patch


def test_first_hit_index_and_sample_hit():
    """A sample's hit index is its first perfect candidate; no candidate never hits."""
    wrong = "1-3<MID>  return 7;"
    hit = [wrong, REFERENCE + "\n", wrong, REFERENCE, REFERENCE + "\n"]
    for strict, index in ((False, 1), (True, 3)):
        report = score_batch([record("a"), record("b"), record("c")],
                             outcomes([hit, [wrong], []]), strict=strict)
        assert [(s.hit, s.hit_index) for s in report.samples] == [
            (True, index), (False, None), (False, None)]


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


def test_headline_counts(mixed_run):
    rep, stats = mixed_run
    assert rep.pp_hits == 2
    assert rep.pp_total == 6
    assert rep.pp_rate == 2 / 6
    assert rep.format_error_count == 1
    assert rep.applied_equivalent_misses == 1
    assert rep.backend_error_count == 1
    assert rep.total_tokens == 37  # r1's 18 scripted, r2..r5's 19 estimated
    assert rep.tokens_estimated  # r2..r5 carry no token counts
    assert stats.time_synthetic


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


def test_synthetic_time_sums_scripted_latencies(mixed_run):
    # five successful samples at 0.5s each; the failed one contributes nothing
    _, stats = mixed_run
    assert stats.total_time_s == pytest.approx(2.5)
    assert stats.patches_per_second == pytest.approx(6 / 2.5)


def test_custom_cwe_order():
    records = [record("a", "CWE-89"), record("b", "CWE-125")]
    samples = {"a": {"candidates": [REFERENCE]}, "b": {"candidates": [REFERENCE]}}
    rep, _ = run_eval(records, samples, cwe_order=("CWE-89",))
    assert [row.cwe_id for row in rep.per_cwe] == ["CWE-89", "other"]
    assert rep.per_cwe[1].total == 1


def test_strict_mode_rejects_trailing_lf():
    records = [record("a")]
    samples = {"a": {"candidates": [REFERENCE + "\n"]}}
    assert run_eval(records, samples)[0].pp_hits == 1
    assert run_eval(records, samples, strict=True)[0].pp_hits == 0


def test_evaluate_empty_records():
    backend = MockBackend({"samples": {}})
    with pytest.raises(EmptyEvaluation):
        evaluate([], backend, DecodeConfig())


def test_score_batch_of_nothing_is_an_empty_evaluation():
    with pytest.raises(EmptyEvaluation, match="^no records to evaluate$"):
        score_batch([], [])


def test_score_batch_pairs_records_and_outcomes_strictly():
    # zip would drop the longer side's extra items without a word
    with pytest.raises(ValueError, match="shorter"):
        score_batch([record("a"), record("b")], outcomes([[REFERENCE]]))
    with pytest.raises(ValueError, match="longer"):
        score_batch([record("a")], outcomes([[REFERENCE], [REFERENCE]]))


def test_a_short_answer_is_scored_as_returned():
    # an empty candidate parses to the empty patch, which applies as this no-op
    # reference does; a backend that returned one wrong candidate gave no such candidate
    src = SourceUnit(("a", "b", "c"), had_trailing_newline=True)
    noop = VulnRecord(id="n", cwe_id="CWE-787", cwe_description="d", vuln_lines=(1,),
                      source=src, reference_patch=parse_patch("0-2<MID>b"), split="test")
    rep, _ = run_eval([noop], {"n": {"candidates": ["0-2<MID>x"]}}, k=3)
    assert not rep.samples[0].hit
    assert not rep.samples[0].applied_equivalent
    assert rep.total_tokens == 1


def windowed_samples(n: int) -> dict:
    """Scripts for records r0..r{n-1}: mixed hits, misses, format errors, backend failures."""
    candidates = (REFERENCE, "1-3<MID>  return 7;", "not a patch", "1-3<MID>  return 6;\n")
    samples = {
        f"r{i}": {"candidates": [candidates[i % 4], candidates[(i + 1) % 4]],
                  "latency_s": 0.1 + 0.01 * i, "tokens": [i, 2]}
        for i in range(n)
    }
    samples["r5"]["fail_times"] = 9  # every attempt fails
    return samples


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_windows_give_the_one_batch_report(window, size):
    records = [record(f"r{i}", ("CWE-787", "CWE-79", "CWE-9999")[i % 3]) for i in range(20)]
    samples = windowed_samples(20)
    whole, whole_stats = run_eval(records, samples, k=2)
    window(size)
    # a generator is read window by window, never listed whole
    report, stats = run_eval((r for r in records), samples, k=2)
    assert report.to_json() == whole.to_json()
    assert stats == whole_stats


def test_windows_take_the_time_sum_of_every_sample_in_input_order(window):
    records = [record(f"r{i}") for i in range(20)]
    samples = windowed_samples(20)
    window(3)
    _, stats = run_eval(records, samples, k=2)
    # the float sum, in input order, of one batch of all twenty, not a sum of window sums
    backend = MockBackend({"samples": samples}, BackendSpec(max_attempts=2, backoff_s=0.0))
    with batch_pool(backend) as pool:
        futures = submit_batch([(r.id, "p") for r in records], DecodeConfig(k=2), backend,
                               pool=pool)
        batch = [f.result() for f in futures]
    total = 0.0
    for o in batch:
        total += o.wall_time_s
    assert stats.total_time_s == total


def test_synthetic_time_is_the_same_float_on_every_python():
    # added one at a time: from Python 3.12, sum() of floats is compensated and gives 0.8 here
    records = [record(f"r{i}") for i in range(8)]
    samples = {f"r{i}": {"candidates": [REFERENCE], "latency_s": 0.1} for i in range(8)}
    _, stats = run_eval(records, samples, k=1)
    assert stats.total_time_s == 0.7999999999999999


@pytest.mark.parametrize("n", [1, 3])
def test_wall_time_spans_the_first_window_queued_to_the_last_collected(monkeypatch, window, n):
    # the clock is read once when the first window is queued and once per window collected
    ticks = iter(range(100))
    monkeypatch.setattr(evaluation, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    window(2)
    records = [record(f"r{i}") for i in range(2 * n)]
    backend = MockBackend({"samples": {r.id: {"candidates": [REFERENCE]} for r in records}})
    backend.synthetic = False
    _, stats = evaluate(records, backend, DecodeConfig(k=1))
    assert stats.total_time_s == n
    assert not stats.time_synthetic


def test_every_window_runs_on_one_pool(monkeypatch, window):
    # a pool per window made the caller wait on almost every mock sample
    made = []

    class CountedPool(client.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(client, "ThreadPoolExecutor", CountedPool)
    window(2)
    records = [record(f"r{i}") for i in range(7)]
    assert run_eval(records, windowed_samples(7), k=2)[0].pp_total == 7
    assert len(made) == 1


def test_a_window_keeps_every_in_flight_slot_busy(monkeypatch):
    # with more slots than WINDOW records, a window of WINDOW would leave slots idle
    slots = 6
    monkeypatch.setattr(evaluation, "WINDOW", 2)
    gathered = threading.Barrier(slots, timeout=5)

    class Gathering(MockBackend):
        def complete(self, sample_id, prompt, cfg):
            gathered.wait()  # passes only while every slot is generating
            return super().complete(sample_id, prompt, cfg)

    records = [record(f"r{i}") for i in range(2 * slots)]
    script = {"samples": {r.id: {"candidates": [REFERENCE]} for r in records}}
    backend = Gathering(script, BackendSpec(endpoint="mock:", max_in_flight=slots))
    assert evaluate(records, backend, DecodeConfig(k=1))[0].pp_hits == 2 * slots


def test_the_next_window_is_in_flight_while_a_window_is_scored(monkeypatch, window):
    # a barrier between windows left the slots idle while the caller scored and read
    window(2)
    second_window = threading.Event()

    class Signalling(MockBackend):
        def complete(self, sample_id, prompt, cfg):
            if sample_id == "r2":
                second_window.set()
            return super().complete(sample_id, prompt, cfg)

    scored = []

    def score_batch_after_the_next_window_starts(records, outcomes, **kwargs):
        if not scored:
            assert second_window.wait(timeout=5), "window 2 was not generating"
        scored.append([r.id for r in records])
        return score_batch(records, outcomes, **kwargs)

    monkeypatch.setattr(evaluation, "score_batch", score_batch_after_the_next_window_starts)
    records = [record(f"r{i}") for i in range(5)]
    backend = Signalling({"samples": {r.id: {"candidates": [REFERENCE]} for r in records}})
    assert evaluate(records, backend, DecodeConfig(k=1))[0].pp_hits == 5
    assert scored == [["r0", "r1"], ["r2", "r3"], ["r4"]]


def test_an_error_drops_the_samples_still_queued(window):
    # a repeated id in window 2 is found while window 1 waits in the pool's queue
    window(3)
    started = []
    release = threading.Event()

    class Held(MockBackend):
        def complete(self, sample_id, prompt, cfg):
            started.append(sample_id)
            release.wait(timeout=5)
            return super().complete(sample_id, prompt, cfg)

    ids = ["a", "b", "c", "d", "a"]
    backend = Held({"samples": {i: {"candidates": [REFERENCE]} for i in ids}})
    timer = threading.Timer(0.5, release.set)
    timer.start()
    try:
        with pytest.raises(ValueError, match="sample ids must be unique"):
            evaluate([record(i) for i in ids], backend, DecodeConfig(k=1))
    finally:
        timer.cancel()
        release.set()
    assert started == ["a"]  # the one slot's running sample finishes, the rest are dropped


@pytest.mark.parametrize("ids", [["a", "b", "c", "a"], ["a", "b", "b"], ["a", "a"]])
def test_repeated_sample_id_raises_in_any_window(window, ids):
    window(2)
    samples = {i: {"candidates": [REFERENCE]} for i in ids}
    with pytest.raises(ValueError, match="sample ids must be unique"):
        run_eval([record(i) for i in ids], samples)


def test_evaluate_is_deterministic():
    records = [record(f"r{i}", "CWE-79") for i in range(6)]
    samples = {
        f"r{i}": {"candidates": [REFERENCE if i % 2 else "1-3<MID>  no;"]}
        for i in range(6)
    }
    first, first_stats = run_eval(records, samples)
    again, again_stats = run_eval(records, samples)
    assert first.to_json() == again.to_json()
    assert first_stats == again_stats


def test_zero_time_guard():
    records = [record("a")]
    samples = {"a": {"candidates": [REFERENCE]}}
    rep, stats = run_eval(records, samples, latency=0.0)
    assert stats.total_time_s == 0.0
    assert stats.patches_per_second == 0.0
    assert rep.pp_hits == 1


def test_score_batch_reusable_without_backend():
    records = [record("a"), record("b")]
    samples = {
        "a": {"candidates": [REFERENCE], "latency_s": 1.0},
        "b": {"candidates": ["1-3<MID>  no;"], "latency_s": 1.0},
    }
    backend = MockBackend({"samples": samples})
    cfg = DecodeConfig(strategy="beam", k=1)
    with batch_pool(backend) as pool:
        futures = submit_batch([("a", "p1"), ("b", "p2")], cfg, backend, pool=pool)
        batch = [f.result() for f in futures]
    rep = score_batch(records, batch)
    assert rep.pp_hits == 1
    assert rep.total_tokens == 0  # evaluate adds up the tokens and keeps the time, not score_batch
    assert not rep.tokens_estimated


# --- each distinct candidate scored once -------------------------------------------------

# What sampled decoding may return for record(): every scoring path, each text
# drawn with repeats.
POOL = (
    REFERENCE,
    REFERENCE + "\n",  # a hit unless strict; then it applies like the reference
    "1-3<MID>    return 6;",  # whitespace variant
    "1_3<MID>  return 6;",  # malformed header
    "4-9<MID>  return 6;",  # out of range: parses, does not apply
    "1-4<MID>  return 6;\n}",  # applies like the reference, differs byte-wise
    "1-3<MID>  return 7;",  # wrong
    "",  # parses to the empty patch
)


def outcomes(samples: list[list[str]]) -> list[CandidateSet]:
    return [CandidateSet(f"r{i}", c, [1] * len(c), 1.0) for i, c in enumerate(samples)]


def brute_force(rec: VulnRecord, candidates: list[str], strict: bool) -> SampleResult:
    """Parse every candidate, and on a miss apply every one that parses."""
    reference = serialize_patch(rec.reference_patch)
    trim = (lambda t: t) if strict else (lambda t: t.removesuffix("\n"))
    hits = [i for i, c in enumerate(candidates) if trim(c) == trim(reference)]
    parsed, errors = [], 0
    for c in candidates:
        try:
            parsed.append(parse_patch(c))
        except PatchFormatError:
            errors += 1
    equivalent = False
    if not hits:
        after = apply_patch(rec.source, rec.reference_patch)
        for p in parsed:
            try:
                equivalent |= apply_patch(rec.source, p) == after
            except InvalidPatch:
                pass
    hit = hits[0] if hits else None
    return SampleResult(rec.id, rec.cwe_id, hit is not None, hit, errors, None, equivalent)


@settings(deadline=None, max_examples=200)
@given(
    samples=st.lists(st.lists(st.sampled_from(POOL), min_size=1, max_size=10),
                     min_size=1, max_size=4),
    strict=st.booleans(),
)
def test_score_batch_equals_brute_force(samples, strict):
    records = [record(f"r{i}") for i in range(len(samples))]
    report = score_batch(records, outcomes(samples), strict=strict)
    expected = [brute_force(r, c, strict) for r, c in zip(records, samples)]
    assert report.samples == expected
    assert report.pp_hits == sum(s.hit for s in expected)
    assert report.format_error_count == sum(s.format_errors for s in expected)
    assert report.applied_equivalent_misses == sum(s.applied_equivalent for s in expected)


@st.composite
def patch_sets(draw, limit: int, min_spans: int = 0) -> PatchSet:
    """Spans with line_af up to ``limit``, touching ones and insertions at either end included."""
    spans, af = [], 0
    for _ in range(draw(st.integers(min_spans, 3))):
        bef = af - 1 + draw(st.integers(0, 2))  # a gap of 0 touches the span before
        af = bef + 1 + draw(st.integers(0, 2))  # a width of 0 inserts
        spans.append(EditSpan(bef, af, tuple(draw(st.lists(st.sampled_from("ab"), max_size=2)))))
    assume(af <= limit)
    try:
        return PatchSet(tuple(spans))
    except ConflictingSpans:  # two insertions at one place
        assume(False)


@settings(deadline=None, max_examples=400)
@given(lines=st.lists(st.sampled_from("ab"), max_size=5), data=st.data())
def test_window_comparison_equals_full_application(lines, data):
    src = SourceUnit(tuple(lines), had_trailing_newline=True)
    n = len(lines)
    reference = data.draw(patch_sets(n, min_spans=1))  # a record's: valid, never empty
    after = apply_patch(src, reference)
    candidate = data.draw(st.one_of(
        patch_sets(n + 2),  # out of range too
        st.just(derive_patch(src, after)[0]),  # the minimal patch, empty for a no-op reference
    ))
    try:
        expected = apply_patch(src, candidate) == after
    except InvalidPatch:
        expected = False
    assert evaluation._applies_as(src, candidate, reference) == expected


def test_each_distinct_candidate_is_parsed_and_applied_once(monkeypatch):
    parsed, validated, spliced = [], [], []

    def counted_parse(text):
        parsed.append(text)
        return parse_patch(text)

    def counted_validate(src, patch):
        validated.append(serialize_patch(patch))
        return validate_patch(src, patch)

    def counted_splice(lines, patch, lo, hi):
        spliced.append(serialize_patch(patch))
        return splice(lines, patch, lo, hi)

    monkeypatch.setattr(evaluation, "parse_patch", counted_parse)
    monkeypatch.setattr(evaluation, "validate_patch", counted_validate)
    monkeypatch.setattr(evaluation, "splice", counted_splice)
    wrong, spaced, malformed, out_of_range = (POOL[6], POOL[2], POOL[3], POOL[4])
    candidates = [wrong, spaced, wrong, malformed, out_of_range,
                  wrong, malformed, spaced, malformed, out_of_range]
    report = score_batch([record("r0")], outcomes([candidates]))
    assert sorted(parsed) == sorted({wrong, spaced, malformed, out_of_range})
    # a miss: each distinct candidate that parses is validated once, and each
    # valid one is compared once, its window beside the reference's
    assert sorted(validated) == sorted({wrong, spaced, out_of_range})
    assert sorted(spliced) == sorted([wrong, REFERENCE, spaced, REFERENCE])
    assert report.pp_hits == 0
    assert report.format_error_count == 3  # every copy of the malformed one

    # a hit: a text equal to the reference is not parsed, and nothing is compared
    for counted in (parsed, validated, spliced):
        counted.clear()
    hit = [wrong, REFERENCE, malformed, REFERENCE + "\n", wrong, REFERENCE]
    report = score_batch([record("r0")], outcomes([hit]))
    assert sorted(parsed) == sorted({wrong, malformed})
    assert validated == spliced == []
    assert report.samples[0].hit_index == 1
    assert report.format_error_count == 1


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
    assert text.endswith("\ntokens: 37 (estimated)\n")
    assert "efficiency" not in text


def test_render_text_says_estimated_only_for_estimated_tokens(mixed_report):
    reported = dataclasses.replace(mixed_report, tokens_estimated=False)
    assert render_report(reported, "text").endswith("\ntokens: 37\n")


def test_render_unknown_format(mixed_report):
    with pytest.raises(ValueError):
        render_report(mixed_report, "html")
