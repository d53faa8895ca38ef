"""Exact-match scoring, per-CWE breakdown, and throughput reporting.

Every record carries its reference patch. A candidate is perfect when it is
byte-identical to that patch's serialized text after trimming at most one
trailing LF from each side; every interior byte, indentation included, is
significant. A sample counts as a hit when any of its k candidates is
perfect. Malformed candidates and backend failures score as misses and are
tallied separately; patches that parse, validate, and apply to the same
result as the reference without matching byte-wise are surfaced as a
diagnostic only and never folded into the headline rate. A candidate text
that repeats within its sample is parsed (unless perfect), and on a miss
compared, once; a repeated malformed candidate still counts as a format error
each time it appears.

``evaluate`` alone times generation and adds up tokens. A synthetic backend's
time is its samples' scripted latencies added one by one in input order, so
reports are the same on every Python; any other backend's is the wall time
from the first window queued to the last outcome collected.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections.abc import Iterable
from concurrent.futures import wait
from dataclasses import dataclass, field
from itertools import islice

from linefix.client import CandidateSet, DecodeConfig, batch_pool, submit_batch
from linefix.engine import splice, validate_patch
from linefix.errors import EmptyEvaluation, InvalidPatch, PatchFormatError
from linefix.patchfmt import PatchSet, parse_patch, serialize_patch, trim_final_lf
from linefix.prompting import VulnRecord, build_prompt
from linefix.source import SourceUnit

DEFAULT_CWE_ORDER = (
    "CWE-787",
    "CWE-79",
    "CWE-89",
    "CWE-416",
    "CWE-78",
    "CWE-20",
    "CWE-125",
    "CWE-22",
    "CWE-352",
    "CWE-434",
)

OTHER_CWE = "other"

# evaluate reads WINDOW records at a time, or ROUNDS per in-flight slot when
# that is more, and holds two windows: the one it scores and the next, which
# generates meanwhile. So its memory is bounded by the window and the
# backend's max_in_flight rather than by the test set, and two windows hold
# what one window of twice the size would. The next window keeps the slots
# busy while a window's last samples finish and while it is scored.
WINDOW = 64
ROUNDS = 32


@dataclass(frozen=True)
class EfficiencyStats:
    total_time_s: float
    total_tokens: int
    patches_per_second: float


@dataclass
class CweRow:
    cwe_id: str
    hits: int
    total: int


@dataclass
class SampleResult:
    sample_id: str
    cwe_id: str
    hit: bool
    hit_index: int | None
    format_errors: int
    backend_error: str | None
    applied_equivalent: bool


@dataclass
class EvalReport:
    pp_hits: int
    pp_total: int
    pp_rate: float
    per_cwe: list[CweRow]
    efficiency: EfficiencyStats
    format_error_count: int
    applied_equivalent_misses: int
    backend_error_count: int
    tokens_estimated: bool
    time_synthetic: bool
    samples: list[SampleResult] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self, default=vars, indent=2, ensure_ascii=False) + "\n"


def efficiency(samples: int, total_time_s: float, total_tokens: int = 0) -> EfficiencyStats:
    """Throughput as evaluated samples per second of total wall time."""
    if total_time_s <= 0:
        raise ValueError("total_time_s must be positive")
    return EfficiencyStats(total_time_s, total_tokens, samples / total_time_s)


def is_perfect(candidate: str, reference: str, *, strict: bool = False) -> bool:
    """Byte equality, modulo at most one trailing LF on each side.

    ``strict=True`` drops even that allowance.
    """
    if strict:
        return candidate == reference
    return trim_final_lf(candidate) == trim_final_lf(reference)


def _applies_as(src: SourceUnit, patch: PatchSet, reference: PatchSet) -> bool:
    """Whether ``patch`` is valid and applies to ``src`` as the validated ``reference``."""
    try:
        validate_patch(src, patch)
    except InvalidPatch:
        return False
    # only the window the two patches edit can differ; spans are in anchor order
    ends = (reference.spans[0], reference.spans[-1], *patch.spans[:1], *patch.spans[-1:])
    lo = min(s.line_bef for s in ends) + 1
    hi = max(s.line_af for s in ends)
    return splice(src.lines, patch, lo, hi) == splice(src.lines, reference, lo, hi)


def evaluate(
    records: Iterable[VulnRecord],
    backend,
    cfg: DecodeConfig,
    *,
    cwe_order: tuple[str, ...] = DEFAULT_CWE_ORDER,
    strict: bool = False,
) -> EvalReport:
    """Generate k candidates per record and score them against its reference patch.

    Records are read ``max(WINDOW, ROUNDS * max_in_flight)`` at a time, so a
    window keeps every slot of the backend busy. Each window's prompts are
    queued on one shared pool as one batch (``submit_batch``). The next
    window is read and queued before a window is collected and scored, so
    the slots never wait for the caller; once a window is scored, its
    records, prompts and outcomes are dropped, and only its sample results
    are kept. The report is the one a single batch of every record would
    give.

    Raises ValueError when a sample id repeats, once its window is reached,
    and EmptyEvaluation, a ValueError too, when there is no record. On any
    error, the samples still queued are dropped and the running ones finish.
    """
    samples: list[SampleResult] = []
    synthetic_time = 0.0  # each outcome's wall time, added one at a time in input order
    total_tokens = 0
    tokens_estimated = False
    seen: set[str] = set()
    it = iter(records)
    size = max(WINDOW, ROUNDS * backend.spec.max_in_flight)

    def queued():  # each window read, checked and queued, with the time it was queued
        while window := list(islice(it, size)):
            count = len(seen)
            seen.update(r.id for r in window)
            if len(seen) != count + len(window):
                raise ValueError("sample ids must be unique within an evaluation")
            prompts = [(r.id, build_prompt(r)) for r in window]
            yield window, time.perf_counter(), submit_batch(prompts, cfg, backend, pool=pool)

    pool = batch_pool(backend)  # one pool for every window
    try:
        windows = queued()
        ahead = next(windows, None)
        start = end = ahead[1] if ahead else 0.0
        while ahead:
            window, _, futures = ahead
            ahead = next(windows, None)  # in flight while this window is collected and scored
            wait(futures)
            end = time.perf_counter()
            outcomes = [f.result() for f in futures]
            for o in outcomes:
                synthetic_time += o.wall_time_s
            total_tokens += sum(sum(o.tokens_generated) for o in outcomes)
            tokens_estimated |= any(o.ok and not o.backend_reported for o in outcomes)
            samples += score_batch(window, outcomes, cwe_order=cwe_order, strict=strict).samples
            del window, futures, outcomes  # before the window after next is read
    finally:  # on an error, samples still queued are dropped
        pool.shutdown(cancel_futures=True)
    if not samples:
        raise EmptyEvaluation("no records to evaluate")
    synthetic = backend.synthetic
    total_time = synthetic_time if synthetic else end - start  # as if one batch of every record
    return _report(samples, total_tokens, tokens_estimated, total_time, synthetic, cwe_order)


def score_batch(
    records: list[VulnRecord],
    outcomes: list[CandidateSet],
    *,
    cwe_order: tuple[str, ...] = DEFAULT_CWE_ORDER,
    strict: bool = False,
) -> EvalReport:
    """Score already-generated outcomes; evaluate calls it once per window.

    A candidate hits when its text matches the record's serialized reference
    patch. Each other distinct candidate text of a sample is parsed once, and
    every candidate that does not parse counts as a format error, repeats
    included. For a miss, each distinct candidate that parses is validated
    once and compared with the reference over the lines the two patches edit.
    The report holds no time or tokens, which ``evaluate`` adds up: those
    fields read 0 or false.
    """
    sample_results: list[SampleResult] = []

    for record, outcome in zip(records, outcomes):
        if not outcome.ok:
            sample_results.append(
                SampleResult(record.id, record.cwe_id, False, None, 0, outcome.error, False)
            )
            continue

        reference = serialize_patch(record.reference_patch)
        # each distinct text, in first-seen order; None until it parses
        parsed: dict[str, PatchSet | None] = dict.fromkeys(outcome.candidates)
        idx = None
        for text in parsed:
            if is_perfect(text, reference, strict=strict):  # it parses to the reference
                parsed[text] = record.reference_patch
                idx = outcome.candidates.index(text) if idx is None else idx
                continue
            try:
                parsed[text] = parse_patch(text)
            except PatchFormatError:
                pass  # stays None: a format error
        sample_format_errors = sum(parsed[c] is None for c in outcome.candidates)  # repeats too

        applied_equiv = False
        if idx is None:
            applied_equiv = any(
                p is not None and _applies_as(record.source, p, record.reference_patch)
                for p in parsed.values()
            )
        sample_results.append(
            SampleResult(record.id, record.cwe_id, idx is not None, idx, sample_format_errors,
                         None, applied_equiv)
        )

    return _report(sample_results, 0, False, 0.0, False, cwe_order)


def _report(
    samples: list[SampleResult],
    total_tokens: int,
    tokens_estimated: bool,
    total_time_s: float,
    synthetic: bool,
    cwe_order: tuple[str, ...],
) -> EvalReport:
    """The report over scored samples: every count is read off their results."""
    buckets = [*cwe_order, OTHER_CWE]
    cwe_hits: dict[str, int] = dict.fromkeys(buckets, 0)
    cwe_totals: dict[str, int] = dict.fromkeys(buckets, 0)
    for s in samples:
        bucket = s.cwe_id if s.cwe_id in cwe_order else OTHER_CWE
        cwe_totals[bucket] += 1
        cwe_hits[bucket] += s.hit
    hits = sum(cwe_hits.values())
    total = len(samples)
    if total_time_s > 0:
        stats = efficiency(total, total_time_s, total_tokens)
    else:
        stats = EfficiencyStats(0.0, total_tokens, 0.0)
    return EvalReport(
        pp_hits=hits,
        pp_total=total,
        pp_rate=hits / total,
        per_cwe=[CweRow(c, cwe_hits[c], cwe_totals[c]) for c in buckets],
        efficiency=stats,
        format_error_count=sum(s.format_errors for s in samples),
        applied_equivalent_misses=sum(s.applied_equivalent for s in samples),
        backend_error_count=sum(s.backend_error is not None for s in samples),
        tokens_estimated=tokens_estimated,
        time_synthetic=synthetic,
        samples=samples,
    )


def render_report(report: EvalReport, fmt: str = "json") -> str:
    """Render a report as ``json``, ``text``, or ``csv``. Deterministic."""
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cwe_id", "hits", "total"])
        for row in report.per_cwe:
            writer.writerow([row.cwe_id, row.hits, row.total])
        return buf.getvalue()
    if fmt == "text":
        width = max(len(r.cwe_id) for r in report.per_cwe) + 2
        lines = [f"{'CWE':<{width}}hits/total"]
        for row in report.per_cwe:
            lines.append(f"{row.cwe_id:<{width}}{row.hits}/{row.total}")
        lines.append("")
        lines.append(f"perfect predictions: {report.pp_hits}/{report.pp_total}"
                     f" (rate {report.pp_rate:.4f})")
        lines.append(f"format errors: {report.format_error_count}")
        lines.append(f"applied-equivalent misses: {report.applied_equivalent_misses}")
        lines.append(f"backend errors: {report.backend_error_count}")
        eff = report.efficiency
        lines.append(
            f"efficiency: {eff.patches_per_second:.2f} patches/s"
            f" over {eff.total_time_s:.2f}s, {eff.total_tokens} tokens"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
