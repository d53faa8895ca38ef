"""Exact-match scoring, per-CWE breakdown, and throughput reporting.

A candidate is perfect when it is byte-identical to the reference after
trimming at most one trailing LF from each side; every interior byte,
indentation included, is significant. A sample counts as a hit when any of
its k candidates is perfect. Malformed candidates and backend failures score
as misses and are tallied separately; patches that parse, validate, and apply
to the same result as the reference without matching byte-wise are surfaced
as a diagnostic only and never folded into the headline rate.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from linefix.client import BatchResult, DecodeConfig, generate_batch
from linefix.engine import apply_patch
from linefix.errors import EmptyEvaluation, InvalidPatch, PatchFormatError
from linefix.patchfmt import PatchSet, parse_patch, serialize_patch
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


def _trim_one_lf(text: str) -> str:
    return text[:-1] if text.endswith("\n") else text


def is_perfect(candidate: str, reference: str, *, strict: bool = False) -> bool:
    """Byte equality, modulo at most one trailing LF on each side.

    ``strict=True`` drops even that allowance.
    """
    if strict:
        return candidate == reference
    return _trim_one_lf(candidate) == _trim_one_lf(reference)


def first_hit_index(candidates: list[str], reference: str, *, strict: bool = False) -> int | None:
    """Index of the first perfect candidate, or None; an empty list never hits."""
    for i, c in enumerate(candidates):
        if is_perfect(c, reference, strict=strict):
            return i
    return None


def _applies_as(src: SourceUnit, patch: PatchSet, expected: SourceUnit) -> bool:
    try:
        return apply_patch(src, patch) == expected
    except InvalidPatch:
        return False


def evaluate(
    records: list[VulnRecord],
    backend,
    cfg: DecodeConfig,
    *,
    cwe_order: tuple[str, ...] = DEFAULT_CWE_ORDER,
    strict: bool = False,
) -> EvalReport:
    """Generate k candidates per record and score them.

    Raises EmptyEvaluation on an empty record list and MissingReference when a
    record has no reference patch to score against.
    """
    if not records:
        raise EmptyEvaluation("no records to evaluate")
    references = [r.reference() for r in records]
    prompts = [(r.id, build_prompt(r)) for r in records]
    batch = generate_batch(prompts, cfg, backend)
    return score_batch(
        records, references, batch, cwe_order=cwe_order, strict=strict
    )


def score_batch(
    records: list[VulnRecord],
    references: list[PatchSet],
    batch: BatchResult,
    *,
    cwe_order: tuple[str, ...] = DEFAULT_CWE_ORDER,
    strict: bool = False,
) -> EvalReport:
    """Score already-generated outcomes; kept separate for reuse in tests.

    A candidate hits when its text matches the serialized reference. For a
    miss, each parsed candidate that applies is compared with the reference's
    result on the record's source.
    """
    hits = 0
    format_errors = 0
    applied_misses = 0
    backend_errors = 0
    tokens_estimated = False
    total_tokens = 0
    sample_results: list[SampleResult] = []
    cwe_hits: dict[str, int] = {c: 0 for c in [*cwe_order, OTHER_CWE]}
    cwe_totals: dict[str, int] = {c: 0 for c in [*cwe_order, OTHER_CWE]}

    for record, ref_patch, outcome in zip(records, references, batch.outcomes):
        bucket = record.cwe_id if record.cwe_id in cwe_order else OTHER_CWE
        cwe_totals[bucket] += 1
        total_tokens += sum(outcome.tokens_generated)
        if outcome.ok and not outcome.backend_reported:
            tokens_estimated = True

        if not outcome.ok:
            backend_errors += 1
            sample_results.append(
                SampleResult(record.id, record.cwe_id, False, None, 0, outcome.error, False)
            )
            continue

        sample_format_errors = 0
        parsed = []
        for candidate in outcome.candidates:
            try:
                parsed.append(parse_patch(candidate))
            except PatchFormatError:
                parsed.append(None)
                sample_format_errors += 1
        format_errors += sample_format_errors

        idx = first_hit_index(outcome.candidates, serialize_patch(ref_patch), strict=strict)
        hit = idx is not None
        applied_equiv = False
        if hit:
            hits += 1
            cwe_hits[bucket] += 1
        else:
            ref_after = apply_patch(record.source, ref_patch)
            applied_equiv = any(
                p is not None and _applies_as(record.source, p, ref_after) for p in parsed
            )
            if applied_equiv:
                applied_misses += 1
        sample_results.append(
            SampleResult(
                record.id, record.cwe_id, hit, idx, sample_format_errors, None, applied_equiv
            )
        )

    total = len(records)
    per_cwe = [CweRow(c, cwe_hits[c], cwe_totals[c]) for c in [*cwe_order, OTHER_CWE]]
    if batch.total_time_s > 0:
        stats = efficiency(total, batch.total_time_s, total_tokens)
    else:
        stats = EfficiencyStats(0.0, total_tokens, 0.0)
    return EvalReport(
        pp_hits=hits,
        pp_total=total,
        pp_rate=hits / total,
        per_cwe=per_cwe,
        efficiency=stats,
        format_error_count=format_errors,
        applied_equivalent_misses=applied_misses,
        backend_error_count=backend_errors,
        tokens_estimated=tokens_estimated,
        time_synthetic=batch.synthetic_time,
        samples=sample_results,
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
