"""Dataset ingestion, fingerprinting, leakage refinement, and export.

Two on-disk schemas are understood and auto-detected per file:

raw schema (JSONL or CSV)
    ``id, cve_id?, cwe_id, cwe_description, vuln_lines?, source_before,
    source_after?, reference_patch?, split`` with at least one of
    ``source_after`` and ``reference_patch``. ``vuln_lines`` falls back to the
    before-side changed lines of the reference patch. Sources carrying the
    upstream bug markers (``<S2SV_StartBug>`` / ``<S2SV_EndBug>``) are
    accepted: the markers are stripped and the marked lines become
    ``vuln_lines``.

    The fix is read in one of three ways:

    * ``source_after`` only (every upstream file): the reference patch is
      derived by diffing the two sources.
    * ``reference_patch`` only: the patch is parsed and validated against
      ``source_before``; the fixed source is the patch applied to it, so it
      keeps ``source_before``'s trailing newline. write_records_jsonl writes
      this form whenever the patch text round-trips, so a file linefix wrote
      carries each fix once and is not diffed again when it is read.
    * both: the stored patch is applied to ``source_before`` and must
      reproduce ``source_after`` (CR-LF folded).

    A stored patch that does not parse, does not validate, or does not
    reproduce a given ``source_after`` quarantines the record; it is never
    re-derived. A patch whose text would not round-trip is written as
    ``source_after`` instead. In CSV an empty ``reference_patch`` cell means
    the field is absent.

training schema (JSONL)
    ``id, prompt, completion, cwe_id, split`` as written by export_jsonl;
    records are reconstructed by parsing the prompt and completion, so
    ingest -> export -> ingest is a fixed point.

Structural problems (missing fields, undecodable rows) raise SchemaError.
Records that decode but violate an invariant are quarantined with a reason,
never silently dropped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field

from linefix.engine import apply_patch, changed_before_lines, derive_patch
from linefix.errors import (
    InvalidPatch,
    InvalidRecord,
    LinefixError,
    MissingReference,
    PatchFormatError,
    SchemaError,
)
from linefix.prompting import (
    INST_CLOSE,
    INST_OPEN,
    RESERVED_TOKENS,
    VulnRecord,
    parse_prompt,
    render_training_example,
)
from linefix.patchfmt import PatchSet, parse_patch, round_trips, serialize_patch
from linefix.source import SourceUnit, from_text, to_text

SPLITS = ("train", "validation", "test")
FINGERPRINT_MODES = ("exact", "ws_normalized")

BUG_START = "<S2SV_StartBug>"
BUG_END = "<S2SV_EndBug>"

_RAW_REQUIRED = ("id", "cwe_id", "cwe_description", "source_before", "split")
_TRAINING_REQUIRED = ("id", "cwe_id", "prompt", "completion", "split")

_WS_RUN = re.compile(r"\s+")


@dataclass
class DatasetRecord:
    """One corpus record: split tag plus the normalized payload."""

    split: str
    vuln: VulnRecord


@dataclass(frozen=True)
class Fingerprint:
    digest: str  # sha256 hex, 256 bits
    mode: str


@dataclass
class QuarantineEntry:
    reason: str
    record_id: str | None = None
    line_no: int | None = None

    def to_dict(self) -> dict:
        return {"record_id": self.record_id, "line_no": self.line_no, "reason": self.reason}


@dataclass
class IngestResult:
    records: list[DatasetRecord]
    quarantined: list[QuarantineEntry] = field(default_factory=list)

    def split_counts(self) -> dict[str, int]:
        counts = Counter(r.split for r in self.records)
        return {s: counts[s] for s in SPLITS if s in counts}


@dataclass
class SplitManifest:
    """Counts and leakage numbers for one pipeline step."""

    counts: dict[str, int]
    train_duplicates: int
    overlap_count: int
    overlap_fraction: float
    mode: str
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "train_duplicates": self.train_duplicates,
            "overlap_count": self.overlap_count,
            "overlap_fraction": self.overlap_fraction,
            "mode": self.mode,
            "seed": self.seed,
        }


@dataclass
class ExportResult:
    written: int
    quarantined: list[QuarantineEntry] = field(default_factory=list)


# --- reading ----------------------------------------------------------------


def _read_jsonl(path: str) -> list[tuple[int, dict]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"undecodable JSON: {exc}", path=path, line_no=line_no)
            if not isinstance(obj, dict):
                raise SchemaError("row is not an object", path=path, line_no=line_no)
            rows.append((line_no, obj))
    return rows


def _read_csv(path: str) -> list[tuple[int, dict]]:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for obj in reader:
            if None in obj:
                raise SchemaError("row has more cells than header", path=path, line_no=reader.line_num)
            row = dict(obj)
            if "vuln_lines" in row:
                cell = row["vuln_lines"]
                if cell is None or cell == "":
                    row.pop("vuln_lines")
                else:
                    try:
                        row["vuln_lines"] = json.loads(cell)
                    except json.JSONDecodeError:
                        raise SchemaError(
                            f"vuln_lines cell is not a JSON list: {cell!r}",
                            path=path,
                            line_no=reader.line_num,
                        )
            if row.get("cve_id") == "":
                row["cve_id"] = None
            if row.get("reference_patch") == "":
                row.pop("reference_patch")
            rows.append((reader.line_num, row))
    return rows


def _require(row: dict, fields: tuple[str, ...], path: str, line_no: int) -> None:
    for name in fields:
        if name not in row or row[name] is None:
            raise SchemaError(f"missing required field {name!r}", path=path, line_no=line_no)
        if name != "vuln_lines" and not isinstance(row[name], str):
            raise SchemaError(
                f"field {name!r} must be a string, got {type(row[name]).__name__}",
                path=path,
                line_no=line_no,
            )


def strip_bug_markers(text: str) -> tuple[str, list[int]]:
    """Remove upstream bug markers, returning clean text and marked line indices.

    A line containing either marker counts as marked; the marker token plus
    one adjacent space is dropped so surrounding code is left untouched.
    """
    unit = from_text(text)
    clean: list[str] = []
    marked: list[int] = []
    for i, line in enumerate(unit.lines):
        if BUG_START in line or BUG_END in line:
            marked.append(i)
            for token in (BUG_START, BUG_END):
                line = line.replace(token + " ", "").replace(" " + token, "").replace(token, "")
        clean.append(line)
    out = "\n".join(clean)
    if unit.had_trailing_newline:
        out += "\n"
    return out, marked


def _stored_reference(src: SourceUnit, patch_text: str, raw_after: str) -> PatchSet:
    """The stored reference patch, checked to turn ``src`` into ``raw_after``."""
    try:
        patch = parse_patch(patch_text)
        fixed = apply_patch(src, patch)
    except PatchFormatError as exc:
        raise InvalidRecord(f"reference_patch does not parse: {exc}") from None
    except InvalidPatch as exc:
        raise InvalidRecord(f"reference_patch does not validate: {exc}") from None
    if to_text(fixed) != raw_after.replace("\r\n", "\n"):
        raise InvalidRecord("reference_patch does not reproduce source_after")
    return patch


def _record_from_raw(row: dict, path: str, line_no: int) -> DatasetRecord:
    # the fix is source_after, reference_patch or both; each one given is type-checked
    fix_fields = tuple(f for f in ("source_after", "reference_patch") if row.get(f) is not None)
    _require(row, _RAW_REQUIRED + (fix_fields or ("source_after",)), path, line_no)
    split = row["split"]
    if split not in SPLITS:
        raise SchemaError(f"unknown split {split!r}", path=path, line_no=line_no)
    raw_before = row["source_before"]
    raw_after = row.get("source_after")
    patch_text = row.get("reference_patch")

    marker_lines: list[int] | None = None
    if BUG_START in raw_before or BUG_END in raw_before:
        raw_before, marker_lines = strip_bug_markers(raw_before)

    for token in RESERVED_TOKENS + (BUG_START, BUG_END):
        if token in raw_before or (raw_after is not None and token in raw_after):
            raise InvalidRecord(f"source contains reserved token {token}")
    if raw_after is None:
        # <MID> and <sep> are the patch's own syntax; EditSpan rejects them in a body
        for token in (INST_OPEN, INST_CLOSE, BUG_START, BUG_END):
            if token in patch_text:
                raise InvalidRecord(f"reference_patch contains reserved token {token}")
    if "\n" in row["cwe_description"]:
        raise InvalidRecord("cwe_description contains a line feed")

    src = from_text(raw_before)
    if patch_text is None:
        patch = derive_patch(src, from_text(raw_after))
    elif raw_after is None:
        try:
            patch = parse_patch(patch_text)  # VulnRecord validates it against src
        except PatchFormatError as exc:
            raise InvalidRecord(f"reference_patch does not parse: {exc}") from None
    else:
        patch = _stored_reference(src, patch_text, raw_after)

    vuln_lines = row.get("vuln_lines")
    if vuln_lines is not None:
        if not isinstance(vuln_lines, list) or not all(isinstance(i, int) for i in vuln_lines):
            raise SchemaError("vuln_lines must be a list of integers", path=path, line_no=line_no)
        vuln_lines = sorted(set(vuln_lines))
    elif marker_lines:
        vuln_lines = marker_lines
    else:
        vuln_lines = changed_before_lines(patch)

    vuln = VulnRecord(
        id=row["id"],
        cwe_id=row["cwe_id"],
        cwe_description=row["cwe_description"],
        vuln_lines=tuple(vuln_lines),
        source=src,
        cve_id=row.get("cve_id"),
        reference_patch=patch,
    )
    if raw_after is not None and src.had_trailing_newline != raw_after.endswith("\n"):
        # the fixed source is rebuilt from the patch, which keeps before's flag
        raise InvalidRecord("source_before and source_after differ in their trailing newline")
    return DatasetRecord(split, vuln)


def _record_from_training(row: dict, path: str, line_no: int) -> DatasetRecord:
    _require(row, _TRAINING_REQUIRED, path, line_no)
    split = row["split"]
    if split not in SPLITS:
        raise SchemaError(f"unknown split {split!r}", path=path, line_no=line_no)
    vuln = parse_prompt(
        row["prompt"], id=row["id"], cwe_id=row["cwe_id"], completion=row["completion"]
    )
    return DatasetRecord(split, vuln)


def ingest(path: str, fmt: str = "jsonl") -> IngestResult:
    """Read a records file; invariant violations land in the quarantine list."""
    if fmt == "jsonl":
        rows = _read_jsonl(path)
    elif fmt == "csv":
        rows = _read_csv(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    result = IngestResult(records=[])
    for line_no, row in rows:
        builder = _record_from_training if "prompt" in row else _record_from_raw
        try:
            result.records.append(builder(row, path, line_no))
        except SchemaError:
            raise
        except LinefixError as exc:
            result.quarantined.append(
                QuarantineEntry(reason=str(exc), record_id=row.get("id"), line_no=line_no)
            )
    return result


# --- writing ----------------------------------------------------------------


def write_records_jsonl(records: list[DatasetRecord], path: str) -> None:
    """Write records back out in the raw schema (UTF-8, LF line ends).

    Each fix is written once: as ``reference_patch`` when its text
    round-trips, otherwise as ``source_after``, which is diffed again when
    the file is read.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            patch = r.vuln.reference()
            obj = {
                "id": r.vuln.id,
                "cve_id": r.vuln.cve_id,
                "cwe_id": r.vuln.cwe_id,
                "cwe_description": r.vuln.cwe_description,
                "vuln_lines": list(r.vuln.vuln_lines),
                "source_before": to_text(r.vuln.source),
            }
            if round_trips(patch):
                obj["reference_patch"] = serialize_patch(patch)
            else:
                obj["source_after"] = to_text(r.vuln.reference_after)
            obj["split"] = r.split
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def export_jsonl(records: list[DatasetRecord], path: str) -> ExportResult:
    """Write the training schema; records without a reference are quarantined."""
    written = 0
    quarantined: list[QuarantineEntry] = []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            try:
                example = render_training_example(r.vuln)
            except MissingReference as exc:
                quarantined.append(QuarantineEntry(reason=str(exc), record_id=r.vuln.id))
                continue
            obj = {
                "id": r.vuln.id,
                "prompt": example.prompt,
                "completion": example.completion,
                "cwe_id": r.vuln.cwe_id,
                "split": r.split,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
            written += 1
    return ExportResult(written, quarantined)


# --- fingerprinting and refinement -------------------------------------------


def _squash_ws(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


def compute_fingerprint(record: DatasetRecord, mode: str = "exact") -> Fingerprint:
    """Content hash over the before-source and the serialized reference patch.

    ``exact`` hashes bytes as-is; ``ws_normalized`` first collapses every
    whitespace run to one space and trims the ends, so indentation-only
    variants collide on purpose.
    """
    if mode not in FINGERPRINT_MODES:
        raise ValueError(f"unknown fingerprint mode {mode!r}")
    src_text = "\n".join(record.vuln.source.lines)
    patch_text = serialize_patch(record.vuln.reference())
    if mode == "ws_normalized":
        src_text = _squash_ws(src_text)
        patch_text = _squash_ws(patch_text)
    digest = hashlib.sha256(
        src_text.encode("utf-8") + b"\x00" + patch_text.encode("utf-8")
    ).hexdigest()
    return Fingerprint(digest, mode)


def _digests(records: list[DatasetRecord], mode: str) -> list[str]:
    return [compute_fingerprint(r, mode).digest for r in records]


def detect_overlap(
    train: list[DatasetRecord], test: list[DatasetRecord], mode: str = "exact"
) -> SplitManifest:
    """Measure test-side leakage: the fraction of test records seen in train."""
    if not train or not test:
        raise ValueError("detect_overlap needs non-empty train and test")
    train_digests = _digests(train, mode)
    train_set = set(train_digests)
    overlap = sum(1 for d in _digests(test, mode) if d in train_set)
    return SplitManifest(
        counts={"train": len(train), "test": len(test)},
        train_duplicates=len(train_digests) - len(train_set),
        overlap_count=overlap,
        overlap_fraction=overlap / len(test),
        mode=mode,
    )


def refine(
    train: list[DatasetRecord], test: list[DatasetRecord], mode: str = "exact"
) -> tuple[list[DatasetRecord], SplitManifest]:
    """Drop train records fingerprinted in test, then dedupe train keeping first.

    detect_overlap on the result is exactly zero and running refine again is a
    no-op. The manifest reports what was found and removed: overlap_count is
    the test-side leakage of the input train set.
    """
    if not train or not test:
        raise ValueError("refine needs non-empty train and test")
    test_digests = _digests(test, mode)
    test_set = set(test_digests)
    train_digests = _digests(train, mode)
    train_set = set(train_digests)
    overlap = sum(1 for d in test_digests if d in train_set)
    kept: list[DatasetRecord] = []
    seen: set[str] = set()
    dropped_dup = 0
    for record, digest in zip(train, train_digests):
        if digest in test_set:
            continue
        if digest in seen:
            dropped_dup += 1
            continue
        seen.add(digest)
        kept.append(record)
    manifest = SplitManifest(
        counts={"train": len(kept), "test": len(test)},
        train_duplicates=dropped_dup,
        overlap_count=overlap,
        overlap_fraction=overlap / len(test),
        mode=mode,
    )
    return kept, manifest
