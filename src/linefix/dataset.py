"""Dataset ingestion, fingerprinting, leakage refinement, and export.

Two on-disk schemas are understood and auto-detected per file:

raw schema (JSONL or CSV)
    ``id, cve_id?, cwe_id, cwe_description, vuln_lines?, source_before,
    source_after?, reference_patch?, split`` with exactly one of
    ``source_after`` and ``reference_patch``. ``vuln_lines`` falls back to the
    ``source_before`` lines the line diff of the fix replaces or deletes. A
    ``source_before`` carrying the upstream bug markers (``<S2SV_StartBug>`` /
    ``<S2SV_EndBug>``) is accepted: the markers are stripped and the marked
    lines become ``vuln_lines``. Anywhere else a marker is a reserved token.

    The fix is read in one of two ways: ``source_after`` (upstream files) is
    diffed against ``source_before``; ``reference_patch`` (files linefix
    writes) is parsed and validated against ``source_before``, and the fixed
    source is the patch applied to it, so nothing is diffed unless the row
    has neither ``vuln_lines`` nor markers. A row with both is a SchemaError.
    A stored patch that does not parse or validate quarantines the record and
    is never re-derived; so does a fix that is empty or has no lossless text
    form. In CSV an empty ``reference_patch`` cell means the field is absent,
    and so does an empty ``source_after`` cell next to a filled
    ``reference_patch`` one, so a file can mix both kinds of row.

training schema (JSONL)
    ``id, prompt, completion, cwe_id, split`` as written by export_jsonl;
    records are reconstructed by parsing the prompt and completion, so
    ingest -> export -> ingest is a fixed point.

``stream`` is the one reader: it yields each record as its row is decoded,
so a caller that writes as it reads holds one record at a time. Every command
reads through it. ``ingest``, which collects the stream into a list, and the
list ``refine`` stay because ``perfbench/layers.py`` traces them by name.
Structural problems (missing fields, undecodable rows, bytes that are not
UTF-8) raise SchemaError for the first one in file order. Records from both
schemas keep the one rule set of ``VulnRecord.validate``; the reader adds only
the raw pair's trailing-newline rule and one rule across rows, that ids are
unique within a file. Records that decode but violate an invariant are
quarantined with a reason, never silently dropped. Every record that is kept
carries its reference patch, so export_jsonl writes one training row for each.

The writers take any iterable of records. ``LeakFilter`` is the one leakage
counter: it holds the test records as fingerprint counts and sorts train
records into kept, leaked and repeated as they pass. ``refine`` wraps it for
lists, and ``detect_overlap`` offers it every train record and reports on the
train set as given.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field

from linefix import engine
from linefix.engine import derive_patch
from linefix.errors import (
    InvalidPatch,
    InvalidRecord,
    LinefixError,
    PatchFormatError,
    SchemaError,
)
from linefix.prompting import (
    BUG_END,
    BUG_START,
    VulnRecord,
    parse_prompt,
    render_training_example,
)
from linefix.patchfmt import parse_patch, serialize_patch
from linefix.source import SourceUnit, from_text, to_text

SPLITS = ("train", "validation", "test")
FINGERPRINT_MODES = ("exact", "ws_normalized")

_RAW_REQUIRED = ("id", "cwe_id", "cwe_description", "source_before", "split")
_TRAINING_REQUIRED = ("id", "cwe_id", "prompt", "completion", "split")

_WS_RUN = re.compile(r"\s+")


@dataclass
class DatasetRecord:
    """One corpus record: split tag plus the normalized payload."""

    split: str
    vuln: VulnRecord


@dataclass
class QuarantineEntry:
    record_id: str | None
    line_no: int | None
    reason: str


@dataclass
class IngestResult:
    records: list[DatasetRecord]
    quarantined: list[QuarantineEntry] = field(default_factory=list)


@dataclass
class SplitManifest:
    """Counts and leakage numbers for one pipeline step."""

    counts: dict[str, int]
    train_duplicates: int
    overlap_count: int
    overlap_fraction: float
    mode: str


# --- reading ----------------------------------------------------------------


def _decoded(fh: Iterable[str], path: str) -> Iterator[str]:
    """The lines of ``fh``, opened from ``path``; bytes that are not UTF-8 raise SchemaError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}", path=path) from None


def _read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(_decoded(fh, path), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"undecodable JSON: {exc}", path=path, line_no=line_no)
            if not isinstance(obj, dict):
                raise SchemaError("row is not an object", path=path, line_no=line_no)
            yield line_no, obj


def _read_csv(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(_decoded(fh, path))
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
            # an empty source_after cell next to a filled reference_patch one is
            # absent too, so one file can mix both kinds of row
            if row.get("reference_patch") == "":
                row.pop("reference_patch")
            elif row.get("source_after") == "" and row.get("reference_patch") is not None:
                row.pop("source_after")
            yield reader.line_num, row


def _require(row: dict, fields: tuple[str, ...], path: str, line_no: int) -> str:
    """Check that each of ``fields`` is a string; returns the row's split, which must be known."""
    for name in fields:
        if name not in row or row[name] is None:
            raise SchemaError(f"missing required field {name!r}", path=path, line_no=line_no)
        if not isinstance(row[name], str):
            raise SchemaError(
                f"field {name!r} must be a string, got {type(row[name]).__name__}",
                path=path,
                line_no=line_no,
            )
    split = row["split"]
    if split not in SPLITS:
        raise SchemaError(f"unknown split {split!r}", path=path, line_no=line_no)
    return split


def strip_bug_markers(text: str) -> tuple[SourceUnit, list[int]]:
    """Split ``text`` into a source with the upstream bug markers removed, and the marked lines.

    A line containing either marker counts as marked; the marker token plus
    one adjacent space is dropped so surrounding code is left untouched. The
    clean lines are read back as text, so a last line that the strip leaves
    empty, with no LF after it, folds into the trailing LF.
    """
    unit = from_text(text)
    if BUG_START not in text and BUG_END not in text:
        return unit, []
    clean: list[str] = []
    marked: list[int] = []
    for i, line in enumerate(unit.lines):
        if BUG_START in line or BUG_END in line:
            marked.append(i)
            for token in (BUG_START, BUG_END):
                line = line.replace(token + " ", "").replace(" " + token, "").replace(token, "")
        clean.append(line)
    return from_text(to_text(SourceUnit(tuple(clean), unit.had_trailing_newline))), marked


def _record_from_raw(row: dict, path: str, line_no: int) -> DatasetRecord:
    # the fix is source_after or reference_patch, never both
    fix_fields = tuple(f for f in ("source_after", "reference_patch") if row.get(f) is not None)
    if len(fix_fields) == 2:
        raise SchemaError("row has both 'source_after' and 'reference_patch'; give one",
                          path=path, line_no=line_no)
    split = _require(row, _RAW_REQUIRED + (fix_fields or ("source_after",)), path, line_no)
    patch_text = row.get("reference_patch")
    src, marker_lines = strip_bug_markers(row["source_before"])
    if patch_text is None:
        after = from_text(row["source_after"])
        patch, changed = derive_patch(src, after)
    else:
        try:
            patch = parse_patch(patch_text)  # VulnRecord validates it against src
        except PatchFormatError as exc:
            raise InvalidRecord(f"reference_patch does not parse: {exc}") from None

    vuln_lines = row.get("vuln_lines")
    if vuln_lines is not None:
        # type, not isinstance: a bool is an int but no line number
        if not isinstance(vuln_lines, list) or not all(type(i) is int for i in vuln_lines):
            raise SchemaError("vuln_lines must be a list of integers", path=path, line_no=line_no)
        vuln_lines = sorted(set(vuln_lines))
    elif marker_lines:
        vuln_lines = marker_lines
    elif patch_text is None:
        vuln_lines = changed
    else:  # a hand-written patch-only row: diff the fixed source it gives
        try:
            after = engine.apply_patch(src, patch)
        except InvalidPatch:
            vuln_lines = []  # VulnRecord quarantines the row with its own reason
        else:
            vuln_lines = engine.changed_lines(engine.edit_runs(src.lines, after.lines))

    if patch_text is None and after.lines and (
        src.had_trailing_newline != after.had_trailing_newline
    ):
        # the fixed source is rebuilt from the patch, which keeps before's flag;
        # an after with no lines has no newline to keep
        raise InvalidRecord("source_before and source_after differ in their trailing newline")
    vuln = VulnRecord(
        id=row["id"],
        cwe_id=row["cwe_id"],
        cwe_description=row["cwe_description"],
        vuln_lines=tuple(vuln_lines),
        source=src,
        cve_id=row.get("cve_id"),
        reference_patch=patch,
    )
    return DatasetRecord(split, vuln)


def _record_from_training(row: dict, path: str, line_no: int) -> DatasetRecord:
    split = _require(row, _TRAINING_REQUIRED, path, line_no)
    vuln = parse_prompt(
        row["prompt"], id=row["id"], cwe_id=row["cwe_id"], completion=row["completion"]
    )
    return DatasetRecord(split, vuln)


def stream(path: str, fmt: str, quarantined: list[QuarantineEntry]) -> Iterator[DatasetRecord]:
    """Yield the records of a records file in file order, building each as its row is read.

    Rows that violate an invariant are appended to ``quarantined`` instead;
    so is a row whose id an earlier record of the file already has. A
    structural problem raises SchemaError when its row is reached.
    """
    if fmt == "jsonl":
        rows = _read_jsonl(path)
    elif fmt == "csv":
        rows = _read_csv(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    first_line: dict[str, int] = {}  # id -> line of the record that has it
    with closing(rows):  # a SchemaError closes the file now, not when rows is collected
        for line_no, row in rows:
            builder = _record_from_training if "prompt" in row else _record_from_raw
            try:
                record = builder(row, path, line_no)
            except SchemaError:
                raise
            except LinefixError as exc:
                quarantined.append(
                    QuarantineEntry(reason=str(exc), record_id=row.get("id"), line_no=line_no)
                )
                continue
            rid = record.vuln.id
            if rid in first_line:
                # samples, scripted candidates and report rows are keyed by id
                quarantined.append(QuarantineEntry(
                    reason=f"duplicate id {rid!r} (first at line {first_line[rid]})",
                    record_id=rid,
                    line_no=line_no,
                ))
                continue
            first_line[rid] = line_no
            yield record


def ingest(path: str, fmt: str = "jsonl") -> IngestResult:
    """Read a whole records file; invariant violations land in the quarantine list."""
    quarantined: list[QuarantineEntry] = []
    return IngestResult(list(stream(path, fmt, quarantined)), quarantined)


# --- writing ----------------------------------------------------------------


def write_records_jsonl(records: Iterable[DatasetRecord], path: str) -> dict[str, int]:
    """Write records back out in the raw schema (UTF-8, LF line ends).

    Each fix is written once, as ``reference_patch``. Returns the rows
    written per split, in ``SPLITS`` order.
    """
    counts: Counter[str] = Counter()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            obj = {
                "id": r.vuln.id,
                "cve_id": r.vuln.cve_id,
                "cwe_id": r.vuln.cwe_id,
                "cwe_description": r.vuln.cwe_description,
                "vuln_lines": list(r.vuln.vuln_lines),
                "source_before": to_text(r.vuln.source),
                "reference_patch": serialize_patch(r.vuln.reference_patch),
                "split": r.split,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
            counts[r.split] += 1
    return {s: counts[s] for s in SPLITS if s in counts}


def export_jsonl(records: Iterable[DatasetRecord], path: str) -> int:
    """Write the training schema, one row per record; returns the rows written."""
    written = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            example = render_training_example(r.vuln)
            obj = {
                "id": r.vuln.id,
                "prompt": example.prompt,
                "completion": example.completion,
                "cwe_id": r.vuln.cwe_id,
                "split": r.split,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
            written += 1
    return written


# --- fingerprinting and refinement -------------------------------------------


def _squash_ws(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


def compute_fingerprint(record: DatasetRecord, mode: str = "exact") -> str:
    """Sha256 hex digest over the before-source and the serialized reference patch.

    ``exact`` hashes bytes as-is; ``ws_normalized`` first collapses every
    whitespace run to one space and trims the ends, so indentation-only
    variants collide on purpose.
    """
    if mode not in FINGERPRINT_MODES:
        raise ValueError(f"unknown fingerprint mode {mode!r}")
    src_text = record.vuln.source.text
    patch_text = serialize_patch(record.vuln.reference_patch)
    if mode == "ws_normalized":
        src_text = _squash_ws(src_text)
        patch_text = _squash_ws(patch_text)
    return hashlib.sha256(
        src_text.encode("utf-8") + b"\x00" + patch_text.encode("utf-8")
    ).hexdigest()


def detect_overlap(
    train: Iterable[DatasetRecord], test: Iterable[DatasetRecord], mode: str = "exact"
) -> SplitManifest:
    """Measure test-side leakage: the fraction of test records seen in train.

    Offers every train record to a ``LeakFilter`` built from ``test``, so
    ``test`` is read first; only fingerprints are held. ``counts`` and
    ``train_duplicates`` describe the train set as given.
    """
    leak = LeakFilter(test, mode)
    for r in train:
        leak.keep(r)
    distinct = len(leak._kept) + len(leak._leaked)
    return leak._manifest("detect_overlap", leak.read, leak.read - distinct)


class LeakFilter:
    """Refinement as a filter over train records that stream past.

    Built from the test records, of which it keeps only fingerprint counts.
    ``keep`` drops a train record fingerprinted in test, then one whose
    fingerprint an earlier kept record has (keep-first dedupe), so at most
    one train fingerprint per kept record is held.
    """

    def __init__(self, test: Iterable[DatasetRecord], mode: str = "exact"):
        self.mode = mode
        self.read = 0  # train records offered to keep
        self._test = Counter(compute_fingerprint(r, mode) for r in test)
        self._kept: set[str] = set()
        self._leaked: set[str] = set()
        self._duplicates = 0

    def keep(self, record: DatasetRecord) -> bool:
        self.read += 1
        digest = compute_fingerprint(record, self.mode)
        if digest in self._test:
            self._leaked.add(digest)
            return False
        if digest in self._kept:
            self._duplicates += 1
            return False
        self._kept.add(digest)
        return True

    def manifest(self) -> SplitManifest:
        """What was found and removed; overlap_count is the input train set's test-side leakage.

        Raises ValueError when no train or no test record was read.
        """
        return self._manifest("refine", len(self._kept), self._duplicates)

    def _manifest(self, command: str, n_train: int, train_duplicates: int) -> SplitManifest:
        n_test = sum(self._test.values())
        if not self.read or not n_test:
            raise ValueError(f"{command} needs non-empty train and test")
        overlap = sum(self._test[d] for d in self._leaked)
        return SplitManifest(
            counts={"train": n_train, "test": n_test},
            train_duplicates=train_duplicates,
            overlap_count=overlap,
            overlap_fraction=overlap / n_test,
            mode=self.mode,
        )


def refine(
    train: Iterable[DatasetRecord], test: Iterable[DatasetRecord], mode: str = "exact"
) -> tuple[list[DatasetRecord], SplitManifest]:
    """Drop train records fingerprinted in test, then dedupe train keeping first.

    detect_overlap on the result is exactly zero and running refine again is a
    no-op. See LeakFilter, which this reads ``test`` into first.
    """
    leak = LeakFilter(test, mode)
    kept = [r for r in train if leak.keep(r)]
    return kept, leak.manifest()
