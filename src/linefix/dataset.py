"""Dataset ingestion, fingerprinting, leakage refinement, and export.

Two on-disk schemas are understood and told apart per row. A file named
``*.csv`` (any case) is read as CSV, any other (``/dev/stdin`` too) as JSONL;
a leading UTF-8 byte-order mark is skipped in both:

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
    form. In CSV an empty ``vuln_lines``, ``cve_id`` or ``reference_patch`` cell
    is an absent field, and so is an empty ``source_after`` cell next to a
    filled ``reference_patch`` one, so a file can mix both kinds of row.

training schema (JSONL)
    ``id, cve_id?, prompt, completion, cwe_id, split`` as written by export_jsonl;
    records are reconstructed by parsing the prompt and completion. The
    export bytes are a fixed point of export -> ingest -> export; the record
    is one only up to its source's trailing LF, which no prompt holds.

``stream`` is the one reader: it yields each record, split included, as its
row is decoded, so a caller that writes as it reads holds one record at a
time. Every command reads through it.
Structural problems (missing fields, undecodable rows, bytes or escapes that
are not UTF-8) raise SchemaError at ``path:line`` for the first one in file
order; the record builders raise ValueError, and ``stream`` adds the line. A
CSV row is named by the line its first cell starts on. Records from both
schemas keep the one rule set of ``VulnRecord.validate``; the reader adds only
the raw pair's trailing-newline rule and one rule across rows, that ids are
unique within a file. Records that decode but violate an invariant are
quarantined with a reason, never silently dropped. Every record that is kept
carries its reference patch, so export_jsonl writes one training row for each.

The writers take any iterable of records. ``LeakFilter`` is the one leakage
counter: it counts test records, and in its public ``train`` train records, by
fingerprint; ``manifest()`` (the refined set) and ``audit()`` (the set as
given) derive every number from those two counts. The refined train set is
``filter(leak.keep, train)``, read after ``test``; ``detect_overlap`` offers
it every train record and returns ``audit()``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass
from itertools import zip_longest

from linefix import engine
from linefix.checks import check_list, repeats
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
from linefix.patchfmt import parse_patch
from linefix.source import SourceUnit, from_text, to_text

SPLITS = ("train", "validation", "test")
FINGERPRINT_MODES = ("exact", "ws_normalized")

_RAW_REQUIRED = ("id", "cwe_id", "cwe_description", "source_before", "split")
_TRAINING_REQUIRED = ("id", "cwe_id", "prompt", "completion", "split")
_CSV_OPTIONAL = ("vuln_lines", "cve_id", "reference_patch")

_WS_RUN = re.compile(r"\s+")


@dataclass
class QuarantineEntry:
    record_id: str | None
    line_no: int | None
    reason: str


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
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(_decoded(fh, path), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise SchemaError("row is not an object", path=path, line_no=line_no)
                # a lone surrogate from an escape cannot be written; an ASCII field holds none
                if any(isinstance(v, str) and not v.isascii() for v in obj.values()):
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SchemaError(f"not valid UTF-8: {exc}", path=path, line_no=line_no)
            except ValueError as exc:  # also an integer literal too long to convert
                raise SchemaError(f"undecodable JSON: {exc}", path=path, line_no=line_no)
            yield line_no, obj


def _read_csv(path: str) -> Iterator[tuple[int, dict]]:
    """Each row with the line its first cell starts on; blank lines between rows are skipped."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_decoded(fh, path))
        end = 0  # the last line of the rows read so far
        try:
            header = next(reader, [])
            if twice := repeats(header):
                raise SchemaError(f"header names column {twice[0]!r} twice", path=path, line_no=1)
            end = reader.line_num
            for cells in reader:
                line_no, end = end + 1, reader.line_num
                if not cells:
                    continue
                obj = dict(zip_longest(header, cells))  # a missing cell is None
                if None in obj:
                    raise SchemaError("row has more cells than header", path=path, line_no=line_no)
                # an empty cell of an optional field is absent; source_after is optional next to
                # a filled reference_patch cell, so one file can mix both kinds of row
                optional = _CSV_OPTIONAL + ("source_after",) * bool(obj.get("reference_patch"))
                row = {k: v for k, v in obj.items() if v or k not in optional}
                if "vuln_lines" in row:
                    try:
                        row["vuln_lines"] = json.loads(row["vuln_lines"])
                    except ValueError:  # also an integer literal too long to convert
                        raise SchemaError(
                            f"vuln_lines cell is not a JSON list: {row['vuln_lines'][:60]!r}",
                            path=path,
                            line_no=line_no,
                        )
                yield line_no, row
        except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
            raise SchemaError(f"unreadable CSV row: {exc}", path=path, line_no=end + 1) from None


def _require(row: dict, fields: tuple[str, ...]) -> str:
    """Check that each of ``fields`` is a string; returns the row's split, which must be known."""
    for name in fields:
        if name not in row or row[name] is None:
            raise ValueError(f"missing required field {name!r}")
        if not isinstance(row[name], str):
            raise ValueError(f"field {name!r} must be a string, got {type(row[name]).__name__}")
    split = row["split"]
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    return split


def _given_cve(row: dict) -> tuple[str, ...]:
    """``("cve_id",)`` when the row gives one, for ``_require``; null is absent."""
    return ("cve_id",) if row.get("cve_id") is not None else ()


def strip_bug_markers(text: str) -> tuple[SourceUnit, list[int]]:
    """Split ``text`` into a source with the upstream bug markers removed, and the marked lines.

    A line containing either marker counts as marked; the marker token plus
    one adjacent space is dropped so surrounding code is left untouched. The
    whole text is stripped at once (no marker or removal holds a LF) and read
    back, so a last line that the strip leaves empty, with no LF after it,
    folds into the trailing LF.
    """
    unit = from_text(text)
    if BUG_START not in text and BUG_END not in text:
        return unit, []
    marked = [i for i, line in enumerate(unit.lines) if BUG_START in line or BUG_END in line]
    for token in (BUG_START, BUG_END):
        text = text.replace(token + " ", "").replace(" " + token, "").replace(token, "")
    return from_text(text), marked


def _record_from_raw(row: dict) -> VulnRecord:
    # the fix is source_after or reference_patch, never both
    fix_fields = tuple(f for f in ("source_after", "reference_patch") if row.get(f) is not None)
    if len(fix_fields) == 2:
        raise ValueError("row has both 'source_after' and 'reference_patch'; give one")
    split = _require(row, _RAW_REQUIRED + (fix_fields or ("source_after",)) + _given_cve(row))
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
        check_list("vuln_lines", vuln_lines, int, "a list of integers")
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
    return VulnRecord(
        id=row["id"],
        cwe_id=row["cwe_id"],
        cwe_description=row["cwe_description"],
        vuln_lines=tuple(vuln_lines),
        source=src,
        cve_id=row.get("cve_id"),
        reference_patch=patch,
        split=split,
    )


def _record_from_training(row: dict) -> VulnRecord:
    split = _require(row, _TRAINING_REQUIRED + _given_cve(row))
    return parse_prompt(row["prompt"], id=row["id"], cwe_id=row["cwe_id"], split=split,
                        cve_id=row.get("cve_id"), completion=row["completion"])


def stream(path: str, quarantined: list[QuarantineEntry]) -> Iterator[VulnRecord]:
    """Yield the records of a records file in file order, building each as its row is read.

    A path ending in ``.csv`` (any case) is read as CSV, any other as JSONL.
    Rows that violate an invariant are appended to ``quarantined`` instead;
    so is a row whose id an earlier record of the file already has. A
    structural problem raises SchemaError when its row is reached.
    """
    rows = _read_csv(path) if path.lower().endswith(".csv") else _read_jsonl(path)
    first_line: dict[str, int] = {}  # id -> line of the record that has it
    with closing(rows):  # a SchemaError closes the file now, not when rows is collected
        for line_no, row in rows:
            builder = _record_from_training if "prompt" in row else _record_from_raw
            try:
                record = builder(row)
            except ValueError as exc:  # the row's shape; only this reader knows its line
                raise SchemaError(str(exc), path=path, line_no=line_no) from None
            except LinefixError as exc:
                quarantined.append(
                    QuarantineEntry(reason=str(exc), record_id=row.get("id"), line_no=line_no)
                )
                continue
            rid = record.id
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


# --- writing ----------------------------------------------------------------


def _write_jsonl(rows: Iterable[dict], path: str) -> Counter[str]:
    """Write each row as one JSON line (UTF-8, LF line ends); returns the rows per split."""
    counts: Counter[str] = Counter()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
            counts[row["split"]] += 1
    return counts


def write_records_jsonl(records: Iterable[VulnRecord], path: str) -> dict[str, int]:
    """Write records back out in the raw schema.

    Each fix is written once, as ``reference_patch``. Returns the rows
    written per split, in ``SPLITS`` order.
    """
    counts = _write_jsonl(({
        "id": r.id,
        "cve_id": r.cve_id,
        "cwe_id": r.cwe_id,
        "cwe_description": r.cwe_description,
        "vuln_lines": list(r.vuln_lines),
        "source_before": to_text(r.source),
        "reference_patch": r.completion,
        "split": r.split,
    } for r in records), path)
    return {s: counts[s] for s in SPLITS if s in counts}


def export_jsonl(records: Iterable[VulnRecord], path: str) -> int:
    """Write the training schema, one row per record; returns the rows written.

    A row has ``cve_id`` only when its record has one.
    """
    examples = ((r, render_training_example(r)) for r in records)
    return _write_jsonl(({
        "id": r.id,
        **({"cve_id": r.cve_id} if r.cve_id is not None else {}),
        "prompt": example.prompt,
        "completion": example.completion,
        "cwe_id": r.cwe_id,
        "split": r.split,
    } for r, example in examples), path).total()


# --- fingerprinting and refinement -------------------------------------------


def _squash_ws(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


def compute_fingerprint(record: VulnRecord, mode: str = "exact") -> str:
    """Sha256 hex digest over the before-source and the serialized reference patch.

    ``exact`` hashes bytes as-is; ``ws_normalized`` first collapses every
    whitespace run to one space and trims the ends, so indentation-only
    variants collide on purpose.
    """
    if mode not in FINGERPRINT_MODES:
        raise ValueError(f"unknown fingerprint mode {mode!r}")
    texts = (record.source.text, record.completion)
    if mode == "ws_normalized":
        texts = map(_squash_ws, texts)
    return hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()


def detect_overlap(
    train: Iterable[VulnRecord], test: Iterable[VulnRecord], mode: str = "exact"
) -> SplitManifest:
    """Measure test-side leakage: the fraction of test records seen in train.

    Offers every train record to a ``LeakFilter`` built from ``test`` (read
    first; only fingerprints are held) and returns its ``audit``.
    """
    leak = LeakFilter(test, mode)
    for r in train:
        leak.keep(r)
    return leak.audit()


class LeakFilter:
    """Refinement as a filter over train records that stream past.

    Built from the test records, of which it keeps only fingerprint counts;
    ``train`` counts the records offered to ``keep`` by fingerprint, one entry
    per distinct fingerprint. ``keep`` drops a train record fingerprinted in
    test, then one whose fingerprint an earlier record has (keep-first dedupe),
    so ``detect_overlap`` on the kept records is exactly zero and filtering
    them again keeps them all. ``manifest`` describes the refined train set
    and ``audit`` the set as given; both raise ValueError when no train or no
    test record was read.
    """

    def __init__(self, test: Iterable[VulnRecord], mode: str = "exact"):
        self.mode = mode
        self._test = Counter(compute_fingerprint(r, mode) for r in test)
        self.train: Counter[str] = Counter()

    def keep(self, record: VulnRecord) -> bool:
        digest = compute_fingerprint(record, self.mode)
        self.train[digest] += 1
        return self.train[digest] == 1 and digest not in self._test

    def manifest(self) -> SplitManifest:
        """The refined train set: the records kept and the repeats dropped among them."""
        clean = [n for digest, n in self.train.items() if digest not in self._test]
        return self._manifest("refine", len(clean), sum(clean) - len(clean))

    def audit(self) -> SplitManifest:
        """The train set as given: every record offered and every repeat among them."""
        read = self.train.total()
        return self._manifest("detect_overlap", read, read - len(self.train))

    def _manifest(self, command: str, n_train: int, train_duplicates: int) -> SplitManifest:
        # in both manifests, overlap_count is the test records whose fingerprint train has
        n_test = self._test.total()
        if not self.train or not n_test:
            raise ValueError(f"{command} needs non-empty train and test")
        overlap = sum(n for digest, n in self._test.items() if digest in self.train)
        return SplitManifest(
            counts={"train": n_train, "test": n_test},
            train_duplicates=train_duplicates,
            overlap_count=overlap,
            overlap_fraction=overlap / n_test,
            mode=self.mode,
        )
