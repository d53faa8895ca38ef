"""Ingestion, schemas, quarantine, fingerprints, refinement, export."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import os
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefix.dataset import (
    BUG_END,
    BUG_START,
    SplitManifest,
    compute_fingerprint,
    detect_overlap,
    export_jsonl,
    strip_bug_markers,
    write_records_jsonl,
)
from linefix import dataset, engine
from linefix.engine import apply_patch, derive_patch
from linefix.errors import SchemaError
from linefix.patchfmt import parse_patch, serialize_patch
from linefix.prompting import VulnRecord
from linefix.source import SourceUnit, from_text, to_text
from tests.helpers import (
    before_ranges,
    no_text_form,
    read_records,
    reference_edit_runs,
    reference_strip_bug_markers,
    refined,
)


def raw_row(i: int, split: str = "train", cwe: str = "CWE-787", **extra) -> dict:
    row = {
        "id": f"rec-{i}",
        "cwe_id": cwe,
        "cwe_description": "Out-of-bounds write.",
        "source_before": f"int f{i}(int n)\n{{\n  buf[n] = {i};\n  return n;\n}}\n",
        "source_after": f"int f{i}(int n)\n{{\n  if (n < LEN) buf[n] = {i};\n  return n;\n}}\n",
        "split": split,
    }
    row.update(extra)
    return row


def write_jsonl(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def mem_record(
    rid: str,
    before_text: str,
    after_text: str,
    split: str = "train",
    cwe: str = "CWE-787",
) -> VulnRecord:
    src = from_text(before_text)
    after = from_text(after_text)
    patch, changed = derive_patch(src, after)
    return VulnRecord(
        id=rid,
        cwe_id=cwe,
        cwe_description="d.",
        vuln_lines=tuple(changed),
        source=src,
        reference_patch=patch,
        split=split,
    )


def texts(record: VulnRecord) -> tuple[str, str]:
    """The record's before and after source text, as ingest reads them."""
    return to_text(record.source), to_text(apply_patch(record.source, record.reference_patch))


def simple_record(i: int, split: str = "train", cwe: str = "CWE-787") -> VulnRecord:
    return mem_record(
        f"m{i}",
        f"int f{i}()\n{{\n  return {i};\n}}\n",
        f"int f{i}()\n{{\n  return {i} + 1;\n}}\n",
        split,
        cwe,
    )


# --- ingest: raw schema --------------------------------------------------------


def test_ingest_raw_jsonl(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0), raw_row(1, split="test")])
    records, quarantined = read_records(path)
    assert [r.split for r in records] == ["train", "test"]
    assert quarantined == []
    # the writer counts rows per split, in SPLITS order whatever the file order
    counts = write_records_jsonl(reversed(records), str(tmp_path / "out.jsonl"))
    assert list(counts.items()) == [("train", 1), ("test", 1)]
    rec = records[0]
    assert rec.id == "rec-0"
    # vuln_lines default to the before-side lines the reference fix touches
    assert rec.vuln_lines == (2,)
    assert rec.reference_patch is not None


def test_ingest_keeps_explicit_vuln_lines(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, vuln_lines=[3, 1, 1])])
    (rec,), _ = read_records(path)
    assert rec.vuln_lines == (1, 3)  # deduped, ascending


def test_ingest_blank_lines_skipped(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(raw_row(0)) + "\n\n" + json.dumps(raw_row(1)) + "\n")
    records, _ = read_records(str(path))
    assert len(records) == 2


def test_ingest_missing_field_is_schema_error(tmp_path):
    row = raw_row(0)
    del row["cwe_id"]
    path = write_jsonl(tmp_path / "r.jsonl", [row])
    with pytest.raises(SchemaError) as err:
        read_records(path)
    assert "cwe_id" in str(err.value)
    assert f"{path}:1" in str(err.value)


def test_ingest_undecodable_line_is_schema_error(tmp_path):
    path = tmp_path / "r.jsonl"
    for line, message in (("{broken", "undecodable JSON"), ("[1, 2]", "row is not an object")):
        path.write_text(json.dumps(raw_row(0)) + "\n" + line + "\n")
        with pytest.raises(SchemaError, match=message) as err:
            read_records(str(path))
        assert err.value.line_no == 2


def test_ingest_reads_an_escaped_surrogate_pair(tmp_path):
    # two surrogate escapes that pair up are one character; only a lone one is refused
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, cwe_description="Smile \U0001F600.")])
    assert "\\ud83d\\ude00" in Path(path).read_text()
    (record,), _ = read_records(path)
    assert record.cwe_description == "Smile \U0001F600."


def test_ingest_unknown_split_is_schema_error(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, split="dev")])
    with pytest.raises(SchemaError):
        read_records(path)
    # a training row's split is checked by the same rule
    records, _ = read_records(write_jsonl(tmp_path / "ok.jsonl", [raw_row(0)]))
    export_jsonl(records, str(tmp_path / "t.jsonl"))
    row = {**json.loads((tmp_path / "t.jsonl").read_text()), "split": "dev"}
    with pytest.raises(SchemaError, match="unknown split 'dev'") as err:
        read_records(write_jsonl(tmp_path / "t_dev.jsonl", [row]))
    assert err.value.line_no == 1


def test_ingest_bad_vuln_lines_type_is_schema_error(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, vuln_lines=["2"])])
    with pytest.raises(SchemaError):
        read_records(path)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_ingest_bool_vuln_lines_is_schema_error(tmp_path, fmt):
    # kept, [true] would be exported as the line number "True", which no
    # ingest of that export could read back
    row = raw_row(0, vuln_lines=[True])
    if fmt == "jsonl":
        path = write_jsonl(tmp_path / "r.jsonl", [row])
    else:
        path = tmp_path / "r.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow({**row, "vuln_lines": "[true]"})
    with pytest.raises(SchemaError) as info:
        read_records(str(path))
    line_no = 2 if fmt == "csv" else 1  # a CSV row comes after its header
    message = "vuln_lines: expected a list of integers, got [True]"
    assert str(info.value) == f"{path}:{line_no}: {message}"


def test_ingest_quarantines_invariant_violations(tmp_path):
    rows = [
        raw_row(0, cwe="bad-cwe"),
        raw_row(1, cwe_description="two\nlines"),
        raw_row(2, vuln_lines=[99]),
        raw_row(3, source_after="int g()\n{\n  x = 1; <MID>\n}\n"),
        raw_row(4),  # a good row after the bad ones still lands
    ]
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert [r.id for r in records] == ["rec-4"]
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-0", "record 'rec-0': bad cwe_id 'bad-cwe'"),
        ("rec-1", "record 'rec-1': cwe_description contains a line feed"),
        ("rec-2", "record 'rec-2': vuln line 99 outside [0, 5)"),
        # the changed line is a patch body, and EditSpan refuses <MID> there
        ("rec-3", "body lines must not contain <MID> or <sep>"),
    ]
    assert all(q.line_no is not None for q in quarantined)


def test_ingest_quarantines_a_lone_cr_in_a_source_line(tmp_path):
    # no patch body may hold a CR, so a fix could never rewrite such a line,
    # whether it changes it or keeps it
    rows = [
        raw_row(0, source_before="x\r\ny\rz\nw\n", source_after="x\nq\rz\nw\n"),
        raw_row(1, source_before="x\ny\rz\nw\n", source_after="x\ny\rz\nv\n"),
        raw_row(2, source_before="x\r\ny\r\n", source_after="x\r\nz\r\n"),  # CR-LF folds
    ]
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert [r.id for r in records] == ["rec-2"]
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-0", "body lines must not contain CR"),
        ("rec-1", "record 'rec-1': source contains a carriage return"),
    ]


@pytest.mark.parametrize(
    "before,after",
    [
        ("x\ny\n", "x\nz"),  # the fix drops the final newline
        ("x\ny", "x\ny\n"),  # whitespace-only fix: adds it
    ],
)
def test_ingest_quarantines_trailing_newline_change(tmp_path, before, after):
    # the fixed source is rebuilt from the patch with before's trailing
    # newline, so writing the record back would change its source_after
    row = raw_row(0, source_before=before, source_after=after)
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", [row, raw_row(1)]))
    assert [r.id for r in records] == ["rec-1"]
    assert [q.record_id for q in quarantined] == ["rec-0"]
    assert "trailing newline" in quarantined[0].reason


def test_ingest_keeps_a_fix_deleting_every_line_of_an_lf_terminated_source(tmp_path):
    # an empty after has no line to end, so no trailing newline to disagree with
    rows = [
        raw_row(0, source_before="x\n", source_after=""),
        patch_row(1, source_before="x\n", reference_patch="-1-1<MID>"),
    ]
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert quarantined == []
    for record in records:
        assert serialize_patch(record.reference_patch) == "-1-1<MID>"
        assert record.vuln_lines == (0,)
        assert texts(record) == ("x\n", "")
    out = tmp_path / "out.jsonl"
    write_records_jsonl(records[:1], str(out))
    assert json.loads(out.read_text())["reference_patch"] == "-1-1<MID>"


def test_ingest_csv(tmp_path):
    path = tmp_path / "r.csv"
    fields = ["id", "cve_id", "cwe_id", "cwe_description", "vuln_lines",
              "source_before", "source_after", "split"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        row = raw_row(0)
        row["cve_id"] = ""
        row["vuln_lines"] = "[2]"
        writer.writerow(row)
        row2 = raw_row(1, cve_id="CVE-2024-0001")
        row2["vuln_lines"] = ""
        writer.writerow(row2)
    records, _ = read_records(str(path))
    assert len(records) == 2
    assert records[0].cve_id is None
    assert records[0].vuln_lines == (2,)
    assert records[1].cve_id == "CVE-2024-0001"


def test_ingest_csv_bad_vuln_lines_cell(tmp_path):
    path = tmp_path / "r.csv"
    fields = ["id", "cwe_id", "cwe_description", "vuln_lines",
              "source_before", "source_after", "split"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        row = raw_row(0)
        row["vuln_lines"] = "not json"
        writer.writerow(row)
    with pytest.raises(SchemaError):
        read_records(str(path))


def big_raw_rows(n: int, split: str = "train") -> list[dict]:
    """``n`` raw rows, each carrying two 400-line sources (about 20 KB a row)."""
    lines = [f"  v[{j}] = w[{j}] + {j};" for j in range(400)]

    def source(i: int, body: list[str]) -> str:
        return "\n".join([f"void f{i}(int *v, int *w)", *body]) + "\n"

    return [
        raw_row(i, split, source_before=source(i, lines),
                source_after=source(i, [*lines[:-1], "  v[0] = 0;"]))
        for i in range(n)
    ]


def test_ingest_holds_one_raw_row_at_a_time(tmp_path):
    # a reader that decodes the whole file before building records holds
    # every row beside the records
    path = write_jsonl(tmp_path / "big.jsonl", big_raw_rows(300))
    size = os.path.getsize(path)
    assert size > 5_000_000
    tracemalloc.start()
    try:
        records, _ = read_records(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 300
    assert (peak - retained) / size < 0.25


def test_ingest_quarantines_repeated_ids(tmp_path):
    # samples, scripted candidates and report rows are keyed by id, so a
    # record whose id an earlier kept record has is quarantined; an id whose
    # first row was quarantined for another reason stays free
    rows = [raw_row(0, id=""), raw_row(1, id=""), raw_row(2, id="a"), raw_row(3, id="a"),
            raw_row(4, id="b", cwe="CWE-XX"), raw_row(5, id="b")]
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert [r.id for r in records] == ["", "a", "b"]
    assert [r.source.lines[0] for r in records] == [
        "int f0(int n)", "int f2(int n)", "int f5(int n)"]
    assert [dataclasses.asdict(q) for q in quarantined] == [
        {"record_id": "", "line_no": 2, "reason": "duplicate id '' (first at line 1)"},
        {"record_id": "a", "line_no": 4, "reason": "duplicate id 'a' (first at line 3)"},
        {"record_id": "b", "line_no": 5, "reason": "record 'b': bad cwe_id 'CWE-XX'"},
    ]


def test_ingest_jsonl_reports_the_first_structural_error_in_file_order(tmp_path):
    first = raw_row(0)
    del first["cwe_id"]
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps(raw_row(1)) + "\n{broken\n")
    with pytest.raises(SchemaError) as err:
        read_records(str(path))
    assert err.value.line_no == 1
    assert "missing required field 'cwe_id'" in str(err.value)


def test_ingest_csv_reports_the_first_structural_error_in_file_order(tmp_path):
    # one physical line per row, so row n sits on line n + 1 after the header
    fields = ["id", "cwe_description", "source_before", "source_after", "split", "cwe_id"]
    good = ["rec-1", "d.", "int f() { return 0; }", "int f() { return 1; }", "train", "CWE-20"]
    path = tmp_path / "r.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows([fields, good[:-1], good, good + ["extra"]])
    with pytest.raises(SchemaError) as err:
        read_records(str(path))
    assert err.value.line_no == 2
    assert "missing required field 'cwe_id'" in str(err.value)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([fields, good, good + ["extra"]])
    with pytest.raises(SchemaError, match="row has more cells than header") as err:
        read_records(str(path))
    assert err.value.line_no == 3


def test_csv_rows_are_numbered_by_the_line_they_start_on(tmp_path):
    # every row spans eleven lines, as its sources hold LFs; the last row follows a
    # blank line, which must not shift its number either
    path = tmp_path / "r.csv"
    first = raw_row(0, vuln_lines="[2]")

    def write(last) -> int:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows([first, first.values()])
        buf.write("\n")
        start = buf.getvalue().count("\n") + 1
        writer.writerow(last)
        path.write_text(buf.getvalue(), encoding="utf-8")
        return start

    assert write(raw_row(1, cwe="CWE 787", vuln_lines="[2]").values()) == 14
    _, (entry,) = read_records(str(path))
    assert (entry.record_id, entry.line_no) == ("rec-1", 14)
    for last, message in (
        (raw_row(1, vuln_lines="not json").values(), "vuln_lines cell is not a JSON list"),
        ([*raw_row(1, vuln_lines="[2]").values(), "extra"], "row has more cells than header"),
        (raw_row(1, split="dev", vuln_lines="[2]").values(), "unknown split"),
    ):
        start = write(last)
        with pytest.raises(SchemaError, match=message) as err:
            read_records(str(path))
        assert err.value.line_no == start


# --- bug markers -----------------------------------------------------------------


def test_strip_bug_markers():
    text = f"int f()\n{BUG_START} buf[i] = 0;\nok;\n{BUG_END} done;\n"
    src, marked = strip_bug_markers(text)
    assert src == SourceUnit(("int f()", "buf[i] = 0;", "ok;", "done;"), True)
    assert marked == [1, 3]
    assert strip_bug_markers("a\r\nb") == (SourceUnit(("a", "b")), [])
    # a CR that the strip leaves before a LF folds with it, as a CR-LF read from the row would
    assert strip_bug_markers(f"a\r{BUG_START}\nb") == (SourceUnit(("a", "b")), [0])
    # a last line the strip empties, with no LF after it, becomes the trailing LF
    assert strip_bug_markers(f"a\n{BUG_END}") == (SourceUnit(("a",), True), [1])


MARKER_TEXT = st.lists(
    st.sampled_from(["a", " ", "\n", "\r\n", BUG_START, BUG_END]), max_size=12
).map("".join)


@settings(max_examples=400, deadline=None)
@given(MARKER_TEXT)
def test_strip_bug_markers_matches_the_text_strip(text):
    src, marked = strip_bug_markers(text)
    assert not any(BUG_START in line or BUG_END in line for line in src.lines)
    lines = from_text(text).lines
    assert marked == [i for i, line in enumerate(lines) if BUG_START in line or BUG_END in line]
    assert from_text(to_text(src)) == src
    assert to_text(src) == reference_strip_bug_markers(text)[0]


@pytest.mark.parametrize("before, fix, reason", [
    (BUG_START, {"source_after": "x"}, "record 'rec-0': vuln line 0 outside [0, 0)"),
    (f"int f()\n{BUG_START}", {"source_after": "int f()\nx\n"},
     "record 'rec-0': vuln line 1 outside [0, 1)"),
    (f"int f()\n{BUG_START}", {"reference_patch": "0-1<MID>x"},
     "record 'rec-0': vuln line 1 outside [0, 1)"),
])
def test_marker_on_an_emptied_last_line_quarantines(tmp_path, before, fix, reason):
    # the emptied last line folds into the trailing LF, so its mark is past the source
    row = {k: v for k, v in raw_row(0, source_before=before).items() if k != "source_after"}
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", [{**row, **fix}]))
    assert records == []
    assert [q.reason for q in quarantined] == [reason]


def test_ingest_marker_source_sets_vuln_lines(tmp_path):
    before = f"int f()\n{{\n{BUG_START}   buf[i] = 1;\n{BUG_END}   return 0;\n}}\n"
    after = "int f()\n{\n  if (i < n) buf[i] = 1;\n  return 1;\n}\n"
    path = write_jsonl(
        tmp_path / "r.jsonl",
        [raw_row(0, source_before=before, source_after=after)],
    )
    (rec,), _ = read_records(path)
    assert rec.vuln_lines == (2, 3)
    assert BUG_START not in to_text(rec.source)
    assert rec.source.lines[2] == "  buf[i] = 1;"


def test_marker_in_after_side_quarantines(tmp_path):
    row = raw_row(0, source_after=f"int f()\n{{\n{BUG_START}  ok;\n}}\n")
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", [row]))
    assert records == []
    assert len(quarantined) == 1


# --- writing and the export fixed point --------------------------------------------


def test_write_then_ingest_is_fixed_point(tmp_path):
    path1 = write_jsonl(tmp_path / "r.jsonl", [raw_row(0), raw_row(1, split="test")])
    first, _ = read_records(path1)
    out1 = tmp_path / "out1.jsonl"
    write_records_jsonl(first, str(out1))
    second, _ = read_records(str(out1))
    out2 = tmp_path / "out2.jsonl"
    write_records_jsonl(second, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


# --- stored reference patches --------------------------------------------------------


def count_derives(monkeypatch) -> list:
    """Record every derive_patch call ingest makes."""
    calls = []

    def counting(before, after):
        calls.append(before)
        return derive_patch(before, after)

    monkeypatch.setattr(dataset, "derive_patch", counting)
    return calls


def blank_line_row(i: int) -> dict:
    # the fix inserts one blank line: its minimal patch body ("",) has no text form
    return raw_row(i, source_before="int g()\n{\n  x;\n}\n",
                   source_after="int g()\n{\n\n  x;\n}\n")


def written_rows(tmp_path, rows) -> list[dict]:
    out = tmp_path / "written.jsonl"
    records, _ = read_records(write_jsonl(tmp_path / "in.jsonl", rows))
    write_records_jsonl(records, str(out))
    return [json.loads(line) for line in out.read_text().splitlines()]


def patch_row(i: int, **extra) -> dict:
    """raw_row(i) with its fix stored as a patch instead, as write_records_jsonl writes it."""
    row = raw_row(i, reference_patch=f"1-3<MID>  if (n < LEN) buf[n] = {i};")
    del row["source_after"]
    row.update(extra)
    return row


def test_written_file_reingests_without_diffing(tmp_path, monkeypatch):
    rows = written_rows(tmp_path, [raw_row(0), blank_line_row(1), raw_row(2, split="test")])
    head = ["id", "cve_id", "cwe_id", "cwe_description", "vuln_lines", "source_before"]
    assert [list(r) for r in rows] == [head + ["reference_patch", "split"]] * 3
    assert rows[0]["reference_patch"] == "1-3<MID>  if (n < LEN) buf[n] = 0;"
    assert rows[1]["reference_patch"] == "1-3<MID>\n  x;"  # widened over the next line
    calls = count_derives(monkeypatch)
    records, quarantined = read_records(write_jsonl(tmp_path / "again.jsonl", rows))
    assert quarantined == []
    assert [r.id for r in records] == ["rec-0", "rec-1", "rec-2"]
    assert calls == []
    assert serialize_patch(records[0].reference_patch) == rows[0]["reference_patch"]
    assert texts(records[0])[1] == raw_row(0)["source_after"]
    assert texts(records[1])[1] == blank_line_row(1)["source_after"]


def test_ingest_write_ingest_write_is_byte_identical(tmp_path):
    crlf = raw_row(3, source_before="a()\r\n{\r\n  b;\r\n}\r\n",
                   source_after="a()\r\n{\r\n  c;\r\n}\r\n")
    marked = raw_row(4, source_before=f"int f()\n{{\n{BUG_START} x;\n}}\n")
    same = raw_row(5, source_after=raw_row(5)["source_before"])  # no fix: quarantined
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0), blank_line_row(1), crlf, marked, same])
    out1, out2 = tmp_path / "out1.jsonl", tmp_path / "out2.jsonl"
    first, quarantined = read_records(path)
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-5", "record 'rec-5': reference patch is empty")
    ]
    write_records_jsonl(first, str(out1))
    second, quarantined = read_records(str(out1))
    assert quarantined == []
    write_records_jsonl(second, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_stored_reference_is_checked_against_crlf_folded_after(tmp_path, monkeypatch):
    # the stored patch applies to the CR-LF-folded before and gives the folded after
    row = patch_row(0)
    row["source_before"] = row["source_before"].replace("\n", "\r\n")
    calls = count_derives(monkeypatch)
    records, quarantined = read_records(
        write_jsonl(tmp_path / "crlf.jsonl", [row, patch_row(1)]))
    assert quarantined == []
    assert calls == []
    assert texts(records[0])[1] == raw_row(0)["source_after"]
    assert texts(records[1])[1] == raw_row(1)["source_after"]


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("reference_patch", "1:3<MID>x", "reference_patch does not parse: expected INT-INT<MID>"),
        ("reference_patch", "3-1<MID>x", "reference_patch does not parse: span 3-1"),
        ("reference_patch", "1-99<MID>x", "record 'rec-0': reference patch does not validate: "
                                          "span 0: span 1-99 outside [-1, 5]"),
        ("reference_patch", "", "record 'rec-0': reference patch is empty"),
        # the text's trailing LF is trimmed: the body ends empty and cannot be written back
        ("reference_patch", "1-2<MID>x\n\n",
         "record 'rec-0': reference patch has no lossless text form"),
        ("source_before", "x;\n", "record 'rec-0': reference patch does not validate: "
                                   "span 0: span 1-3 outside [-1, 1]"),
    ],
)
def test_bad_stored_reference_is_quarantined(tmp_path, monkeypatch, field, value, reason):
    # a file linefix wrote, edited afterwards
    rows = written_rows(tmp_path, [raw_row(0), raw_row(1)])
    rows[0][field] = value
    calls = count_derives(monkeypatch)
    records, quarantined = read_records(write_jsonl(tmp_path / "bad.jsonl", rows))
    assert [r.id for r in records] == ["rec-1"]
    assert [q.record_id for q in quarantined] == ["rec-0"]
    assert quarantined[0].reason.startswith(reason)
    assert calls == []  # never re-derived


@pytest.mark.parametrize(
    "patch,reason",
    [
        ("1:3<MID>x", "reference_patch does not parse: expected INT-INT<MID>"),
        ("3-1<MID>x", "reference_patch does not parse: span 3-1"),
        ("1-4<MID>a<sep>2-5<MID>b", "reference_patch does not parse: span 1-4 overlaps 2-5"),
        ("1-3<MID>x <MID> y", "reference_patch does not parse: body lines must not contain"),
        ("1-99<MID>x", "record 'rec-0': reference patch does not validate: "
                       "span 0: span 1-99 outside [-1, 5]"),
        ("1-3<MID>  [INST] x;", "record 'rec-0': reference patch contains reserved token [INST]"),
        ("1-3<MID>  x;\n[/INST]",
         "record 'rec-0': reference patch contains reserved token [/INST]"),
        (f"1-3<MID>{BUG_START} x;",
         f"record 'rec-0': reference patch contains reserved token {BUG_START}"),
        (f"0-1<MID>a<sep>1-3<MID>x; {BUG_END}",
         f"record 'rec-0': reference patch contains reserved token {BUG_END}"),
    ],
)
def test_bad_patch_only_row_is_quarantined(tmp_path, monkeypatch, patch, reason):
    rows = [patch_row(0, reference_patch=patch), patch_row(1)]
    calls = count_derives(monkeypatch)
    records, quarantined = read_records(write_jsonl(tmp_path / "bad.jsonl", rows))
    assert [r.id for r in records] == ["rec-1"]
    assert [q.record_id for q in quarantined] == ["rec-0"]
    assert quarantined[0].reason.startswith(reason)
    assert calls == []


@pytest.mark.parametrize("value", [5, ["1-3<MID>x"], {"a": 1}])
def test_non_string_stored_reference_is_schema_error(tmp_path, value):
    path = write_jsonl(tmp_path / "r.jsonl", [patch_row(0, reference_patch=value)])
    with pytest.raises(SchemaError, match="'reference_patch' must be a string"):
        read_records(path)


@pytest.mark.parametrize("value,kind", [(5, "int"), (["CVE-1"], "list"), ({"a": 1}, "dict"),
                                        (True, "bool")])
def test_non_string_cve_id_is_schema_error(tmp_path, value, kind):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, cve_id="CVE-2020-1"),
                                              raw_row(1, cve_id=value)])
    with pytest.raises(SchemaError, match=f"^.*r.jsonl:2: field 'cve_id' must be a string,"
                                          f" got {kind}$"):
        read_records(path)


def test_fix_fields_are_type_checked_and_one_is_required(tmp_path):
    with pytest.raises(SchemaError, match="'source_after' must be a string"):
        read_records(write_jsonl(tmp_path / "typed.jsonl", [raw_row(0, source_after=5)]))
    both = dict(patch_row(0), source_after=raw_row(0)["source_after"])
    with pytest.raises(
        SchemaError, match="row has both 'source_after' and 'reference_patch'; give one"
    ) as err:
        read_records(write_jsonl(tmp_path / "both.jsonl", [patch_row(1), both]))
    assert err.value.line_no == 2
    row = raw_row(0, source_after=None)
    with pytest.raises(SchemaError, match="missing required field 'source_after'") as err:
        read_records(write_jsonl(tmp_path / "neither.jsonl", [raw_row(1), row]))
    assert err.value.line_no == 2


# lines rich in blanks: a lone inserted blank line is what the minimal patch text cannot carry
BLANKISH_LINE = st.sampled_from(["", "", "", " ", "x;", "}"])


@st.composite
def blank_heavy_text(draw) -> str:
    lines = draw(st.lists(BLANKISH_LINE, max_size=7))
    return "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")


def expected_quarantine(before: str, after: str) -> str | None:
    """Why ingest must refuse a raw pair, or None when it must keep it."""
    b, a = from_text(before), from_text(after)
    if a.lines and b.had_trailing_newline != a.had_trailing_newline:
        return "differ in their trailing newline"
    if b.lines == a.lines:
        return "reference patch is empty"
    if no_text_form(b.lines, a.lines):
        return "reference patch has no lossless text form"
    return None


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(blank_heavy_text(), blank_heavy_text()), min_size=1, max_size=4))
@example([("x\n", "\n"), ("", "\n"), ("x", "x"), ("x\n", "x\n\n"), ("x\n", "\nx\n")])
def test_written_records_are_a_fixed_point(pairs):
    # raw -> ingest -> records file -> ingest -> export -> ingest -> export
    rows = [raw_row(i, source_before=b, source_after=a) for i, (b, a) in enumerate(pairs)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        first, quarantined = read_records(write_jsonl(d / "raw.jsonl", rows))
        write_records_jsonl(first, str(d / "records1.jsonl"))
        stored, stored_quarantined = read_records(str(d / "records1.jsonl"))
        write_records_jsonl(stored, str(d / "records2.jsonl"))
        export_jsonl(stored, str(d / "train1.jsonl"))
        trained, trained_quarantined = read_records(str(d / "train1.jsonl"))
        export_jsonl(trained, str(d / "train2.jsonl"))
        written = (d / "records1.jsonl").read_bytes()
        assert written == (d / "records2.jsonl").read_bytes()
        assert (d / "train1.jsonl").read_bytes() == (d / "train2.jsonl").read_bytes()
    assert stored == first
    assert stored_quarantined == trained_quarantined == []
    reasons = {q.record_id: q.reason for q in quarantined}
    for i, (before, after) in enumerate(pairs):
        expected = expected_quarantine(before, after)
        assert (expected is None) == (f"rec-{i}" not in reasons)
        assert expected is None or expected in reasons[f"rec-{i}"]
    for record, row in zip(first, map(json.loads, written.decode("utf-8").splitlines())):
        assert "source_after" not in row
        assert parse_patch(row["reference_patch"]) == record.reference_patch
        assert texts(record)[1] == pairs[int(record.id.removeprefix("rec-"))][1]


def test_raw_rows_without_the_field_are_diffed(tmp_path, monkeypatch):
    before = f"int f()\n{{\n{BUG_START}   buf[i] = 1;\n{BUG_END}   return 0;\n}}\n"
    after = "int f()\n{\n  if (i < n) buf[i] = 1;\n  return 1;\n}\n"
    rows = [
        raw_row(0, source_before=before, source_after=after),
        raw_row(1, source_before="x\ny\n", source_after="x\nz"),
        raw_row(2),
    ]
    calls = count_derives(monkeypatch)
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert len(calls) == 3
    assert [r.id for r in records] == ["rec-0", "rec-2"]
    assert "trailing newline" in quarantined[0].reason
    marked = records[0]
    assert marked.vuln_lines == (2, 3)
    assert marked.source.lines[2] == "  buf[i] = 1;"
    out = tmp_path / "out.jsonl"
    write_records_jsonl(records, str(out))
    again, _ = read_records(str(out))
    assert len(calls) == 3
    assert again[0] == marked


# --- vuln lines from the diff ---------------------------------------------------------


def assert_vuln_lines_follow_the_diff(pairs: list[tuple[tuple[str, ...], tuple[str, ...]]]):
    """Ingest each (before, after) line pair from a source_after row and, with the
    derived fix as its patch, from a patch-only row without vuln_lines.

    Each kept row's vuln_lines are the before-ranges of the oracle diff, and a
    source_after row is quarantined exactly when ``expected_quarantine`` says so:
    the pair has no text form, is unchanged, or lines ending in a blank one are
    added to an empty source, whose text has no trailing LF to share.
    """
    after_rows, patch_rows, oracle = [], [], {}
    for i, (before, after) in enumerate(pairs):
        # an empty source has no trailing LF, so the after side then gets none either
        end = "\n" if before else ""
        texts = ["\n".join(lines) + end if lines else "" for lines in (before, after)]
        after_rows.append(raw_row(i, source_before=texts[0], source_after=texts[1]))
        oracle[f"rec-{i}"] = tuple(before_ranges(reference_edit_runs(before, after)))
        if before != after and not no_text_form(before, after):
            patch, _ = derive_patch(SourceUnit(before, True), SourceUnit(after, True))
            # LF-terminated text reads back as exactly its lines
            patch_rows.append(patch_row(i, source_before="".join(f"{line}\n" for line in before),
                                        reference_patch=serialize_patch(patch)))
    with tempfile.TemporaryDirectory() as tmp:
        from_after, after_quarantined = read_records(write_jsonl(Path(tmp) / "after.jsonl", after_rows))
        from_patch, patch_quarantined = read_records(write_jsonl(Path(tmp) / "patch.jsonl", patch_rows))
    reasons = {q.record_id: q.reason for q in after_quarantined}
    for row in after_rows:
        expected = expected_quarantine(row["source_before"], row["source_after"])
        assert (expected is None) == (row["id"] not in reasons), row
        assert expected is None or expected in reasons[row["id"]]
    assert patch_quarantined == []
    assert len(from_patch) == len(patch_rows)
    for record in from_after + from_patch:
        i = int(record.id.removeprefix("rec-"))
        assert apply_patch(record.source, record.reference_patch).lines == pairs[i][1]
        assert record.vuln_lines == oracle[record.id], pairs[i]


def test_vuln_lines_follow_the_diff_on_every_small_pair():
    # every pair of 0-4 lines over "", "x", "y": 14,641 pairs, 14,520 of them changed
    sources = [lines for n in range(5) for lines in itertools.product(("", "x", "y"), repeat=n)]
    assert_vuln_lines_follow_the_diff(list(itertools.product(sources, repeat=2)))


SMALL_SOURCE = st.lists(st.sampled_from(["", "x", "y", "}"]), max_size=10).map(tuple)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(SMALL_SOURCE, SMALL_SOURCE), min_size=1, max_size=4))
def test_vuln_lines_follow_the_diff(pairs):
    assert_vuln_lines_follow_the_diff(pairs)


def test_vuln_lines_skip_a_line_the_fix_keeps(tmp_path):
    # the fix deletes "y" and keeps "x" inside the widened end-of-file insertion
    after_row = raw_row(0, source_before="x\ny\n", source_after="\nx\n\n")
    (record,), _ = read_records(write_jsonl(tmp_path / "after.jsonl", [after_row]))
    patch = serialize_patch(record.reference_patch)
    patch_only = patch_row(0, source_before="x\ny\n", reference_patch=patch)
    (again,), _ = read_records(write_jsonl(tmp_path / "patch.jsonl", [patch_only]))
    assert record.vuln_lines == again.vuln_lines == (1,)


def test_ingest_diffs_each_row_at_most_once(tmp_path, monkeypatch):
    edit_runs, calls = engine.edit_runs, []

    def counting(a, b):
        calls.append(a[0])
        return edit_runs(a, b)

    monkeypatch.setattr(engine, "edit_runs", counting)
    marked = f"int f()\n{{\n{BUG_START}   buf[n] = 1;\n  return n;\n}}\n"
    rows = [
        raw_row(0),
        raw_row(1, source_before=marked),
        raw_row(2, vuln_lines=[2]),
        patch_row(3),  # neither vuln_lines nor markers: diffed once
        patch_row(4, vuln_lines=[2]),
        patch_row(5, source_before=marked),
    ]
    records, quarantined = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert quarantined == []
    # each source_after row is diffed once, inside derive_patch
    assert calls == ["int f0(int n)", "int f()", "int f2(int n)", "int f3(int n)"]
    assert [r.vuln_lines for r in records] == [(2,)] * 6


def write_csv(path, fields: list[str], rows: list[dict]) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def test_csv_reference_patch_cell(tmp_path, monkeypatch):
    fields = ["id", "cwe_id", "cwe_description", "source_before", "reference_patch", "split"]
    stored = patch_row(0)["reference_patch"]
    rows = [patch_row(0), patch_row(1, reference_patch="1-99<MID>x")]
    calls = count_derives(monkeypatch)
    records, quarantined = read_records(write_csv(tmp_path / "patch.csv", fields, rows))
    assert calls == []
    assert [r.id for r in records] == ["rec-0"]
    assert serialize_patch(records[0].reference_patch) == stored
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-1", "record 'rec-1': reference patch does not validate: "
                  "span 0: span 1-99 outside [-1, 5]")
    ]
    # next to a source_after column, an empty reference_patch cell means the field is absent
    fields.insert(4, "source_after")
    path = write_csv(tmp_path / "both.csv", fields, [raw_row(2, reference_patch="")])
    records, _ = read_records(path)
    assert [r.id for r in records] == ["rec-2"]
    assert len(calls) == 1
    # and an empty source_after cell next to a filled reference_patch one, so rows can mix
    mixed = [raw_row(3, reference_patch=""), patch_row(4, source_after="")]
    records, quarantined = read_records(write_csv(tmp_path / "mixed.csv", fields, mixed))
    assert quarantined == []
    assert [texts(r)[1] for r in records] == [raw_row(i)["source_after"] for i in (3, 4)]
    assert len(calls) == 2
    path = write_csv(tmp_path / "bad.csv", fields, [raw_row(5, reference_patch=stored)])
    with pytest.raises(SchemaError, match="row has both"):
        read_records(path)


def test_export_then_reingest_is_fixed_point(tmp_path):
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", [raw_row(0), raw_row(1)]))
    out1 = tmp_path / "train1.jsonl"
    assert export_jsonl(records, str(out1)) == 2
    back, quarantined = read_records(str(out1))
    assert quarantined == []
    assert [r.id for r in back] == ["rec-0", "rec-1"]
    assert back[0].source.lines == records[0].source.lines
    out2 = tmp_path / "train2.jsonl"
    export_jsonl(back, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_export_then_reingest_keeps_the_cve(tmp_path):
    rows = [raw_row(0, cve_id="CVE-2019-1001"), raw_row(1), raw_row(2, cve_id=None)]
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    exported = [json.loads(line) for line in out.read_text().splitlines()]
    # written after the id, and only when the record has one
    assert [list(row)[:2] for row in exported] == [["id", "cve_id"], ["id", "prompt"],
                                                   ["id", "prompt"]]
    back, quarantined = read_records(str(out))
    assert quarantined == []
    assert [r.cve_id for r in back] == ["CVE-2019-1001", None, None]
    # a training row's cve_id follows the raw rows' optional-string rule
    exported[1]["cve_id"] = None
    exported[2]["cve_id"] = 5
    with pytest.raises(SchemaError, match="^.*t2.jsonl:3: field 'cve_id' must be a string,"
                                          " got int$"):
        read_records(write_jsonl(tmp_path / "t2.jsonl", exported))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.none() | st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
                min_size=1, max_size=4))
def test_export_then_reingest_keeps_any_cve(cves):
    rows = [raw_row(i, cve_id=cve) for i, cve in enumerate(cves)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        records, _ = read_records(write_jsonl(d / "raw.jsonl", rows))
        export_jsonl(records, str(d / "train.jsonl"))
        back, quarantined = read_records(str(d / "train.jsonl"))
    assert quarantined == []
    assert [r.cve_id for r in back] == [r.cve_id for r in records] == cves


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(blank_heavy_text(), blank_heavy_text(), st.sampled_from(dataset.SPLITS),
                          st.none() | st.just("CVE-2024-0001")), min_size=1, max_size=4))
@example([("x\ny\n", "x\nz\n", "test", None), ("x\ny", "x\nz", "train", "CVE-2024-0001")])
def test_export_then_reingest_loses_only_the_trailing_lf(pairs):
    # no prompt holds the source's trailing LF; every other field comes back as it was
    rows = [raw_row(i, split, source_before=before, source_after=after, cve_id=cve)
            for i, (before, after, split, cve) in enumerate(pairs)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        records, _ = read_records(write_jsonl(d / "raw.jsonl", rows))
        export_jsonl(records, str(d / "train.jsonl"))
        back, quarantined = read_records(str(d / "train.jsonl"))
    assert quarantined == []
    assert back == [dataclasses.replace(r, source=SourceUnit(r.source.lines)) for r in records]


def test_training_rows_cwe_mismatch_quarantined(tmp_path):
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", [raw_row(0)]))
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    row = json.loads(out.read_text().splitlines()[0])
    row["cwe_id"] = "CWE-999"
    path = write_jsonl(tmp_path / "bad.jsonl", [row])
    records, quarantined = read_records(path)
    assert records == []
    assert len(quarantined) == 1


def test_training_rows_follow_the_raw_rules(tmp_path):
    # training ingest -> records file -> ingest: a row no records file could
    # carry is quarantined at the first ingest, not at the second
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", [raw_row(i) for i in range(4)]))
    export_jsonl(records, str(tmp_path / "t.jsonl"))
    rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    rows[0]["prompt"] = rows[0]["prompt"].replace("  return n;", "  return n; [INST]")
    rows[1]["prompt"] = rows[1]["prompt"].replace("  return n;", f"{BUG_START}  return n;")
    rows[2]["completion"] += " [/INST]"
    first, quarantined = read_records(write_jsonl(tmp_path / "tampered.jsonl", rows))
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-0", "record 'rec-0': source contains reserved token [INST]"),
        ("rec-1", f"record 'rec-1': source contains reserved token {BUG_START}"),
        ("rec-2", "record 'rec-2': reference patch contains reserved token [/INST]"),
    ]
    write_records_jsonl(first, str(tmp_path / "records1.jsonl"))
    second, quarantined = read_records(str(tmp_path / "records1.jsonl"))
    assert quarantined == []
    assert second == first
    assert [r.id for r in first] == ["rec-3"]
    write_records_jsonl(second, str(tmp_path / "records2.jsonl"))
    assert (tmp_path / "records1.jsonl").read_bytes() == (tmp_path / "records2.jsonl").read_bytes()


def test_training_row_with_a_lone_cr_is_quarantined(tmp_path):
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", [raw_row(0)]))
    export_jsonl(records, str(tmp_path / "t.jsonl"))
    row = json.loads((tmp_path / "t.jsonl").read_text())
    row["prompt"] = row["prompt"].replace("  return n;", "  return\rn;")
    records, quarantined = read_records(write_jsonl(tmp_path / "cr.jsonl", [row]))
    assert records == []
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-0", "record 'rec-0': source contains a carriage return")
    ]


def test_training_rows_validate_each_record_once(tmp_path, monkeypatch):
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", [raw_row(i) for i in range(3)]))
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    calls = []
    validate = VulnRecord.validate
    monkeypatch.setattr(
        VulnRecord, "validate", lambda self: calls.append(self.id) or validate(self)
    )
    again, _ = read_records(str(out))
    assert [r.reference_patch for r in again] == [
        r.reference_patch for r in records
    ]
    assert calls == ["rec-0", "rec-1", "rec-2"]


def test_training_row_invariant_reason_names_the_row(tmp_path):
    records, _ = read_records(write_jsonl(tmp_path / "r.jsonl", [raw_row(0)]))
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    row = json.loads(out.read_text().splitlines()[0])
    assert row["prompt"].startswith("[INST]2 CWE-787 ")
    no_fix = dict(row, id="rec-1", completion="")
    row["prompt"] = row["prompt"].replace("[INST]2 ", "[INST]9 ", 1)
    records, quarantined = read_records(write_jsonl(tmp_path / "bad.jsonl", [row, no_fix]))
    assert records == []
    assert [(q.record_id, q.reason) for q in quarantined] == [
        ("rec-0", "record 'rec-0': vuln line 9 outside [0, 5)"),
        ("rec-1", "record 'rec-1': reference patch is empty"),
    ]


# --- fingerprints -------------------------------------------------------------------


def test_fingerprint_stable_and_content_sensitive():
    a = simple_record(0)
    assert compute_fingerprint(a) == compute_fingerprint(simple_record(0))
    different_fix = mem_record(
        "m0",
        "int f0()\n{\n  return 0;\n}\n",
        "int f0()\n{\n  return 0 + 2;\n}\n",
    )
    assert compute_fingerprint(a) != compute_fingerprint(different_fix)
    assert len(compute_fingerprint(a)) == 64


def test_fingerprint_ignores_trailing_newline_and_crlf():
    a = mem_record("x", "a()\n{\n  b;\n}\n", "a()\n{\n  c;\n}\n")
    b = mem_record("x", "a()\n{\n  b;\n}", "a()\n{\n  c;\n}")
    c = mem_record("x", "a()\r\n{\r\n  b;\r\n}\r\n", "a()\r\n{\r\n  c;\r\n}\r\n")
    digests = {compute_fingerprint(r) for r in (a, b, c)}
    assert len(digests) == 1


def test_fingerprint_ws_normalized_mode():
    a = mem_record("x", "a()\n{\n  b;\n}\n", "a()\n{\n  c;\n}\n")
    b = mem_record("x", "a()\n{\n      b;\n}\n", "a()\n{\n      c;\n}\n")
    assert compute_fingerprint(a, "exact") != compute_fingerprint(b, "exact")
    assert compute_fingerprint(a, "ws_normalized") == compute_fingerprint(b, "ws_normalized")


def test_fingerprint_unknown_mode():
    with pytest.raises(ValueError):
        compute_fingerprint(simple_record(0), "fuzzy")


# --- overlap and refinement -----------------------------------------------------------


def test_detect_overlap_counts_test_side():
    shared = [simple_record(i) for i in range(2)]
    train = shared + [simple_record(i) for i in range(2, 6)]
    test = [
        mem_record(f"t{r.id}", *texts(r), "test") for r in shared
    ] + [simple_record(i, "test") for i in range(10, 12)]
    manifest = detect_overlap(train, test)
    assert manifest.overlap_count == 2
    assert manifest.overlap_fraction == 0.5
    assert manifest.counts == {"train": 6, "test": 4}
    assert manifest.train_duplicates == 0
    assert manifest.mode == "exact"


def test_detect_overlap_rejects_empty():
    with pytest.raises(ValueError):
        detect_overlap([], [simple_record(0)])
    with pytest.raises(ValueError):
        detect_overlap([simple_record(0)], [])


def test_refine_drops_leaks_and_duplicates():
    leak = simple_record(0)
    dup_a = simple_record(1)
    dup_b = mem_record("copy-of-1", *texts(dup_a))
    clean = simple_record(2)
    train = [leak, dup_a, dup_b, clean]
    test = [mem_record("t0", *texts(leak), "test")]
    kept, manifest = refined(train, test)
    assert [r.id for r in kept] == ["m1", "m2"]  # keep-first on duplicates
    assert manifest.overlap_count == 1
    assert manifest.train_duplicates == 1
    assert manifest.counts == {"train": 2, "test": 1}
    assert detect_overlap(kept, test).overlap_count == 0
    again, manifest2 = refined(kept, test)
    assert [r.id for r in again] == [r.id for r in kept]
    assert manifest2.overlap_count == 0
    assert manifest2.train_duplicates == 0


def test_refine_and_detect_overlap_read_iterators_once():
    # streams from dataset.stream are one-shot iterators: a truth test or a
    # second pass over one would see nothing
    leak = simple_record(0)
    train = [leak, simple_record(1), mem_record("copy-of-1", *texts(simple_record(1)))]
    test = [mem_record("t0", *texts(leak), "test"), simple_record(9, "test")]
    kept, manifest = refined(iter(train), iter(test))
    assert [r.id for r in kept] == ["m1"]
    assert manifest == refined(train, test)[1]
    assert dataclasses.asdict(manifest) == {
        "counts": {"train": 1, "test": 2}, "train_duplicates": 1,
        "overlap_count": 1, "overlap_fraction": 0.5, "mode": "exact"}
    assert detect_overlap(iter(train), iter(test)) == detect_overlap(train, test)
    for train_in, test_in in ((iter([]), iter(test)), (iter(train), iter([]))):
        with pytest.raises(ValueError, match="refine needs non-empty train and test"):
            refined(train_in, test_in)
    with pytest.raises(ValueError, match="detect_overlap needs non-empty train and test"):
        detect_overlap(iter([]), iter(test))


def test_refine_ws_normalized_catches_indentation_variants():
    a = mem_record("a", "f()\n{\n  x;\n}\n", "f()\n{\n  y;\n}\n")
    spaced = mem_record("b", "f()\n{\n        x;\n}\n", "f()\n{\n        y;\n}\n")
    test = [mem_record("t", *texts(a), "test")]
    kept_exact, _ = refined([a, spaced], test, "exact")
    assert [r.id for r in kept_exact] == ["b"]
    kept_ws, _ = refined([a, spaced], test, "ws_normalized")
    assert kept_ws == []


# a few distinct fixes: 1 re-indents 0, so the two collide under ws_normalized,
# and 2 gives 0's source another fix
LEAK_FIXES = [
    ("f()\n{\n  x;\n}\n", "f()\n{\n  y;\n}\n"),
    ("f()\n{\n      x;\n}\n", "f()\n{\n      y;\n}\n"),
    ("f()\n{\n  x;\n}\n", "f()\n{\n  z;\n}\n"),
    ("g()\n{\n  x;\n}\n", "g()\n{\n  return;\n}\n"),
]
FIX_INDEX = st.integers(0, len(LEAK_FIXES) - 1)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(FIX_INDEX, min_size=1, max_size=8),
    st.lists(FIX_INDEX, min_size=1, max_size=6),
    st.sampled_from(dataset.FINGERPRINT_MODES),
)
@example([0, 0, 3], [0, 0, 2], "exact")  # a train fix leaked twice into test
@example([1, 0, 1], [0, 3, 0], "ws_normalized")
def test_overlap_and_refine_match_brute_force_counts(train_fixes, test_fixes, mode):
    train = [mem_record(f"tr{j}", *LEAK_FIXES[i]) for j, i in enumerate(train_fixes)]
    test = [mem_record(f"te{j}", *LEAK_FIXES[i], "test") for j, i in enumerate(test_fixes)]
    train_fps = [compute_fingerprint(r, mode) for r in train]
    test_fps = Counter(compute_fingerprint(r, mode) for r in test)
    leaked = sum(n for fp, n in test_fps.items() if fp in train_fps)
    assert detect_overlap(iter(train), iter(test), mode) == SplitManifest(
        counts={"train": len(train), "test": len(test)},
        train_duplicates=len(train) - len(set(train_fps)),
        overlap_count=leaked,
        overlap_fraction=leaked / len(test),
        mode=mode,
    )
    kept_ids, seen = [], set()
    for r, fp in zip(train, train_fps):
        if fp not in test_fps and fp not in seen:
            seen.add(fp)
            kept_ids.append(r.id)
    kept, manifest = refined(iter(train), iter(test), mode)
    assert [r.id for r in kept] == kept_ids
    assert manifest == SplitManifest(
        counts={"train": len(kept_ids), "test": len(test)},
        train_duplicates=sum(fp not in test_fps for fp in train_fps) - len(kept_ids),
        overlap_count=leaked,
        overlap_fraction=leaked / len(test),
        mode=mode,
    )
    # one filter gives both manifests from its counts
    leak = dataset.LeakFilter(iter(test), mode)
    kept_count = sum(leak.keep(r) for r in train)
    assert leak.train.total() == len(train)
    assert kept_count == leak.manifest().counts["train"]
    assert leak.manifest() == manifest
    assert leak.audit() == detect_overlap(train, test, mode)
