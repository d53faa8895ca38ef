"""Ingestion, schemas, quarantine, fingerprints, refinement, export."""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefix.dataset import (
    BUG_END,
    BUG_START,
    DatasetRecord,
    compute_fingerprint,
    detect_overlap,
    export_jsonl,
    ingest,
    refine,
    strip_bug_markers,
    write_records_jsonl,
)
from linefix import dataset
from linefix.engine import changed_before_lines, derive_patch
from linefix.errors import SchemaError
from linefix.patchfmt import serialize_patch
from linefix.prompting import VulnRecord
from linefix.source import from_text, to_text


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
) -> DatasetRecord:
    src = from_text(before_text)
    after = from_text(after_text)
    patch = derive_patch(src, after)
    vuln = VulnRecord(
        id=rid,
        cwe_id=cwe,
        cwe_description="d.",
        vuln_lines=tuple(changed_before_lines(patch)),
        source=src,
        reference_patch=patch,
    )
    return DatasetRecord(split, vuln)


def texts(record: DatasetRecord) -> tuple[str, str]:
    """The record's before and after source text, as ingest reads them."""
    return to_text(record.vuln.source), to_text(record.vuln.reference_after)


def simple_record(i: int, split: str = "train", cwe: str = "CWE-787") -> DatasetRecord:
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
    result = ingest(path)
    assert len(result.records) == 2
    assert result.quarantined == []
    assert result.split_counts() == {"train": 1, "test": 1}
    rec = result.records[0]
    assert rec.vuln.id == "rec-0"
    # vuln_lines default to the before-side lines the reference fix touches
    assert rec.vuln.vuln_lines == (2,)
    assert rec.vuln.reference_patch is not None


def test_ingest_keeps_explicit_vuln_lines(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, vuln_lines=[3, 1, 1])])
    rec = ingest(path).records[0]
    assert rec.vuln.vuln_lines == (1, 3)  # deduped, ascending


def test_ingest_blank_lines_skipped(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(raw_row(0)) + "\n\n" + json.dumps(raw_row(1)) + "\n")
    assert len(ingest(str(path)).records) == 2


def test_ingest_missing_field_is_schema_error(tmp_path):
    row = raw_row(0)
    del row["cwe_id"]
    path = write_jsonl(tmp_path / "r.jsonl", [row])
    with pytest.raises(SchemaError) as err:
        ingest(path)
    assert "cwe_id" in str(err.value)
    assert f"{path}:1" in str(err.value)


def test_ingest_undecodable_line_is_schema_error(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(raw_row(0)) + "\n{broken\n")
    with pytest.raises(SchemaError) as err:
        ingest(str(path))
    assert err.value.line_no == 2


def test_ingest_unknown_split_is_schema_error(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, split="dev")])
    with pytest.raises(SchemaError):
        ingest(path)


def test_ingest_bad_vuln_lines_type_is_schema_error(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, vuln_lines=["2"])])
    with pytest.raises(SchemaError):
        ingest(path)


def test_ingest_quarantines_invariant_violations(tmp_path):
    rows = [
        raw_row(0, cwe="bad-cwe"),
        raw_row(1, cwe_description="two\nlines"),
        raw_row(2, vuln_lines=[99]),
        raw_row(3, source_after="int g()\n{\n  x = 1; <MID>\n}\n"),
        raw_row(4),  # a good row after the bad ones still lands
    ]
    result = ingest(write_jsonl(tmp_path / "r.jsonl", rows))
    assert [r.vuln.id for r in result.records] == ["rec-4"]
    assert len(result.quarantined) == 4
    assert {q.record_id for q in result.quarantined} == {f"rec-{i}" for i in range(4)}
    assert all(q.line_no is not None for q in result.quarantined)


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
    result = ingest(write_jsonl(tmp_path / "r.jsonl", [row, raw_row(1)]))
    assert [r.vuln.id for r in result.records] == ["rec-1"]
    assert [q.record_id for q in result.quarantined] == ["rec-0"]
    assert "trailing newline" in result.quarantined[0].reason


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
    result = ingest(str(path), fmt="csv")
    assert len(result.records) == 2
    assert result.records[0].vuln.cve_id is None
    assert result.records[0].vuln.vuln_lines == (2,)
    assert result.records[1].vuln.cve_id == "CVE-2024-0001"


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
        ingest(str(path), fmt="csv")


def test_ingest_unknown_format():
    with pytest.raises(ValueError):
        ingest("whatever.xml", fmt="xml")


# --- bug markers -----------------------------------------------------------------


def test_strip_bug_markers():
    text = f"int f()\n{BUG_START} buf[i] = 0;\nok;\n{BUG_END} done;\n"
    clean, marked = strip_bug_markers(text)
    assert clean == "int f()\nbuf[i] = 0;\nok;\ndone;\n"
    assert marked == [1, 3]


def test_ingest_marker_source_sets_vuln_lines(tmp_path):
    before = f"int f()\n{{\n{BUG_START}   buf[i] = 1;\n{BUG_END}   return 0;\n}}\n"
    after = "int f()\n{\n  if (i < n) buf[i] = 1;\n  return 1;\n}\n"
    path = write_jsonl(
        tmp_path / "r.jsonl",
        [raw_row(0, source_before=before, source_after=after)],
    )
    rec = ingest(path).records[0]
    assert rec.vuln.vuln_lines == (2, 3)
    assert BUG_START not in to_text(rec.vuln.source)
    assert rec.vuln.source.lines[2] == "  buf[i] = 1;"


def test_marker_in_after_side_quarantines(tmp_path):
    row = raw_row(0, source_after=f"int f()\n{{\n{BUG_START}  ok;\n}}\n")
    result = ingest(write_jsonl(tmp_path / "r.jsonl", [row]))
    assert result.records == []
    assert len(result.quarantined) == 1


# --- writing and the export fixed point --------------------------------------------


def test_write_then_ingest_is_fixed_point(tmp_path):
    path1 = write_jsonl(tmp_path / "r.jsonl", [raw_row(0), raw_row(1, split="test")])
    first = ingest(path1)
    out1 = tmp_path / "out1.jsonl"
    write_records_jsonl(first.records, str(out1))
    second = ingest(str(out1))
    out2 = tmp_path / "out2.jsonl"
    write_records_jsonl(second.records, str(out2))
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
    # the fix inserts one blank line: its patch body ("",) has no text form
    return raw_row(i, source_before="int g()\n{\n  x;\n}\n",
                   source_after="int g()\n{\n\n  x;\n}\n")


def written_rows(tmp_path, rows) -> list[dict]:
    out = tmp_path / "written.jsonl"
    write_records_jsonl(ingest(write_jsonl(tmp_path / "in.jsonl", rows)).records, str(out))
    return [json.loads(line) for line in out.read_text().splitlines()]


def both_fields_row(i: int, **extra) -> dict:
    """raw_row(i) that also carries its stored patch, as files once written held both."""
    return raw_row(i, reference_patch=f"1-3<MID>  if (n < LEN) buf[n] = {i};", **extra)


def test_written_file_reingests_without_diffing(tmp_path, monkeypatch):
    rows = written_rows(tmp_path, [raw_row(0), blank_line_row(1), raw_row(2, split="test")])
    head = ["id", "cve_id", "cwe_id", "cwe_description", "vuln_lines", "source_before"]
    assert [list(r) for r in rows] == [
        head + ["reference_patch", "split"],
        head + ["source_after", "split"],  # its patch text would not round-trip
        head + ["reference_patch", "split"],
    ]
    assert rows[0]["reference_patch"] == "1-3<MID>  if (n < LEN) buf[n] = 0;"
    assert rows[1]["source_after"] == blank_line_row(1)["source_after"]
    calls = count_derives(monkeypatch)
    result = ingest(write_jsonl(tmp_path / "again.jsonl", rows))
    assert result.quarantined == []
    assert [r.vuln.id for r in result.records] == ["rec-0", "rec-1", "rec-2"]
    assert len(calls) == 1  # only the blank-line record is diffed again
    assert serialize_patch(result.records[0].vuln.reference()) == rows[0]["reference_patch"]
    assert texts(result.records[0])[1] == raw_row(0)["source_after"]


def test_ingest_write_ingest_write_is_byte_identical(tmp_path):
    crlf = raw_row(3, source_before="a()\r\n{\r\n  b;\r\n}\r\n",
                   source_after="a()\r\n{\r\n  c;\r\n}\r\n")
    marked = raw_row(4, source_before=f"int f()\n{{\n{BUG_START} x;\n}}\n")
    same = raw_row(5, source_after=raw_row(5)["source_before"])
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0), blank_line_row(1), crlf, marked, same])
    out1, out2 = tmp_path / "out1.jsonl", tmp_path / "out2.jsonl"
    write_records_jsonl(ingest(path).records, str(out1))
    second = ingest(str(out1))
    assert second.quarantined == []
    write_records_jsonl(second.records, str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert [json.loads(line).get("reference_patch") for line in out1.read_text().splitlines()][4] == ""


def test_stored_reference_is_checked_against_crlf_folded_after(tmp_path, monkeypatch):
    row = both_fields_row(0)
    for key in ("source_before", "source_after"):
        row[key] = row[key].replace("\n", "\r\n")
    patch_only = both_fields_row(1, source_before=row["source_before"].replace("f0", "f1"))
    del patch_only["source_after"]
    calls = count_derives(monkeypatch)
    result = ingest(write_jsonl(tmp_path / "crlf.jsonl", [row, patch_only]))
    assert result.quarantined == []
    assert calls == []
    assert texts(result.records[0])[1] == raw_row(0)["source_after"]
    assert texts(result.records[1])[1] == raw_row(1)["source_after"]


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("source_after", "int f0(int n)\n{\n  if (n < 9) buf[n] = 0;\n  return n;\n}\n",
         "reference_patch does not reproduce source_after"),
        ("source_after", "int f0(int n)\n{\n  if (n < LEN) buf[n] = 0;\n  return n;\n}",
         "reference_patch does not reproduce source_after"),
        ("reference_patch", "1-3<MID>  if (n < 9) buf[n] = 0;",
         "reference_patch does not reproduce source_after"),
        ("reference_patch", "1:3<MID>x", "reference_patch does not parse: expected INT-INT<MID>"),
        ("reference_patch", "3-1<MID>x", "reference_patch does not parse: span 3-1"),
        ("reference_patch", "1-99<MID>x",
         "reference_patch does not validate: span 0: span 1-99 outside [-1, 5]"),
    ],
)
def test_bad_stored_reference_is_quarantined(tmp_path, monkeypatch, field, value, reason):
    rows = [both_fields_row(0), both_fields_row(1)]
    rows[0][field] = value
    calls = count_derives(monkeypatch)
    result = ingest(write_jsonl(tmp_path / "bad.jsonl", rows))
    assert [r.vuln.id for r in result.records] == ["rec-1"]
    assert [q.record_id for q in result.quarantined] == ["rec-0"]
    assert result.quarantined[0].reason.startswith(reason)
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
        ("1-3<MID>  [INST] x;", "reference_patch contains reserved token [INST]"),
        ("1-3<MID>  x;\n[/INST]", "reference_patch contains reserved token [/INST]"),
        (f"1-3<MID>{BUG_START} x;", f"reference_patch contains reserved token {BUG_START}"),
        (f"0-1<MID>a<sep>1-3<MID>x; {BUG_END}",
         f"reference_patch contains reserved token {BUG_END}"),
    ],
)
def test_bad_patch_only_row_is_quarantined(tmp_path, monkeypatch, patch, reason):
    rows = [raw_row(0, reference_patch=patch), both_fields_row(1)]
    for row in rows:
        del row["source_after"]
    calls = count_derives(monkeypatch)
    result = ingest(write_jsonl(tmp_path / "bad.jsonl", rows))
    assert [r.vuln.id for r in result.records] == ["rec-1"]
    assert [q.record_id for q in result.quarantined] == ["rec-0"]
    assert result.quarantined[0].reason.startswith(reason)
    assert calls == []


@pytest.mark.parametrize("value", [5, ["1-3<MID>x"], {"a": 1}])
def test_non_string_stored_reference_is_schema_error(tmp_path, value):
    path = write_jsonl(tmp_path / "r.jsonl", [raw_row(0, reference_patch=value)])
    with pytest.raises(SchemaError, match="'reference_patch' must be a string"):
        ingest(path)


def test_fix_fields_are_type_checked_and_one_is_required(tmp_path):
    row = both_fields_row(0, source_after=5)
    with pytest.raises(SchemaError, match="'source_after' must be a string"):
        ingest(write_jsonl(tmp_path / "typed.jsonl", [row]))
    row = raw_row(0, source_after=None)
    with pytest.raises(SchemaError, match="missing required field 'source_after'") as err:
        ingest(write_jsonl(tmp_path / "neither.jsonl", [raw_row(1), row]))
    assert err.value.line_no == 2


# lines rich in blanks: a lone inserted blank line is the patch text cannot carry
BLANKISH_LINE = st.sampled_from(["", "", "", " ", "x;", "}"])


@st.composite
def blank_heavy_text(draw) -> str:
    lines = draw(st.lists(BLANKISH_LINE, max_size=7))
    return "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(blank_heavy_text(), blank_heavy_text()), min_size=1, max_size=4))
def test_written_records_are_a_fixed_point(pairs):
    rows = [raw_row(i, source_before=b, source_after=a) for i, (b, a) in enumerate(pairs)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        first = ingest(write_jsonl(d / "in.jsonl", rows))
        write_records_jsonl(first.records, str(d / "out1.jsonl"))
        second = ingest(str(d / "out1.jsonl"))
        write_records_jsonl(second.records, str(d / "out2.jsonl"))
        out1 = (d / "out1.jsonl").read_bytes()
        assert out1 == (d / "out2.jsonl").read_bytes()
    assert second.quarantined == []
    assert second.records == first.records
    written = [json.loads(line) for line in out1.decode("utf-8").splitlines()]
    after = {row["id"]: row["source_after"] for row in rows}
    for record, row in zip(first.records, written):
        assert ("source_after" in row) != ("reference_patch" in row)
        assert texts(record)[1] == after[record.vuln.id]


def test_raw_rows_without_the_field_are_diffed(tmp_path, monkeypatch):
    before = f"int f()\n{{\n{BUG_START}   buf[i] = 1;\n{BUG_END}   return 0;\n}}\n"
    after = "int f()\n{\n  if (i < n) buf[i] = 1;\n  return 1;\n}\n"
    rows = [
        raw_row(0, source_before=before, source_after=after),
        raw_row(1, source_before="x\ny\n", source_after="x\nz"),
        raw_row(2),
    ]
    calls = count_derives(monkeypatch)
    result = ingest(write_jsonl(tmp_path / "r.jsonl", rows))
    assert len(calls) == 3
    assert [r.vuln.id for r in result.records] == ["rec-0", "rec-2"]
    assert "trailing newline" in result.quarantined[0].reason
    marked = result.records[0].vuln
    assert marked.vuln_lines == (2, 3)
    assert marked.source.lines[2] == "  buf[i] = 1;"
    out = tmp_path / "out.jsonl"
    write_records_jsonl(result.records, str(out))
    again = ingest(str(out))
    assert len(calls) == 3
    assert again.records[0].vuln == marked


def test_csv_reference_patch_cell(tmp_path, monkeypatch):
    path = tmp_path / "r.csv"
    fields = ["id", "cwe_id", "cwe_description", "source_before", "source_after",
              "reference_patch", "split"]
    stored = "1-3<MID>  if (n < LEN) buf[n] = 0;"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerow(raw_row(0, reference_patch=stored))
        writer.writerow(raw_row(1, reference_patch=""))  # empty cell: absent
        writer.writerow(raw_row(2, reference_patch=stored))  # does not fit row 2
    calls = count_derives(monkeypatch)
    result = ingest(str(path), fmt="csv")
    assert len(calls) == 1
    assert [r.vuln.id for r in result.records] == ["rec-0", "rec-1"]
    assert serialize_patch(result.records[0].vuln.reference()) == stored
    assert [(q.record_id, q.reason) for q in result.quarantined] == [
        ("rec-2", "reference_patch does not reproduce source_after")
    ]


def test_export_then_reingest_is_fixed_point(tmp_path):
    records = ingest(write_jsonl(tmp_path / "r.jsonl", [raw_row(0), raw_row(1)])).records
    out1 = tmp_path / "train1.jsonl"
    export = export_jsonl(records, str(out1))
    assert export.written == 2
    assert export.quarantined == []
    back = ingest(str(out1))
    assert back.quarantined == []
    assert [r.vuln.id for r in back.records] == ["rec-0", "rec-1"]
    assert back.records[0].vuln.source.lines == records[0].vuln.source.lines
    out2 = tmp_path / "train2.jsonl"
    export_jsonl(back.records, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_export_quarantines_missing_reference(tmp_path):
    rec = simple_record(0)
    bare = DatasetRecord(
        rec.split,
        VulnRecord(
            id="no-ref",
            cwe_id="CWE-20",
            cwe_description="d.",
            vuln_lines=(),
            source=rec.vuln.source,
        ),
    )
    out = tmp_path / "t.jsonl"
    export = export_jsonl([rec, bare], str(out))
    assert export.written == 1
    assert [q.record_id for q in export.quarantined] == ["no-ref"]


def test_training_rows_cwe_mismatch_quarantined(tmp_path):
    records = ingest(write_jsonl(tmp_path / "r.jsonl", [raw_row(0)])).records
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    row = json.loads(out.read_text().splitlines()[0])
    row["cwe_id"] = "CWE-999"
    path = write_jsonl(tmp_path / "bad.jsonl", [row])
    result = ingest(path)
    assert result.records == []
    assert len(result.quarantined) == 1


def test_training_rows_validate_each_record_once(tmp_path, monkeypatch):
    records = ingest(write_jsonl(tmp_path / "r.jsonl", [raw_row(i) for i in range(3)])).records
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    calls = []
    validate = VulnRecord.validate
    monkeypatch.setattr(
        VulnRecord, "validate", lambda self: calls.append(self.id) or validate(self)
    )
    result = ingest(str(out))
    assert [r.vuln.reference_patch for r in result.records] == [
        r.vuln.reference_patch for r in records
    ]
    assert calls == ["rec-0", "rec-1", "rec-2"]


def test_training_row_invariant_reason_names_the_row(tmp_path):
    records = ingest(write_jsonl(tmp_path / "r.jsonl", [raw_row(0)])).records
    out = tmp_path / "t.jsonl"
    export_jsonl(records, str(out))
    row = json.loads(out.read_text().splitlines()[0])
    assert row["prompt"].startswith("[INST]2 CWE-787 ")
    row["prompt"] = row["prompt"].replace("[INST]2 ", "[INST]9 ", 1)
    result = ingest(write_jsonl(tmp_path / "bad.jsonl", [row]))
    assert result.records == []
    assert [(q.record_id, q.reason) for q in result.quarantined] == [
        ("rec-0", "record 'rec-0': vuln line 9 outside [0, 5)")
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
    assert compute_fingerprint(a).digest != compute_fingerprint(different_fix).digest
    assert len(compute_fingerprint(a).digest) == 64


def test_fingerprint_ignores_trailing_newline_and_crlf():
    a = mem_record("x", "a()\n{\n  b;\n}\n", "a()\n{\n  c;\n}\n")
    b = mem_record("x", "a()\n{\n  b;\n}", "a()\n{\n  c;\n}")
    c = mem_record("x", "a()\r\n{\r\n  b;\r\n}\r\n", "a()\r\n{\r\n  c;\r\n}\r\n")
    digests = {compute_fingerprint(r).digest for r in (a, b, c)}
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
        mem_record(f"t{r.vuln.id}", *texts(r), "test") for r in shared
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
    kept, manifest = refine(train, test)
    assert [r.vuln.id for r in kept] == ["m1", "m2"]  # keep-first on duplicates
    assert manifest.overlap_count == 1
    assert manifest.train_duplicates == 1
    assert manifest.counts == {"train": 2, "test": 1}
    assert detect_overlap(kept, test).overlap_count == 0
    again, manifest2 = refine(kept, test)
    assert [r.vuln.id for r in again] == [r.vuln.id for r in kept]
    assert manifest2.overlap_count == 0
    assert manifest2.train_duplicates == 0


def test_refine_ws_normalized_catches_indentation_variants():
    a = mem_record("a", "f()\n{\n  x;\n}\n", "f()\n{\n  y;\n}\n")
    spaced = mem_record("b", "f()\n{\n        x;\n}\n", "f()\n{\n        y;\n}\n")
    test = [mem_record("t", *texts(a), "test")]
    kept_exact, _ = refine([a, spaced], test, "exact")
    assert [r.vuln.id for r in kept_exact] == ["b"]
    kept_ws, _ = refine([a, spaced], test, "ws_normalized")
    assert kept_ws == []
