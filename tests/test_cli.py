"""End-to-end CLI behavior: exit codes, files written, byte stability."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import socket
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from linefix import cli
from linefix import dataset as ds
from linefix.cli import main
from linefix.engine import apply_patch
from linefix.source import to_text
from tests.conftest import (
    VPX_BEFORE_LINES,
    VPX_REFERENCE_PATCH_TEXT,
)
from tests.test_dataset import big_raw_rows, raw_row, write_jsonl


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def completion(i: int) -> str:
    return f"1-3<MID>  if (n < LEN) buf[n] = {i};"


@pytest.fixture
def corpus(tmp_path):
    train_rows = [raw_row(i) for i in range(6)]
    train_rows.append(raw_row(0, id="rec-0-copy"))  # same content as rec-0
    train_rows.append(raw_row(3, id="rec-3-copy"))  # intra-train duplicate
    test_rows = [raw_row(0, split="test", id="rec-0-test"), raw_row(10, split="test")]
    return {
        "train": write_jsonl(tmp_path / "train.jsonl", train_rows),
        "test": write_jsonl(tmp_path / "test.jsonl", test_rows),
        "dir": tmp_path,
    }


# --- ingest ---------------------------------------------------------------------


def test_ingest_writes_outputs(runner, corpus):
    out = corpus["dir"] / "normalized.jsonl"
    result = runner.invoke(
        main, ["ingest", "--input", corpus["train"], "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert out.exists()
    quarantine = json.loads((corpus["dir"] / "normalized.jsonl.quarantine.json").read_text())
    assert quarantine == {"quarantined": []}
    manifest = json.loads((corpus["dir"] / "normalized.jsonl.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["records"] == 8
    assert manifest["counts"] == {"train": 8}


def test_ingest_is_byte_stable(runner, corpus, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["ingest", "--input", corpus["train"], "--out", str(out)]
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.jsonl.manifest.json").read_text().replace("a.jsonl", "b.jsonl") == (
        tmp_path / "b.jsonl.manifest.json"
    ).read_text()


def test_ingest_schema_error_exits_2(runner, tmp_path):
    row = raw_row(0)
    del row["split"]
    path = tmp_path / "bad.jsonl"
    # an undecodable line further down does not hide the first row's error
    path.write_text(json.dumps(row) + "\n" + json.dumps(raw_row(1)) + "\n{broken\n")
    argv = ["ingest", "--input", str(path), "--out", str(tmp_path / "o.jsonl")]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert f"{path}:1: missing required field 'split'" in result.output


def test_ingest_row_without_a_fix_exits_2(runner, tmp_path):
    row = raw_row(0)
    del row["source_after"]
    path = write_jsonl(tmp_path / "bad.jsonl", [row])
    result = runner.invoke(main, ["ingest", "--input", path, "--out", str(tmp_path / "o.jsonl")])
    assert result.exit_code == 2
    assert "missing required field 'source_after'" in result.output


def test_ingest_missing_file_exits_1(runner, tmp_path):
    result = runner.invoke(
        main, ["ingest", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "command", ["ingest", "ingest-csv", "refine", "export-train", "audit-overlap", "evaluate"]
)
def test_records_file_not_utf8_exits_2_naming_it(runner, eval_setup, tmp_path, command):
    # bytes that are not UTF-8; in JSONL also an escape that decodes to a lone
    # surrogate, which no UTF-8 output could hold
    lone = json.dumps(raw_row(0, source_before="int f(void);\ud800\n")) + "\n"
    inputs = [(json.dumps(raw_row(0)).encode() + b"\n\xff\n", "")]
    if command != "ingest-csv":
        inputs.append(((lone + json.dumps(raw_row(1)) + "\n").encode(), "1:"))
    good = write_jsonl(tmp_path / "good.jsonl", [raw_row(9, "test")])
    out = str(tmp_path / "out.jsonl")
    bad = tmp_path / ("bad.csv" if command == "ingest-csv" else "bad.jsonl")
    for content, line in inputs:
        bad.write_bytes(content)
        argv = {
            "ingest": ["ingest", "--input", str(bad), "--out", out],
            "ingest-csv": ["ingest", "--input", str(bad), "--out", out],
            "refine": ["refine", "--train", str(bad), "--test", good, "--out", out],
            "export-train": ["export-train", "--records", str(bad), "--out", out],
            "audit-overlap": ["audit-overlap", "--train", str(bad), "--test", good],
            "evaluate": evaluate_args(dict(eval_setup, records=str(bad)), tmp_path / "r"),
        }[command]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert f"error: {bad}:{line} not valid UTF-8: " in result.stderr
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert not os.path.exists(out) and not (tmp_path / "r").exists()


# --- audit-overlap / refine ---------------------------------------------------------


def test_audit_overlap_reports_fraction(runner, corpus):
    result = runner.invoke(
        main, ["audit-overlap", "--train", corpus["train"], "--test", corpus["test"]]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["overlap_count"] == 1
    assert report["overlap_fraction"] == 0.5
    assert report["train_duplicates"] == 2


def test_audit_overlap_fail_on_leak(runner, corpus):
    result = runner.invoke(
        main,
        ["audit-overlap", "--train", corpus["train"], "--test", corpus["test"],
         "--fail-on-leak"],
    )
    assert result.exit_code == 3


def test_refine_then_audit_is_clean(runner, corpus):
    refined = corpus["dir"] / "refined.jsonl"
    result = runner.invoke(
        main,
        ["refine", "--train", corpus["train"], "--test", corpus["test"],
         "--out", str(refined)],
    )
    assert result.exit_code == 0, result.output
    # of 8 train records, rec-0 and its copy leak into test and rec-3-copy repeats rec-3
    assert f"kept 5/8 train records -> {refined}" in result.stderr
    manifest = json.loads((corpus["dir"] / "refined.jsonl.manifest.json").read_text())
    assert manifest["result"]["overlap_count"] == 1
    assert manifest["result"]["train_duplicates"] == 1
    assert manifest["result"]["counts"]["train"] == 5
    audit = runner.invoke(
        main,
        ["audit-overlap", "--train", str(refined), "--test", corpus["test"],
         "--fail-on-leak"],
    )
    assert audit.exit_code == 0, audit.output
    assert json.loads(audit.output)["overlap_count"] == 0


def quarantine_corpus(d: Path) -> dict:
    """A 3-row train file with one bad cwe_id, and a 2-row test file with one."""
    train = [raw_row(0), raw_row(1, cwe="XYZ"), raw_row(2)]
    test = [raw_row(9, "test"), raw_row(8, "test", cwe="CWE-X")]
    return {"train": write_jsonl(d / "train.jsonl", train),
            "test": write_jsonl(d / "test.jsonl", test)}


def test_refine_reports_its_quarantines(runner, tmp_path):
    files = quarantine_corpus(tmp_path)
    out = tmp_path / "refined.jsonl"
    result = runner.invoke(
        main, ["refine", "--train", files["train"], "--test", files["test"], "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "kept 2/2 train records" in result.stderr
    assert "records quarantined at ingest: 1 train, 1 test" in result.stderr
    quarantined = json.loads((tmp_path / "refined.jsonl.quarantine.json").read_text())
    assert quarantined == {"quarantined": {
        "train": [{"record_id": "rec-1", "line_no": 2, "reason": "record 'rec-1': bad cwe_id 'XYZ'"}],
        "test": [{"record_id": "rec-8", "line_no": 2,
                  "reason": "record 'rec-8': bad cwe_id 'CWE-X'"}],
    }}
    manifest = json.loads((tmp_path / "refined.jsonl.manifest.json").read_text())
    assert manifest["quarantined"] == {"train": 1, "test": 1}


def test_refine_with_nothing_quarantined_writes_empty_lists(runner, corpus):
    out = corpus["dir"] / "refined.jsonl"
    argv = ["refine", "--train", corpus["train"], "--test", corpus["test"], "--out", str(out)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert "quarantined" not in result.stderr
    quarantined = json.loads((corpus["dir"] / "refined.jsonl.quarantine.json").read_text())
    assert quarantined == {"quarantined": {"train": [], "test": []}}


def test_audit_overlap_reports_its_quarantines_on_stderr(runner, tmp_path):
    files = quarantine_corpus(tmp_path)
    result = runner.invoke(main, ["audit-overlap", "--train", files["train"], "--test", files["test"]])
    assert result.exit_code == 0, result.output
    assert result.stderr == "records quarantined at ingest: 1 train, 1 test\n"
    assert json.loads(result.stdout) == {
        "counts": {"train": 2, "test": 1},
        "train_duplicates": 0,
        "overlap_count": 0,
        "overlap_fraction": 0.0,
        "mode": "exact",
    }


# --- export-train ----------------------------------------------------------------------


def test_export_train(runner, corpus):
    out = corpus["dir"] / "examples.jsonl"
    result = runner.invoke(main, ["export-train", "--records", corpus["train"], "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 8
    assert rows[0]["prompt"].startswith("[INST]")
    assert rows[0]["completion"] == completion(0)
    manifest = json.loads((corpus["dir"] / "examples.jsonl.manifest.json").read_text())
    assert manifest["written"] == 8
    assert result.stderr == f"wrote 8 examples -> {out}\n"  # nothing was quarantined


def test_export_train_quarantine_file_lists_ingest_quarantines(runner, tmp_path):
    records = write_jsonl(
        tmp_path / "records.jsonl", [raw_row(0), raw_row(1, cwe="CWE-XX"), raw_row(2)]
    )
    out = tmp_path / "examples.jsonl"
    result = runner.invoke(main, ["export-train", "--records", records, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(out.read_text().splitlines()) == 2
    quarantined = json.loads((tmp_path / "examples.jsonl.quarantine.json").read_text())["quarantined"]
    assert quarantined == [
        {"record_id": "rec-1", "line_no": 2, "reason": "record 'rec-1': bad cwe_id 'CWE-XX'"}
    ]
    manifest = json.loads((tmp_path / "examples.jsonl.manifest.json").read_text())
    assert manifest["written"] == 2
    assert manifest["quarantined"] == len(quarantined)
    assert result.stderr == f"1 records quarantined at ingest\nwrote 2 examples -> {out}\n"


@pytest.mark.parametrize("command", ["ingest", "export-train"])
def test_a_csv_header_naming_a_column_twice_is_a_schema_error(runner, tmp_path, command):
    # a header read into a dict would keep the last cwe_id cell and ingest the row as CWE-89
    with open(GOLDEN / "corpus" / "raw_test.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    raw = tmp_path / "raw.csv"
    with open(raw, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([rows[0] + ["cwe_id"]] + [row + ["CWE-89"] for row in rows[1:]])
    out = tmp_path / "out.jsonl"
    flag = "--input" if command == "ingest" else "--records"
    result = runner.invoke(main, [command, flag, str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {raw}:1: header names column 'cwe_id' twice\n"
    assert list(tmp_path.iterdir()) == [raw]


MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def write_csv(path: Path, rows: list[dict]) -> int:
    """Write ``rows`` under a header of the last row's fields; returns the last row's first line."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[-1]))
    writer.writeheader()
    writer.writerows(rows[:-1])
    line = text.getvalue().count("\n") + 1
    writer.writerow(rows[-1])
    path.write_text(text.getvalue(), encoding="utf-8", newline="")
    return line


@pytest.mark.skipif(not MAX_DIGITS, reason="this Python converts integers of any length")
@pytest.mark.parametrize("where", ["jsonl", "csv", "prompt"])
def test_an_integer_too_long_to_convert_exits_2_at_its_line(runner, tmp_path, where):
    # json.loads and int() raise a plain ValueError past the digit limit, not a
    # JSONDecodeError, which the CLI would report as a usage error with no line
    huge = "9" * (MAX_DIGITS + 1)
    rows = [raw_row(0), raw_row(1)]
    if where == "csv":
        path = tmp_path / "raw.csv"
        line = write_csv(path, [rows[0], {**rows[1], "vuln_lines": f"[{huge}]"}])
        message = "vuln_lines cell is not a JSON list: "
    elif where == "jsonl":
        lines = [json.dumps(row) for row in rows]
        lines[1] = lines[1].replace('"split"', f'"vuln_lines": [{huge}], "split"')
        path = tmp_path / "raw.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line, message = 2, "undecodable JSON: "
    else:
        exported = tmp_path / "train.jsonl"
        ds.export_jsonl(ds.ingest(write_jsonl(tmp_path / "raw.jsonl", rows)).records, exported)
        lines = exported.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[1])["prompt"].startswith("[INST]2 CWE-787 ")
        lines[1] = lines[1].replace("[INST]2 ", f"[INST]{huge} ")
        path = tmp_path / "exported.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line, message = 2, f"prompt header: line number of {len(huge)} digits"
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["ingest", "--input", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {path}:{line}: {message}")
    if where == "csv":  # the cell is echoed only in part
        assert len(result.stderr) < len(f"error: {path}:{line}: {message}") + 100
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert not out.exists()


def test_a_csv_cell_past_the_field_size_limit_exits_2_where_its_row_starts(runner, tmp_path):
    # the oversized cell spans many lines; the error names the line its row starts on
    big = "  n++;\n" * (csv.field_size_limit() // 7 + 1)
    path = tmp_path / "raw.csv"
    line = write_csv(path, [raw_row(0), raw_row(1, source_before=big)])
    assert line > 2  # the first row's sources span several lines
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["ingest", "--input", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {path}:{line}: unreadable CSV row: field larger")
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert not out.exists()


# --- streaming and atomic outputs ----------------------------------------------------------


def corpus_argv(command: str, d: Path, out: Path) -> list[str]:
    """argv of one corpus command reading the files in ``d``: raw.jsonl, train.jsonl, test.jsonl."""
    if command == "ingest":
        return ["ingest", "--input", str(d / "raw.jsonl"), "--out", str(out)]
    if command == "refine":
        return ["refine", "--train", str(d / "train.jsonl"), "--test", str(d / "test.jsonl"),
                "--out", str(out)]
    return ["export-train", "--records", str(d / "train.jsonl"), "--out", str(out)]


def test_corpus_commands_hold_one_record_at_a_time(runner, tmp_path):
    # 300 records with 400-line sources; a command that builds a list of
    # records holds about as much as it reads
    write_jsonl(tmp_path / "raw.jsonl", big_raw_rows(300))
    write_jsonl(tmp_path / "raw_test.jsonl", big_raw_rows(30, "test"))
    for raw, records in (("raw.jsonl", "train.jsonl"), ("raw_test.jsonl", "test.jsonl")):
        argv = ["ingest", "--input", str(tmp_path / raw), "--out", str(tmp_path / records)]
        assert runner.invoke(main, argv).exit_code == 0
    for command in ("ingest", "refine", "export-train"):
        argv = corpus_argv(command, tmp_path, tmp_path / "out.jsonl")
        size = sum(os.path.getsize(p) for p in argv[2:-2:2])  # every input file
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert (peak - retained) / size < 0.25, command


@pytest.mark.parametrize("command", ["ingest", "refine", "export-train"])
def test_schema_error_on_the_last_row_keeps_out(runner, tmp_path, command):
    bad = raw_row(3)
    del bad["split"]
    write_jsonl(tmp_path / "raw.jsonl", [raw_row(i) for i in range(3)] + [bad])
    write_jsonl(tmp_path / "test.jsonl", [raw_row(9, "test")])
    # refine and export-train read records files; a raw row is one too
    (tmp_path / "train.jsonl").write_bytes((tmp_path / "raw.jsonl").read_bytes())
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    before = sorted(os.listdir(tmp_path))
    result = runner.invoke(main, corpus_argv(command, tmp_path, out))
    assert result.exit_code == 2
    assert ":4: missing required field 'split'" in result.output
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file left behind


@pytest.mark.parametrize("command", ["ingest", "refine", "export-train"])
def test_a_manifest_that_cannot_be_written_keeps_every_output(runner, tmp_path, command):
    write_jsonl(tmp_path / "raw.jsonl", [raw_row(i) for i in range(3)])
    write_jsonl(tmp_path / "test.jsonl", [raw_row(9, "test")])
    (tmp_path / "train.jsonl").write_bytes((tmp_path / "raw.jsonl").read_bytes())
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    quarantine = tmp_path / "out.jsonl.quarantine.json"
    quarantine.write_bytes(b"earlier quarantine\n")
    (tmp_path / "out.jsonl.manifest.json").mkdir()  # no file can take its place
    before = sorted(os.listdir(tmp_path))
    result = runner.invoke(main, corpus_argv(command, tmp_path, out))
    assert result.exit_code == 1, result.output
    assert "out.jsonl.manifest.json" in result.stderr
    assert out.read_bytes() == b"earlier output\n"
    assert quarantine.read_bytes() == b"earlier quarantine\n"
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file left behind


def test_refine_out_may_be_the_train_file(runner, corpus, tmp_path):
    separate = tmp_path / "refined.jsonl"
    argv = ["refine", "--train", corpus["train"], "--test", corpus["test"], "--out"]
    assert runner.invoke(main, argv + [str(separate)]).exit_code == 0
    result = runner.invoke(main, argv + [corpus["train"]])
    assert result.exit_code == 0, result.output
    assert Path(corpus["train"]).read_bytes() == separate.read_bytes()


@pytest.mark.parametrize("command", ["refine", "audit-overlap"])
def test_refine_reports_the_test_file_error_first(runner, tmp_path, command):
    # both commands read --test before --train
    rows = []
    for name in ("train", "test"):
        row = raw_row(0, name)
        del row["cwe_id"]
        rows.append(write_jsonl(tmp_path / f"{name}.jsonl", [row]))
    argv = [command, "--train", rows[0], "--test", rows[1]]
    if command == "refine":
        argv += ["--out", str(tmp_path / "o.jsonl")]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert f"{rows[1]}:1: missing required field 'cwe_id'" in result.output


@pytest.mark.parametrize("command", ["ingest", "export-train"])
def test_cli_output_equals_library_ingest_and_writer(runner, tmp_path, command):
    rows = [raw_row(0), raw_row(1, cwe="CWE-XX"), raw_row(2), raw_row(3, id="rec-0")]
    for name in ("raw.jsonl", "train.jsonl"):
        write_jsonl(tmp_path / name, rows)
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, corpus_argv(command, tmp_path, out))
    assert result.exit_code == 0, result.output
    library = ds.ingest(str(tmp_path / "raw.jsonl"))
    writer = ds.write_records_jsonl if command == "ingest" else ds.export_jsonl
    writer(library.records, str(tmp_path / "library.jsonl"))
    assert out.read_bytes() == (tmp_path / "library.jsonl").read_bytes()
    quarantine = json.loads((tmp_path / "out.jsonl.quarantine.json").read_text())
    assert quarantine == {"quarantined": [dataclasses.asdict(q) for q in library.quarantined]}
    assert len(library.quarantined) == 2


# --- apply / derive ---------------------------------------------------------------------


def test_apply_golden(runner, tmp_path, vpx_source, vpx_record):
    src = tmp_path / "before.c"
    src.write_text(to_text(vpx_source))
    patch = tmp_path / "fix.patch"
    patch.write_text(VPX_REFERENCE_PATCH_TEXT)
    result = runner.invoke(main, ["apply", "--source", str(src), "--patch", str(patch)])
    assert result.exit_code == 0, result.output
    assert result.output == to_text(apply_patch(vpx_record.source, vpx_record.reference_patch))


def test_apply_invalid_patch_exits_1(runner, tmp_path):
    src = tmp_path / "s.c"
    src.write_text("a\nb\n")
    patch = tmp_path / "p.patch"
    patch.write_text("5-9<MID>x")  # outside the two-line file
    result = runner.invoke(main, ["apply", "--source", str(src), "--patch", str(patch)])
    assert result.exit_code == 1


def test_apply_deleting_every_line_prints_nothing(runner, tmp_path):
    src = tmp_path / "s.c"
    src.write_text("a\nb\n")
    patch = tmp_path / "p.patch"
    patch.write_text("-1-2<MID>")
    result = runner.invoke(main, ["apply", "--source", str(src), "--patch", str(patch)])
    assert result.exit_code == 0, result.output
    assert result.output == ""


def test_derive_golden(runner, tmp_path, vpx_source, vpx_record):
    before = tmp_path / "before.c"
    before.write_text(to_text(vpx_source))
    after = tmp_path / "after.c"
    after.write_text(to_text(apply_patch(vpx_record.source, vpx_record.reference_patch)))
    result = runner.invoke(main, ["derive", "--before", str(before), "--after", str(after)])
    assert result.exit_code == 0, result.output
    assert result.output == VPX_REFERENCE_PATCH_TEXT + "\n"


@pytest.mark.parametrize("before,after", [("", "\n"), ("x\n", "\n")])
def test_derive_without_text_form_exits_1(runner, tmp_path, before, after):
    # an empty before whose after ends with an empty line; an after that is one empty line
    (tmp_path / "b.c").write_text(before)
    (tmp_path / "a.c").write_text(after)
    args = ["derive", "--before", str(tmp_path / "b.c"), "--after", str(tmp_path / "a.c")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "error: patch has no lossless text form" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("flag", ["--before", "--after", "--source", "--patch"])
def test_derive_and_apply_on_a_file_not_utf8_exit_1(runner, tmp_path, flag):
    texts = {"--before": "a\n", "--after": "b\n", "--source": "a\n", "--patch": "0-1<MID>b"}
    flags = ("--before", "--after") if flag in ("--before", "--after") else ("--source", "--patch")
    for f in flags:
        (tmp_path / f[2:]).write_text(texts[f])
    (tmp_path / flag[2:]).write_bytes(b"\xff\n")
    command = "derive" if flags[0] == "--before" else "apply"
    result = runner.invoke(main, [command] + [a for f in flags for a in (f, str(tmp_path / f[2:]))])
    assert result.exit_code == 1
    assert f"error: {tmp_path / flag[2:]}: not valid UTF-8: " in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_derive_apply_pipeline(runner, tmp_path):
    before = tmp_path / "b.c"
    before.write_text("int f()\n{\n  return 1;\n}\n")
    after = tmp_path / "a.c"
    after.write_text("int f()\n{\n  if (ok)\n    return 1;\n  return 0;\n}\n")
    derived = runner.invoke(main, ["derive", "--before", str(before), "--after", str(after)])
    assert derived.exit_code == 0
    patch = tmp_path / "p.patch"
    patch.write_text(derived.output)
    applied = runner.invoke(main, ["apply", "--source", str(before), "--patch", str(patch)])
    assert applied.output == after.read_text()


# --- evaluate ---------------------------------------------------------------------------


@pytest.fixture
def eval_setup(tmp_path):
    rows = [raw_row(i, split="test", cwe="CWE-787" if i < 2 else "CWE-79") for i in range(3)]
    records = write_jsonl(tmp_path / "test.jsonl", rows)
    script = {
        "default_latency_s": 0.25,
        "samples": {
            "rec-0": {"candidates": [completion(0)]},  # exact reference
            "rec-1": {"candidates": [completion(99)]},
            "rec-2": {"candidates": ["not a patch"]},
        },
    }
    script_path = tmp_path / "mock.json"
    script_path.write_text(json.dumps(script))
    return {"records": records, "script": str(script_path), "dir": tmp_path}


def evaluate_args(setup, report_dir, *extra):
    return [
        "evaluate",
        "--records", setup["records"],
        "--mock-script", setup["script"],
        "--k", "1",
        "--report-dir", str(report_dir),
        *extra,
    ]


def test_evaluate_with_mock(runner, eval_setup):
    report_dir = eval_setup["dir"] / "report"
    result = runner.invoke(main, evaluate_args(eval_setup, report_dir))
    assert result.exit_code == 0, result.output
    assert "pp 1/3 rate 0.3333" in result.output
    for name in ("report.json", "report.txt", "report.csv", "resolved_config.json"):
        assert (report_dir / name).exists()
    report = json.loads((report_dir / "report.json").read_text())
    assert report["pp_hits"] == 1
    assert report["format_error_count"] == 1
    assert report["efficiency"]["total_time_s"] == 0.75
    resolved = json.loads((report_dir / "resolved_config.json").read_text())
    assert resolved["config"]["k"] == 1
    assert resolved["config"]["strategy"] == "beam"


def test_evaluate_reports_are_byte_stable(runner, eval_setup):
    dirs = [eval_setup["dir"] / "rep1", eval_setup["dir"] / "rep2", eval_setup["dir"] / "rep3"]
    runs = [
        evaluate_args(eval_setup, dirs[0]),
        evaluate_args(eval_setup, dirs[1]),
        evaluate_args(eval_setup, dirs[2], "--max-in-flight", "4"),
    ]
    for args in runs:
        assert runner.invoke(main, args).exit_code == 0
    first = (dirs[0] / "report.json").read_bytes()
    assert (dirs[1] / "report.json").read_bytes() == first
    assert (dirs[2] / "report.json").read_bytes() == first


def test_evaluate_requires_exactly_one_backend(runner, eval_setup, tmp_path):
    both = evaluate_args(eval_setup, tmp_path / "r", "--backend-config", eval_setup["script"])
    assert runner.invoke(main, both).exit_code == 64
    neither = [
        "evaluate", "--records", eval_setup["records"], "--report-dir", str(tmp_path / "r2"),
    ]
    assert runner.invoke(main, neither).exit_code == 64


def test_evaluate_all_backend_failures_exit_4(runner, eval_setup, tmp_path):
    script = {
        "samples": {
            f"rec-{i}": {"candidates": ["x"], "fail_times": 99} for i in range(3)
        }
    }
    script_path = tmp_path / "failing.json"
    script_path.write_text(json.dumps(script))
    setup = dict(eval_setup, script=str(script_path))
    report_dir = tmp_path / "rfail"
    result = runner.invoke(main, evaluate_args(setup, report_dir))
    assert result.exit_code == 4
    report = json.loads((report_dir / "report.json").read_text())
    assert report["backend_error_count"] == 3


def write_mock_script(path: Path, ids) -> str:
    path.write_text(json.dumps({"samples": {i: {"candidates": [completion(0)]} for i in ids}}))
    return str(path)


def test_evaluate_holds_two_half_windows_at_a_time(runner, tmp_path, window):
    # records with 400-line sources; a run that holds every record, prompt or
    # outcome peaks with the test set instead of with the two windows it holds:
    # the one being scored and the next, in flight
    window(10)
    peaks = {}
    for windows in (2, 8):
        rows = big_raw_rows(10 * windows, "test")
        records = write_jsonl(tmp_path / f"test{windows}.jsonl", rows)
        script = write_mock_script(tmp_path / f"mock{windows}.json", [r["id"] for r in rows])
        setup = {"records": records, "script": script}
        tracemalloc.start()
        try:
            result = runner.invoke(main, evaluate_args(setup, tmp_path / f"r{windows}"))
            peaks[windows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert f"pp 0/{10 * windows}" in result.output
    assert peaks[8] < 1.25 * peaks[2], peaks


@pytest.mark.parametrize("rows", [[], [raw_row(0, "test", cwe="CWE-XX")]], ids=["empty", "all-quarantined"])
def test_evaluate_with_no_record_exits_64(runner, eval_setup, tmp_path, rows):
    setup = dict(eval_setup, records=write_jsonl(tmp_path / "none.jsonl", rows))
    result = runner.invoke(main, evaluate_args(setup, tmp_path / "r"))
    assert result.exit_code == 64
    assert result.stderr.endswith("error: no records to evaluate\n")
    quarantine_line = f"{len(rows)} records quarantined at ingest\n"
    assert (quarantine_line in result.stderr) == bool(rows)
    assert not (tmp_path / "r").exists()


def test_evaluate_prints_quarantines_after_scoring(runner, eval_setup, tmp_path):
    rows = [raw_row(i, "test") for i in range(3)] + [raw_row(3, "test", cwe="CWE-XX")]
    setup = dict(eval_setup, records=write_jsonl(tmp_path / "some.jsonl", rows))
    result = runner.invoke(main, evaluate_args(setup, tmp_path / "r"))
    assert result.exit_code == 0, result.output
    assert result.stderr == "1 records quarantined at ingest\n"
    assert "pp 1/3" in result.stdout


def test_evaluate_schema_error_after_the_first_window_writes_no_report(
    runner, eval_setup, tmp_path, window
):
    window(2)
    bad = raw_row(4, "test")
    del bad["split"]
    rows = [raw_row(i, "test") for i in range(4)] + [bad]
    setup = dict(eval_setup, records=write_jsonl(tmp_path / "bad.jsonl", rows),
                 script=write_mock_script(tmp_path / "m.json", [f"rec-{i}" for i in range(5)]))
    result = runner.invoke(main, evaluate_args(setup, tmp_path / "r"))
    assert result.exit_code == 2
    assert ":5: missing required field 'split'" in result.stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bad_row", [False, True], ids=["every-sample-failed", "schema-error"])
def test_evaluate_closes_the_http_backend_on_every_exit(
    runner, eval_setup, tmp_path, monkeypatch, bad_row
):
    closed = []
    close = cli.HttpBackend.close
    monkeypatch.setattr(cli.HttpBackend, "close", lambda self: closed.append(close(self)))
    rows = [raw_row(i, "test") for i in range(2)]
    if bad_row:
        del rows[1]["split"]
    with socket.socket() as sock:  # a port nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    backend_cfg = tmp_path / "backend.yaml"
    backend_cfg.write_text(f"endpoint: http://127.0.0.1:{port}/gen\nmax_attempts: 1\n")
    result = runner.invoke(main, [
        "evaluate", "--records", write_jsonl(tmp_path / "t.jsonl", rows),
        "--backend-config", str(backend_cfg), "--report-dir", str(tmp_path / "r"),
    ])
    assert result.exit_code == (2 if bad_row else cli.EXIT_BACKEND), result.output
    assert closed == [None]


def test_evaluate_prints_quarantines_before_a_schema_error(runner, eval_setup, tmp_path):
    bad = raw_row(1, "test")
    del bad["split"]
    rows = [raw_row(0, "test", cwe="CWE-XX"), bad]
    setup = dict(eval_setup, records=write_jsonl(tmp_path / "bad.jsonl", rows))
    result = runner.invoke(main, evaluate_args(setup, tmp_path / "r"))
    assert result.exit_code == 2
    assert result.stderr == (f"1 records quarantined at ingest\n"
                             f"error: {setup['records']}:2: missing required field 'split'\n")
    assert not (tmp_path / "r").exists()


def test_evaluate_failure_while_writing_reports_keeps_every_report(
    runner, eval_setup, tmp_path, monkeypatch
):
    names = ("report.json", "report.txt", "report.csv", "resolved_config.json")
    report_dir = tmp_path / "r"
    report_dir.mkdir()
    for name in names:
        (report_dir / name).write_text(f"earlier {name}\n")
    render_report = cli.render_report

    def render_all_but_csv(report, fmt):
        if fmt == "csv":
            raise OSError("no space left for report.csv")
        return render_report(report, fmt)

    monkeypatch.setattr(cli, "render_report", render_all_but_csv)
    result = runner.invoke(main, evaluate_args(eval_setup, report_dir))
    assert result.exit_code == 1, result.output
    assert result.stderr == "error: no space left for report.csv\n"
    for name in names:
        assert (report_dir / name).read_text() == f"earlier {name}\n"
    assert sorted(os.listdir(report_dir)) == sorted(names)  # no temporary file left behind
    # the directories the run made are removed again, parents too, and only those
    (tmp_path / "empty").mkdir()
    for new_dir in (tmp_path / "new" / "r", tmp_path / "empty" / "new" / "r"):
        result = runner.invoke(main, evaluate_args(eval_setup, new_dir))
        assert result.exit_code == 1, result.output
        assert result.stderr == "error: no space left for report.csv\n"
        assert not (tmp_path / "new").exists()
    assert os.listdir(tmp_path / "empty") == []  # it was there before the run


def test_evaluate_config_file_and_flag_precedence(runner, eval_setup, tmp_path):
    cfg = tmp_path / "eval.yaml"
    cfg.write_text("decode:\n  k: 2\n  strategy: beam\nseed: 5\n")
    report_dir = tmp_path / "rcfg"
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--mock-script", eval_setup["script"],
        "--config", str(cfg),
        "--k", "1",  # flag beats file
        "--report-dir", str(report_dir),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    resolved = json.loads((report_dir / "resolved_config.json").read_text())
    assert resolved["config"]["k"] == 1
    assert resolved["config"]["seed"] == 5


@pytest.mark.parametrize("value", ["abc", "null"])
def test_evaluate_bad_decode_value_exits_64(runner, eval_setup, tmp_path, value):
    cfg = tmp_path / "eval.yaml"
    cfg.write_text(f"decode:\n  k: {value}\n")
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--mock-script", eval_setup["script"],
        "--config", str(cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 64
    assert "error: bad decode config:" in result.output


@pytest.mark.parametrize(
    "line,message",
    [
        ('stop: "[/INST]"', "stop_sequences: expected a list of strings, got '[/INST]'"),
        ("stop: [1, 2]", "stop_sequences: expected a list of strings, got [1, 2]"),
        ("k: 1.9", "k: expected an integer, got 1.9"),
        ("strategy: greedy", "strategy: expected one of ['beam', 'sample'], got 'greedy'"),
        ("k: .inf", "k: expected an integer, got inf"),
        ("k: true", "k: expected an integer, got True"),
        ("max_new_tokens: 2.5", "max_new_tokens: expected an integer, got 2.5"),
    ],
)
def test_evaluate_decode_value_not_coerced(runner, eval_setup, tmp_path, line, message):
    cfg = tmp_path / "eval.yaml"
    cfg.write_text(f"decode:\n  {line}\n")
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--mock-script", eval_setup["script"],
        "--config", str(cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 64
    assert f"error: bad decode config: {message}" in result.output
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ('seed: "abc"\n', "seed: expected an integer or null, got 'abc'"),
        ("seed: true\n", "seed: expected an integer or null, got True"),
        ("seed: 1.5\n", "seed: expected an integer or null, got 1.5"),
        ('decode:\n  temperature: "0.5"\n', "temperature: expected a number, got '0.5'"),
        ("decode:\n  temperature: true\n", "temperature: expected a number, got True"),
        ("decode:\n  temperature: .nan\n", "temperature: expected a finite number, got nan"),
        pytest.param(
            f"decode:\n  temperature: 1{'0' * 400}\n",
            "temperature: expected a finite number, got an int too large for a float",
            id="temperature: 401-digit int",
        ),
        ("cwe_list: 5\n", "cwe_list: expected a list of strings, got 5"),
        ("cwe_list: abc\n", "cwe_list: expected a list of strings, got 'abc'"),
        ('strict: "no"\n', "strict: expected true or false, got 'no'"),
        ("decode:\n  k: 0\n", "k: expected an integer >= 1, got 0"),
        ("decode:\n  max_new_tokens: -5\n", "max_new_tokens: expected an integer >= 1, got -5"),
    ],
)
def test_evaluate_bad_seed_or_temperature_exits_64(runner, eval_setup, tmp_path, text, message):
    cfg = tmp_path / "eval.yaml"
    cfg.write_text(text)
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--mock-script", eval_setup["script"],
        "--config", str(cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 64
    assert f"error: bad decode config: {message}" in result.output
    assert not (tmp_path / "r").exists()


def test_evaluate_decode_config_values_pass_through(runner, eval_setup, tmp_path):
    cfg = tmp_path / "eval.yaml"
    cfg.write_text('decode:\n  k: 2\n  max_new_tokens: 64.0\n  stop: ["[/INST]", "\\n\\n"]\n')
    report_dir = tmp_path / "r"
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--mock-script", eval_setup["script"],
        "--config", str(cfg),
        "--report-dir", str(report_dir),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    resolved = json.loads((report_dir / "resolved_config.json").read_text())["config"]
    assert (resolved["k"], resolved["max_new_tokens"]) == (2, 64)
    assert resolved["stop_sequences"] == ["[/INST]", "\n\n"]


def test_evaluate_integer_temperature_is_stored_as_float(runner, eval_setup, tmp_path):
    cfg = tmp_path / "eval.yaml"
    cfg.write_text("seed: 7\ndecode:\n  temperature: 1\n")
    report_dir = tmp_path / "r"
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--mock-script", eval_setup["script"],
        "--config", str(cfg),
        "--report-dir", str(report_dir),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    text = (report_dir / "resolved_config.json").read_text()
    assert '"temperature": 1.0,' in text
    assert '"seed": 7' in text


def test_evaluate_bad_backend_config_exits_64(runner, eval_setup, tmp_path):
    backend_cfg = tmp_path / "backend.yaml"
    backend_cfg.write_text("backend:\n  endpoint: http://localhost:1\n  bogus_knob: 3\n")
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--backend-config", str(backend_cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 64
    assert "bad backend config" in result.output


@pytest.mark.parametrize("flag", ["--config", "--backend-config"])
@pytest.mark.parametrize(
    "content",
    [b"decode: [unclosed\n", b"backend:\n  model: caf\xe9\n"],
    ids=["malformed-yaml", "not-utf8"],
)
def test_evaluate_unreadable_config_file_exits_2(runner, eval_setup, tmp_path, flag, content):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(content)
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        flag, str(cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    if flag == "--config":
        args += ["--mock-script", eval_setup["script"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {cfg}: config file is not valid UTF-8 YAML")
    assert "Traceback" not in result.output


BAD_BACKEND_VALUES = [  # (line, message, id if not "line-message")
    ("endpoint: 5", "endpoint: expected a string, got 5"),
    ("model: [a]", "model: expected a string, got ['a']"),
    ("auth_env: 3", "auth_env: expected a string or null, got 3"),
    ('auth_env: ""', "auth_env: expected an environment variable name or null, got ''"),
    ("timeout_s: abc", "timeout_s: expected a number, got 'abc'"),
    ("max_attempts: 2.5", "max_attempts: expected an integer, got 2.5"),
    ("backoff_s: true", "backoff_s: expected a number, got True"),
    ("extra_params: [1]", "extra_params: expected a mapping, got [1]"),
    ("timeout_s: -1", "timeout_s: expected a number > 0, got -1"),
    ("timeout_s: 0", "timeout_s: expected a number > 0, got 0"),
    ("timeout_s: .nan", "timeout_s: expected a finite number, got nan"),
    (f"timeout_s: 1{'0' * 400}",
     "timeout_s: expected a finite number, got an int too large for a float",
     "timeout_s: 401-digit int"),
    ("backoff_s: -0.5", "backoff_s: expected a number >= 0, got -0.5"),
    ("backoff_s: .inf", "backoff_s: expected a finite number, got inf"),
    ("max_in_flight: 0", "max_in_flight: expected an integer >= 1, got 0"),
]


@pytest.mark.parametrize(
    "template,line,message",
    [
        pytest.param(template, line, message, id=prefix + (case_id or [f"{line}-{message}"])[0])
        for line, message, *case_id in BAD_BACKEND_VALUES
        for prefix, template in (("", "backend:\n  {}\n"), ("flat ", "{}\n"))
    ],
)
def test_evaluate_bad_backend_value_exits_64_before_ingest(
    runner, tmp_path, template, line, message
):
    backend_cfg = tmp_path / "backend.yaml"
    backend_cfg.write_text(template.format(line))
    args = [
        "evaluate",
        "--records", str(tmp_path / "absent.jsonl"),  # reading it would exit 1
        "--backend-config", str(backend_cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 64
    assert f"error: bad backend config: {message}" in result.output
    assert not (tmp_path / "r").exists()


def scripted(entry: dict) -> dict:
    """A mock script whose rec-0 is ``entry``; the other records keep their candidates."""
    return {"samples": {"rec-0": entry, "rec-1": {"candidates": [completion(99)]},
                        "rec-2": {"candidates": ["not a patch"]}}}


@pytest.mark.parametrize(
    "script,message",
    [
        ([], "script: expected a mapping, got []"),
        ({"samples": []}, "samples: expected a mapping, got []"),
        ({"samples": {"rec-0": [completion(0)]}},
         f"samples['rec-0']: expected a mapping, got [{completion(0)!r}]"),
        (scripted({"candidates": completion(0)}),
         f"samples['rec-0'].candidates: expected a list of strings, got {completion(0)!r}"),
        (scripted({"candidates": [completion(0), 7]}),
         f"samples['rec-0'].candidates: expected a list of strings, got [{completion(0)!r}, 7]"),
        (scripted({"candidates": [completion(0)], "tokens": [1.5]}),
         "samples['rec-0'].tokens: expected a list of integers, got [1.5]"),
        (scripted({"candidates": [completion(0)], "tokens": [True]}),
         "samples['rec-0'].tokens: expected a list of integers, got [True]"),
        (scripted({"candidates": [completion(0)], "tokens": [4, -3]}),
         "samples['rec-0'].tokens[1]: expected an integer >= 0, got -3"),
        (scripted({"candidates": [completion(0)], "fail_times": "1"}),
         "samples['rec-0'].fail_times: expected an integer, got '1'"),
        (scripted({"candidates": [completion(0)], "fail_times": -1}),
         "samples['rec-0'].fail_times: expected an integer >= 0, got -1"),
        (scripted({"candidates": [completion(0)], "latency_s": -1}),
         "samples['rec-0'].latency_s: expected a number >= 0, got -1"),
        ({**scripted({"candidates": [completion(0)]}), "default_latency_s": "0.25"},
         "default_latency_s: expected a number, got '0.25'"),
        ({**scripted({"candidates": [completion(0)]}), "default_latency_s": float("inf")},
         "default_latency_s: expected a finite number, got inf"),
        ({**scripted({"candidates": [completion(0)]}), "strategies": "beam"},
         "strategies: expected a list drawn from ['beam', 'sample'], got 'beam'"),
        ({**scripted({"candidates": [completion(0)]}), "strategies": ["greedy"]},
         "strategies: expected a list drawn from ['beam', 'sample'], got ['greedy']"),
        (scripted({"candidate": [completion(0)]}),
         "samples['rec-0']: unknown key 'candidate';"
         " expected one of candidates, tokens, latency_s, fail_times"),
        ({"sample": {"rec-0": {"candidates": [completion(0)]}}},
         "script: unknown key 'sample'; expected one of strategies, default_latency_s, samples"),
    ],
    ids=[
        "top-level list", "samples list", "entry list", "candidates string",
        "candidate int", "tokens float", "tokens bool", "tokens negative", "fail_times string",
        "fail_times negative", "latency_s negative", "default_latency_s string",
        "default_latency_s inf", "strategies string", "strategies unknown",
        "entry unknown key", "top-level unknown key",
    ],
)
def test_evaluate_bad_mock_script_shape_exits_64(runner, eval_setup, tmp_path, script, message):
    script_path = tmp_path / "bad_mock.json"
    script_path.write_text(json.dumps(script))
    report_dir = tmp_path / "r"
    args = evaluate_args({**eval_setup, "script": str(script_path)}, report_dir, "--k", "3")
    result = runner.invoke(main, args)
    assert result.exit_code == 64, result.output
    assert f"error: bad backend config: {message}\n" in result.output
    assert "Traceback" not in result.output
    assert not report_dir.exists()


@pytest.mark.parametrize(
    "content", [b'{"samples": {', b'{"samples": {"rec-0": {"candidates": ["caf\xe9"]}}}'],
    ids=["not JSON", "not UTF-8"],
)
def test_evaluate_mock_script_that_does_not_decode_exits_2_naming_it(
    runner, eval_setup, tmp_path, content
):
    script_path = tmp_path / "bad_mock.json"
    script_path.write_bytes(content)
    report_dir = tmp_path / "r"
    result = runner.invoke(main, evaluate_args({**eval_setup, "script": str(script_path)},
                                               report_dir))
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {script_path}: mock script is not valid UTF-8 JSON: ")
    assert "Traceback" not in result.output
    assert not report_dir.exists()


def test_evaluate_reads_a_mock_script_with_a_byte_order_mark(runner, eval_setup, tmp_path):
    reports = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        script_path = tmp_path / f"{name}.json"
        script_path.write_bytes(bom + Path(eval_setup["script"]).read_bytes())
        report_dir = tmp_path / name
        result = runner.invoke(main, evaluate_args({**eval_setup, "script": str(script_path)},
                                                   report_dir))
        assert result.exit_code == 0, result.output
        reports.append((report_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_derive_and_apply_read_a_byte_order_mark_as_source_text(runner, tmp_path):
    (tmp_path / "before.c").write_text("\ufeffa\nb\n", encoding="utf-8")
    (tmp_path / "after.c").write_text("a\nb\n", encoding="utf-8")
    derived = runner.invoke(main, ["derive", "--before", str(tmp_path / "before.c"),
                                   "--after", str(tmp_path / "after.c")])
    assert derived.exit_code == 0, derived.output
    assert derived.output == "-1-1<MID>a\n"  # the BOM is part of line 0
    (tmp_path / "fix.patch").write_text(derived.output, encoding="utf-8")
    applied = runner.invoke(main, ["apply", "--source", str(tmp_path / "before.c"),
                                   "--patch", str(tmp_path / "fix.patch")])
    assert applied.exit_code == 0, applied.output
    assert applied.output == "a\nb\n"


@pytest.mark.parametrize(
    "flag,text,message",
    [
        ("--config", "decode:\n", None),
        ("--config", "backend:\n", None),
        ("--config", "decode: [k, 3]\n",
         "bad decode config: decode: expected a mapping, got ['k', 3]"),
        ("--config", "backend: [1]\n", "bad backend config: backend: expected a mapping, got [1]"),
        ("--config", "backend: 5\n", "bad backend config: backend: expected a mapping, got 5"),
        ("--backend-config", "backend: 5\n",
         "bad backend config: backend: expected a mapping, got 5"),
        ("--backend-config", "[1]\n",
         "bad backend config: --backend-config: expected a mapping, got [1]"),
        ("--config", "[1]\n", "--config: expected a mapping, got [1]"),
    ],
    ids=["empty decode", "empty backend", "decode list", "backend list",
         "backend scalar", "wrapped scalar", "flat list", "config list"],
)
def test_evaluate_config_section_shape(runner, eval_setup, tmp_path, flag, text, message):
    # an empty section holds nothing; any other value that is not a mapping is refused
    config = tmp_path / "cfg.yaml"
    config.write_text(text)
    report_dir = tmp_path / "r"
    if flag == "--config":
        args = evaluate_args(eval_setup, report_dir, "--config", str(config))
    else:
        args = ["evaluate", "--records", eval_setup["records"], "--backend-config", str(config),
                "--report-dir", str(report_dir)]
    result = runner.invoke(main, args)
    if message is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 64, result.output
        assert result.stderr == f"error: {message}\n"
        assert not report_dir.exists()


def test_evaluate_mock_script_takes_integral_floats(runner, eval_setup, tmp_path):
    config = tmp_path / "no_backoff.yaml"
    config.write_text("backend:\n  backoff_s: 0\n")
    reports = []
    for name, tokens, fail_times in (("ints", [10], 1), ("floats", [10.0], 1.0)):
        script_path = tmp_path / f"{name}.json"
        entry = {"candidates": [completion(0)], "tokens": tokens, "fail_times": fail_times}
        script_path.write_text(json.dumps(scripted(entry)))
        report_dir = tmp_path / name
        args = evaluate_args({**eval_setup, "script": str(script_path)}, report_dir,
                             "--k", "3", "--config", str(config))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "pp 1/3" in result.output  # rec-0 hits on its second attempt
        reports.append((report_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_evaluate_takes_integral_floats_for_every_integer_setting(runner, eval_setup, tmp_path):
    outputs = []
    for name, point in (("ints", ""), ("floats", ".0")):
        config = tmp_path / f"{name}.yaml"
        config.write_text(f"seed: 9{point}\ndecode:\n  k: 2{point}\n  max_new_tokens: 64{point}\n"
                          f"backend:\n  max_attempts: 2{point}\n  max_in_flight: 1{point}\n")
        report_dir = tmp_path / name
        args = evaluate_args(eval_setup, report_dir, "--config", str(config))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        outputs.append([(report_dir / f).read_bytes() for f in ("report.json", "report.csv")])
        resolved = json.loads((report_dir / "resolved_config.json").read_text())["config"]
        assert (resolved["seed"], resolved["max_in_flight"]) == (9, 1)
    assert outputs[0] == outputs[1]


def readme_eval_yaml() -> str:
    """The --config example of the README's "Evaluation" section, as written there."""
    blocks = (Path(__file__).parents[1] / "README.md").read_text("utf-8").split("```yaml\n")
    return next(block.split("```")[0] for block in blocks if block.startswith("decode:"))


@pytest.mark.parametrize(
    "flag,text,key",
    [
        ("--config", ("seed:", "sead:"), "sead"),  # an edit of the README example
        ("--config", ("  k:", "  kk:"), "kk"),
        ("--config", "decode:\n  temprature: 0.5\n", "temprature"),
        ("--backend-config", "backend:\n  endpoint: http://127.0.0.1:9/\ntimeout_s: 5\n",
         "timeout_s"),
        ("--config", ("  max_in_flight:", "  max_in_fligth:"), "max_in_fligth"),
        ("--backend-config", "backend:\n  endpoint: http://127.0.0.1:9/\n  bogus: 1\n", "bogus"),
        ("--backend-config", "endpoint: http://127.0.0.1:9/\nbogus: 1\n", "bogus"),
    ],
    ids=["top-level", "decode", "decode only", "beside backend", "backend",
         "wrapped backend", "flat backend"],
)
def test_evaluate_unknown_config_key_exits_64_before_ingest(
    runner, eval_setup, tmp_path, flag, text, key
):
    readme_config = tmp_path / "eval.yaml"
    readme_config.write_text(readme_eval_yaml())
    args = evaluate_args(eval_setup, tmp_path / "ok", "--config", str(readme_config))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    if isinstance(text, tuple):
        text = readme_eval_yaml().replace(*text)
        assert f"{key}:" in text
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    args = [
        "evaluate",
        "--records", str(tmp_path / "absent.jsonl"),  # reading it would exit 1
        flag, str(config),
        "--report-dir", str(tmp_path / "r"),
    ]
    if flag == "--config":
        args += ["--mock-script", eval_setup["script"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 64, result.output
    assert f"unknown key {key!r}" in result.stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flag,text,key",
    [
        ("--config", "decode:\n  k: 1\n  k: 2\n", "k"),
        ("--config", "decode: {k: 1, k: 2}\n", "k"),
        ("--config", "seed: 3\nseed: 4\n", "seed"),
        ("--backend-config", "endpoint: http://127.0.0.1:9/\nendpoint: http://127.0.0.1:8/\n",
         "endpoint"),
        ("--mock-script",
         '{"samples": {"rec-0": {"candidates": ["x"]}, "rec-0": {"candidates": ["y"]}}}',
         "rec-0"),
    ],
    ids=["decode", "decode flow", "top-level", "backend", "mock sample id"],
)
def test_evaluate_duplicate_key_exits_64_before_ingest(
    runner, eval_setup, tmp_path, flag, text, key
):
    # a YAML or JSON loader would keep the last value without a word
    path = tmp_path / ("bad.json" if flag == "--mock-script" else "bad.yaml")
    path.write_text(text)
    args = [
        "evaluate",
        "--records", str(tmp_path / "absent.jsonl"),  # reading it would exit 1
        flag, str(path),
        "--report-dir", str(tmp_path / "r"),
    ]
    if flag == "--config":
        args += ["--mock-script", eval_setup["script"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 64, result.output
    assert result.stderr == f"error: {path}: duplicate key {key!r}\n"
    assert not (tmp_path / "r").exists()


def test_evaluate_config_key_may_override_a_yaml_merge(runner, eval_setup, tmp_path):
    config = tmp_path / "eval.yaml"
    config.write_text("<<: {seed: 3}\nseed: 4\n")
    result = runner.invoke(main, evaluate_args(eval_setup, tmp_path / "r", "--config", str(config)))
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "r" / "resolved_config.json").read_text())["config"]["seed"] == 4


@pytest.mark.parametrize(
    "flags,config,bad",
    [
        (["--cwe", "CWE-787", "--cwe", "CWE-787"], None, "CWE-787"),
        (["--cwe", "other"], None, "other"),
        ([], "cwe_list: [CWE-79, CWE-79]\n", "CWE-79"),
        ([], "cwe_list: [CWE-79, cwe-787]\n", "cwe-787"),
    ],
    ids=["flag repeated", "flag not a CWE id", "file repeated", "file not a CWE id"],
)
def test_evaluate_repeated_or_non_cwe_entry_exits_64(
    runner, eval_setup, tmp_path, flags, config, bad
):
    # a repeat, or "other", would give one bucket two rows in report.csv and
    # report.txt; an id of another form names a bucket no record can fall into
    if config is not None:
        (tmp_path / "eval.yaml").write_text(config)
        flags = flags + ["--config", str(tmp_path / "eval.yaml")]
    report_dir = tmp_path / "r"
    result = runner.invoke(main, evaluate_args(eval_setup, report_dir, *flags))
    assert result.exit_code == 64, result.output
    assert f"error: bad decode config: cwe_list: expected distinct CWE ids, got {bad!r}" in (
        result.stderr)
    assert not report_dir.exists()


def test_evaluate_missing_credential_exits_64_before_any_request(
    runner, eval_setup, tmp_path, monkeypatch
):
    monkeypatch.delenv("LINEFIX_TEST_TOKEN", raising=False)
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            seen.append(self.path)
            self.send_response(500)
            self.end_headers()

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    backend_cfg = tmp_path / "backend.yaml"
    backend_cfg.write_text(
        f"backend:\n  endpoint: http://{host}:{port}/gen\n  auth_env: LINEFIX_TEST_TOKEN\n"
    )
    args = [
        "evaluate",
        "--records", eval_setup["records"],
        "--backend-config", str(backend_cfg),
        "--report-dir", str(tmp_path / "r"),
    ]
    try:
        result = runner.invoke(main, args)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert result.exit_code == 64
    assert "bad backend config: credential env var LINEFIX_TEST_TOKEN is not set" in result.output
    assert seen == []


def test_cli_import_loads_no_http_library():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, linefix.cli; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"requests", "urllib3", "charset_normalizer"} & loaded == set()
    # PyYAML and the stdlib HTTP/TLS stack load only when a command needs them.
    assert {"yaml", "ssl", "socket", "http.client", "urllib.request", "urllib.error"} & loaded == set()
    # Callers that time the first command expect these to be loaded already.
    assert {"linefix.client", "linefix.dataset", "linefix.evaluation"} <= loaded


def test_click_flag_errors_exit_2(runner, corpus):
    # click's own flag parsing reports exit code 2; tool-level usage checks use 64
    result = runner.invoke(main, ["ingest", "--input", corpus["train"]])
    assert result.exit_code == 2  # missing --out


GOLDEN = Path(__file__).parent / "golden"
# the README's --config example, overridden by a flag for every kind of setting
GOLDEN_FLAGS = ["--k", "3", "--stop", "\n\n", "--cwe", "CWE-79", "--cwe", "CWE-787",
                "--max-in-flight", "2"]
GOLDEN_BACKEND = {"endpoint": "{endpoint}", "model": "repair-model", "timeout_s": 5,
                  "max_attempts": 2, "backoff_s": 0, "max_in_flight": 3}


def masked(path: Path, tmp_path: Path, endpoint: str = "") -> str:
    """The text of ``path`` with the run's directory and endpoint written as placeholders."""
    text = path.read_text("utf-8").replace(str(tmp_path), "<tmp>")
    return text.replace(endpoint, "<endpoint>") if endpoint else text


def check_golden(name: str, text: str) -> None:
    """Assert that ``text`` is the golden file ``name`` under tests/golden.

    With LINEFIX_UPDATE_GOLDEN=1 in the environment the file is rewritten with
    ``text`` instead, so every golden can be regenerated offline from the code.
    """
    if os.environ.get("LINEFIX_UPDATE_GOLDEN") == "1":
        (GOLDEN / name).write_text(text, "utf-8")
    else:
        assert text == (GOLDEN / name).read_text("utf-8"), name


def test_evaluate_golden_with_mock(runner, eval_setup, tmp_path):
    config = tmp_path / "eval.yaml"
    config.write_text(readme_eval_yaml())
    report_dir = tmp_path / "r"
    args = evaluate_args(eval_setup, report_dir, "--config", str(config), *GOLDEN_FLAGS)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    for name in ("report.json", "report.txt", "report.csv", "resolved_config.json"):
        check_golden(f"evaluate/mock/{name}", masked(report_dir / name, tmp_path))


@pytest.mark.parametrize("wrapped", [True, False], ids=["wrapped", "flat"])
def test_evaluate_golden_with_backend_config(runner, eval_setup, tmp_path, wrapped):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            body = json.dumps({"choices": [{"text": completion(0), "tokens": 4}]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    spec = {**GOLDEN_BACKEND, "endpoint": endpoint}
    backend_cfg = tmp_path / "backend.yaml"
    backend_cfg.write_text(json.dumps({"backend": spec} if wrapped else spec))
    config = tmp_path / "eval.yaml"
    config.write_text(readme_eval_yaml())
    report_dir = tmp_path / "r"
    args = ["evaluate", "--records", eval_setup["records"], "--backend-config", str(backend_cfg),
            "--config", str(config), *GOLDEN_FLAGS, "--report-dir", str(report_dir)]
    try:
        result = runner.invoke(main, args)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert result.exit_code == 0, result.output
    # report.json and report.txt hold the measured wall time of an HTTP run
    for name in ("report.csv", "resolved_config.json"):
        check_golden(f"evaluate/http/{name}", masked(report_dir / name, tmp_path, endpoint))


# The hand-written raw corpus in tests/golden/corpus holds JSONL and CSV input,
# source_after and reference_patch rows, bug markers (one on a last line of its
# own), one quarantined row for each reason and a repeated id, an end-of-file
# blank-line fix, a fix that deletes every line, and three planted rows: an exact
# leak of a test record, a leak up to whitespace, and a train duplicate.
CORPUS_STEPS = (
    ["ingest", "--input", "{d}/raw_train.jsonl", "--out", "{d}/train.jsonl"],
    ["ingest", "--input", "{d}/raw_test.csv", "--out", "{d}/test.jsonl"],
    ["refine", "--train", "{d}/train.jsonl", "--test", "{d}/test.jsonl",
     "--mode", "ws_normalized", "--out", "{d}/refined.jsonl"],
    ["export-train", "--records", "{d}/refined.jsonl", "--out", "{d}/export.jsonl"],
    # the export read back and exported again
    ["ingest", "--input", "{d}/export.jsonl", "--out", "{d}/reingested.jsonl"],
    ["export-train", "--records", "{d}/reingested.jsonl", "--out", "{d}/export_again.jsonl"],
)
CORPUS_PINNED = tuple(
    f"{out}{suffix}" for out in ("train.jsonl", "test.jsonl", "refined.jsonl", "export.jsonl")
    for suffix in ("", ".quarantine.json", ".manifest.json")
) + tuple(f"audit-overlap.{mode}.json" for mode in ds.FINGERPRINT_MODES)


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory) -> Path:
    """The directory where CORPUS_STEPS and audit-overlap in each mode ran on the golden corpus."""
    d = tmp_path_factory.mktemp("corpus")
    for name in ("raw_train.jsonl", "raw_test.csv"):
        (d / name).write_bytes((GOLDEN / "corpus" / name).read_bytes())
    runner = CliRunner()
    for step in CORPUS_STEPS:
        result = runner.invoke(main, [arg.format(d=d) for arg in step])
        assert result.exit_code == 0, result.output
    for mode in ds.FINGERPRINT_MODES:
        argv = ["audit-overlap", "--train", str(d / "train.jsonl"), "--test",
                str(d / "test.jsonl"), "--mode", mode]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        (d / f"audit-overlap.{mode}.json").write_text(result.stdout, "utf-8")
    return d


@pytest.mark.parametrize("name", CORPUS_PINNED)
def test_corpus_golden(corpus_run, name):
    check_golden(f"corpus/{name}", masked(corpus_run / name, corpus_run))


def test_corpus_golden_export_is_a_fixed_point(corpus_run):
    again = (corpus_run / "export_again.jsonl").read_bytes()
    assert again == (corpus_run / "export.jsonl").read_bytes()


def test_commands_read_a_csv_file_by_its_extension(corpus_run, runner, tmp_path):
    # the raw CSV read straight gives what the file ingest made from it gives
    exports = []
    for records in ("raw_test.csv", "test.jsonl"):
        out = tmp_path / f"{records}.export.jsonl"
        result = runner.invoke(main, ["export-train", "--records", str(corpus_run / records),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        exports.append(out.read_bytes())
    assert exports[0] == exports[1]
    for mode in ds.FINGERPRINT_MODES:
        audits = []
        for test in ("raw_test.csv", "test.jsonl"):
            argv = ["audit-overlap", "--train", str(corpus_run / "train.jsonl"),
                    "--test", str(corpus_run / test), "--mode", mode]
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, result.output
            audits.append(json.loads(result.stdout))
        assert audits[0] == audits[1]
        assert audits[0]["overlap_count"] > 0


def test_ingest_reads_a_byte_order_mark(corpus_run, runner, tmp_path):
    # a leading UTF-8 BOM, as Excel and pandas' utf-8-sig write one, changes no output byte
    for raw, out in (("raw_train.jsonl", "train.jsonl"), ("raw_test.csv", "test.jsonl")):
        (tmp_path / raw).write_bytes(b"\xef\xbb\xbf" + (corpus_run / raw).read_bytes())
        argv = ["ingest", "--input", str(tmp_path / raw), "--out", str(tmp_path / out)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        for name in (out, f"{out}.quarantine.json", f"{out}.manifest.json"):
            assert masked(tmp_path / name, tmp_path) == masked(corpus_run / name, corpus_run)


def test_evaluate_zero_seed_flag_is_written(runner, eval_setup, tmp_path):
    report_dir = tmp_path / "r"
    result = runner.invoke(main, evaluate_args(eval_setup, report_dir, "--seed", "0"))
    assert result.exit_code == 0, result.output
    assert '"seed": 0,' in (report_dir / "resolved_config.json").read_text()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--k", "0"], "bad decode config: k: expected an integer >= 1, got 0"),
        (["--max-in-flight", "0"],
         "bad backend config: max_in_flight: expected an integer >= 1, got 0"),
        (["--strategy", "sample", "--temperature", "0"],
         "bad decode config: sampling requires temperature > 0"),
    ],
    ids=["k", "max-in-flight", "temperature"],
)
def test_evaluate_zero_flag_is_not_dropped(runner, eval_setup, tmp_path, flags, message):
    # a zero flag must reach the check, not fall back to a file's value or the default
    config = tmp_path / "eval.yaml"
    config.write_text("decode:\n  temperature: 0.5\nbackend:\n  max_in_flight: 2\n")
    report_dir = tmp_path / "r"
    args = evaluate_args(eval_setup, report_dir, "--config", str(config), *flags)
    result = runner.invoke(main, args)
    assert result.exit_code == 64, result.output
    assert result.stderr == f"error: {message}\n"
    assert not report_dir.exists()
