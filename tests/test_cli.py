"""End-to-end CLI behavior: exit codes, files written, byte stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from linefix import dataset as ds
from linefix.cli import main
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


def test_refine_out_may_be_the_train_file(runner, corpus, tmp_path):
    separate = tmp_path / "refined.jsonl"
    argv = ["refine", "--train", corpus["train"], "--test", corpus["test"], "--out"]
    assert runner.invoke(main, argv + [str(separate)]).exit_code == 0
    result = runner.invoke(main, argv + [corpus["train"]])
    assert result.exit_code == 0, result.output
    assert Path(corpus["train"]).read_bytes() == separate.read_bytes()


def test_refine_reports_the_test_file_error_first(runner, tmp_path):
    rows = []
    for name in ("train", "test"):
        row = raw_row(0, name)
        del row["cwe_id"]
        rows.append(write_jsonl(tmp_path / f"{name}.jsonl", [row]))
    argv = ["refine", "--train", rows[0], "--test", rows[1], "--out", str(tmp_path / "o.jsonl")]
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
    assert quarantine == {"quarantined": [q.to_dict() for q in library.quarantined]}
    assert len(library.quarantined) == 2


# --- apply / derive ---------------------------------------------------------------------


def test_apply_golden(runner, tmp_path, vpx_source, vpx_record):
    src = tmp_path / "before.c"
    src.write_text(to_text(vpx_source))
    patch = tmp_path / "fix.patch"
    patch.write_text(VPX_REFERENCE_PATCH_TEXT)
    result = runner.invoke(main, ["apply", "--source", str(src), "--patch", str(patch)])
    assert result.exit_code == 0, result.output
    assert result.output == to_text(vpx_record.reference_after)


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
    after.write_text(to_text(vpx_record.reference_after))
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


def test_evaluate_holds_one_window_at_a_time(runner, tmp_path, window):
    # records with 400-line sources; a run that holds every record, prompt or
    # outcome peaks with the test set instead of with the window
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


@pytest.mark.parametrize(
    "line,message",
    [
        ("endpoint: 5", "endpoint: expected a string, got 5"),
        ("model: [a]", "model: expected a string, got ['a']"),
        ("auth_env: 3", "auth_env: expected a string or null, got 3"),
        ("timeout_s: abc", "timeout_s: expected a number, got 'abc'"),
        ("max_attempts: 2.5", "max_attempts: expected an integer, got 2.5"),
        ("backoff_s: true", "backoff_s: expected a number, got True"),
        ("max_in_flight: 1.0", "max_in_flight: expected an integer, got 1.0"),
        ("extra_params: [1]", "extra_params: expected a mapping, got [1]"),
        ("timeout_s: -1", "timeout_s: expected a number > 0, got -1"),
        ("timeout_s: 0", "timeout_s: expected a number > 0, got 0"),
        ("timeout_s: .nan", "timeout_s: expected a finite number, got nan"),
        pytest.param(
            f"timeout_s: 1{'0' * 400}",
            "timeout_s: expected a finite number, got an int too large for a float",
            id="timeout_s: 401-digit int",
        ),
        ("backoff_s: -0.5", "backoff_s: expected a number >= 0, got -0.5"),
        ("backoff_s: .inf", "backoff_s: expected a finite number, got inf"),
    ],
)
def test_evaluate_bad_backend_value_exits_64_before_ingest(runner, tmp_path, line, message):
    backend_cfg = tmp_path / "backend.yaml"
    backend_cfg.write_text(f"backend:\n  {line}\n")
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
    assert {"yaml", "ssl", "http.client", "urllib.request", "urllib.error"} & loaded == set()
    # Callers that time the first command expect these to be loaded already.
    assert {"linefix.client", "linefix.dataset", "linefix.evaluation"} <= loaded


def test_click_flag_errors_exit_2(runner, corpus):
    # click's own flag parsing reports exit code 2; tool-level usage checks use 64
    result = runner.invoke(main, ["ingest", "--input", corpus["train"]])
    assert result.exit_code == 2  # missing --out
