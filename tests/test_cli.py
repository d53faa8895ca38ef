"""End-to-end CLI behavior: exit codes, files written, byte stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from linefix.cli import main
from linefix.source import to_text
from tests.conftest import (
    VPX_BEFORE_LINES,
    VPX_REFERENCE_PATCH_TEXT,
)
from tests.test_dataset import raw_row, write_jsonl


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
    path = write_jsonl(tmp_path / "bad.jsonl", [row])
    result = runner.invoke(main, ["ingest", "--input", path, "--out", str(tmp_path / "o.jsonl")])
    assert result.exit_code == 2
    assert "split" in result.output


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
    code = (
        "import sys, linefix.cli; "
        "print(sorted({'requests', 'urllib3', 'charset_normalizer'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_click_flag_errors_exit_2(runner, corpus):
    # click's own flag parsing reports exit code 2; tool-level usage checks use 64
    result = runner.invoke(main, ["ingest", "--input", corpus["train"]])
    assert result.exit_code == 2  # missing --out
