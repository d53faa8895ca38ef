"""Command-line interface.

Exit codes: 0 success; 1 I/O or patch errors; 2 schema errors; 3 leakage
found under --fail-on-leak; 4 backend failed for every sample; 64 usage
errors raised by this tool's own checks (click reports flag misuse as 2).

Data goes to stdout, diagnostics to stderr, and every file-writing run drops
a resolved-config manifest next to its outputs. Outputs carry no timestamps:
identical inputs, flags, and seed produce byte-identical files.

The corpus commands stream their records from reader to writer. Each
records or export file is written next to ``--out`` and replaces it only on
success, so a failed run leaves an existing ``--out`` as it was. ``evaluate``
streams its records too, one window at a time (``evaluation.WINDOW`` records,
more for a backend with many in-flight slots), and writes its reports only
once every record is scored.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from contextlib import closing, contextmanager

import click

from linefix import dataset as ds
from linefix.client import DecodeConfig, BackendSpec, HttpBackend, MockBackend
from linefix.engine import apply_patch, derive_patch
from linefix.errors import EmptyEvaluation, LinefixError, PatchFormatError, SchemaError
from linefix.evaluation import DEFAULT_CWE_ORDER, evaluate, render_report
from linefix.patchfmt import parse_patch, serialize_patch
from linefix.prompting import CWE_ID
from linefix.source import from_text, to_text

EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_LEAK = 3
EXIT_BACKEND = 4
EXIT_USAGE = 64


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; one that does not decode raises OSError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not valid UTF-8: {exc}") from None


def _load_yaml(path: str) -> dict:
    import yaml  # deferred: only evaluate's config flags read YAML

    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise SchemaError(f"config file is not valid UTF-8 YAML: {exc}", path=path)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise SchemaError("config file must hold a mapping", path=path)
    return data


def _refuse_unknown(where: str, section: dict, known: tuple[str, ...]) -> None:
    """Raise ValueError naming the first key of ``section`` that is not in ``known``."""
    for key in section:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}; expected one of {', '.join(known)}")


def _write_json(path: str, obj: dict) -> None:
    """Write ``obj`` as indented JSON; a dataclass in it is written as its fields."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, ensure_ascii=False, default=vars) + "\n")


def _write_manifest(path: str, command: str, inputs: dict, config: dict, **extra) -> None:
    _write_json(path, {"command": command, "inputs": inputs, "config": config, **extra})


def _echo_quarantined(quarantined: dict[str, list[ds.QuarantineEntry]]) -> None:
    """Say on stderr how many rows of each input were quarantined, if any were."""
    if any(quarantined.values()):
        counts = ", ".join(f"{len(q)} {name}" for name, q in quarantined.items())
        click.echo(f"records quarantined at ingest: {counts}", err=True)


@contextmanager
def _exit_codes():
    """Exit 2 on a SchemaError, 1 on an OSError and 64 on a ValueError raised in the block."""
    try:
        yield
    except SchemaError as exc:
        _fail(EXIT_SCHEMA, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))


@contextmanager
def _replacing(out_path: str):
    """Yield a sibling temporary path that replaces ``out_path`` when the block succeeds.

    On any error the temporary file is deleted and ``out_path`` keeps its
    bytes. It also lets ``out_path`` name a file the block is still reading.
    """
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


@click.group()
def main() -> None:
    """Tools for the line-addressed code-fix format."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def ingest(input_path: str, fmt: str, out_path: str) -> None:
    """Read raw or training records, normalize them, and write them back out."""
    quarantined: list[ds.QuarantineEntry] = []
    with _exit_codes():
        with _replacing(out_path) as tmp:
            counts = ds.write_records_jsonl(ds.stream(input_path, fmt, quarantined), tmp)
        _write_json(
            out_path + ".quarantine.json",
            {"quarantined": quarantined},
        )
        _write_manifest(
            out_path + ".manifest.json",
            "ingest",
            {"input": input_path, "format": fmt},
            {},
            counts=counts,
            records=sum(counts.values()),
            quarantined=len(quarantined),
        )
    click.echo(f"ingested {sum(counts.values())} records"
               f" ({len(quarantined)} quarantined) -> {out_path}", err=True)


@main.command("audit-overlap")
@click.option("--train", "train_path", required=True, type=click.Path())
@click.option("--test", "test_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(list(ds.FINGERPRINT_MODES)), default="exact",
              show_default=True)
@click.option("--fail-on-leak", is_flag=True, help="Exit 3 when any overlap is found.")
def audit_overlap(train_path: str, test_path: str, mode: str, fail_on_leak: bool) -> None:
    """Measure test-into-train leakage between two record files."""
    quarantined: dict[str, list[ds.QuarantineEntry]] = {"train": [], "test": []}
    with _exit_codes():
        manifest = ds.detect_overlap(
            ds.stream(train_path, "jsonl", quarantined["train"]),
            ds.stream(test_path, "jsonl", quarantined["test"]),
            mode,
        )
    _echo_quarantined(quarantined)
    click.echo(json.dumps(manifest, indent=2, default=vars))
    if fail_on_leak and manifest.overlap_count > 0:
        _fail(EXIT_LEAK, f"{manifest.overlap_count} overlapping records")


@main.command()
@click.option("--train", "train_path", required=True, type=click.Path())
@click.option("--test", "test_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(list(ds.FINGERPRINT_MODES)), default="exact",
              show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def refine(train_path: str, test_path: str, mode: str, out_path: str) -> None:
    """Drop train records that leak into test, then dedupe train."""
    quarantined: dict[str, list[ds.QuarantineEntry]] = {"train": [], "test": []}
    with _exit_codes():
        leak = ds.LeakFilter(ds.stream(test_path, "jsonl", quarantined["test"]), mode)
        with _replacing(out_path) as tmp:
            train = ds.stream(train_path, "jsonl", quarantined["train"])
            ds.write_records_jsonl(filter(leak.keep, train), tmp)
            manifest = leak.manifest()
        _write_json(
            out_path + ".quarantine.json",
            {"quarantined": quarantined},
        )
        _write_manifest(
            out_path + ".manifest.json",
            "refine",
            {"train": train_path, "test": test_path},
            {"mode": mode},
            result=manifest,
            quarantined={k: len(v) for k, v in quarantined.items()},
        )
    _echo_quarantined(quarantined)
    click.echo(f"kept {manifest.counts['train']}/{leak.read} train records -> {out_path}",
               err=True)


@main.command("export-train")
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def export_train(records_path: str, out_path: str) -> None:
    """Write prompt/completion pairs for training."""
    quarantined: list[ds.QuarantineEntry] = []
    with _exit_codes():
        with _replacing(out_path) as tmp:
            written = ds.export_jsonl(ds.stream(records_path, "jsonl", quarantined), tmp)
        # every record read is exported; only the input's ingest quarantines
        _write_json(
            out_path + ".quarantine.json",
            {"quarantined": quarantined},
        )
        _write_manifest(
            out_path + ".manifest.json",
            "export-train",
            {"records": records_path},
            {},
            written=written,
            quarantined=len(quarantined),
        )
    click.echo(f"wrote {written} examples -> {out_path}", err=True)


@main.command("apply")
@click.option("--source", "source_path", required=True, type=click.Path())
@click.option("--patch", "patch_path", required=True, type=click.Path())
def apply_cmd(source_path: str, patch_path: str) -> None:
    """Apply a patch file to a source file; patched text goes to stdout."""
    try:
        src = from_text(_read_text(source_path))
        result = apply_patch(src, parse_patch(_read_text(patch_path)))
    except (OSError, LinefixError) as exc:
        _fail(EXIT_IO, str(exc))
        return
    sys.stdout.write(to_text(result))


@main.command("derive")
@click.option("--before", "before_path", required=True, type=click.Path())
@click.option("--after", "after_path", required=True, type=click.Path())
def derive_cmd(before_path: str, after_path: str) -> None:
    """Derive the patch between two source files; DSL goes to stdout."""
    try:
        before, after = from_text(_read_text(before_path)), from_text(_read_text(after_path))
        text = serialize_patch(derive_patch(before, after)[0])
    except (OSError, PatchFormatError) as exc:
        _fail(EXIT_IO, str(exc))
        return
    sys.stdout.write(text + "\n")


@main.command("evaluate")
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML config; flags given on the command line win.")
@click.option("--backend-config", "backend_config_path", type=click.Path(), default=None)
@click.option("--mock-script", "mock_script_path", type=click.Path(), default=None)
@click.option("--strategy", type=click.Choice(["beam", "sample"]), default=None)
@click.option("--k", type=int, default=None)
@click.option("--temperature", type=float, default=None)
@click.option("--max-new-tokens", type=int, default=None)
@click.option("--stop", "stop_sequences", multiple=True)
@click.option("--max-in-flight", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--cwe", "cwe_list", multiple=True,
              help="CWE ids for the breakdown, in render order.")
@click.option("--strict", is_flag=True, help="Exact bytes, no trailing-LF allowance.")
@click.option("--report-dir", "report_dir", required=True, type=click.Path())
def evaluate_cmd(
    records_path: str,
    config_path: str | None,
    backend_config_path: str | None,
    mock_script_path: str | None,
    strategy: str | None,
    k: int | None,
    temperature: float | None,
    max_new_tokens: int | None,
    stop_sequences: tuple[str, ...],
    max_in_flight: int | None,
    seed: int | None,
    cwe_list: tuple[str, ...],
    strict: bool,
    report_dir: str,
) -> None:
    """Generate candidates for every record and score exact matches."""
    quarantined: list[ds.QuarantineEntry] = []
    with _exit_codes():
        file_cfg = _load_yaml(config_path) if config_path is not None else {}
        _refuse_unknown("--config", file_cfg, ("decode", "seed", "cwe_list", "strict", "backend"))
        if (backend_config_path is None) == (mock_script_path is None):
            raise ValueError("exactly one of --backend-config or --mock-script is required")

        try:
            decode_cfg = dict(file_cfg.get("decode", {}))
            _refuse_unknown("decode", decode_cfg,
                            ("strategy", "k", "temperature", "max_new_tokens", "stop"))
            given: dict = {}
            for name, flag, section, key in (
                ("strategy", strategy, decode_cfg, "strategy"),
                ("k", k, decode_cfg, "k"),
                ("temperature", temperature, decode_cfg, "temperature"),
                ("max_new_tokens", max_new_tokens, decode_cfg, "max_new_tokens"),
                ("stop_sequences", stop_sequences or None, decode_cfg, "stop"),
                ("seed", seed, file_cfg, "seed"),
            ):
                if flag is not None:
                    given[name] = flag
                elif key in section:
                    given[name] = section[key]
            cfg = DecodeConfig(**given)
            file_cwes = file_cfg.get("cwe_list", list(DEFAULT_CWE_ORDER))
            if not isinstance(file_cwes, list) or not all(isinstance(c, str) for c in file_cwes):
                raise ValueError(f"cwe_list: expected a list of strings, got {file_cwes!r}")
            cwes = list(cwe_list) or file_cwes
            for i, cwe in enumerate(cwes):
                if not CWE_ID.fullmatch(cwe) or cwe in cwes[:i]:
                    raise ValueError(f"cwe_list: expected distinct CWE ids, got {cwe!r} in {cwes}")
            file_strict = file_cfg.get("strict", False)
            if not isinstance(file_strict, bool):
                raise ValueError(f"strict: expected true or false, got {file_strict!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad decode config: {exc}") from None
        resolved = {**dataclasses.asdict(cfg), "cwe_list": cwes, "strict": strict or file_strict}

        try:
            backend_cfg = dict(file_cfg.get("backend", {}))
            if backend_config_path is not None:
                raw = _load_yaml(backend_config_path)
                if "backend" in raw:  # the wrapped shape holds nothing else
                    _refuse_unknown("--backend-config", raw, ("backend",))
                    raw = raw["backend"]
                backend_cfg.update(raw)
            if max_in_flight is not None:
                backend_cfg["max_in_flight"] = max_in_flight
            spec = BackendSpec(**backend_cfg)
            if mock_script_path is not None:
                backend = MockBackend.from_file(mock_script_path, spec)
            else:
                backend = HttpBackend(spec)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad backend config: {exc}") from None

        empty: EmptyEvaluation | None = None
        try:
            with closing(ds.stream(records_path, "jsonl", quarantined)) as rows:
                report = evaluate(
                    (r.vuln for r in rows),
                    backend,
                    cfg,
                    cwe_order=tuple(resolved["cwe_list"]),
                    strict=resolved["strict"],
                )
        except EmptyEvaluation as exc:
            empty = exc
        if quarantined:
            click.echo(f"{len(quarantined)} records quarantined at ingest", err=True)
        if empty is not None:
            raise ValueError(str(empty))  # after the quarantine count

        os.makedirs(report_dir, exist_ok=True)
        for fmt, name in (("json", "report.json"), ("text", "report.txt"), ("csv", "report.csv")):
            with open(os.path.join(report_dir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render_report(report, fmt))
        _write_manifest(
            os.path.join(report_dir, "resolved_config.json"),
            "evaluate",
            {
                "records": records_path,
                "backend_config": backend_config_path,
                "mock_script": mock_script_path,
            },
            {
                **resolved,
                "max_in_flight": spec.max_in_flight,
                "backend_endpoint": spec.endpoint,
            },
        )

    click.echo(
        f"pp {report.pp_hits}/{report.pp_total} rate {report.pp_rate:.4f}"
        f" (reports in {report_dir})"
    )
    if report.backend_error_count == report.pp_total:
        _fail(EXIT_BACKEND, "backend failed for every sample")


if __name__ == "__main__":
    main()
