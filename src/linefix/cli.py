"""Command-line interface.

Exit codes: 0 success; 1 I/O or patch errors; 2 schema errors; 3 leakage
found under --fail-on-leak; 4 backend failed for every sample; 64 usage
errors raised by this tool's own checks (click reports flag misuse as 2).

Data goes to stdout, diagnostics to stderr, and every file-writing run drops
a resolved-config manifest next to its outputs. Outputs carry no timestamps:
identical inputs, flags, and seed produce byte-identical files.

The corpus commands stream their records from reader to writer, and
``evaluate`` reads one window at a time (``evaluation.WINDOW`` records, more
for a backend with many in-flight slots) and holds at most two: the one it
scores and the next, which generates meanwhile. Every file a command writes
(records, quarantine file, manifest, reports) goes next to its target and is
renamed over it only once the command has written them all, so a failed run
leaves existing outputs as they were; ``_replacing`` names the one exception,
a failed rename.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from contextlib import ExitStack, closing, contextmanager, suppress
from typing import NoReturn

import click

from linefix import dataset as ds
from linefix.checks import check_list, check_mapping, repeats
from linefix.client import STRATEGIES, BackendSpec, DecodeConfig, HttpBackend, MockBackend
from linefix.engine import apply_patch, derive_patch
from linefix.errors import LinefixError, SchemaError
from linefix.evaluation import DEFAULT_CWE_ORDER, evaluate, render_report
from linefix.patchfmt import parse_patch, serialize_patch
from linefix.prompting import CWE_ID
from linefix.source import from_text, to_text

EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_LEAK = 3
EXIT_BACKEND = 4
EXIT_USAGE = 64


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _DuplicateKey(Exception):
    """A key that one mapping of a config file or mock script holds twice."""


def _unique(pairs: list[tuple]) -> dict:
    """One mapping's key-value ``pairs`` as a dict; a repeated key raises _DuplicateKey."""
    if len(mapping := dict(pairs)) < len(pairs):
        raise _DuplicateKey(repeats(k for k, _ in pairs)[0])
    return mapping


def _read(path: str, what: str = "not valid UTF-8", load=lambda fh: fh.read(),
          errors=UnicodeDecodeError, encoding="utf-8"):
    """``load`` on a UTF-8 file; SchemaError if it cannot decode it, ValueError if a key repeats."""
    try:
        with open(path, encoding=encoding) as fh:
            return load(fh)
    except _DuplicateKey as exc:
        raise ValueError(f"{path}: duplicate key {exc.args[0]!r}") from None
    except errors as exc:
        raise SchemaError(f"{what}: {exc}", path=path) from None


def _load_yaml(path: str) -> object:
    import yaml  # deferred: only evaluate's config flags read YAML

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            # a merge key (<<) may be overridden; keys written out may not repeat
            keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)
            _unique([(self.construct_object(k), None) for k in keys])
            return mapping

    return _read(path, "config file is not valid UTF-8 YAML",
                 lambda fh: yaml.load(fh, UniqueKeyLoader), (yaml.YAMLError, UnicodeDecodeError))


# Every tuning flag of evaluate, once: the flag, and the section of a --config
# file (None for the top level) and the key there that hold the same setting.
# A flag is named as the DecodeConfig or BackendSpec field it sets, if any.
_SETTINGS: tuple[tuple[click.Option, str | None, str], ...] = (
    (click.Option(["--strategy"], type=click.Choice(STRATEGIES)), "decode", "strategy"),
    (click.Option(["--k"], type=int), "decode", "k"),
    (click.Option(["--temperature"], type=float), "decode", "temperature"),
    (click.Option(["--max-new-tokens"], type=int), "decode", "max_new_tokens"),
    (click.Option(["--stop", "stop_sequences"], multiple=True), "decode", "stop"),
    (click.Option(["--seed"], type=int), None, "seed"),
    (click.Option(["--cwe", "cwe_list"], multiple=True,
                  help="CWE ids for the breakdown, in render order."), None, "cwe_list"),
    (click.Option(["--strict"], is_flag=True, help="Exact bytes, no trailing-LF allowance."),
     None, "strict"),
    (click.Option(["--max-in-flight"], type=int), "backend", "max_in_flight"),
)
# The keys each section of a --config file may hold; a flat --backend-config
# file holds the backend keys.
_KEYS: dict[str | None, tuple[str, ...]] = {
    None: tuple(dict.fromkeys(section or key for _, section, key in _SETTINGS)),
    "decode": tuple(key for _, section, key in _SETTINGS if section == "decode"),
    "backend": tuple(f.name for f in dataclasses.fields(BackendSpec)),
}


def _section(where: str, value: object, known: tuple[str, ...]) -> dict:
    """``value`` read as a config section: null holds nothing, and anything but a
    mapping of ``known`` keys raises ValueError naming ``where``."""
    if value is not None:
        check_mapping(where, value, known)
    return value or {}


def _pick(sections: dict, flags: dict) -> dict:
    """Each setting of _SETTINGS that ``sections`` hold, by flag name: its flag
    if given, else its value in the section."""
    picked = {}
    for option, section, key in _SETTINGS:
        if section in sections:
            flag = flags.get(option.name)
            # click passes a flag left off as None, () or False; a zero was given
            if flag is not None and flag != () and flag is not False:
                picked[option.name] = flag
            elif key in sections[section]:
                picked[option.name] = sections[section][key]
    return picked


def resolve_settings(
    config: object, backend_config: object, **flags
) -> tuple[DecodeConfig, BackendSpec, list[str], bool]:
    """``evaluate``'s DecodeConfig, BackendSpec, CWE order and strict flag, from
    the data of its ``--config`` and ``--backend-config`` files (None for an
    absent or empty file) and its tuning ``flags`` by name.

    Each setting is its flag if given, else (for a backend key) its
    ``backend_config`` value, else its ``config`` value, else its default. Each
    file's shapes are checked as read, the merged values by DecodeConfig and
    BackendSpec; a fault raises ValueError naming the setting.
    """
    top = _section("--config", config, _KEYS[None])
    try:
        decode = _section("decode", top.get("decode"), _KEYS["decode"])
        check_list("cwe_list", top.get("cwe_list", []), str, "a list of strings")
        if not isinstance(top.get("strict", False), bool):
            raise ValueError(f"strict: expected true or false, got {top['strict']!r}")
        picked = _pick({None: top, "decode": decode}, flags)
        strict = picked.pop("strict", False)
        cwes = list(picked.pop("cwe_list", DEFAULT_CWE_ORDER))
        cfg = DecodeConfig(**picked)
        bad = [cwe for cwe in cwes if not CWE_ID.fullmatch(cwe)] + repeats(cwes)
        if bad:
            raise ValueError(f"cwe_list: expected distinct CWE ids, got {bad[0]!r} in {cwes}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad decode config: {exc}") from None
    try:
        backend = _section("backend", top.get("backend"), _KEYS["backend"])
        if backend_config is not None:
            where = "--backend-config"
            if isinstance(backend_config, dict) and "backend" in backend_config:
                # the wrapped shape holds nothing else
                _section(where, backend_config, ("backend",))
                where, backend_config = "backend", backend_config["backend"]
            backend = {**backend, **_section(where, backend_config, _KEYS["backend"])}
        spec = BackendSpec(**{**backend, **_pick({"backend": backend}, flags)})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad backend config: {exc}") from None
    return cfg, spec, cwes, strict


def _write(outputs: ExitStack, path: str, text: str) -> None:
    """Write ``text`` to a file staged in ``outputs`` that replaces ``path`` when they close."""
    with open(outputs.enter_context(_replacing(path)), "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_json(outputs: ExitStack, path: str, obj: dict) -> None:
    """Stage ``obj`` as indented JSON; a dataclass in it is written as its fields."""
    _write(outputs, path, json.dumps(obj, indent=2, ensure_ascii=False, default=vars) + "\n")


def _write_beside(outputs: ExitStack, out_path: str, quarantine, command: str, inputs: dict,
                  config: dict, **extra) -> None:
    """Stage the quarantine file and the manifest that go beside ``out_path``."""
    _write_json(outputs, out_path + ".quarantine.json", {"quarantined": quarantine})
    _write_json(outputs, out_path + ".manifest.json",
                {"command": command, "inputs": inputs, "config": config, **extra})


def _echo_quarantined(quarantined: dict[str, list[ds.QuarantineEntry]]) -> None:
    """Say on stderr how many rows of each input were quarantined, if any were."""
    if any(quarantined.values()):
        counts = ", ".join(f"{len(q)} {name}" for name, q in quarantined.items())
        click.echo(f"records quarantined at ingest: {counts}", err=True)


def _echo_quarantine_count(quarantined: list[ds.QuarantineEntry]) -> None:
    """Say on stderr how many rows of a command's one input were quarantined, if any were."""
    if quarantined:
        click.echo(f"{len(quarantined)} records quarantined at ingest", err=True)


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
    A command stages every output in one ExitStack, its primary output first
    and so renamed last; a rename that fails leaves those before it renamed.
    """
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, out_path)
    except BaseException:
        _quietly(os.remove, tmp)
        raise


def _quietly(remove, path: str) -> None:
    """``remove(path)``, ignoring an OSError, so a cleanup never hides the error it follows."""
    with suppress(OSError):
        remove(path)


@click.group()
def main() -> None:
    """Tools for the line-addressed code-fix format."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def ingest(input_path: str, out_path: str) -> None:
    """Read raw or training records, normalize them, and write them back out."""
    quarantined: list[ds.QuarantineEntry] = []
    with _exit_codes(), ExitStack() as outputs:
        tmp = outputs.enter_context(_replacing(out_path))
        counts = ds.write_records_jsonl(ds.stream(input_path, quarantined), tmp)
        _write_beside(outputs, out_path, quarantined, "ingest",
                      {"input": input_path}, {}, counts=counts,
                      records=sum(counts.values()), quarantined=len(quarantined))
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
            ds.stream(train_path, quarantined["train"]),
            ds.stream(test_path, quarantined["test"]),
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
    with _exit_codes(), ExitStack() as outputs:
        leak = ds.LeakFilter(ds.stream(test_path, quarantined["test"]), mode)
        tmp = outputs.enter_context(_replacing(out_path))
        train = ds.stream(train_path, quarantined["train"])
        ds.write_records_jsonl(filter(leak.keep, train), tmp)
        manifest = leak.manifest()
        _write_beside(outputs, out_path, quarantined, "refine",
                      {"train": train_path, "test": test_path}, {"mode": mode}, result=manifest,
                      quarantined={k: len(v) for k, v in quarantined.items()})
    _echo_quarantined(quarantined)
    click.echo(f"kept {manifest.counts['train']}/{leak.train.total()} train records -> {out_path}",
               err=True)


@main.command("export-train")
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def export_train(records_path: str, out_path: str) -> None:
    """Write prompt/completion pairs for training."""
    quarantined: list[ds.QuarantineEntry] = []
    with _exit_codes(), ExitStack() as outputs:
        tmp = outputs.enter_context(_replacing(out_path))
        written = ds.export_jsonl(ds.stream(records_path, quarantined), tmp)
        # every record read is exported; only the input's ingest quarantines
        _write_beside(outputs, out_path, quarantined, "export-train", {"records": records_path},
                      {}, written=written, quarantined=len(quarantined))
    _echo_quarantine_count(quarantined)
    click.echo(f"wrote {written} examples -> {out_path}", err=True)


@main.command("apply")
@click.option("--source", "source_path", required=True, type=click.Path())
@click.option("--patch", "patch_path", required=True, type=click.Path())
def apply_cmd(source_path: str, patch_path: str) -> None:
    """Apply a patch file to a source file; patched text goes to stdout."""
    try:
        src = from_text(_read(source_path))
        result = apply_patch(src, parse_patch(_read(patch_path)))
    except (OSError, LinefixError) as exc:
        _fail(EXIT_IO, str(exc))
    sys.stdout.write(to_text(result))


@main.command("derive")
@click.option("--before", "before_path", required=True, type=click.Path())
@click.option("--after", "after_path", required=True, type=click.Path())
def derive_cmd(before_path: str, after_path: str) -> None:
    """Derive the patch between two source files; DSL goes to stdout."""
    try:
        before, after = from_text(_read(before_path)), from_text(_read(after_path))
        text = serialize_patch(derive_patch(before, after)[0])
    except (OSError, LinefixError) as exc:
        _fail(EXIT_IO, str(exc))
    sys.stdout.write(text + "\n")


@main.command("evaluate", params=[option for option, _, _ in _SETTINGS])
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML config; flags given on the command line win.")
@click.option("--backend-config", "backend_config_path", type=click.Path(), default=None)
@click.option("--mock-script", "mock_script_path", type=click.Path(), default=None)
@click.option("--report-dir", "report_dir", required=True, type=click.Path())
def evaluate_cmd(
    records_path: str,
    config_path: str | None,
    backend_config_path: str | None,
    mock_script_path: str | None,
    report_dir: str,
    **flags,
) -> None:
    """Generate candidates for every record and score exact matches."""
    quarantined: list[ds.QuarantineEntry] = []
    with _exit_codes(), ExitStack() as outputs:
        if (backend_config_path is None) == (mock_script_path is None):
            raise ValueError("exactly one of --backend-config or --mock-script is required")
        cfg, spec, cwes, strict = resolve_settings(
            _load_yaml(config_path) if config_path is not None else None,
            _load_yaml(backend_config_path) if backend_config_path is not None else None,
            **flags,
        )
        if mock_script_path is not None:
            script = _read(mock_script_path, "mock script is not valid UTF-8 JSON",
                           lambda fh: json.load(fh, object_pairs_hook=_unique), ValueError,
                           encoding="utf-8-sig")  # skip a BOM; apply and derive keep theirs
        try:
            if mock_script_path is None:
                backend = HttpBackend(spec)
                outputs.callback(backend.close)  # its connections, on every exit
            else:
                backend = MockBackend(script, spec)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad backend config: {exc}") from None

        try:
            with closing(ds.stream(records_path, quarantined)) as rows:
                report = evaluate((r.vuln for r in rows), backend, cfg,
                                  cwe_order=tuple(cwes), strict=strict)
        finally:  # also when reading or running fails, before its error
            _echo_quarantine_count(quarantined)

        made, d = [], report_dir  # the directories this run makes, deepest first
        while d and not os.path.isdir(d):
            made.append(d)
            d = os.path.dirname(d)
        for path in reversed(made):  # a failed run removes them, deepest first, after the reports
            outputs.push(lambda failed, *_, path=path: failed and _quietly(os.rmdir, path))
        os.makedirs(report_dir, exist_ok=True)
        for fmt, name in (("json", "report.json"), ("text", "report.txt"), ("csv", "report.csv")):
            _write(outputs, os.path.join(report_dir, name), render_report(report, fmt))
        _write_json(outputs, os.path.join(report_dir, "resolved_config.json"), {
            "command": "evaluate",
            "inputs": {
                "records": records_path,
                "backend_config": backend_config_path,
                "mock_script": mock_script_path,
            },
            "config": {
                **dataclasses.asdict(cfg),
                "cwe_list": cwes,
                "strict": strict,
                "max_in_flight": spec.max_in_flight,
                "backend_endpoint": spec.endpoint,
            },
        })

    click.echo(
        f"pp {report.pp_hits}/{report.pp_total} rate {report.pp_rate:.4f}"
        f" (reports in {report_dir})"
    )
    if report.backend_error_count == report.pp_total:
        _fail(EXIT_BACKEND, "backend failed for every sample")


if __name__ == "__main__":
    main()
