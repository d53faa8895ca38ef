"""``cli.resolve_settings``: how evaluate merges its flags, --backend-config and --config."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefix.cli import resolve_settings
from linefix.client import BackendSpec, DecodeConfig
from linefix.evaluation import DEFAULT_CWE_ORDER

CWE_LISTS = st.lists(st.integers(1, 999).map(lambda n: f"CWE-{n}"), min_size=1, max_size=3,
                     unique=True)
# each setting that has a flag: the --config section that holds it (None for
# the top level), its key there, and values the checks accept
FLAGGED = {
    "strategy": ("decode", "strategy", st.sampled_from(["beam", "sample"])),
    "k": ("decode", "k", st.integers(1, 9)),
    "temperature": ("decode", "temperature", st.floats(0.1, 2.0)),
    "max_new_tokens": ("decode", "max_new_tokens", st.integers(1, 512)),
    "stop_sequences": ("decode", "stop", st.lists(st.text(max_size=3), min_size=1, max_size=2)),
    "seed": (None, "seed", st.integers(0, 3)),
    "cwe_list": (None, "cwe_list", CWE_LISTS),
    "strict": (None, "strict", st.booleans()),
    "max_in_flight": ("backend", "max_in_flight", st.integers(1, 4)),
}
# backend keys that only the files set
UNFLAGGED = {"model": st.text(max_size=3), "timeout_s": st.floats(0.5, 9.0)}
# what click passes for a flag left off
LEFT_OFF = {"stop_sequences": (), "cwe_list": (), "strict": False}
DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(DecodeConfig)},
    **{f.name: f.default for f in dataclasses.fields(BackendSpec)},
    "cwe_list": DEFAULT_CWE_ORDER,
    "strict": False,
}
BACKEND_KEYS = ", ".join(f.name for f in dataclasses.fields(BackendSpec))


def flag_values(name: str, values):
    if name == "strict":
        return st.just(True)  # an on/off flag is given only as on
    return values.map(tuple) if name in LEFT_OFF else values


def resolved(config, backend_config=None, **flags) -> dict:
    cfg, spec, cwes, strict = resolve_settings(config, backend_config, **flags)
    return {**dataclasses.asdict(cfg), **vars(spec), "cwe_list": cwes, "strict": strict}


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_each_setting_is_its_flag_else_backend_config_else_config_else_default(data):
    config: dict = {}
    backend_file: dict = {}
    has_backend_file = data.draw(st.booleans(), "has --backend-config")
    flags, want = {}, {}
    rows = {**FLAGGED, **{key: ("backend", key, values) for key, values in UNFLAGGED.items()}}
    for name, (section, key, values) in rows.items():
        candidates = [DEFAULTS[name]]
        if data.draw(st.booleans(), f"--config holds {name}"):
            value = data.draw(values, f"--config {name}")
            (config.setdefault(section, {}) if section else config)[key] = value
            candidates.append(value)
        if section == "backend" and has_backend_file and data.draw(st.booleans()):
            backend_file[key] = data.draw(values, f"--backend-config {name}")
            candidates.append(backend_file[key])
        if name in FLAGGED:
            flags[name] = data.draw(
                st.one_of(st.just(LEFT_OFF.get(name)), flag_values(name, values)), f"--{name}")
            if flags[name] != LEFT_OFF.get(name):
                candidates.append(flags[name])
        want[name] = candidates[-1]
    backend_config = None
    if has_backend_file:
        wrapped = data.draw(st.booleans(), "wrapped")
        backend_config = {"backend": backend_file} if wrapped else backend_file

    got = resolved(config, backend_config, **flags)
    want["stop_sequences"] = tuple(want["stop_sequences"])
    want["cwe_list"] = list(want["cwe_list"])
    assert {name: got[name] for name in want} == want


@pytest.mark.parametrize(
    "config,backend_config",
    [(None, None), ({}, {}), ({"decode": None}, None), ({"backend": None}, None),
     ({}, {"backend": None}), ({"decode": None, "backend": None}, {"backend": None})],
)
def test_an_empty_file_or_section_holds_nothing(config, backend_config):
    assert resolved(config, backend_config) == resolved({})


@pytest.mark.parametrize("value", [["k", 3], [1], 5, "abc"], ids=["list", "list of one", "int",
                                                                   "str"])
@pytest.mark.parametrize(
    "config,backend_config,message",
    [
        (lambda v: {"decode": v}, None, "bad decode config: decode: "),
        (lambda v: {"backend": v}, None, "bad backend config: backend: "),
        (lambda v: {}, lambda v: {"backend": v}, "bad backend config: backend: "),
        (lambda v: {}, lambda v: v, "bad backend config: --backend-config: "),
        (lambda v: v, None, "--config: "),
    ],
    ids=["decode", "backend", "wrapped --backend-config", "flat --backend-config", "--config"],
)
def test_a_section_that_is_not_a_mapping_is_refused_naming_it(
    config, backend_config, message, value
):
    with pytest.raises(ValueError) as info:
        resolve_settings(config(value), backend_config and backend_config(value))
    assert str(info.value) == f"{message}expected a mapping, got {value!r}"


@pytest.mark.parametrize(
    "config,backend_config,where",
    [
        ({"backend": {"bogus": 1}}, None, "backend"),
        ({}, {"backend": {"endpoint": "http://127.0.0.1:9/", "bogus": 1}}, "backend"),
        ({}, {"endpoint": "http://127.0.0.1:9/", "bogus": 1}, "--backend-config"),
    ],
    ids=["--config", "wrapped --backend-config", "flat --backend-config"],
)
def test_an_unknown_backend_key_is_refused_like_the_others(config, backend_config, where):
    with pytest.raises(ValueError) as info:
        resolve_settings(config, backend_config)
    assert str(info.value) == (
        f"bad backend config: {where}: unknown key 'bogus'; expected one of {BACKEND_KEYS}")


@pytest.mark.parametrize(
    "config,flags,message",
    [
        ({"cwe_list": 5}, {"cwe_list": ("CWE-79",)}, "cwe_list: expected a list of strings, got 5"),
        ({"strict": "no"}, {"strict": True}, "strict: expected true or false, got 'no'"),
    ],
)
def test_a_file_value_is_checked_even_where_a_flag_overrides_it(config, flags, message):
    with pytest.raises(ValueError, match=f"^bad decode config: {message}$"):
        resolve_settings(config, None, **flags)


def test_a_cwe_list_names_its_first_invalid_id_before_a_repeat():
    with pytest.raises(ValueError, match="^bad decode config: cwe_list: expected distinct CWE ids,"
                                         " got 'other' in"):
        resolve_settings({"cwe_list": ["CWE-79", "CWE-79", "other"]}, None)


def test_inputs_are_not_changed():
    config = {"decode": {"k": 2}, "backend": {"model": "a", "max_in_flight": 2}}
    backend_config = {"backend": {"model": "b"}}
    before = repr((config, backend_config))
    resolve_settings(config, backend_config, k=3, max_in_flight=4)
    assert repr((config, backend_config)) == before
