import json

import corpus
from verify import apply_completion


def test_same_seed_same_corpus():
    assert corpus.make_corpus(7, 300, 100) == corpus.make_corpus(7, 300, 100)
    assert corpus.make_corpus(7, 300, 100) != corpus.make_corpus(8, 300, 100)


def test_test_split_independent_of_train():
    _, test, _ = corpus.make_corpus(7, 300, 100)
    assert corpus.make_corpus(7, 300, 100, with_train=False)[1] == test


def test_exact_mix_and_planted_overlap():
    train, test, planted = corpus.make_corpus(3, 600, 200)
    assert planted == 80 and len(train) == 600 and len(test) == 200
    copies = [r for r in train if "planted_from" in r]
    assert len(copies) == planted
    by_id = {r["id"]: r for r in test}
    for c in copies:
        src = by_id[c["planted_from"]]
        assert (c["before"], c["after"]) == (src["before"], src["after"])
    kinds = [r["kind"] for r in test]
    assert kinds.count("heavy") == 200 // corpus.HEAVY_EVERY
    assert kinds.count("blank") == 200 // corpus.BLANK_EVERY
    for r in test:
        assert r["after"] != r["before"]
        if r["kind"] == "blank":
            assert len(r["after"]) == len(r["before"]) + 1
            assert sorted(set(r["after"]) - set(r["before"])) in ([], [""])


def test_write_corpus_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    corpus.write_corpus(5, str(a), with_train=False)
    corpus.write_corpus(5, str(b), with_train=False)
    for name in ("raw_test.jsonl", "oracle_records.jsonl", "oracle_corpus.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


SOURCE = ["int f() {", "    a();", "    b();", "    c();", "}"]
COMPLETIONS = [
    "1-3<MID>    x();",
    "0-2<MID>    y();<sep>3-4<MID>    z();",
    "2-3<MID>",  # lossy lone-blank insertion: reads as a no-op
]
NUMBERED = "\n".join(f"{i} {line}" for i, line in enumerate(SOURCE))
EXPORTED = [
    {"id": f"s{i}", "prompt": f"[INST]1 CWE-{i} d\n{NUMBERED}\n[/INST]",
     "completion": COMPLETIONS[i % 3]}
    for i in range(60)
]


def test_planted_candidates_follow_their_class():
    plans = corpus.plan_samples(1, EXPORTED)
    assert plans == corpus.plan_samples(1, EXPORTED)
    assert sum(p["fault"] == "permanent" for p in plans) == round(corpus.PERMANENT_SHARE * 60)
    for row, plan in zip(EXPORTED, plans):
        assert len(plan["candidates"]) == corpus.K
        want = apply_completion(SOURCE, row["completion"])
        for cls, cand in zip(plan["classes"], plan["candidates"]):
            got = apply_completion(SOURCE, cand)
            if cls == "exact":
                assert cand == row["completion"]
            elif cls in ("reordered", "widened"):
                assert cand != row["completion"] and got == want
            elif cls == "malformed":
                assert got is None
            else:
                assert got is not None and got != want


def test_expected_sample():
    plan = {"fault": "none", "classes": ["wrong", "malformed", "widened", "exact"]}
    assert corpus.expected_sample(plan) == {
        "hit": True, "hit_index": 3, "format_errors": 1,
        "applied_equivalent": False, "failed": False,
    }
    plan["classes"] = ["wrong", "malformed", "malformed", "reordered"]
    assert corpus.expected_sample(plan)["applied_equivalent"] is True
    plan["fault"] = "permanent"
    assert corpus.expected_sample(plan)["failed"] is True


def test_write_candidates(tmp_path):
    export = tmp_path / "export.jsonl"
    export.write_text("".join(json.dumps(r) + "\n" for r in EXPORTED))
    info = corpus.write_candidates(2, str(export), str(tmp_path))
    script = json.loads((tmp_path / "mock_script.json").read_text())
    table = [json.loads(line) for line in (tmp_path / "stub_table.jsonl").read_text().splitlines()]
    assert info["samples"] == len(table) == 60
    fail_times = {"none": 0, "transient": 1, "permanent": corpus.MAX_ATTEMPTS}
    for row in table:
        assert row["fault"] in fail_times
    assert sorted(e["fail_times"] for e in script["samples"].values()) == sorted(
        fail_times[row["fault"]] for row in table
    )


def test_every_seed_asks_for_the_same_work():
    def sizes(seed):
        _, test, _ = corpus.make_corpus(seed, 0, 300, with_train=False)
        return sorted((r["kind"], len(r["before"])) for r in test)

    assert sizes(1) == sizes(2)
    heavy = [n for kind, n in sizes(1) if kind == "heavy"]
    assert min(heavy) == 400 and max(heavy) <= 800
