import json
import os
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import run
from tracer import Tracer, covered, self_times


def test_covered_merges_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_on_hand_built_tree():
    spans = [
        # root 0..10 with two children; the second has two overlapping
        # children, as worker threads of one batch produce.
        (1, 0, "root", 0.0, 10.0, None),
        (2, 1, "a", 1.0, 3.0, None),
        (3, 1, "batch", 4.0, 9.0, None),
        (4, 3, "worker", 4.5, 7.0, None),
        (5, 3, "worker", 5.0, 8.0, "BackendError"),
        (6, 4, "leaf", 5.0, 6.0, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 2 - 5)
    assert selfs[2] == pytest.approx(2)
    assert selfs[3] == pytest.approx(5 - 3.5)
    assert selfs[4] == pytest.approx(2.5 - 1)
    assert selfs[5] == pytest.approx(3)
    assert selfs[6] == pytest.approx(1)
    assert sum(selfs.values()) > 10  # overlapping workers count on both threads


def _modules():
    def f(x):
        return x + 1

    home = types.ModuleType("home")
    home.f = f
    user = types.ModuleType("user")
    user.f = f  # as left by "from home import f"
    user.g = lambda x: user.f(x) * 2
    return home, user, f


def test_wrap_function_binds_every_name_and_restores():
    home, user, f = _modules()
    tracer = Tracer()
    assert tracer.wrap_function([home, user], f, "home.f") == 2
    assert user.g(1) == 4 and home.f(1) == 2
    assert [s[2] for s in tracer.spans] == ["home.f", "home.f"]
    tracer.restore()
    assert home.f is f and user.f is f


def test_errors_and_parents_are_recorded():
    home, user, f = _modules()
    tracer = Tracer()
    tracer.wrap_function([home, user], f, "home.f")
    outer = tracer.traced(lambda: user.f(None), "outer")
    with pytest.raises(TypeError):
        outer()
    tracer.restore()
    inner, top = tracer.spans
    assert inner[1] == top[0] and top[1] == 0
    assert inner[5] == top[5] == "TypeError"


def test_executor_tasks_link_to_the_submitting_span():
    pool_module = types.ModuleType("pool_module")
    pool_module.ThreadPoolExecutor = ThreadPoolExecutor
    tracer = Tracer()
    tracer.link_executor([pool_module], ThreadPoolExecutor)
    work = tracer.traced(lambda x: x * x, "work")

    def batch():
        with pool_module.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(6)))

    assert tracer.traced(batch, "batch")() == [0, 1, 4, 9, 16, 25]
    tracer.restore()
    assert pool_module.ThreadPoolExecutor is ThreadPoolExecutor
    (batch_span,) = [s for s in tracer.spans if s[2] == "batch"]
    assert {s[1] for s in tracer.spans if s[2] == "work"} == {batch_span[0]}


def test_benchmark_json_names_what_the_benchmark_reports():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
