"""Tests of the benchmark's own code: percentile rule, span self times,
hook installation and metric names.  Run: python3 -m pytest perfbench/tests"""

import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.stats import (check_metric_name, percentile, tail_percentile,
                             timing_summary)
from perfbench.trace import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# percentile rule: the median and the highest percentile with >= 10 beyond

def test_summary_of_one_hundred():
    s = timing_summary(range(1, 101))
    assert s == {"n": 100, "p50": 50, "tail_q": 90, "tail": 90}


@pytest.mark.parametrize("n", [11, 19, 20, 57, 100, 999, 1000, 5000])
def test_tail_leaves_at_least_ten_and_is_highest(n):
    values = list(range(n))
    s = timing_summary(values)
    assert s["n"] == n
    assert sum(v > s["tail"] for v in values) >= 10
    q = s["tail_q"]
    if q < 99:  # one percentile higher would leave fewer than ten beyond
        assert sum(v > percentile(values, q + 1) for v in values) < 10


def test_no_tail_with_ten_or_fewer_samples():
    assert tail_percentile(10) is None
    s = timing_summary([3.0, 1.0, 2.0])
    assert s["p50"] == 2.0 and s["tail"] is None and s["n"] == 3


def test_tail_caps_at_p99():
    assert tail_percentile(100_000) == 99


# ---------------------------------------------------------------------------
# self time: duration minus the union of the children's intervals

def span(sid, parent, start, end, name="f", thread=0):
    return Span(sid, parent, 1, name, "x", start, end, thread)


def test_self_time_nested_and_overlapping_children():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 2.0, 4.0),
             span(4, 1, 9.0, 12.0), span(5, 2, 1.5, 2.5)]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 3.0 - 1.0)  # [1, 4] and [9, 10]
    assert st[2] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.0)


def _traced_pair(tracer):
    inner = tracer.wrap(lambda: time.sleep(0.01), "inner", "b")
    outer = tracer.wrap(lambda: (time.sleep(0.005), inner()), "outer", "a")
    return outer


def test_tracer_parent_and_self_time():
    tracer = Tracer(hooks=())
    _traced_pair(tracer)()
    inner, outer = tracer.spans  # inner closes first
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.trace == outer.trace == outer.sid
    st = self_times(tracer.spans)
    assert st[outer.sid] == pytest.approx(outer.duration - inner.duration)
    assert st[inner.sid] == pytest.approx(inner.duration)


def test_tracer_threads_keep_separate_parent_stacks():
    tracer = Tracer(hooks=())
    outer = _traced_pair(tracer)
    barrier = threading.Barrier(2)
    threads = [threading.Thread(target=lambda: (barrier.wait(), outer())) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    outers = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == len(inners) == 2
    by_id = {s.sid: s for s in tracer.spans}
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
        assert s.trace == parent.sid
    assert outers[0].trace != outers[1].trace
    assert outers[0].start < outers[1].end and outers[1].start < outers[0].end  # overlap
    st = self_times(tracer.spans)
    for o in outers:
        own = [s for s in inners if s.parent == o.sid]
        assert st[o.sid] == pytest.approx(o.duration - own[0].duration)


def test_chain_span_starts_new_trace_and_generator_spans_per_item():
    tracer = Tracer(hooks=())

    def items():
        yield from (1, 2, 3)

    gen = tracer.wrap_generator(items, "items", "data")
    chain = tracer.wrap(lambda: sum(gen()), "chain", "solver", new_trace=True)
    root = tracer.wrap(chain, "root", "cli")
    assert root() == 6
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (c,), (r,) = by_name["chain"], by_name["root"]
    assert c.parent == r.sid and c.trace == c.sid != r.trace
    assert len(by_name["items"]) == 4  # three items and the exhausting call
    assert all(s.parent == c.sid and s.trace == c.sid for s in by_name["items"])


# ---------------------------------------------------------------------------
# hook table: missing targets are reported, present ones wrapped and restored

def test_install_marks_missing_targets_and_restores():
    mod = types.ModuleType("perfbench_fake_mod")
    mod.present = lambda x: x + 1
    original = mod.present
    sys.modules[mod.__name__] = mod
    try:
        hooks = ((mod.__name__, "present", "core", "call"),
                 (mod.__name__, "renamed_away", "core", "call"),
                 ("perfbench_no_such_module", "f", "core", "call"))
        with Tracer(hooks) as tracer:
            assert mod.present is not original
            assert mod.present(1) == 2
        assert mod.present is original
        assert tracer.unavailable == [f"{mod.__name__}.renamed_away",
                                      "perfbench_no_such_module.f"]
        assert [s.name for s in tracer.spans] == ["present"]
    finally:
        del sys.modules[mod.__name__]


def test_measure_that_no_longer_fits_leaves_counter_out():
    tracer = Tracer(hooks=())
    f = tracer.wrap(lambda: "not a batch", "next_batch", "data")
    assert f() == "not a batch"
    assert tracer.spans[0].counts == {}


# ---------------------------------------------------------------------------
# metric names

@pytest.mark.parametrize("name", ["setup_s", "data.batch_us.shuffle.n1000000",
                                  "solver.resgld.us_per_iter", "9a", "a-b", "x" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", ".x", "_x", "x" * 65, "a/b", "naïve",
                                  "a,b", None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_matches_reported_metrics():
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    for m in spec["per_layer"] + spec["end_to_end"]:
        check_metric_name(m["name"])
