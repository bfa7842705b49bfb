"""Tests for the benchmark's own code: span arithmetic, binding restoration,
seeded inputs and digest agreement between traced and untraced runs.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gospf.engine  # noqa: E402
from gospf.config import parse_config  # noqa: E402
from gospf.traffic import Flow, TrafficMatrix  # noqa: E402
from tracing import FUNCTION_BINDINGS, METHOD_BINDINGS, Tracer, traced  # noqa: E402
from workloads import Churn96, DailyPair, GapSmall, Tally, random_connected_topology  # noqa: E402


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 12] holds two mid spans [1, 5] and [6, 10]; each mid holds one
    # leaf, [2, 4] and [7, 8].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("graph.leaf", lambda: None)
    mid = tracer.wrap("engine.mid", leaf)
    root = tracer.wrap("bench.root", lambda: (mid(), mid()))
    root()

    assert tracer.stats["graph.leaf"] == [2, 3.0, 3.0]
    assert tracer.stats["engine.mid"] == [2, 8.0, 5.0]
    assert tracer.stats["bench.root"] == [1, 12.0, 4.0]
    assert tracer.self_s_by_layer() == {"graph": 3.0, "engine": 5.0, "bench": 4.0}
    assert sum(tracer.self_s_by_layer().values()) == tracer.total_s("bench.root")


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    outer = tracer.wrap("bench.outer", tracer.wrap("engine.inner", boom))
    with pytest.raises(ValueError):
        outer()
    assert tracer.calls("engine.inner") == 1 and tracer.calls("bench.outer") == 1
    assert tracer._child_time == []


def _bindings():
    """(owner, attribute) of every binding the traced run replaces."""
    out = [(importlib.import_module(mod), attr) for mod, attr, _ in FUNCTION_BINDINGS]
    for mod, cls, attr, _ in METHOD_BINDINGS:
        out.append((getattr(importlib.import_module(mod), cls), attr))
    return out


def _current(owner, attr):
    return owner.__dict__[attr]


def _tiny_scenario():
    topo = random_connected_topology(random.Random(5), 6, 3)
    flow = Flow(1, 1, 4, "udp")
    flow.add_step(0.0, 3e6)
    cfg = parse_config("horizon=2.0")
    return gospf.engine.Scenario(topo, TrafficMatrix([flow], cfg.horizon), cfg)


def test_traced_run_restores_every_binding():
    before = [(owner, attr, _current(owner, attr)) for owner, attr in _bindings()]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with traced(tracer):
            assert all(_current(o, a) is not f for o, a, f in before)
            gospf.engine.run(_tiny_scenario())
            raise RuntimeError("leave the traced block early")
    assert all(_current(o, a) is f for o, a, f in before)
    assert tracer.calls("engine.run") == 1
    assert tracer.calls("traffic.allocate") == 10
    assert tracer.counters["engine.windows"] == 10


def test_workload_inputs_repeat_for_a_seed(tmp_path):
    def churn(seed):
        scenario = Churn96(seed, tmp_path, Tally()).setup()
        return scenario.fingerprint(), scenario.link_failures

    def gap(seed):
        return [s.fingerprint() for s in GapSmall(seed, tmp_path, Tally()).setup()]

    assert churn(3) == churn(3) and churn(3) != churn(4)
    assert gap(3) == gap(3) and gap(3) != gap(4)

    daily = DailyPair(0, tmp_path, Tally())
    first = daily.setup()[1].read_text()
    assert DailyPair(9, tmp_path, Tally()).setup()[1].read_text() == first


def test_churn_failures_keep_the_graph_connected(tmp_path):
    for seed in (1, 2):
        scenario = Churn96(seed, tmp_path, Tally()).setup()
        failed = {lid for _t, lid in scenario.link_failures}
        assert len(failed) == 2
        assert gospf.graph.is_connected(scenario.topology,
                                        frozenset(scenario.topology.links) - failed)


def _bench(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("sim_digest ")]
    return digests, json.loads(lines[-1])


def test_traced_and_untraced_runs_print_the_same_sim_digest():
    common = ["--workload", "gap-small", "--seed", "2", "--seconds", "0"]
    plain_digest, plain = _bench(*common, "--trace", "0")
    traced_digest, traced_result = _bench(*common, "--trace", "1")
    assert plain["correct"] and traced_result["correct"]
    assert plain_digest == traced_digest and "," not in plain_digest[0]
    assert set(plain["metrics"]) == {"setup_s", "run_s", "windows_per_s", "peak_rss_mb"}
    assert traced_result["metrics"]["oracle.solve_static.calls"]["value"] > 0
