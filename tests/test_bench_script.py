"""scripts/bench.py reads perfbench's stdout. These tests feed its parser a
recorded perfbench run, so that a change of perfbench's output format fails
here and not in the next benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"

# `perfbench/run.py --workload gap-small --seed 1 --seconds 0.3 --trace 0`
RECORDED = r"""workload gap-small seed 1 trace 0
context {"line_rule": "all lines of src/gospf/**/*.py; non-blank = not matching ^\\s*$", "nproc": 2, "python": "3.11.7", "src_lines": 2953, "src_nonblank_lines": 2516}
sim_digest cfe7dbd70d4ebcb7
setup_s: median 0.0088155 s, min 0.00549151, max 0.0216204, n=30
run_s: median 0.420264 s, min 0.420264, max 0.420264, n=1
fail_ratio 0/60 = 0
gap_rows_per_s: 11273.9 1/s (4738 scored windows per iteration, 0 with gap_ratio < 1)
metric setup_s = 0.0088155 s
metric run_s = 0.420264 s
metric windows_per_s = 11421.4 1/s
metric peak_rss_mb = 24.8359 MB
{"correct": true, "attempted": 60, "failed": 0, "metrics": {"setup_s": {"value": 0.008815495999442646, "unit": "s"}, "run_s": {"value": 0.4202638200004003, "unit": "s"}, "windows_per_s": {"value": 11421.3971595162, "unit": "1/s"}, "peak_rss_mb": {"value": 24.8359375, "unit": "MB"}}}
"""


# `perfbench/run.py --workload gap-small --seed 1 --seconds 0.3 --trace 1`
RECORDED_TRACED = r"""workload gap-small seed 1 trace 1
context {"line_rule": "all lines of src/gospf/**/*.py; non-blank = not matching ^\\s*$", "nproc": 2, "python": "3.11.7", "src_lines": 3000, "src_nonblank_lines": 2561}
sim_digest cfe7dbd70d4ebcb7
untraced run_s: median 0.135052 s, min 0.129984, max 0.140121, n=2
traced run_s: median 0.149069 s, min 0.142702, max 0.155437, n=2
fail_ratio 0/240 = 0
self times sum to 0.154571 s; root spans take 0.154571 s
metric engine.run.calls = 60 count
metric engine.run.s = 0.0845368 s
metric engine.windows = 4800 count
metric engine.quiesced_ratio = 0.987083 ratio
metric engine.flood_copies = 1908 count
metric traffic.allocate.calls = 302 count
metric traffic.allocate.s = 0.00329157 s
metric traffic.generate_traffic.s = 0 s
metric traffic.place_flows.s = 0 s
metric traffic.parse_traffic.s = 0 s
metric traffic.write_traffic.s = 0.0011193 s
metric graph.parse_topology.s = 0 s
metric graph.shortest_paths.engine.calls = 0 count
metric graph.shortest_paths.engine.s = 0 s
metric graph.shortest_paths.protocol.calls = 354 count
metric graph.shortest_paths.protocol.s = 0.00272331 s
metric graph.shortest_paths.traffic.calls = 0 count
metric graph.shortest_paths.traffic.s = 0 s
metric graph.compute_mcst.calls = 60 count
metric graph.compute_mcst.s = 0.000767951 s
metric graph.is_connected.calls = 182 count
metric graph.is_connected.s = 0.000766194 s
metric graph.bfs_hop_counts.calls = 420 count
metric graph.bfs_hop_counts.s = 0.00130881 s
metric energy.accrue.calls = 0 count
metric energy.accrue.s = 0 s
metric protocol.sample_tick.calls = 1025 count
metric protocol.sample_tick.s = 0.00762507 s
metric protocol.handle_message.calls = 1908 count
metric protocol.handle_message.s = 0.00297478 s
metric oracle.solve_static.calls = 240 count
metric oracle.solve_static.s = 0.0374471 s
metric energy.total_network_energy.s = 0 s
metric protocol.handle_message.fresh_ratio = 0.937107 ratio
metric protocol.complete_reset_if_due.s = 0 s
metric protocol.routing_table.calls = 1274 count
metric oracle.heuristic_gap.s = 0.148842 s
metric oracle.cache_hit_ratio = 0.949346 ratio
metric oracle.check_flow_feasibility.s = 0.00369256 s
metric oracle.gap_rows_per_s = 35082.7 1/s
metric cli.main.s = 0 s
metric engine.self_s = 0.0633682 s
metric traffic.self_s = 0.00441087 s
metric graph.self_s = 0.00556627 s
metric energy.self_s = 0 s
metric protocol.self_s = 0.0114028 s
metric oracle.self_s = 0.0643055 s
metric cli.self_s = 0 s
metric bench.self_s = 0.0055176 s
metric trace.root_s = 0.154571 s
metric trace.untraced_run_s = 0.135052 s
metric trace.traced_run_s = 0.149069 s
metric trace.overhead_s = 0.0140171 s
{"correct": true, "attempted": 240, "failed": 0, "metrics": {"engine.run.calls": {"value": 60.0, "unit": "count"}, "engine.run.s": {"value": 0.08453679451486096, "unit": "s"}, "engine.windows": {"value": 4800.0, "unit": "count"}, "engine.quiesced_ratio": {"value": 0.9870833333333333, "unit": "ratio"}, "engine.flood_copies": {"value": 1908.0, "unit": "count"}, "traffic.allocate.calls": {"value": 302.0, "unit": "count"}, "traffic.allocate.s": {"value": 0.003291571483714506, "unit": "s"}, "traffic.generate_traffic.s": {"value": 0.0, "unit": "s"}, "traffic.place_flows.s": {"value": 0.0, "unit": "s"}, "traffic.parse_traffic.s": {"value": 0.0, "unit": "s"}, "traffic.write_traffic.s": {"value": 0.00111929998092819, "unit": "s"}, "graph.parse_topology.s": {"value": 0.0, "unit": "s"}, "graph.shortest_paths.engine.calls": {"value": 0.0, "unit": "count"}, "graph.shortest_paths.engine.s": {"value": 0.0, "unit": "s"}, "graph.shortest_paths.protocol.calls": {"value": 354.0, "unit": "count"}, "graph.shortest_paths.protocol.s": {"value": 0.002723314057220705, "unit": "s"}, "graph.shortest_paths.traffic.calls": {"value": 0.0, "unit": "count"}, "graph.shortest_paths.traffic.s": {"value": 0.0, "unit": "s"}, "graph.compute_mcst.calls": {"value": 60.0, "unit": "count"}, "graph.compute_mcst.s": {"value": 0.0007679510526941158, "unit": "s"}, "graph.is_connected.calls": {"value": 182.0, "unit": "count"}, "graph.is_connected.s": {"value": 0.0007661944910068996, "unit": "s"}, "graph.bfs_hop_counts.calls": {"value": 420.0, "unit": "count"}, "graph.bfs_hop_counts.s": {"value": 0.0013088129053357989, "unit": "s"}, "energy.accrue.calls": {"value": 0.0, "unit": "count"}, "energy.accrue.s": {"value": 0.0, "unit": "s"}, "protocol.sample_tick.calls": {"value": 1025.0, "unit": "count"}, "protocol.sample_tick.s": {"value": 0.007625070385984145, "unit": "s"}, "protocol.handle_message.calls": {"value": 1908.0, "unit": "count"}, "protocol.handle_message.s": {"value": 0.0029747844164376147, "unit": "s"}, "oracle.solve_static.calls": {"value": 240.0, "unit": "count"}, "oracle.solve_static.s": {"value": 0.03744714256026782, "unit": "s"}, "energy.total_network_energy.s": {"value": 0.0, "unit": "s"}, "protocol.handle_message.fresh_ratio": {"value": 0.9371069182389937, "unit": "ratio"}, "protocol.complete_reset_if_due.s": {"value": 0.0, "unit": "s"}, "protocol.routing_table.calls": {"value": 1274.0, "unit": "count"}, "oracle.heuristic_gap.s": {"value": 0.14884231948235538, "unit": "s"}, "oracle.cache_hit_ratio": {"value": 0.9493457154917687, "unit": "ratio"}, "oracle.check_flow_feasibility.s": {"value": 0.00369256004341878, "unit": "s"}, "oracle.gap_rows_per_s": {"value": 35082.698632569656, "unit": "1/s"}, "cli.main.s": {"value": 0.0, "unit": "s"}, "engine.self_s": {"value": 0.06336824491154402, "unit": "s"}, "traffic.self_s": {"value": 0.004410871464642696, "unit": "s"}, "graph.self_s": {"value": 0.005566272506257519, "unit": "s"}, "energy.self_s": {"value": 0.0, "unit": "s"}, "protocol.self_s": {"value": 0.011402824136894196, "unit": "s"}, "oracle.self_s": {"value": 0.06430552496749442, "unit": "s"}, "cli.self_s": {"value": 0.0, "unit": "s"}, "bench.self_s": {"value": 0.005517599020095076, "unit": "s"}, "trace.root_s": {"value": 0.15457133700692793, "unit": "s"}, "trace.untraced_run_s": {"value": 0.1350523244982469, "unit": "s"}, "trace.traced_run_s": {"value": 0.1490694145031739, "unit": "s"}, "trace.overhead_s": {"value": 0.014017090004927013, "unit": "s"}}}
"""

@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parser_reads_a_recorded_perfbench_run(bench):
    run = bench.parse_perfbench_output(RECORDED)
    assert run == {
        "workload": "gap-small", "seed": 1, "trace": 0,
        "context": {"line_rule": "all lines of src/gospf/**/*.py; non-blank = not "
                                 "matching ^\\s*$",
                    "nproc": 2, "python": "3.11.7", "src_lines": 2953,
                    "src_nonblank_lines": 2516},
        "sim_digest": ["cfe7dbd70d4ebcb7"], "correct": True,
        "metrics": {"setup_s": 0.008815495999442646, "run_s": 0.4202638200004003,
                    "windows_per_s": 11421.3971595162, "peak_rss_mb": 24.8359375},
    }


@pytest.mark.parametrize("drop", ["workload ", "context ", "sim_digest ", "{"])
def test_parser_rejects_a_run_missing_a_line(bench, drop):
    text = "\n".join(line for line in RECORDED.splitlines() if not line.startswith(drop))
    with pytest.raises(bench.BadOutput):
        bench.parse_perfbench_output(text)


def test_comparison_counts_wins_in_the_metric_direction(bench):
    first = {"runs": {"run_s": [1.0, 1.2, 1.1, 1.3], "windows_per_s": [10.0, 9.0, 11.0, 8.0]}}
    second = {"runs": {"run_s": [0.9, 1.3, 1.0, 1.0], "windows_per_s": [12.0, 9.5, 10.0, 9.0]}}
    report = bench.compare(first, second, {"run_s": "lower", "windows_per_s": "higher"})
    assert report["run_s"]["second_wins"] == 3
    assert report["windows_per_s"]["second_wins"] == 3
    assert report["windows_per_s"]["median_difference"] == pytest.approx(0.75)
    assert report["run_s"]["first_iqr"] == pytest.approx(1.225 - 1.075)


def test_parser_reads_a_recorded_traced_run(bench):
    run = bench.parse_perfbench_output(RECORDED_TRACED)
    assert (run["workload"], run["seed"], run["trace"]) == ("gap-small", 1, 1)
    assert run["sim_digest"] == ["cfe7dbd70d4ebcb7"]
    assert run["correct"] is True
    spec = json.loads((BENCH.parent.parent / "BENCHMARK.json").read_text())
    assert list(run["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert run["metrics"]["traffic.allocate.calls"] == 302.0
    assert run["metrics"]["graph.bfs_hop_counts.calls"] == 420.0


def bench_record(bench, tmp_path, monkeypatch, labels):
    """The record `main` writes for trees named `labels`, each run faked
    with the recorded output, and the trace flag of every run in order."""
    trees = []
    for label in labels:
        tree = tmp_path / label
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
        (tree / "BENCHMARK.json").write_text(
            (BENCH.parent.parent / "BENCHMARK.json").read_text())
        trees += ["--tree", f"{label}={tree}"]
    traces = []

    def fake_run(tree, workload, seconds, trace):
        traces.append(trace)
        return bench.parse_perfbench_output(RECORDED_TRACED if trace else RECORDED)

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--out", str(out), *trees]) == 0
    return json.loads(out.read_text()), traces


def test_per_layer_values_are_recorded_and_not_compared(bench, tmp_path, monkeypatch):
    record, traces = bench_record(bench, tmp_path, monkeypatch, ("parent", "change"))
    # Per workload: the pairs untraced, then one traced run per tree.
    assert traces == ([0] * (2 * bench.PAIRS) + [1, 1]) * len(bench.WORKLOADS)
    traced = bench.parse_perfbench_output(RECORDED_TRACED)["metrics"]
    for label in ("parent", "change"):
        for workload in bench.WORKLOADS:
            entry = record["entries"][label]["workloads"][workload]
            assert entry["per_layer"] == traced
            assert entry["correct"] is True
    for report in record["comparison"]["later"]["change"].values():
        assert set(report) == {"setup_s", "run_s", "windows_per_s", "peak_rss_mb"}


def test_every_later_tree_is_compared_with_the_first(bench, tmp_path, monkeypatch):
    labels = ("parent", "nokey", "change")
    record, traces = bench_record(bench, tmp_path, monkeypatch, labels)
    assert traces == ([0] * (3 * bench.PAIRS) + [1, 1, 1]) * len(bench.WORKLOADS)
    assert set(record["entries"]) == set(labels)
    comparison = record["comparison"]
    assert comparison["first"] == "parent"
    assert set(comparison["later"]) == {"nokey", "change"}
    for later in comparison["later"].values():
        assert set(later) == set(bench.WORKLOADS)
        for report in later.values():
            assert set(report) == {"setup_s", "run_s", "windows_per_s", "peak_rss_mb"}
            # Every tree ran the same recorded output.
            assert report["run_s"]["second_wins"] == 0
            assert report["run_s"]["pairs"] == bench.PAIRS
