"""gospf benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload daily-pair --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of stdout is a JSON object holding
the end-to-end metrics, measured with tracing off. With ``--trace 1`` it
holds the per-layer metrics of a traced run, which alternates untraced and
traced iterations to report the tracing overhead. Lines before the last one
give the context, the sim_digest, sample counts and fail_ratio.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027


def import_gospf():
    """Import the package from this checkout, never from elsewhere."""
    if not (SRC / "gospf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gospf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gospf

    if Path(gospf.__file__).resolve().parent != SRC / "gospf":
        sys.exit(f"perfbench: imported gospf from {gospf.__file__}, not {SRC}")


def source_lines() -> dict:
    total = nonblank = 0
    for path in sorted((SRC / "gospf").rglob("*.py")):
        lines = path.read_text().splitlines()
        total += len(lines)
        nonblank += sum(1 for line in lines if line.strip())
    return {"src_lines": total, "src_nonblank_lines": nonblank,
            "line_rule": "all lines of src/gospf/**/*.py; non-blank = not matching ^\\s*$"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


class Session:
    """One benchmark run of one workload."""

    def __init__(self, workload_cls, seed: int, workdir: Path):
        from workloads import Tally

        self.tally = Tally()
        self.workload = workload_cls(seed, workdir, self.tally)
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def setup(self):
        inputs, seconds = timed(self.workload.setup)
        self.problems += self.workload.check_setup(inputs)
        return inputs, seconds

    def run(self, inputs):
        outcome, seconds = timed(self.workload.run, inputs)
        return self.check(inputs, outcome), seconds

    def check(self, inputs, outcome) -> str:
        from workloads import OperationFailed

        try:
            sim_digest = self.workload.check(inputs, outcome)
        except Exception as exc:  # malformed output: report it, keep measuring
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"output check raised {type(exc).__name__}: {exc}")
            raise OperationFailed("check") from exc
        self.digests.add(sim_digest)
        return sim_digest


def measure(session: Session, seconds: float):
    from workloads import OperationFailed

    setups, runs = [], []
    inputs = None
    for _ in range(session.workload.setup_reps):
        try:
            inputs, dt = session.setup()
            setups.append(dt)
        except OperationFailed:
            pass
    if inputs is None:
        return setups, runs
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        try:
            _digest, dt = session.run(inputs)
            runs.append(dt)
        except OperationFailed:
            if time.perf_counter() - start >= seconds:
                break
    return setups, runs


def measure_traced(session: Session, seconds: float):
    """Alternate untraced and traced iterations; each traced iteration traces
    a fresh set-up and the run on its inputs. Checks run outside the traced
    block, so every span lies inside a root span."""
    from tracing import Tracer, traced
    from workloads import OperationFailed

    tracer = Tracer()
    untraced, traced_runs = [], []
    try:
        inputs, _ = session.setup()
    except OperationFailed:
        return tracer, untraced, traced_runs
    setup_span = tracer.wrap("bench.setup", session.workload.setup)
    run_span = tracer.wrap("bench.run", session.workload.run)
    start = time.perf_counter()
    while not traced_runs or time.perf_counter() - start < seconds:
        try:
            plain_digest, dt = session.run(inputs)
            untraced.append(dt)
            with traced(tracer):
                traced_inputs = setup_span()
                outcome, dt = timed(run_span, traced_inputs)
            traced_runs.append(dt)
            session.problems += session.workload.check_setup(traced_inputs)
            traced_digest = session.check(traced_inputs, outcome)
        except OperationFailed:
            if time.perf_counter() - start >= seconds:
                break
            continue
        if traced_digest != plain_digest:
            session.problems.append("traced sim_digest differs from the untraced one")
    return tracer, untraced, traced_runs


def per_layer_metrics(session: Session, tracer, untraced, traced_runs) -> dict:
    n = max(1, tracer.calls("bench.run"))
    counters = tracer.counters

    def calls(name):
        return tracer.calls(name) / n

    def secs(name):
        return tracer.total_s(name) / n

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    self_s = {layer: s / n for layer, s in tracer.self_s_by_layer().items()}
    root_s = secs("bench.setup") + secs("bench.run")
    self_sum = sum(self_s.values())
    if abs(self_sum - root_s) > 0.01 * root_s:
        session.problems.append(f"self times sum to {self_sum} s, root spans to {root_s} s")
    untraced_s = statistics.median(untraced) if untraced else 0.0
    traced_s = statistics.median(traced_runs) if traced_runs else 0.0
    workload = session.workload
    values = {
        "engine.run.calls": (calls("engine.run"), "count"),
        "engine.run.s": (secs("engine.run"), "s"),
        "engine.windows": (counters.get("engine.windows", 0) / n, "count"),
        "engine.quiesced_ratio": (ratio(counters.get("engine.quiesced", 0),
                                        counters.get("engine.windows", 0)), "ratio"),
        "engine.flood_copies": (counters.get("engine.flood_copies", 0) / n, "count"),
        "traffic.allocate.calls": (calls("traffic.allocate"), "count"),
        "traffic.allocate.s": (secs("traffic.allocate"), "s"),
        "traffic.generate_traffic.s": (secs("traffic.generate_traffic"), "s"),
        "traffic.place_flows.s": (secs("traffic.place_flows"), "s"),
        "traffic.parse_traffic.s": (secs("traffic.parse_traffic"), "s"),
        "traffic.write_traffic.s": (secs("traffic.write_traffic"), "s"),
        "graph.parse_topology.s": (secs("graph.parse_topology"), "s"),
    }
    for caller in ("engine", "protocol", "traffic"):
        name = f"graph.shortest_paths.{caller}"
        values[f"{name}.calls"] = (calls(name), "count")
        values[f"{name}.s"] = (secs(name), "s")
    for name in ("graph.compute_mcst", "graph.is_connected", "graph.bfs_hop_counts",
                 "energy.accrue", "protocol.sample_tick", "protocol.handle_message",
                 "oracle.solve_static"):
        values[f"{name}.calls"] = (calls(name), "count")
        values[f"{name}.s"] = (secs(name), "s")
    solves = tracer.calls("oracle.solve_static")
    scored = counters.get("oracle.scored_windows", 0)
    gap_rows = getattr(workload, "rows", 0)
    values.update({
        "energy.total_network_energy.s": (secs("energy.total_network_energy"), "s"),
        "protocol.handle_message.fresh_ratio": (
            ratio(counters.get("protocol.handle_message.fresh", 0),
                  tracer.calls("protocol.handle_message")), "ratio"),
        "protocol.complete_reset_if_due.s": (secs("protocol.complete_reset_if_due"), "s"),
        "protocol.routing_table.calls": (calls("protocol.routing_table"), "count"),
        "oracle.heuristic_gap.s": (secs("oracle.heuristic_gap"), "s"),
        "oracle.cache_hit_ratio": (1.0 - solves / scored if scored else 0.0, "ratio"),
        "oracle.check_flow_feasibility.s": (secs("oracle.check_flow_feasibility"), "s"),
        "oracle.gap_rows_per_s": (ratio(gap_rows, untraced_s), "1/s"),
        "cli.main.s": (secs("cli.main"), "s"),
    })
    for layer in ("engine", "traffic", "graph", "energy", "protocol", "oracle", "cli",
                  "bench"):
        values[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    values.update({
        "trace.root_s": (root_s, "s"),
        "trace.untraced_run_s": (untraced_s, "s"),
        "trace.traced_run_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    return values


def describe(name, samples):
    if not samples:
        return f"{name}: no samples"
    return (f"{name}: median {statistics.median(samples):.6g} s, "
            f"min {min(samples):.6g}, max {max(samples):.6g}, n={len(samples)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["daily-pair", "churn-96", "gap-small"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed iterations run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_gospf()
    from workloads import WORKLOADS  # needs gospf on sys.path

    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            tracer, untraced, traced_runs = measure_traced(session, args.seconds)
            layer_values = per_layer_metrics(session, tracer, untraced, traced_runs)
            samples = {"untraced run_s": untraced, "traced run_s": traced_runs}
        else:
            setups, runs = measure(session, args.seconds)
            samples = {"setup_s": setups, "run_s": runs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    tally, workload = session.tally, session.workload
    context = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
               **source_lines()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    print("sim_digest " + (",".join(sorted(session.digests)) or "none"))
    for name, values in samples.items():
        print(describe(name, values))
    print(f"fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted if tally.attempted else 1.0:.6g}")
    if len(session.digests) > 1:
        session.problems.append("sim_digest changed between iterations")
    for reason in tally.reasons[:10] + session.problems[:10]:
        print(f"problem: {reason}")

    if args.trace:
        self_sum = sum(v for name, (v, _unit) in layer_values.items() if name.endswith(".self_s"))
        print(f"self times sum to {self_sum:.6g} s; root spans take "
              f"{layer_values['trace.root_s'][0]:.6g} s")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_values.items()}
    else:
        setup_s = statistics.median(setups) if setups else 0.0
        run_s = statistics.median(runs) if runs else 0.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "windows_per_s": {"value": workload.windows / run_s if run_s else 0.0,
                              "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        if args.workload == "gap-small" and run_s:
            print(f"gap_rows_per_s: {workload.rows / run_s:.6g} 1/s "
                  f"({workload.rows} scored windows per iteration, "
                  f"{workload.rows_below_one} with gap_ratio < 1)")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    correct = (tally.attempted > 0 and tally.failed == 0 and not session.problems
               and bool(session.digests))
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
