"""Run the three perfbench workloads on one or more source trees and write a
BENCH json file with their medians, sim_digests, source line counts and the
host.

    python3 scripts/bench.py --out BENCH_new.json --tree parent=../parent \
        --tree change=.

Each `--tree LABEL=PATH` names a source checkout holding `perfbench/run.py`
and `src/`. Every workload runs at seed 1 for the `run_seconds` that the last
tree's BENCHMARK.json fixes, in 10 pairs: one run of each tree per pair, and
the tree that goes first alternates from pair to pair, so that a slow spell
on a shared host hits every tree alike. After the pairs, each tree makes one
`--trace 1` run of the workload, whose per-layer values are recorded as they
are and not compared. The file also records every later tree against the
first: per workload and end-to-end metric, how many pairs the later tree
won, the median of the per-pair differences and the first tree's
interquartile range. Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("daily-pair", "churn-96", "gap-small")
SEED = 1
PAIRS = 10


class BadOutput(ValueError):
    pass


def parse_perfbench_output(text: str) -> dict:
    """The workload, context, sim_digest, correctness and metric values of
    one `perfbench/run.py` run, read from its stdout."""
    lines = text.strip().splitlines()
    header = next((line.split() for line in lines if line.startswith("workload ")), None)
    context = next((line for line in lines if line.startswith("context ")), None)
    digest = next((line for line in lines if line.startswith("sim_digest ")), None)
    if header is None or context is None or digest is None:
        raise BadOutput("missing the workload, context or sim_digest line")
    if len(header) != 6 or header[2] != "seed" or header[4] != "trace":
        raise BadOutput(f"unexpected workload line: {' '.join(header)}")
    try:
        result = json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        return {"workload": header[1], "seed": int(header[3]), "trace": int(header[5]),
                "context": json.loads(context[len("context "):]),
                "sim_digest": digest[len("sim_digest "):].split(","),
                "correct": result["correct"], "metrics": metrics}
    except (ValueError, KeyError, TypeError) as exc:
        raise BadOutput(f"unreadable metrics: {exc}") from None


def run_perfbench(tree: Path, workload: str, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    return parse_perfbench_output(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(first: dict, second: dict, better: dict[str, str]) -> dict:
    """Per metric: the second tree's wins over the pairs, the median of the
    per-pair differences (second minus first) and the first's IQR."""
    report = {}
    for name, direction in better.items():
        a, b = first["runs"][name], second["runs"][name]
        diffs = [y - x for x, y in zip(a, b)]
        wins = sum(d < 0 if direction == "lower" else d > 0 for d in diffs)
        q1, q3 = quartiles(a)
        report[name] = {"better": direction, "second_wins": wins, "pairs": len(diffs),
                        "median_difference": statistics.median(diffs),
                        "first_iqr": q3 - q1}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH")
    args = parser.parse_args(argv)

    trees = []
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--tree {spec!r}: expected LABEL=PATH to a checkout with perfbench")
        trees.append((label, Path(path).resolve()))
    bench_spec = json.loads((trees[-1][1] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench_spec["end_to_end"]}
    seconds = bench_spec["run_seconds"]

    entries = {label: {"workloads": {}} for label, _ in trees}
    for workload in WORKLOADS:
        runs = {label: [] for label, _ in trees}
        for pair in range(PAIRS):
            order = trees if pair % 2 == 0 else trees[::-1]
            for label, path in order:
                runs[label].append(run_perfbench(path, workload, seconds, 0))
                print(f"{workload} pair {pair + 1}/{PAIRS} {label}: "
                      f"{runs[label][-1]['metrics']}", file=sys.stderr)
        traced = {label: run_perfbench(path, workload, seconds, 1) for label, path in trees}
        for label, done in runs.items():
            values = {name: [run["metrics"][name] for run in done] for name in better}
            entries[label]["context"] = done[0]["context"]
            entries[label]["workloads"][workload] = {
                "sim_digest": sorted({d for run in done + [traced[label]]
                                      for d in run["sim_digest"]}),
                "correct": all(run["correct"] for run in done + [traced[label]]),
                "median": {name: statistics.median(v) for name, v in values.items()},
                "runs": values,
                "per_layer": traced[label]["metrics"],
            }
    record = {
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "machine": platform.machine(), "system": platform.system()},
        "method": {"seed": SEED, "seconds": seconds, "pairs": PAIRS, "trace": 0,
                   "order": "alternating, first tree first in even pairs",
                   "per_layer": "one --trace 1 run per tree after the pairs, not compared"},
        "entries": entries,
    }
    first = trees[0][0]
    record["comparison"] = {
        "first": first,
        "later": {label: {w: compare(entries[first]["workloads"][w], entry["workloads"][w],
                                     better)
                          for w in WORKLOADS}
                  for label, entry in entries.items() if label != first}}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
