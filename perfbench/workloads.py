"""The three benchmark workloads: inputs made from the seed, the simulation
calls that are timed, and the checks on their outputs.

Each workload has the same shape. ``setup()`` builds the inputs and is timed
as ``setup_s``; ``run(inputs)`` makes the simulation calls and is timed as
``run_s``; ``check(inputs, outcome)`` tests the outputs and returns the
``sim_digest``. Every call into gospf goes through the module attribute
(``gospf.cli.main``, ``gospf.engine.run``, ...) so that the traced run sees it.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import traceback
from bisect import bisect_right
from pathlib import Path

import gospf.cli
import gospf.config
import gospf.engine
import gospf.graph
import gospf.oracle
import gospf.traffic

EVENT_KINDS = ("CUT", "GRAFT", "WAKE", "SLEEP", "RESET")


class Tally:
    """Operations attempted and failed. An operation is one CLI command, one
    ``engine.run`` or one ``heuristic_gap`` call; it fails if it raises, if
    a CLI command exits non-zero, or if its output check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def call(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            raise OperationFailed(label) from exc

    def cli(self, label: str, argv: list[str]) -> None:
        """One CLI command in-process; its stdout is discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.call(label, gospf.cli.main, argv)
        if code != 0:
            self.fail(label, f"exit code {code}")
            raise OperationFailed(label)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.reasons.append(f"{label}: {reason}")

    def expect(self, label: str, problems: list[str]) -> None:
        """Count the operation `label` as failed if its check found problems."""
        if problems:
            self.fail(label, "; ".join(problems[:3]))


class OperationFailed(Exception):
    """An operation failed; the rest of the iteration is skipped."""


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def window_count(horizon: float, t_sample: float) -> int:
    """Windows the engine simulates over `horizon` (same rule as the engine)."""
    return int(math.floor(horizon / t_sample + 1e-9))


# ------------------------------------------------------------------ checks

def offered_bits(schedules, t_sample: float, n_windows: int, burst_frac: float):
    """Bits offered in each window by piecewise-constant rate schedules.

    `schedules` is a list of (kind, [(t, bps), ...]). A TCP flow adds
    `burst_frac` of its new rate for one window after each rate increase.
    Written from the traffic model's definition, apart from the engine.
    """
    out = []
    prepared = [(kind, [t for t, _ in steps], [r for _, r in steps])
                for kind, steps in schedules]
    for w in range(n_windows):
        t0 = w * t_sample
        total = 0.0
        for kind, times, rates in prepared:
            i = bisect_right(times, t0) - 1
            if i < 0:
                continue
            rate = rates[i]
            if kind == "tcp":
                prev = rates[i - 1] if i > 0 else 0.0
                if rate > prev and times[i] <= t0 < times[i] + t_sample:
                    rate += burst_frac * rate
            if rate > 0:
                total += rate * t_sample
        out.append(total)
    return out


def window_problems(offered, delivered, dropped, energy, active, min_active) -> list[str]:
    """Bits conserved in every window, cumulative energy never decreasing,
    and at least a spanning tree's worth of links active."""
    problems = []
    if not (len(offered) == len(delivered) == len(dropped) == len(energy) == len(active)):
        return [f"series lengths differ: {len(offered)} offered, {len(delivered)} delivered"]
    for w in range(len(offered)):
        if abs(delivered[w] + dropped[w] - offered[w]) > 1e-9 * max(1.0, offered[w]):
            problems.append(f"window {w}: delivered+dropped != offered")
        if w and energy[w] < energy[w - 1]:
            problems.append(f"window {w}: cumulative energy decreased")
        if active[w] < min_active:
            problems.append(f"window {w}: {active[w]} active links < {min_active}")
    return problems


def event_counts(lines) -> dict[str, int]:
    """CUT/GRAFT/WAKE/SLEEP/RESET counts; FLOOD copies are counted from the
    control bytes instead, so their log lines can change form."""
    counts = dict.fromkeys(EVENT_KINDS, 0)
    for line in lines:
        for field in line.split():
            if field.startswith("event="):
                kind = field[6:]
                if kind in counts:
                    counts[kind] += 1
                break
    return counts


def read_key_values(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return values


def schedules_from_text(text: str):
    """(kind, steps) per flow, in flow-id order, from a traffic file."""
    kinds, steps = {}, {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "flow":
            kinds[int(parts[1])] = parts[4]
            steps[int(parts[1])] = []
        elif parts and parts[0] == "rate":
            steps[int(parts[1])].append((float(parts[2]), float(parts[3])))
    return [(kinds[fid], steps[fid]) for fid in sorted(kinds)]


def random_connected_topology(rng: random.Random, n_nodes: int, extra: int,
                              cap_choices=(1e7, 2e7, 5e7, 1e8)):
    """Random tree plus `extra` chords, capacities drawn from `cap_choices`;
    link ids are 1-based in edge order."""
    nodes = list(range(1, n_nodes + 1))
    edges = []
    for i in range(1, n_nodes):
        edges.append((rng.choice(nodes[:i]), nodes[i]))
    pairs = {tuple(sorted(e)) for e in edges}
    candidates = [(a, b) for a in nodes for b in nodes if a < b and (a, b) not in pairs]
    rng.shuffle(candidates)
    edges.extend(candidates[:extra])
    links = [gospf.graph.Link(i, a, b, float(rng.choice(cap_choices)))
             for i, (a, b) in enumerate(edges, start=1)]
    return gospf.graph.Topology({n: f"n{n}" for n in nodes}, links)


# --------------------------------------------------------------- workloads

class DailyPair:
    """garr48 with the generated daily UDP profile, run the way users run it:
    gen-traffic, run, run --mode baseline, compare, all through cli.main."""

    name = "daily-pair"
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        del seed  # the fixed paper scenario
        self.dir = workdir
        self.tally = tally
        self.topo_text = gospf.graph.bundled_topology_text("garr48")
        cfg = gospf.config.ScenarioConfig()
        self.cfg = cfg
        self.n_windows = window_count(cfg.horizon, cfg.t_sample)
        self.windows = 2 * self.n_windows
        self.traffic_text = None
        self._offered = None

    def setup(self):
        topo = self.dir / "garr48.topo"
        traffic = self.dir / "daily.traffic"
        topo.write_text(self.topo_text)
        self.tally.cli("gen-traffic", ["gen-traffic", "--kind", "daily",
                                       "--topology", str(topo), "--out", str(traffic)])
        return topo, traffic

    def check_setup(self, inputs) -> list[str]:
        text = inputs[1].read_text()
        schedules = schedules_from_text(text)
        self.tally.expect("gen-traffic", [] if len(schedules) == 17 else
                          [f"{len(schedules)} flows, expected 17"])
        if self.traffic_text is None:
            self.traffic_text = text
            self._offered = offered_bits(schedules, self.cfg.t_sample,
                                         self.n_windows, self.cfg.tcp_burst_frac)
        return [] if text == self.traffic_text else ["gen-traffic output changed between set-ups"]

    def run(self, inputs):
        topo, traffic = inputs
        out = {mode: self.dir / mode for mode in ("gospf", "baseline")}
        for mode, directory in out.items():
            self.tally.cli(f"run {mode}", ["run", "--topology", str(topo),
                                           "--traffic", str(traffic), "--mode", mode,
                                           "--out", str(directory)])
        self.tally.cli("compare", ["compare", str(out["gospf"]), str(out["baseline"]),
                                   "--out", str(self.dir)])
        return out

    def check(self, inputs, outcome) -> str:
        n_nodes = sum(line.split()[:1] == ["node"] for line in self.topo_text.splitlines())
        record = {}
        for mode, directory in outcome.items():
            summary = read_key_values((directory / "summary.txt").read_text())
            rows = (directory / "metrics.csv").read_text().splitlines()[1:]
            cols = list(zip(*(row.split(",") for row in rows)))
            ts = self.cfg.t_sample
            active = [int(x) for x in cols[1]]
            problems = window_problems(
                self._offered, [float(x) * ts for x in cols[3]],
                [float(x) for x in cols[6]], [float(x) for x in cols[4]],
                active, n_nodes - 1)
            if float(summary["loss_pct"]) != 0.0:
                problems.append(f"loss_pct={summary['loss_pct']}, expected 0")
            self.tally.expect(f"run {mode}", problems)
            with open(directory / "events.log") as log:
                counts = event_counts(log)
            flood_copies = sum(int(x) for x in cols[5]) // self.cfg.control_msg_bytes
            record[mode] = {"events": counts, "flood_copies": flood_copies,
                            "summary": summary}
        report = read_key_values((self.dir / "comparison.txt").read_text())
        saving = float(report["saving_pct"])
        overhead = float(report["overhead_pct_a"])
        problems = []
        if not 25.0 <= saving <= 45.0:
            problems.append(f"saving_pct={saving} outside [25, 45]")
        if not 0.0 < overhead < 5.0:
            problems.append(f"overhead_pct_a={overhead} outside (0, 5)")
        if float(report["loss_pct_a"]) != 0.0 or float(report["loss_pct_b"]) != 0.0:
            problems.append("non-zero loss")
        self.tally.expect("compare", problems)
        record["comparison"] = report
        return digest(record)


class Churn96:
    """A 96-node topology under 34 jittered midday TCP flows, with two
    spanning-tree link failures, run through engine.run.

    The topology is the one seed 1 generates, whatever the seed: the
    protocol's cut/graft activity depends on the topology so much that one
    seed's topology in eight (seed 7) oscillated into 4,606 CUTs and 553,560
    flood copies, 10x the others, which no run length averages out. The
    seed draws the rate jitter and the failure links.
    """

    name = "churn-96"
    setup_reps = 3
    n_nodes = 96
    chords = 62
    n_flows = 34
    horizon = 240.0
    first_hour, last_hour = 11.0, 16.0
    jitter = 0.15
    topology_seed = 1

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        del workdir
        self.seed = seed
        self.tally = tally
        self.cfg = gospf.config.parse_config(f"horizon={self.horizon!r}")
        self.windows = window_count(self.cfg.horizon, self.cfg.t_sample)
        self.fingerprint = None
        self._offered = None

    def setup(self):
        topo = random_connected_topology(random.Random(self.topology_seed),
                                         self.n_nodes, self.chords)
        rng = random.Random(self.seed)
        day = gospf.config.ScenarioConfig().horizon
        profile = gospf.traffic.generate_traffic(topo, "daily", self.n_flows, 0.4, day,
                                                 flavor="tcp")
        flows = []
        seconds = int(self.horizon)
        for fid in sorted(profile.flows):
            base = profile.flows[fid]
            flow = gospf.traffic.Flow(fid, base.src, base.dst, "tcp")
            for k in range(seconds):
                hour = self.first_hour + (self.last_hour - self.first_hour) * k / seconds
                rate = base.rate_at(hour / 24.0 * day)
                rate *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
                flow.add_step(float(k), float(int(rate)))
            flows.append(flow)
        failures = self._failure_links(rng, topo)
        return gospf.engine.Scenario(
            topo, gospf.traffic.TrafficMatrix(flows, self.horizon), self.cfg,
            link_failures=((0.3 * self.horizon, failures[0]),
                           (0.6 * self.horizon, failures[1])))

    @staticmethod
    def _failure_links(rng: random.Random, topo) -> tuple[int, int]:
        """Two spanning-tree links whose joint loss leaves the graph connected."""
        tree = sorted(gospf.graph.compute_mcst(topo).edges)
        rng.shuffle(tree)
        links = frozenset(topo.links)
        for i, first in enumerate(tree):
            for second in tree[i + 1:]:
                if gospf.graph.is_connected(topo, links - {first, second}):
                    return first, second
        raise gospf.graph.DisconnectedTopology("every pair of tree links cuts the graph")

    def check_setup(self, scenario) -> list[str]:
        fingerprint = (scenario.fingerprint(), scenario.link_failures)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            schedules = [(f.kind, f.schedule) for _, f in sorted(scenario.traffic.flows.items())]
            self._offered = offered_bits(schedules, self.cfg.t_sample, self.windows,
                                         self.cfg.tcp_burst_frac)
        return [] if fingerprint == self.fingerprint else ["set-up changed between repetitions"]

    def run(self, scenario):
        return self.tally.call("engine.run", gospf.engine.run, scenario)

    def check(self, scenario, result) -> str:
        m = result.metrics
        ts = self.cfg.t_sample
        problems = window_problems(self._offered, [x * ts for x in m.throughput_bps],
                                   m.dropped_bits, m.energy_j, m.active_links,
                                   len(scenario.topology.nodes) - 1)
        self.tally.expect("engine.run", problems)
        return digest({"events": event_counts(result.events),
                       "flood_copies": m.ctrl_bytes_total // self.cfg.control_msg_bytes,
                       "summary": read_key_values(m.summary_text())})


class GapSmall:
    """Seeded small scenarios, each scored window by window against the exact
    solver through oracle.heuristic_gap."""

    name = "gap-small"
    setup_reps = 30
    count = 60
    horizon = 16.0
    # Each flow's rate stays within 0.17 of the smallest capacity, so even all
    # four flows on one link stay under alpha * capacity: every window has a
    # feasible design and the solver never raises Infeasible.
    max_rate_share = 0.17

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        del workdir
        self.seed = seed
        self.tally = tally
        self.cfg = gospf.config.parse_config(f"horizon={self.horizon!r}")
        self.windows = self.count * window_count(self.cfg.horizon, self.cfg.t_sample)
        self.rows = self.rows_below_one = 0
        self.fingerprints = None

    def setup(self):
        rng = random.Random(self.seed)
        scenarios = []
        for i in range(self.count):
            # Sizes cycle through the range so every seed gets the same mix of
            # solver sizes; only the structure and the traffic are random.
            n_nodes = 5 + i % 5
            chords = 2 + i % 2
            topo = random_connected_topology(rng, n_nodes, chords, (1e7, 2e7, 5e7))
            min_cap = min(link.capacity for link in topo.links.values())
            flows = []
            for fid in range(1, 4 + i % 2):
                src, dst = rng.sample(list(topo.nodes), 2)
                flow = gospf.traffic.Flow(fid, src, dst, "udp")
                for step in range(4):
                    rate = rng.uniform(0.02, self.max_rate_share) * min_cap
                    flow.add_step(step * self.horizon / 4, float(int(rate)))
                flows.append(flow)
            scenarios.append(gospf.engine.Scenario(
                topo, gospf.traffic.TrafficMatrix(flows, self.horizon), self.cfg))
        return scenarios

    def check_setup(self, scenarios) -> list[str]:
        fingerprints = [s.fingerprint() for s in scenarios]
        if self.fingerprints is None:
            self.fingerprints = fingerprints
        return [] if fingerprints == self.fingerprints else ["set-up changed between repetitions"]

    def run(self, scenarios):
        return [self.tally.call("heuristic_gap", gospf.oracle.heuristic_gap, s)
                for s in scenarios]

    def check(self, scenarios, outcome) -> str:
        """Every scored window must be feasible with a finite, positive ratio.

        A ratio below 1 is counted, not failed: the solver minimises power
        plus routing cost, and routing cost outweighs link power by orders of
        magnitude, so its optimum can power more links than the heuristic's
        tree (seed 2: 158 of 4,737 scored windows).
        """
        record = []
        self.rows = self.rows_below_one = 0
        for rows in outcome:
            problems = [] if rows else ["no scored windows"]
            for row in rows:
                if not row.feasible:
                    problems.append(f"window {row.window} infeasible")
                if not 0.0 < row.gap_ratio < math.inf:
                    problems.append(f"window {row.window} gap_ratio {row.gap_ratio}")
            self.tally.expect("heuristic_gap", problems)
            self.rows += len(rows)
            self.rows_below_one += sum(row.gap_ratio < 1.0 for row in rows)
            record.append(gospf.oracle.gap_csv(rows))
        return digest(record)


WORKLOADS = {w.name: w for w in (DailyPair, Churn96, GapSmall)}
