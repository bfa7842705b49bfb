"""Time-varying traffic demands, fluid load allocation, and profile generation."""

import heapq
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce

from .graph import Topology, compute_mcst, ospf_costs, shortest_paths


def ordered_sum(values) -> float:
    """`sum(values)` as Python 3.11 and earlier compute it: 0, then each
    float added in order, each add rounded. From 3.12 `sum` compensates."""
    return reduce(operator.add, values, 0)


class TrafficError(ValueError):
    pass


class OutOfHorizon(TrafficError):
    pass


@dataclass
class Flow:
    """One demand: piecewise-constant rate schedule between a node pair."""

    flow_id: int
    src: int
    dst: int
    kind: str  # "udp" | "tcp"
    schedule: list[tuple[float, float]] = field(default_factory=list)  # (t, bits/s)

    def add_step(self, t: float, rate: float) -> None:
        if not (math.isfinite(t) and math.isfinite(rate)):
            raise TrafficError(f"flow {self.flow_id}: non-finite breakpoint "
                               f"t={t} rate={rate}")
        if rate < 0:
            raise TrafficError(f"flow {self.flow_id}: negative rate at t={t}")
        if self.schedule and t <= self.schedule[-1][0]:
            raise TrafficError(f"flow {self.flow_id}: breakpoints must increase")
        self.schedule.append((t, rate))

    def rate_at(self, t: float) -> float:
        """Piecewise-constant base rate; 0 before the first breakpoint."""
        if not self.schedule:
            return 0.0
        idx = bisect_right(self.schedule, (t, math.inf)) - 1
        if idx < 0:
            return 0.0
        return self.schedule[idx][1]

    def burst_at(self, t: float, window: float, burst_frac: float) -> float:
        """TCP signaling burst: burst_frac of the new rate for one window after
        each rate-increase breakpoint."""
        if self.kind != "tcp" or not self.schedule:
            return 0.0
        idx = bisect_right(self.schedule, (t, math.inf)) - 1
        if idx < 0:
            return 0.0
        t_break, rate = self.schedule[idx]
        prev = self.schedule[idx - 1][1] if idx > 0 else 0.0
        if rate > prev and t_break <= t < t_break + window:
            return burst_frac * rate
        return 0.0


class TrafficMatrix:
    """Set of flows, keyed by flow id."""

    def __init__(self, flows=(), horizon: float = math.inf):
        self.flows: dict[int, Flow] = {}
        self.horizon = horizon
        for flow in flows:
            self.add_flow(flow)

    def add_flow(self, flow: Flow) -> None:
        if flow.flow_id in self.flows:
            raise TrafficError(f"duplicate flow id {flow.flow_id}")
        if flow.src == flow.dst:
            raise TrafficError(f"flow {flow.flow_id}: src equals dst")
        self.flows[flow.flow_id] = flow

    def demand_at(self, t: float, window: float, burst_frac: float) -> dict[int, float]:
        """Per-flow rate at time t, in flow-id order. TCP flows carry their
        signaling burst during the window following each rate increase."""
        if not (0 <= t <= self.horizon):
            raise OutOfHorizon(f"t={t} outside [0, {self.horizon}]")
        return {fid: flow.rate_at(t) + flow.burst_at(t, window, burst_frac)
                for fid, flow in sorted(self.flows.items())}

    def change_times(self, window: float) -> list[float]:
        """Sorted times at which `demand_at(t, window, ...)` can change:
        each breakpoint, each TCP burst end `t_break + window` (the sum
        `burst_at` compares against), and the first float past the horizon,
        where `demand_at` starts to raise."""
        times = {math.nextafter(self.horizon, math.inf)}
        for flow in self.flows.values():
            for t_break, _rate in flow.schedule:
                times.add(t_break)
                if flow.kind == "tcp":
                    times.add(t_break + window)
        return sorted(times)

    def window_demands(self, n_windows: int, window: float, burst_frac: float):
        """`demand_at(w * window, window, burst_frac)` for windows 0 to
        n_windows - 1. `demand_at` runs in window 0 and in each window whose
        start reaches the next change time (`t <= t0`, as `bisect_right`
        compares); every other window gets the previous dict again."""
        times = self.change_times(window) + [math.inf]
        i = 0
        rates = None
        for w in range(n_windows):
            t0 = w * window
            if rates is None or times[i] <= t0:
                while times[i] <= t0:
                    i += 1
                rates = self.demand_at(t0, window, burst_frac)
            yield rates


@dataclass
class AllocationResult:
    link_bits: dict[int, float]  # per undirected link, both directions summed
    offered_bits: float
    delivered_bits: float
    dropped_bits: float


def allocate(flow_paths, capacities: dict[int, float], usable,
             window: float, pair_link, hops_of=None) -> AllocationResult:
    """Fluid allocation of flows onto their single paths.

    `flow_paths` is a list of (flow_id, rate_bps, path) where path is a node
    tuple or None for unroutable flows. On any overloaded directed link every
    flow crossing it is scaled by the same factor, and downstream links see
    only the surviving share. Links outside `usable` carry nothing (scale 0).

    `hops_of` caches each path's ((u, v), link_id) hops by path; callers
    that allocate on one topology many times pass the same dict each time.
    """
    if hops_of is None:
        hops_of = {}
    walks = []  # (bits, ((arc, link_id), ...))
    offered_total = 0.0
    # Per-flow delivered and dropped bits: unroutable flows first, then the
    # walks in order. The totals are summed in this order.
    delivered: list[float] = []
    dropped: list[float] = []

    for _fid, rate, path in flow_paths:
        bits = rate * window
        offered_total += bits
        if path is None or len(path) < 2:
            delivered.append(0.0)
            dropped.append(bits)
            continue
        hops = hops_of.get(path)
        if hops is None:
            hops = hops_of[path] = tuple(((u, v), pair_link(u, v))
                                         for u, v in zip(path, path[1:]))
        walks.append((bits, hops))

    link_bits = _unscaled(walks, capacities, usable, window)
    if link_bits is not None:
        delivered += [bits for bits, _hops in walks]
        dropped += [0.0] * len(walks)
        return AllocationResult(link_bits, offered_total, ordered_sum(delivered),
                                ordered_sum(dropped))

    scale: dict[tuple[int, int], float] = {}
    cap_bits = {}
    for _bits, arcs in walks:
        for arc, lid in arcs:
            scale.setdefault(arc, 1.0 if lid in usable else 0.0)
            cap_bits[arc] = capacities[lid] * window

    for _round in range(200):
        arrivals: dict[tuple[int, int], float] = {arc: 0.0 for arc in scale}
        for bits, arcs in walks:
            r = bits
            for arc, _lid in arcs:
                arrivals[arc] += r
                r *= scale[arc]
        delta = 0.0
        for arc, arr in arrivals.items():
            if scale[arc] == 0.0:
                continue
            new = 1.0 if arr <= cap_bits[arc] else cap_bits[arc] / arr
            delta = max(delta, abs(new - scale[arc]))
            scale[arc] = new
        if delta <= 1e-15:
            break

    link_bits = {}
    for bits, arcs in walks:
        r = bits
        for arc, lid in arcs:
            r *= scale[arc]
            link_bits[lid] = link_bits.get(lid, 0.0) + r
        delivered.append(r)
        dropped.append(bits - r)
    return AllocationResult(link_bits, offered_total, ordered_sum(delivered),
                            ordered_sum(dropped))


def _unscaled(walks, capacities, usable, window):
    """Round 0 of `allocate`'s fixed point in one pass, when it is the last:
    every arc usable, so every flow keeps all its bits, and no arc's
    arrivals over capacity, so every scale stays 1.0 (and `r * 1.0 == r`).
    Returns the per-link bits, summed in walk order, or None as soon as
    some arc is unusable or its running arrivals exceed its capacity."""
    arrivals = {}
    link_bits = {}
    for bits, hops in walks:
        for arc, lid in hops:
            arrived = arrivals[arc] = arrivals.get(arc, 0.0) + bits
            if lid not in usable or not arrived <= capacities[lid] * window:
                return None
            link_bits[lid] = link_bits.get(lid, 0.0) + bits
    return link_bits


def parse_traffic(text: str, horizon: float = math.inf) -> TrafficMatrix:
    """Parse the line-oriented traffic format.

    flow <id> <src> <dst> <udp|tcp>
    rate <flow_id> <t_seconds> <bps>
    """
    matrix = TrafficMatrix(horizon=horizon)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "flow":
                if len(parts) != 5 or parts[4] not in ("udp", "tcp"):
                    raise ValueError("expected: flow <id> <src> <dst> <udp|tcp>")
                matrix.add_flow(Flow(int(parts[1]), int(parts[2]), int(parts[3]), parts[4]))
            elif parts[0] == "rate":
                if len(parts) != 4:
                    raise ValueError("expected: rate <flow_id> <t> <bps>")
                fid = int(parts[1])
                if fid not in matrix.flows:
                    raise ValueError(f"rate line for unknown flow {fid}")
                matrix.flows[fid].add_step(float(parts[2]), float(parts[3]))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (ValueError, TrafficError) as exc:
            raise TrafficError(f"line {lineno}: {exc}") from None
    return matrix


def write_traffic(matrix: TrafficMatrix) -> str:
    out = []
    for fid in sorted(matrix.flows):
        flow = matrix.flows[fid]
        out.append(f"flow {fid} {flow.src} {flow.dst} {flow.kind}")
    for fid in sorted(matrix.flows):
        for t, rate in matrix.flows[fid].schedule:
            out.append(f"rate {fid} {t:g} {rate:g}")
    return "\n".join(out) + "\n"


# Weekday rate factors for the weekly profile (Mon..Sun); weekend attenuated.
WEEKLY_FACTORS = (1.0, 0.97, 1.0, 0.98, 0.96, 0.55, 0.45)

# Base fraction of the peak rate carried during the night trough.
TROUGH_FRACTION = 0.12

# The busiest spanning-tree link must stay below capacity while all traffic
# rides the tree, with headroom for signalling; the generator clamps to this.
TREE_PEAK_CAP = 0.93

# With every link powered the busiest link must sit safely under the default
# graft threshold, so congestion episodes always resolve.
FULL_PEAK_CAP = 0.72

# Connection-burst spikes for TCP flavored profiles: (hour-of-day, factor).
TCP_SPIKES = ((9.0, 1.25), (10.5, 1.25), (11.5, 1.25))


def daily_shape(hour: float) -> float:
    """Normalized daily load: night trough, morning rise, midday plateau,
    evening fall. Returns a value in [TROUGH_FRACTION, 1]."""
    h = hour % 24.0
    if h < 6.0:
        bump = 0.0
    elif h < 12.0:
        bump = 0.5 * (1.0 - math.cos(math.pi * (h - 6.0) / 6.0))
    elif h < 15.0:
        bump = 1.0
    else:
        bump = 0.5 * (1.0 + math.cos(math.pi * (h - 15.0) / 9.0))
    return TROUGH_FRACTION + (1.0 - TROUGH_FRACTION) * bump


def full_graph_tables(topology: Topology, ref_bandwidth: float = 1e8):
    """One full-graph routing table per node, keyed by node id."""
    full = frozenset(topology.links)
    costs = ospf_costs(topology, ref_bandwidth)
    return {n: shortest_paths(topology, full, n, costs) for n in topology.node_ids}


def place_flows(topology: Topology, count: int, ref_bandwidth: float = 1e8,
                tables=None) -> list[tuple[int, int]]:
    """Deterministic greedy placement of (src, dst) pairs maximizing link
    coverage of full-graph shortest paths, spreading endpoints round-robin.

    `tables` are the full-graph routing tables per node, as
    `full_graph_tables` returns them; they are computed when omitted.

    Each pick takes the pair with the largest key (-endpoint reuse, newly
    covered links, path links, -src, -dst). A pick never raises another
    pair's key and no two keys tie, so a heap of possibly stale keys picks
    as a full scan would (lazy greedy): the top pair is taken when its
    recomputed key equals the stored one, else pushed back with the new key.
    """
    if tables is None:
        tables = full_graph_tables(topology, ref_bandwidth)
    pair_links: dict[tuple[int, int], frozenset[int]] = {}
    for s in topology.node_ids:
        for d in topology.node_ids:
            if s != d:
                path = tables[s].paths[d]
                pair_links[(s, d)] = frozenset(
                    topology.link_between(u, v) for u, v in zip(path, path[1:]))

    if count > len(pair_links):
        raise TrafficError(
            f"cannot place {count} flows over {len(pair_links)} ordered node pairs")
    covered: set[int] = set()
    endpoint_use: dict[int, int] = {}
    chosen: list[tuple[int, int]] = []

    def heap_key(pair):
        # The negated selection key. Endpoint reuse is the last resort: piling
        # several flows onto one node can pin its sole uplink above the graft
        # threshold forever.
        links = pair_links[pair]
        reuse = endpoint_use.get(pair[0], 0) + endpoint_use.get(pair[1], 0)
        return (reuse, -len(links - covered), -len(links), pair[0], pair[1])

    heap = [heap_key(pair) for pair in pair_links]
    heapq.heapify(heap)
    while len(chosen) < count:
        stored = heapq.heappop(heap)
        pair = stored[3:]
        key = heap_key(pair)
        if key != stored:
            heapq.heappush(heap, key)
            continue
        chosen.append(pair)
        covered |= pair_links[pair]
        for node in pair:
            endpoint_use[node] = endpoint_use.get(node, 0) + 1
    return chosen


def generate_traffic(topology: Topology, kind: str, count: int, peak_util: float,
                     horizon: float, flavor: str = "udp", steps_per_day: int = 96,
                     ref_bandwidth: float = 1e8) -> TrafficMatrix:
    """Build a deterministic synthetic daily or weekly profile.

    Flows are scaled so the mean peak-hour utilization over loaded links under
    full-graph routing equals `peak_util`, then clamped so no spanning-tree
    link would exceed TREE_PEAK_CAP of its capacity when all traffic rides the
    tree alone.
    """
    if kind not in ("daily", "weekly"):
        raise TrafficError(f"unknown profile kind {kind!r}")
    if flavor not in ("udp", "tcp"):
        raise TrafficError(f"unknown flavor {flavor!r}")
    if count < 1:
        raise TrafficError("flow count must be >= 1")
    if not peak_util > 0:
        raise TrafficError("peak utilization must be positive")

    full_tables = full_graph_tables(topology, ref_bandwidth)
    pairs = place_flows(topology, count, tables=full_tables)
    tree = compute_mcst(topology)
    costs = ospf_costs(topology, ref_bandwidth)
    tree_tables = {s: shortest_paths(topology, tree.edges, s, costs)
                   for s in sorted({s for s, _ in pairs})}

    def bottleneck(path):
        return min(topology.links[topology.link_between(u, v)].capacity
                   for u, v in zip(path, path[1:]))

    weights = [bottleneck(full_tables[s].paths[d]) for s, d in pairs]

    def peak_loads(tables):
        loads: dict[int, float] = {}
        for (s, d), w in zip(pairs, weights):
            for u, v in zip(tables[s].paths[d], tables[s].paths[d][1:]):
                lid = topology.link_between(u, v)
                loads[lid] = loads.get(lid, 0.0) + w
        return loads

    full_loads = peak_loads(full_tables)
    utils = [load / topology.links[lid].capacity for lid, load in sorted(full_loads.items())]
    mean_util_per_scale = ordered_sum(utils) / len(utils)
    max_full_per_scale = max(utils)
    scale = peak_util / mean_util_per_scale

    tree_loads = peak_loads(tree_tables)
    max_tree_per_scale = max(load / topology.links[lid].capacity
                             for lid, load in sorted(tree_loads.items()))
    scale = min(scale, TREE_PEAK_CAP / max_tree_per_scale,
                FULL_PEAK_CAP / max_full_per_scale)

    days = 1 if kind == "daily" else 7
    day_len = horizon / days
    step = day_len / steps_per_day

    matrix = TrafficMatrix(horizon=horizon)
    for idx, ((s, d), w) in enumerate(zip(pairs, weights), start=1):
        flow = Flow(idx, s, d, flavor)
        peak_rate = scale * w
        for day in range(days):
            factor = 1.0 if kind == "daily" else WEEKLY_FACTORS[day]
            for k in range(steps_per_day):
                t = day * day_len + k * step
                hour = 24.0 * k / steps_per_day
                rate = peak_rate * factor * daily_shape(hour)
                if flavor == "tcp":
                    for spike_hour, spike_factor in TCP_SPIKES:
                        if spike_hour <= hour < spike_hour + 24.0 / steps_per_day:
                            rate *= spike_factor
                flow.add_step(round(t, 6), float(int(rate)))
        matrix.add_flow(flow)
    return matrix
