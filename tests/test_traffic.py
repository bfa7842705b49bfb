import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gospf.traffic
from gospf.graph import compute_mcst, ospf_costs, shortest_paths
from gospf.traffic import (AllocationResult, Flow, OutOfHorizon, TrafficError,
                           TrafficMatrix, allocate, generate_traffic, parse_traffic,
                           place_flows, write_traffic)

from conftest import make_topology, random_connected_topology


def constant_flow(fid, src, dst, rate, kind="udp"):
    flow = Flow(fid, src, dst, kind)
    flow.add_step(0.0, rate)
    return flow


# --------------------------------------------------------------- demand_at

def test_demand_before_first_breakpoint_is_initial_rate():
    flow = Flow(1, 1, 2, "udp")
    flow.add_step(10.0, 5e6)
    matrix = TrafficMatrix([flow], horizon=100.0)
    assert matrix.demand_at(0.0, 0.2, 0.01)[1] == 0.0
    assert matrix.demand_at(10.0, 0.2, 0.01)[1] == 5e6


def test_demand_constant_flow():
    matrix = TrafficMatrix([constant_flow(1, 1, 2, 3e6)], horizon=100.0)
    for t in (0.0, 17.3, 99.9):
        assert matrix.demand_at(t, 0.2, 0.01)[1] == 3e6


def test_demand_out_of_horizon():
    matrix = TrafficMatrix([constant_flow(1, 1, 2, 3e6)], horizon=10.0)
    with pytest.raises(OutOfHorizon):
        matrix.demand_at(11.0, 0.2, 0.01)


def test_demand_aggregate_shared_bottleneck():
    # 3M + 6M joining a pre-existing 3M and 0.5M arrangement hits 9M on the
    # shared segment once the two new flows start.
    flows = [constant_flow(1, 9, 2, 3e6), constant_flow(2, 7, 5, 6e6)]
    matrix = TrafficMatrix(flows, horizon=100.0)
    rates = matrix.demand_at(50.0, 0.2, 0.01)
    assert rates[1] + rates[2] == pytest.approx(9e6)


def test_tcp_burst_applies_for_one_window():
    flow = Flow(1, 1, 2, "tcp")
    flow.add_step(0.0, 1e6)
    flow.add_step(10.0, 2e6)
    matrix = TrafficMatrix([flow], horizon=100.0)
    window = 0.2
    with_burst = matrix.demand_at(10.0, window, 0.01)
    assert with_burst[1] == pytest.approx(2e6 + 0.01 * 2e6)
    after = matrix.demand_at(10.0 + window, window, 0.01)
    assert after[1] == pytest.approx(2e6)


def test_udp_has_no_burst():
    flow = Flow(1, 1, 2, "udp")
    flow.add_step(0.0, 1e6)
    flow.add_step(10.0, 2e6)
    matrix = TrafficMatrix([flow], horizon=100.0)
    assert matrix.demand_at(10.0, 0.2, 0.01)[1] == pytest.approx(2e6)


def test_rate_decrease_never_bursts():
    flow = Flow(1, 1, 2, "tcp")
    flow.add_step(0.0, 2e6)
    flow.add_step(10.0, 1e6)
    matrix = TrafficMatrix([flow], horizon=100.0)
    assert matrix.demand_at(10.0, 0.2, 0.01)[1] == pytest.approx(1e6)


# -------------------------------------------------------- demand change walk

@st.composite
def demand_walks(draw):
    """A t_sample, a window count and UDP/TCP rate schedules whose
    breakpoints lie on window starts (`w * t_sample`, as the engine computes
    them), on their 6-digit roundings (as `generate_traffic` writes them),
    or anywhere in the run."""
    ts = draw(st.sampled_from((0.2, 0.3, 0.02)))
    n_windows = draw(st.integers(min_value=1, max_value=80))
    window_index = st.integers(min_value=0, max_value=n_windows)
    breakpoint_time = st.one_of(window_index.map(lambda w: w * ts),
                                window_index.map(lambda w: round(w * ts, 6)),
                                st.floats(min_value=0.0, max_value=n_windows * ts))
    schedules = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        times = sorted(draw(st.lists(breakpoint_time, max_size=6, unique=True)))
        rates = draw(st.lists(st.sampled_from((0.0, 1e6, 2e6, 5e6)),
                              min_size=len(times), max_size=len(times)))
        schedules.append((draw(st.sampled_from(("udp", "tcp"))), list(zip(times, rates))))
    return ts, n_windows, schedules


@settings(max_examples=200, deadline=None)
@given(demand_walks())
# ROADMAP item 5: window 3 starts at 3 * 0.3 = 0.8999999999999999, so the
# step at t=0.9 lands in window 4 and its TCP burst is dropped. The walk
# must keep that, as demand_at does.
@example((0.3, 8, [("tcp", [(0.0, 1e6), (0.9, 2e6)])]))
def test_demand_walk_matches_demand_at_in_every_window(case):
    ts, n_windows, schedules = case
    flows = []
    for fid, (kind, schedule) in enumerate(schedules, start=1):
        flow = Flow(fid, 1, 2, kind)
        for t, rate in schedule:
            flow.add_step(t, rate)
        flows.append(flow)
    matrix = TrafficMatrix(flows, horizon=n_windows * ts)
    walk = list(matrix.window_demands(n_windows, ts, 0.01))
    assert len(walk) == n_windows
    for w, rates in enumerate(walk):
        assert rates == matrix.demand_at(w * ts, ts, 0.01), f"window {w}"


def test_demand_walk_raises_where_demand_at_does():
    matrix = TrafficMatrix([constant_flow(1, 1, 2, 3e6)], horizon=1.0)
    walk = matrix.window_demands(10, 0.2, 0.01)
    for _w in range(6):  # window 5 starts at 5 * 0.2 = 1.0, the horizon
        assert next(walk) == {1: 3e6}
    with pytest.raises(OutOfHorizon):
        next(walk)


# ---------------------------------------------------------------- allocate

def run_allocate(topo, flow_specs, window=1.0, usable=None):
    """flow_specs: (fid, rate, src, dst); paths via full-graph routing."""
    active = frozenset(topo.links)
    usable = active if usable is None else usable
    caps = {lid: l.capacity for lid, l in topo.links.items()}
    flow_paths = []
    for fid, rate, src, dst in flow_specs:
        table = shortest_paths(topo, active, src, ospf_costs(topo))
        flow_paths.append((fid, rate, table.paths.get(dst)))
    return allocate(flow_paths, caps, usable, window, topo.link_between)


def test_single_flow_under_capacity_no_drops():
    topo = make_topology([(1, 2), (2, 3)], 1e7)
    result = run_allocate(topo, [(1, 5e6, 1, 3)])
    assert result.dropped_bits == 0.0
    assert result.delivered_bits == pytest.approx(5e6)
    assert result.link_bits == pytest.approx({1: 5e6, 2: 5e6})


def test_two_flows_proportional_split():
    # Both flows share link 1 (10M) and then part: each keeps 10/16 of its
    # bits, which the two downstream links show.
    topo = make_topology([(1, 2), (2, 3), (2, 4)], 1e7)
    result = run_allocate(topo, [(1, 12e6, 1, 3), (2, 4e6, 1, 4)])
    assert result.offered_bits == pytest.approx(16e6)
    assert result.delivered_bits == pytest.approx(10e6)
    assert result.dropped_bits == pytest.approx(6e6)
    assert result.link_bits == pytest.approx({1: 10e6, 2: 7.5e6, 3: 2.5e6})


def test_middle_link_overflow_propagates_downstream():
    # 1-2 (10M), 2-3 (5M), 3-4 (10M); 8 Mbit/s flow over one second:
    # the middle link delivers 5M and the downstream link sees only that.
    topo = make_topology([(1, 2), (2, 3), (3, 4)], [1e7, 5e6, 1e7])
    result = run_allocate(topo, [(1, 8e6, 1, 4)])
    assert result.link_bits == pytest.approx({1: 8e6, 2: 5e6, 3: 5e6})
    assert result.offered_bits == pytest.approx(8e6)
    assert result.delivered_bits == pytest.approx(5e6)
    assert result.dropped_bits == pytest.approx(3e6)


def test_unusable_link_drops_at_that_hop():
    topo = make_topology([(1, 2), (2, 3)], 1e7)
    result = run_allocate(topo, [(1, 4e6, 1, 3)], usable=frozenset({1}))
    assert result.link_bits[1] == pytest.approx(4e6)
    assert result.link_bits[2] == 0.0
    assert result.delivered_bits == 0.0
    assert result.dropped_bits == pytest.approx(4e6)


def test_no_route_flow_counts_dropped():
    topo = make_topology([(1, 2)], 1e7)
    caps = {1: 1e7}
    result = allocate([(1, 2e6, None)], caps, frozenset({1}), 1.0,
                      topo.link_between)
    assert result.link_bits == {}
    assert result.offered_bits == pytest.approx(2e6)
    assert result.delivered_bits == 0.0
    assert result.dropped_bits == pytest.approx(2e6)


def test_totals_add_left_to_right():
    # 1e16 + 1 rounds back to 1e16, twice; a compensated sum, as `sum` is
    # from Python 3.12, would give 1.0000000000000002e16.
    topo = make_topology([(1, 2)], 1e7)
    flows = [(1, 1e16, None), (2, 1.0, None), (3, 1.0, None)]
    result = allocate(flows, {1: 1e7}, frozenset({1}), 1.0, topo.link_between)
    assert result.dropped_bits == 1e16
    # With no flow, a total is the int 0 that `sum([])` gives, which
    # metrics.csv writes as "0".
    empty = allocate([], {1: 1e7}, frozenset({1}), 1.0, topo.link_between)
    assert repr(empty.dropped_bits) == "0"


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=5))
def test_bit_conservation_per_flow(seed, n_flows):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, 6, 3)
    specs = []
    nodes = list(topo.nodes)
    for fid in range(1, n_flows + 1):
        src, dst = rng.sample(nodes, 2)
        specs.append((fid, rng.uniform(0, 2e7), src, dst))
    result = run_allocate(topo, specs)
    offered = sum(rate for _fid, rate, _s, _d in specs)
    assert result.offered_bits == pytest.approx(offered, rel=1e-9)
    assert result.delivered_bits + result.dropped_bits == \
        pytest.approx(offered, rel=1e-9)
    for spec in specs:  # each flow alone conserves its own bits
        alone = run_allocate(topo, [spec])
        assert alone.delivered_bits + alone.dropped_bits == \
            pytest.approx(spec[1], rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_zero_loss_when_under_capacity(seed):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, 6, 3)
    min_cap = min(l.capacity for l in topo.links.values())
    nodes = list(topo.nodes)
    specs = []
    for fid in range(1, 4):
        src, dst = rng.sample(nodes, 2)
        specs.append((fid, rng.uniform(0, min_cap / 6), src, dst))
    result = run_allocate(topo, specs)
    assert result.dropped_bits == 0.0


def test_allocation_order_independent():
    topo = make_topology([(1, 2), (2, 3)], [1e7, 5e6])
    specs = [(1, 6e6, 1, 3), (2, 3e6, 2, 3), (3, 1e6, 1, 2)]
    forward = run_allocate(topo, specs)
    backward = run_allocate(topo, list(reversed(specs)))
    assert forward.link_bits == pytest.approx(backward.link_bits)
    assert forward.delivered_bits == pytest.approx(backward.delivered_bits)
    assert forward.dropped_bits == pytest.approx(backward.dropped_bits)


def test_capacity_never_exceeded():
    # Every flow crosses its links in the direction 1->2->3, so a link's
    # bits are those of its one loaded direction.
    topo = make_topology([(1, 2), (2, 3), (3, 1)], [1e7, 5e6, 2e6])
    specs = [(1, 9e6, 1, 3), (2, 9e6, 2, 3), (3, 9e6, 1, 2)]
    result = run_allocate(topo, specs, window=2.0)
    assert set(result.link_bits) == {1, 2}
    for lid, bits in result.link_bits.items():
        assert bits <= topo.links[lid].capacity * 2.0 + 1e-6


def iterative_allocate(flow_paths, capacities, usable, window, pair_link):
    """`allocate` as it was before its one-pass round 0: every call builds
    each path's hops and runs the fixed-point loop."""
    walks = []  # (bits, [(arc, link_id), ...])
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
        walks.append((bits, [((u, v), pair_link(u, v)) for u, v in zip(path, path[1:])]))

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

    link_bits: dict[int, float] = {}
    for bits, arcs in walks:
        r = bits
        for arc, lid in arcs:
            r *= scale[arc]
            link_bits[lid] = link_bits.get(lid, 0.0) + r
        delivered.append(r)
        dropped.append(bits - r)
    return AllocationResult(link_bits=link_bits, offered_bits=offered_total,
                            delivered_bits=sum(delivered), dropped_bits=sum(dropped))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_allocate_matches_the_iterative_reference(seed):
    # Several draws on one topology share one hop cache, as the calls of one
    # run do. Routes come from random views, so some cross unusable links
    # and some are None, and rates fall on both sides of capacity.
    rng = random.Random(seed)
    topo = random_connected_topology(rng, rng.randint(4, 10), rng.randint(0, 4))
    caps = {lid: link.capacity for lid, link in topo.links.items()}
    costs = ospf_costs(topo)
    nodes = list(topo.nodes)
    hops_of = {}
    for _draw in range(4):
        usable = frozenset(lid for lid in topo.links if rng.random() < 0.85)
        view = frozenset(lid for lid in topo.links if rng.random() < 0.9)
        window = rng.choice((0.2, 1.0))
        flow_paths = []
        for fid in range(1, rng.randint(1, 8) + 1):
            src, dst = rng.sample(nodes, 2)
            path = shortest_paths(topo, view, src, costs).paths.get(dst)
            if rng.random() < 0.1:
                path = None
            share = rng.choice((0.05, 0.3, 0.9, 1.6))
            rate = share * rng.uniform(0.5, 1.0) * rng.choice(list(caps.values()))
            flow_paths.append((fid, rate, path))
        got = allocate(flow_paths, caps, usable, window, topo.link_between, hops_of)
        want = iterative_allocate(flow_paths, caps, usable, window, topo.link_between)
        assert list(got.link_bits.items()) == list(want.link_bits.items())
        assert got.offered_bits == want.offered_bits
        assert got.delivered_bits == want.delivered_bits
        assert got.dropped_bits == want.dropped_bits


# ------------------------------------------------------------------ parser

TRAFFIC_TEXT = """# demo
flow 1 3 17 udp
flow 2 5 9 tcp
rate 1 0 1500000
rate 1 60 2500000
rate 2 0 100000
"""


def test_parse_and_round_trip():
    matrix = parse_traffic(TRAFFIC_TEXT)
    assert set(matrix.flows) == {1, 2}
    assert matrix.flows[2].kind == "tcp"
    again = parse_traffic(write_traffic(matrix))
    assert again.flows[1].schedule == matrix.flows[1].schedule
    assert again.flows[2].kind == "tcp"


def test_parse_rejects_unknown_flow_rate():
    with pytest.raises(TrafficError, match="line 1"):
        parse_traffic("rate 7 0 100\n")


def test_parse_rejects_bad_kind():
    with pytest.raises(TrafficError):
        parse_traffic("flow 1 1 2 sctp\n")


def test_parse_rejects_nonincreasing_breakpoints():
    with pytest.raises(TrafficError):
        parse_traffic("flow 1 1 2 udp\nrate 1 5 10\nrate 1 5 20\n")


def test_flow_src_equals_dst_rejected():
    with pytest.raises(TrafficError):
        TrafficMatrix([constant_flow(1, 2, 2, 1e6)])


# --------------------------------------------------------------- generator

def test_generate_daily_is_deterministic(garr48):
    a = write_traffic(generate_traffic(garr48, "daily", 17, 0.4, 1440.0))
    b = write_traffic(generate_traffic(garr48, "daily", 17, 0.4, 1440.0))
    assert a == b


def test_generate_daily_shape_peaks_midday(garr48):
    matrix = generate_traffic(garr48, "daily", 17, 0.4, 1440.0)
    flow = matrix.flows[1]
    rates = dict(flow.schedule)
    peak = max(rates.values())
    assert rates[0.0] < peak
    # midday plateau (12:00-15:00 maps to 720..900 s of the 1440 s day)
    assert flow.rate_at(800.0) == peak
    assert flow.rate_at(1400.0) < peak


def test_generate_weekly_weekend_attenuated(garr48):
    matrix = generate_traffic(garr48, "weekly", 17, 0.4, 1440.0)
    flow = matrix.flows[1]
    day = 1440.0 / 7
    weekday_peak = max(r for t, r in flow.schedule if t < day)
    weekend_peak = max(r for t, r in flow.schedule if t >= 5 * day)
    assert weekend_peak < weekday_peak


def test_generate_17_flows_cover_distinct_endpoints(garr48):
    matrix = generate_traffic(garr48, "daily", 17, 0.4, 1440.0)
    assert len(matrix.flows) == 17
    endpoints = [n for f in matrix.flows.values() for n in (f.src, f.dst)]
    assert len(set(endpoints)) == len(endpoints)


def test_generate_tcp_flavor_marks_flows_and_spikes(garr48):
    udp = generate_traffic(garr48, "daily", 17, 0.4, 1440.0, flavor="udp")
    tcp = generate_traffic(garr48, "daily", 17, 0.4, 1440.0, flavor="tcp")
    assert all(f.kind == "tcp" for f in tcp.flows.values())
    udp_total = sum(r for f in udp.flows.values() for _, r in f.schedule)
    tcp_total = sum(r for f in tcp.flows.values() for _, r in f.schedule)
    assert tcp_total > udp_total


def test_generate_tree_peak_stays_under_capacity(garr48):
    # All traffic on the spanning tree alone must fit within every link.
    matrix = generate_traffic(garr48, "daily", 17, 0.4, 1440.0)
    tree = compute_mcst(garr48)
    loads = {}
    for flow in matrix.flows.values():
        peak = max(r for _, r in flow.schedule)
        table = shortest_paths(garr48, tree.edges, flow.src, ospf_costs(garr48))
        for u, v in zip(table.paths[flow.dst], table.paths[flow.dst][1:]):
            lid = garr48.link_between(u, v)
            loads[lid] = loads.get(lid, 0.0) + peak
    for lid, load in loads.items():
        assert load <= 0.95 * garr48.links[lid].capacity


def test_generate_rejects_bad_args(garr48):
    with pytest.raises(TrafficError):
        generate_traffic(garr48, "hourly", 17, 0.4, 1440.0)
    with pytest.raises(TrafficError):
        generate_traffic(garr48, "daily", 0, 0.4, 1440.0)
    for peak_util in (0.0, -0.4, math.nan):
        with pytest.raises(TrafficError, match="peak utilization must be positive"):
            generate_traffic(garr48, "daily", 17, peak_util, 1440.0)


def test_generate_rejects_too_many_flows():
    topo = make_topology([(1, 2), (2, 3)], 1e7)
    with pytest.raises(TrafficError, match="ordered node pairs"):
        generate_traffic(topo, "daily", 7, 0.4, 1440.0)


# ------------------------------------------------------------ flow placement

def full_scan_place_flows(topology, count, ref_bandwidth=1e8):
    """The greedy as it was before the lazy heap: rebuild every pair's link
    set and rescan all available pairs on every pick."""
    costs = ospf_costs(topology, ref_bandwidth)
    tables = {n: shortest_paths(topology, frozenset(topology.links), n, costs)
              for n in topology.node_ids}
    pair_paths = {(s, d): tables[s].paths[d]
                  for s in topology.node_ids for d in topology.node_ids if s != d}

    def path_links(path):
        return {topology.link_between(u, v) for u, v in zip(path, path[1:])}

    covered = set()
    endpoint_use = {}
    chosen = []
    available = set(pair_paths)
    for _ in range(count):
        best_key = None
        best_pair = None
        for pair in sorted(available):
            links = path_links(pair_paths[pair])
            reuse = endpoint_use.get(pair[0], 0) + endpoint_use.get(pair[1], 0)
            key = (-reuse, len(links - covered), len(links), -pair[0], -pair[1])
            if best_key is None or key > best_key:
                best_key = key
                best_pair = pair
        chosen.append(best_pair)
        available.discard(best_pair)
        covered |= path_links(pair_paths[best_pair])
        for node in best_pair:
            endpoint_use[node] = endpoint_use.get(node, 0) + 1
    return chosen


@st.composite
def placement_cases(draw):
    n = draw(st.integers(min_value=5, max_value=30))
    topo = random_connected_topology(random.Random(draw(st.integers(0, 10_000))),
                                     n, draw(st.integers(min_value=0, max_value=n)))
    return topo, draw(st.integers(min_value=1, max_value=n * (n - 1)))


@settings(max_examples=40, deadline=None)
@given(placement_cases())
def test_place_flows_picks_as_the_full_scan_greedy(case):
    topo, count = case
    assert place_flows(topo, count) == full_scan_place_flows(topo, count)


def test_place_flows_garr48_golden(garr48):
    # Recorded with the full-scan greedy.
    assert place_flows(garr48, 17) == [
        (24, 48), (7, 40), (11, 26), (27, 38), (28, 29), (9, 39), (31, 43),
        (2, 47), (17, 32), (33, 34), (14, 35), (22, 36), (23, 37), (19, 44),
        (20, 45), (41, 46), (15, 42)]


def test_place_flows_rejects_more_flows_than_pairs():
    topo = random_connected_topology(random.Random(3), 6, 2)
    assert len(place_flows(topo, 30)) == 30
    with pytest.raises(TrafficError) as info:
        place_flows(topo, 31)
    assert str(info.value) == "cannot place 31 flows over 30 ordered node pairs"


def test_generate_computes_one_table_per_node_and_source(garr48, monkeypatch):
    # One full-graph table per node serves both the placement and the flow
    # weights; only the tree tables of the flow sources come on top.
    calls = []
    original = gospf.traffic.shortest_paths

    def shortest_paths_counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(gospf.traffic, "shortest_paths", shortest_paths_counted)
    matrix = generate_traffic(garr48, "daily", 17, 0.4, 1440.0)
    sources = {flow.src for flow in matrix.flows.values()}
    assert len(sources) == 17
    assert len(calls) == len(garr48.nodes) + len(sources) == 65
