import collections
import contextlib
import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gospf.engine
import gospf.protocol
from gospf.config import ConfigError, ScenarioConfig, parse_config
from gospf.energy import ONE, EnergyLedger, OperationalState, exact
from gospf.engine import (GospfController, MetricsSeries, MismatchedScenarios,
                          RunResult, Scenario, Window, compare, run)
from gospf.graph import Topology, compute_mcst, is_connected
from gospf.protocol import GospfNode
from gospf.traffic import Flow, TrafficMatrix, allocate, generate_traffic

from conftest import (fresh_awake_ports, make_topology, random_connected_topology,
                      tick_memo_off)

DEFAULT_POWERS = dict(p_active=1.0, p_idle=0.8, p_sleep=0.016)


def empty_traffic(horizon=60.0):
    return TrafficMatrix([], horizon=horizon)


def constant_flow(fid, src, dst, rate, start=0.0):
    flow = Flow(fid, src, dst, "udp")
    if start > 0:
        flow.add_step(0.0, 0.0)
    flow.add_step(start, rate)
    return flow


def scenario(topo, matrix=None, failures=(), **keys):
    text = "\n".join(f"{k}={v}" for k, v in keys.items())
    cfg = parse_config(text) if text else ScenarioConfig()
    return Scenario(topo, matrix if matrix is not None else
                    empty_traffic(cfg.horizon), cfg, tuple(failures))


# ----------------------------------------------------------- basic running

def test_zero_traffic_cuts_to_tree(garr48):
    result = run(scenario(garr48, horizon=10.0))
    metrics = result.metrics
    assert metrics.active_links[0] == 47
    assert all(n == 47 for n in metrics.active_links)
    assert metrics.loss_pct == 0.0


def test_baseline_keeps_everything_active(garr48):
    result = run(scenario(garr48, horizon=10.0, mode="baseline"))
    metrics = result.metrics
    assert all(n == 78 for n in metrics.active_links)
    assert metrics.avg_active_links == 78.0
    assert result.events == []


def test_runs_are_byte_identical(garr48):
    flow = constant_flow(1, 30, 1, 2e7, start=2.0)
    a = run(scenario(garr48, TrafficMatrix([flow], 20.0), horizon=20.0))
    flow = constant_flow(1, 30, 1, 2e7, start=2.0)
    b = run(scenario(garr48, TrafficMatrix([flow], 20.0), horizon=20.0))
    assert a.events == b.events
    assert a.metrics.csv_text() == b.metrics.csv_text()
    assert a.metrics.summary_text() == b.metrics.summary_text()


def test_gospf_energy_below_baseline():
    rng = random.Random(7)
    topo = random_connected_topology(rng, 8, 5)
    flow = constant_flow(1, 1, 8, 1e6)
    g = run(scenario(topo, TrafficMatrix([flow], 30.0), horizon=30.0))
    b = run(scenario(topo, TrafficMatrix([flow], 30.0), horizon=30.0,
                     mode="baseline"))
    assert g.metrics.congestion_unresolved == 0
    assert g.metrics.total_energy_j < b.metrics.total_energy_j


def test_energy_accrues_linearly_when_idle():
    topo = make_topology([(1, 2)], 1e7, **DEFAULT_POWERS)
    result = run(scenario(topo, horizon=10.0, mode="baseline"))
    # two interfaces idle for 10 s at 0.8 W
    assert result.metrics.total_energy_j == pytest.approx(2 * 0.8 * 10.0)


def test_time_bucket_conservation(garr48):
    flow = constant_flow(1, 30, 1, 2e7)
    res = run(scenario(garr48, TrafficMatrix([flow], 10.0), horizon=10.0))
    assert res.metrics.times[-1] == pytest.approx(10.0 - 0.2)
    for acct in res.accounts.values():
        elapsed = acct.t_active + acct.t_idle + acct.t_sleep
        assert elapsed == pytest.approx(10.0, abs=1e-9)
    total = sum(acct.energy_j for acct in res.accounts.values())
    assert total == pytest.approx(res.metrics.total_energy_j)


def test_gospf_without_cuts_matches_baseline_exactly(garr48):
    # gamma_l=0 disables cutting (utilization is never strictly below zero),
    # so the protocol run must consume exactly the baseline energy.
    flow = constant_flow(1, 30, 1, 2e7)
    g = run(scenario(garr48, TrafficMatrix([flow], 10.0), horizon=10.0,
                     gamma_l=0.0))
    b = run(scenario(garr48, TrafficMatrix([flow], 10.0), horizon=10.0,
                     mode="baseline"))
    assert g.metrics.total_energy_j == b.metrics.total_energy_j
    assert g.events == []


# ------------------------------------------------------------- connectivity

def test_connectivity_held_every_window():
    rng = random.Random(3)
    for seed in range(5):
        topo = random_connected_topology(random.Random(seed), 10, 6)
        nodes = list(topo.nodes)
        flows = []
        for fid in range(1, 4):
            src, dst = rng.sample(nodes, 2)
            flows.append(constant_flow(fid, src, dst, 5e5))
        run(scenario(topo, TrafficMatrix(flows, 20.0), horizon=20.0))
        # run() asserts spanning connectivity internally each window


# ------------------------------------------------------------ link failures

def test_mcst_failure_triggers_reset_and_new_tree(garr48):
    tree = compute_mcst(garr48)
    failed = min(tree.edges)
    res = run(scenario(garr48, horizon=20.0, failures=[(5.0, failed)]))
    events = "\n".join(res.events)
    assert "event=RESET" in events
    new_tree = compute_mcst(garr48, exclude=frozenset({failed}))
    assert len(new_tree.edges) == 47
    assert failed not in new_tree.edges
    # after the reset settles the network is back at 47 active links
    assert res.metrics.active_links[-1] == 47


def test_nontree_failure_does_not_reset(garr48):
    tree = compute_mcst(garr48)
    failed = min(set(garr48.links) - tree.edges)
    res = run(scenario(garr48, horizon=10.0, failures=[(5.0, failed)]))
    assert "event=RESET" not in "\n".join(res.events)


def test_bridge_failure_is_reported_clearly():
    from gospf.graph import DisconnectedTopology

    topo = make_topology([(1, 2), (2, 3), (3, 1), (3, 4)], 1e7)
    with pytest.raises(DisconnectedTopology, match="partitioned"):
        run(scenario(topo, horizon=10.0, failures=[(2.0, 4)]))


# ------------------------------------------------------------------ compare

def series(mode, energies, fp="x"):
    m = MetricsSeries(mode=mode, fingerprint=fp, t_sample=0.2, horizon=1.0)
    m.energy_j = list(energies)
    m.windows = [Window(frozenset({1}), (), 0, 0.0, 0.0, 0.0, 0, True)] * len(energies)
    return m


def test_compare_identical_series_zero_saving():
    a = series("gospf", [1.0, 2.0])
    b = series("baseline", [1.0, 2.0])
    assert compare(a, b).saving_pct == 0.0


def test_compare_reported_energy_figures():
    # reference figures: 2035.94 J versus 3121.38 J give 34.8% saving
    a = series("gospf", [2035.94])
    b = series("baseline", [3121.38])
    report = compare(a, b)
    assert report.saving_pct == pytest.approx(34.8, abs=0.05)


def test_compare_all_sleep_closed_form():
    # idle-dominated baseline vs everything asleep: saving = 1 - Ps/Pi
    p_idle, p_sleep = 0.8, 0.016
    hours = 100.0
    a = series("gospf", [2 * p_sleep * hours])
    b = series("baseline", [2 * p_idle * hours])
    assert compare(a, b).saving_pct == pytest.approx((1 - p_sleep / p_idle) * 100)


def test_compare_rejects_mismatched_scenarios():
    a = series("gospf", [1.0], fp="aaa")
    b = series("baseline", [2.0], fp="bbb")
    with pytest.raises(MismatchedScenarios):
        compare(a, b)


def test_fingerprint_ignores_mode(garr48):
    sa = scenario(garr48, horizon=5.0)
    sb = scenario(garr48, horizon=5.0, mode="baseline")
    assert sa.fingerprint() == sb.fingerprint()
    sc = scenario(garr48, horizon=6.0)
    assert sc.fingerprint() != sa.fingerprint()


# ------------------------------------------------------------------- config

def test_config_rejects_swapped_thresholds():
    with pytest.raises(ConfigError):
        parse_config("gamma_u=0.2\ngamma_l=0.8\n")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("nonsense=1\n")


def test_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        parse_config("mode=turbo\n")


def test_config_defaults():
    cfg = ScenarioConfig()
    cfg.validate()
    assert cfg.safeguard == pytest.approx(2.0)
    assert cfg.gamma_u == 0.8 and cfg.gamma_l == 0.2


def test_config_safeguard_follows_t_sample():
    cfg = parse_config("t_sample=0.02\n")
    assert cfg.safeguard == pytest.approx(0.2)


def test_config_explicit_safeguard_wins():
    cfg = parse_config("t_sample=0.02\nsafeguard_interval=1.5\n")
    assert cfg.safeguard == 1.5


def test_engine_rejects_unknown_flow_endpoint():
    topo = make_topology([(1, 2)], 1e7)
    flow = constant_flow(1, 1, 9, 1e6)
    with pytest.raises(ConfigError):
        run(scenario(topo, TrafficMatrix([flow], 5.0), horizon=5.0))


def test_engine_rejects_excessive_latency():
    topo = make_topology([(1, 2), (2, 3)], 1e7)
    with pytest.raises(ConfigError):
        run(scenario(topo, horizon=5.0, control_latency=0.15))


def test_latency_check_uses_the_hop_diameter():
    # On the path 4-2-1-3-5 the lowest node, 1, is at most 2 hops from any
    # other, but the ends are 4 hops apart: 0.045 * (4 + 2) = 0.27 > 0.2.
    topo = make_topology([(4, 2), (2, 1), (1, 3), (3, 5)], 1e7)
    with pytest.raises(ConfigError, match="control_latency too large"):
        run(scenario(topo, horizon=1.0, t_sample=0.2, control_latency=0.045))
    # 0.033 * (4 + 2) = 0.198 fits.
    run(scenario(topo, horizon=1.0, t_sample=0.2, control_latency=0.033))


def test_latency_check_searches_past_the_node_count_bound(monkeypatch):
    # A star of 9 nodes: 0.045 * (9 + 1) = 0.45 > 0.2, so the node count
    # does not clear the check and every node is searched, but the diameter
    # is 2 hops and 0.045 * (2 + 2) = 0.18 fits.
    sources = []
    original = gospf.engine.bfs_hop_counts

    def counted(topology, source, active):
        sources.append(source)
        return original(topology, source, active)

    monkeypatch.setattr(gospf.engine, "bfs_hop_counts", counted)
    topo = make_topology([(1, leaf) for leaf in range(2, 10)], 1e7)
    result = run(scenario(topo, horizon=1.0, t_sample=0.2, control_latency=0.045))
    assert sources == list(range(1, 10))
    assert len(result.metrics.times) == 5


# ------------------------------------------------------------------ metrics

def test_metrics_csv_shape(garr48):
    res = run(scenario(garr48, horizon=2.0))
    lines = res.metrics.csv_text().splitlines()
    assert lines[0] == "t,active_links,power_w,throughput_bps,energy_j,ctrl_bytes,dropped_bits"
    assert len(lines) == 1 + len(res.metrics.times)


def test_summary_keys(garr48):
    res = run(scenario(garr48, horizon=2.0))
    text = res.metrics.summary_text()
    for key in ("total_energy_j=", "avg_active_links=", "loss_pct=",
                "overhead_pct=", "fingerprint=", "mode="):
        assert key in text


def test_overhead_counts_control_bytes(garr48):
    res = run(scenario(garr48, TrafficMatrix(
        [constant_flow(1, 30, 1, 2e7)], 10.0), horizon=10.0))
    assert res.metrics.ctrl_bytes_total > 0
    assert res.metrics.overhead_pct > 0


# ---------------------------------------------------------- golden outputs

def stepped_flow(fid, src, dst, steps, kind="udp"):
    flow = Flow(fid, src, dst, kind)
    for t, rate in steps:
        flow.add_step(t, rate)
    return flow


def cut_graft_scenario(**keys):
    topo = random_connected_topology(random.Random(5), 8, 6)
    flows = [stepped_flow(1, 1, 8, [(0.0, 1e6), (4.0, 9e6), (8.0, 5e5)]),
             stepped_flow(2, 3, 6, [(0.0, 2e6), (6.0, 8e6), (10.0, 0.0)], "tcp")]
    return scenario(topo, TrafficMatrix(flows, 14.0), horizon=14.0, **keys)


def baseline_failure_scenario():
    sc = cut_graft_scenario(mode="baseline")
    nontree = min(set(sc.topology.links) - compute_mcst(sc.topology).edges)
    return Scenario(sc.topology, sc.traffic, sc.config, ((5.0, nontree),))


def tree_failure_scenario(garr48):
    flows = [stepped_flow(1, 30, 1, [(0.0, 2e7)]),
             stepped_flow(2, 5, 40, [(0.0, 1e6), (8.0, 3e7)])]
    failed = min(compute_mcst(garr48).edges)
    return scenario(garr48, TrafficMatrix(flows, 20.0), failures=[(5.0, failed)],
                    horizon=20.0)


def output_digest(result):
    blob = (result.metrics.csv_text() + "\n".join(result.events)
            + result.metrics.summary_text())
    return hashlib.sha256(blob.encode()).hexdigest()


def counted_digest(result):
    """The metrics csv, the summary, the event lines and the sorted per-link
    flood copy counts. Recorded when every copy was still an event line,
    with the counts parsed from those lines."""
    floods = ",".join(f"{lid}:{n}" for lid, n in sorted(result.flood_copies.items()))
    blob = (result.metrics.csv_text() + result.metrics.summary_text()
            + "\n".join(result.events) + "\n" + floods)
    return hashlib.sha256(blob.encode()).hexdigest()


def event_kinds(result):
    return {line.split()[2] for line in result.events}


def test_golden_gospf_cuts_and_grafts():
    result = run(cut_graft_scenario())
    assert {"event=CUT", "event=GRAFT", "event=WAKE"} <= event_kinds(result)
    # Re-recorded when energies became exact sums rounded once: only the
    # power_w and energy_j columns and total_energy_j moved.
    assert counted_digest(result) == \
        "6da8ff6fbf959854a6866b392164ba7ffb3f873e60bf29e12d3a8525521f50f8"


# With no latency every copy of a tick arrives at the same time, so the heap
# interleaves hop rounds by (origin, seq, receiver); the copy count differs
# from the run above.
def test_golden_gospf_cuts_and_grafts_at_zero_latency():
    result = run(cut_graft_scenario(control_latency=0.0))
    assert sum(result.flood_copies.values()) == 246
    # Re-recorded when energies became exact sums rounded once: only the
    # power_w and energy_j columns and total_energy_j moved.
    assert counted_digest(result) == \
        "d711749a0b7de4e104818108c04977f0fcb641a78cc98e91c43515f3ce9a5320"


# Digest of the outputs before per-window results were reused, re-recorded
# when energies became exact sums rounded once: only the power_w and
# energy_j columns and total_energy_j moved.
def test_golden_baseline_with_failure():
    result = run(baseline_failure_scenario())
    assert output_digest(result) == \
        "0cf47ae342013ca9cd548b0f7e9d10d210d1624dc0f1e84c9878db89240597fa"


def test_golden_tree_failure_and_reset(garr48):
    result = run(tree_failure_scenario(garr48))
    assert "event=RESET" in event_kinds(result)
    # Re-recorded when energies became exact sums rounded once: only the
    # power_w and energy_j columns and total_energy_j moved.
    assert counted_digest(result) == \
        "3fb4ba58902fe062ac3e07b51a28727164a97e4cd76f3e9210ce40e2fe0b3658"


def test_forced_bridge_sleep_breaks_the_spanning_invariant(monkeypatch, no_tick_memo):
    # Link 4 is the only link to node 4. Sleeping it mid-run through the
    # protocol hooks must drop the engine's cached active set, so the
    # connectivity check sees the new set and fails. The rate step at t=3
    # makes the window that ends at 3.2 tick; steady windows are replayed
    # without a tick. The fault is patched into sample_tick, which the tick
    # memo cannot see, so every tick runs in full.
    topo = make_topology([(1, 2), (2, 3), (3, 1), (3, 4)], 1e7)
    flow = constant_flow(1, 1, 2, 1e5, start=3.0)
    original = GospfNode.sample_tick

    def sample_tick(node, now, samples):
        if node.node_id == 4 and now >= 3.0:
            node._sleep_interface(now, 4)
        return original(node, now, samples)

    monkeypatch.setattr(GospfNode, "sample_tick", sample_tick)
    with pytest.raises(AssertionError, match="no longer spans"):
        run(scenario(topo, TrafficMatrix([flow], 10.0), horizon=10.0))


# ------------------------------------------------------ steady-window replay

def safeguard_expiry_scenario():
    # The chord cut at t=0.2 is grafted back at t=1.2 with expiry 3.4; the
    # load falls at t=1.4, and the windows up to the expiry are quiet.
    # Only the safeguard expiry lets the chord be cut again, at t=3.4.
    topo = make_topology([(1, 2), (2, 3), (1, 3)], 1e7)
    flow = stepped_flow(1, 1, 3, [(0.0, 1e5), (1.0, 9e6), (1.4, 1e5)])
    return scenario(topo, TrafficMatrix([flow], 6.0), horizon=6.0)


def test_golden_cut_after_safeguard_expiry():
    result = run(safeguard_expiry_scenario())
    cuts = [line for line in result.events if "event=CUT link=3" in line]
    assert [line.split()[0] for line in cuts] == ["t=0.200000"] * 2 + ["t=3.400000"] * 2
    # Re-recorded when energies became exact sums rounded once: only the
    # power_w and energy_j columns and total_energy_j moved.
    assert counted_digest(result) == \
        "5343cee0389bb5a17e1f0fa7b1fd46e9cf5a6670a5c011acd76b74a9787e4ab7"


GOLDEN_SCENARIOS = {
    "cut_graft": lambda garr48: cut_graft_scenario(),
    "zero_latency": lambda garr48: cut_graft_scenario(control_latency=0.0),
    "tree_failure": tree_failure_scenario,
    "safeguard_expiry": lambda garr48: safeguard_expiry_scenario(),
}


@pytest.mark.parametrize("make", GOLDEN_SCENARIOS.values(), ids=GOLDEN_SCENARIOS.keys())
def test_flood_copies_account_for_every_control_byte(garr48, make):
    sc = make(garr48)
    result = run(sc)
    assert result.flood_copies and min(result.flood_copies.values()) > 0
    assert sum(result.flood_copies.values()) * sc.config.control_msg_bytes == \
        result.metrics.ctrl_bytes_total


@pytest.mark.parametrize("make", GOLDEN_SCENARIOS.values(), ids=GOLDEN_SCENARIOS.keys())
def test_every_copy_is_delivered_through_handle_message(garr48, make, monkeypatch):
    # The engine must look handle_message up on the class for each copy, so
    # that a wrapper installed there sees every delivery.
    calls = []
    original = GospfNode.handle_message

    def handle_message(node, now, msg, arrival_link=None):
        calls.append(msg.key())
        return original(node, now, msg, arrival_link=arrival_link)

    monkeypatch.setattr(GospfNode, "handle_message", handle_message)
    result = run(make(garr48))
    assert len(calls) == sum(result.flood_copies.values())


def test_baseline_sends_no_copies():
    assert run(baseline_failure_scenario()).flood_copies == {}


def test_steady_windows_run_no_protocol_tick(garr48, monkeypatch):
    # With no traffic, window 0 cuts to the tree, window 1 carries the
    # floods' control bits and window 2 is the first steady one; every
    # later window repeats it and must be replayed without ticking. With
    # the tick memo off, each tick runs every node's sample_tick.
    ticks = []
    original = GospfController.tick

    def tick(ctrl, t1, samples):
        ticks.append(t1)
        return original(ctrl, t1, samples)

    monkeypatch.setattr(GospfController, "tick", tick)
    result = run(scenario(garr48, horizon=10.0))
    assert result.metrics.windows[0].ctrl_bytes > 0
    assert ticks == [0.2, 0.4, 0.6000000000000001]
    assert len(result.metrics.times) == 50

    node_ticks = []
    original_sample_tick = GospfNode.sample_tick

    def sample_tick(node, now, samples):
        node_ticks.append(now)
        return original_sample_tick(node, now, samples)

    monkeypatch.setattr(GospfNode, "sample_tick", sample_tick)
    with tick_memo_off():
        run(scenario(garr48, horizon=10.0))
    assert sorted(set(node_ticks)) == [0.2, 0.4, 0.6000000000000001]
    assert len(node_ticks) == 3 * len(garr48.nodes)


def test_one_spanning_tree_per_failed_link_set(garr48, monkeypatch):
    calls = []
    original = gospf.protocol.compute_mcst

    def compute_mcst(topology, exclude=frozenset()):
        calls.append(exclude)
        return original(topology, exclude=exclude)

    monkeypatch.setattr(gospf.protocol, "compute_mcst", compute_mcst)
    sc = tree_failure_scenario(garr48)
    result = run(sc)
    assert "event=RESET" in event_kinds(result)
    assert calls == [frozenset(), frozenset({lid for _t, lid in sc.link_failures})]


# ------------------------------------------------------------- work counts

def test_daily_pair_skips_unchanged_work(garr48, monkeypatch):
    # Of the garr48 day's 7,200 windows, only the 96 that reach a breakpoint
    # evaluate demands, and the ledger converts a link's increments only in
    # a window whose busy time for that link changed. The controller ticks
    # 712 times; all but 8 of those ticks repeat a memoised one and are
    # replayed, so only 8 run the nodes' sample_tick (48 each) and deliver
    # their copies. Hop counts are searched once per node, for its cut
    # matrix rows, and never for the latency check: garr48's 48 nodes bound
    # its diameter well within 0.2 s of 1 ms hops.
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(TrafficMatrix, "demand_at")
    count(EnergyLedger, "set_busy")
    count(GospfController, "tick")
    count(GospfNode, "sample_tick")
    count(GospfNode, "handle_message")
    count(gospf.engine, "bfs_hop_counts")
    count(gospf.protocol, "bfs_hop_counts")
    matrix = generate_traffic(garr48, "daily", 17, 0.4, ScenarioConfig().horizon)
    per_mode = {}
    searches = {}
    records = {}
    for mode in ("gospf", "baseline"):
        counts.clear()
        metrics = run(scenario(garr48, matrix, mode=mode)).metrics
        searches[mode] = counts.pop("bfs_hop_counts", 0)
        per_mode[mode] = dict(counts)
        # A replayed window appends the previous window's record, so the
        # day holds one record per window that ran: per tick for gospf.
        windows = metrics.windows
        records[mode] = (len({id(window) for window in windows}),
                         1 + sum(b is not a for a, b in zip(windows, windows[1:])))
        assert sum(window.charged for window in metrics.windows) / ONE == \
            metrics.total_energy_j
    assert per_mode == {
        "gospf": {"demand_at": 96, "set_busy": 29_073, "tick": 712, "sample_tick": 384,
                  "handle_message": 3_777},
        "baseline": {"demand_at": 96, "set_busy": 3_060},
    }
    assert searches == {"gospf": 48, "baseline": 0}
    assert records == {"gospf": (712, 712), "baseline": (60, 60)}


# ------------------------------------------------------------ reference loop

def interfaces_awake(nodes, link):
    """Neither endpoint node holds `link`'s interface asleep."""
    return all(nodes[side].iface_state[link.link_id] is not OperationalState.SLEEP
               for side in link.endpoints())


def reference_run(sc):
    """`run` without any reuse: every window applies its failures, calls
    `demand_at`, takes routes from the controller, allocates, charges its
    energy, ticks and checks connectivity. Energy is charged eagerly, not
    through the ledger: every window converts every account's increment
    from the account's state and the window's busy time and adds it, and
    each `switch_count` step adds `e_c`. A link is awake when both of its
    nodes' interfaces are, and for the baseline when it has not failed; the
    ledger is never asked. A `_Run` supplies the real controller, with its
    tick memo off, the accounts and the run's cost table; its own loop and
    its ledger's sums are not used."""
    with tick_memo_off():
        state = gospf.engine._Run(sc)
    cfg, topo, ctrl, traffic = state.cfg, state.topology, state.controller, sc.traffic
    ts = cfg.t_sample
    capacities = {lid: link.capacity for lid, link in topo.links.items()}
    all_links = frozenset(topo.links)
    metrics = MetricsSeries(mode=cfg.mode, fingerprint=sc.fingerprint(),
                            t_sample=ts, horizon=cfg.horizon)
    nodes = ctrl.nodes if cfg.mode == "gospf" else None

    def active_links():
        return frozenset(lid for lid, link in topo.links.items() if lid not in state.failed
                         and (nodes is None or interfaces_awake(nodes, link)))

    # Per account: energy, t_active, t_idle, t_sleep in ledger units, and
    # the wake-ups already charged.
    sums = {key: [0, 0, 0, 0] for key in state.accounts}
    wakes = dict.fromkeys(state.accounts, 0)
    total = previous_total = 0
    for w in range(int(math.floor(cfg.horizon / ts + 1e-9))):
        t0 = w * ts
        t1 = t0 + ts
        events_before = len(state.events)
        failed_this_window = False
        for ft, lid in sorted(sc.link_failures):
            if ft < t1 and lid not in state.failed:
                state.failed.add(lid)
                failed_this_window = True
                ctrl.fail(lid)
        ctrl_bits = ctrl.start_window(w, t0)
        rates = traffic.demand_at(t0, ts, cfg.tcp_burst_frac)
        flow_paths = [(fid, rate, ctrl.routing_for(traffic.flows[fid].src)
                       .paths.get(traffic.flows[fid].dst))
                      for fid, rate in rates.items() if rate > 0]
        alloc = allocate(flow_paths, capacities, active_links(), ts, topo.link_between)
        link_bits = dict(alloc.link_bits)
        for lid, bits in ctrl_bits.items():
            link_bits[lid] = link_bits.get(lid, 0.0) + bits
        busy = [min(ts, link_bits.get(lid, 0.0) / link.capacity)
                for lid, link in topo.links.items()]
        samples = {lid: link_bits.get(lid, 0.0) / (link.capacity * ts)
                   for lid, link in topo.links.items()}
        for (lid, link), t_busy in zip(topo.links.items(), busy):
            for side in link.endpoints():
                acct = state.accounts[(lid, side)]
                if acct.state is OperationalState.SLEEP:
                    increment = (exact(acct.p_sleep * ts), 0, 0, exact(ts))
                else:
                    t_idle = ts - t_busy
                    increment = (exact(acct.p_active * t_busy) + exact(acct.p_idle * t_idle),
                                 exact(t_busy), exact(t_idle), 0)
                sums[(lid, side)] = [s + i for s, i in zip(sums[(lid, side)], increment)]
                total += increment[0]
        ctrl_bytes = ctrl.tick(t1, samples)
        for key, acct in state.accounts.items():
            wake_cost = (acct.switch_count - wakes[key]) * exact(acct.e_c)
            sums[key][0] += wake_cost
            total += wake_cost
            wakes[key] = acct.switch_count
        active = active_links()
        if (is_connected(topo, all_links - state.failed)
                and not is_connected(topo, active)):
            raise AssertionError(f"window {w}: active link set no longer spans the network")

        metrics.windows.append(Window(
            active, tuple(flow_paths), total - previous_total, alloc.offered_bits,
            alloc.delivered_bits, alloc.dropped_bits, ctrl_bytes,
            not ctrl_bytes and len(state.events) == events_before
            and not failed_this_window and not ctrl.resetting()))
        metrics.energy_j.append(total / ONE)
        previous_total = total
    for key, acct in state.accounts.items():
        acct.energy_j, acct.t_active, acct.t_idle, acct.t_sleep = (
            s / ONE for s in sums[key])
    metrics.congestion_unresolved = state.congestion_unresolved
    return RunResult(metrics=metrics, events=state.events, accounts=state.accounts,
                     flood_copies=ctrl.flood_copies)


def run_outcome(runner, sc):
    """What a run loop produced: the counted digest, the per-link report,
    every window's record, by value, and every account's energy and state
    times, or the type and message of the error it raised."""
    try:
        result = runner(sc)
    except Exception as exc:
        return type(exc), str(exc)
    return (counted_digest(result), result.links_csv_text(sc.topology),
            result.metrics.windows,
            [(key, acct.energy_j, acct.t_active, acct.t_idle, acct.t_sleep)
             for key, acct in result.accounts.items()])


@st.composite
def reference_cases(draw, failures=(0, 2), latencies=(0.001, 0.0)):
    # Steps and failures fall on, and between, window starts; failures hit
    # any link, so tree-link resets and partitions are drawn too. Wake-ups
    # cost energy in some cases. `failures` bounds the number of failed
    # links; `latencies` lists the control latencies drawn.
    rng = random.Random(draw(st.integers(0, 10_000)))
    n = draw(st.integers(min_value=4, max_value=8))
    topo = random_connected_topology(rng, n, draw(st.integers(min_value=1, max_value=n)))
    e_c = draw(st.sampled_from((0.0, 0.37)))
    topo = Topology(topo.nodes, [dataclasses.replace(link, e_c=e_c)
                                 for link in topo.links.values()])
    t_sample = draw(st.sampled_from((0.2, 0.3, 0.02)))
    horizon = draw(st.sampled_from((4.0, 8.0, 12.0) if t_sample != 0.02 else (2.0, 4.0)))
    flows = []
    for fid in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        src, dst = rng.sample(sorted(topo.nodes), 2)
        times = sorted(rng.sample(range(int(horizon * 10)), rng.randint(1, 4)))
        flows.append(stepped_flow(fid, src, dst, [
            (0.1 * k, rng.choice((0.0, 1e5, 2e6, 9e6, 1.5e7, 3e7))) for k in times],
            rng.choice(("udp", "tcp"))))
    failures = [(draw(st.integers(min_value=1, max_value=int(horizon * 10) - 1)) * 0.1, lid)
                for lid in draw(st.lists(st.sampled_from(sorted(topo.links)),
                                         min_size=failures[0], max_size=failures[1],
                                         unique=True))]
    return scenario(topo, TrafficMatrix(flows, horizon), failures=failures,
                    horizon=horizon, t_sample=t_sample,
                    control_latency=draw(st.sampled_from(latencies)),
                    mode=draw(st.sampled_from(("gospf", "gospf", "baseline"))))


@settings(max_examples=40, deadline=None)
@given(reference_cases())
def test_run_matches_the_reference_loop(sc):
    assert run_outcome(run, sc) == run_outcome(reference_run, sc)


@settings(max_examples=40, deadline=None)
@given(reference_cases())
def test_every_interface_hook_is_followed_by_its_event(sc):
    # A memo replay re-records SLEEP and WAKE events, and calls the hook
    # right before each, so nodes must pair them the same way.
    calls = []

    def logged(name):
        original = getattr(GospfController, name)

        def hook(ctrl, t, node, *args):
            calls.append((name, t, node, args))
            return original(ctrl, t, node, *args)
        return hook

    with pytest.MonkeyPatch.context() as mp:
        for name in ("record_event", "interface_slept", "interface_woke"):
            mp.setattr(GospfController, name, logged(name))
        run_outcome(run, sc)
    pairs = {"interface_slept": "SLEEP", "interface_woke": "WAKE"}
    for before, after in zip([None, *calls], [*calls, None]):
        if before is not None and before[0] in pairs:
            name, t, node, (link,) = before
            assert after == ("record_event", t, node, (pairs[name], link, -1))
        if after is not None and after[0] == "record_event" and after[3][0] in ("SLEEP", "WAKE"):
            assert before is not None and before[0] in pairs


@pytest.mark.parametrize("make", [
    *GOLDEN_SCENARIOS.values(),
    lambda garr48: baseline_failure_scenario(),
    lambda garr48: cut_graft_scenario(t_sample=0.3),
    lambda garr48: cut_graft_scenario(t_sample=0.02),
], ids=[*GOLDEN_SCENARIOS.keys(), "baseline_failure", "t_sample_0.3", "t_sample_0.02"])
def test_run_matches_the_reference_loop_on_the_golden_scenarios(garr48, make):
    sc = make(garr48)
    outcome = run_outcome(run, sc)
    assert isinstance(outcome[0], str)
    assert outcome == run_outcome(reference_run, sc)


def test_reference_loop_raises_as_run_does_when_a_cut_races_a_reset():
    # The race leaves an active set that stops spanning after the first
    # checked one, so a loop that checked only once would finish.
    sc = cut_racing_reset_scenario()
    assert run_outcome(run, sc) == run_outcome(reference_run, sc)


# ---------------------------------------------------------------- tick memo

def node_state(node):
    """Everything of a node that a tick reads or writes, but its dedup keys
    and caches."""
    return (sorted(node.active_view), list(node.iface_state.items()),
            list(node.iface_role.items()),
            sorted((row, sorted(cut)) for row, cut in node.matrix.items() if cut),
            node.scan_floor, sorted(node.safeguard.items()), node._seq, sorted(node.failed),
            sorted(node.mcst.edges), node.reset_until, list(node.pending_failures))


def outcome_and_node_states(sc):
    """`run_outcome` of the run, and every node's state after each tick."""
    states = []
    original = GospfController.tick

    def tick(ctrl, t1, samples):
        ctrl_bytes = original(ctrl, t1, samples)
        states.append((t1, [node_state(node) for node in ctrl.nodes.values()]))
        return ctrl_bytes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GospfController, "tick", tick)
        return run_outcome(run, sc), states


def outcomes_with_and_without_the_tick_memo(sc):
    with_memo = outcome_and_node_states(sc)
    with tick_memo_off():
        return with_memo, outcome_and_node_states(sc)


@settings(max_examples=40, deadline=None)
@given(st.one_of(reference_cases(), reference_cases(failures=(2, 2), latencies=(0.0,))))
def test_tick_memo_is_invisible(sc):
    with_memo, without = outcomes_with_and_without_the_tick_memo(sc)
    assert with_memo == without


def garr48_day_scenario(garr48, horizon=120.0):
    # The daily profile squeezed into `horizon` seconds: trough cuts,
    # midday grafts.
    return scenario(garr48, generate_traffic(garr48, "daily", 17, 0.4, horizon),
                    horizon=horizon)


MEMO_SCENARIOS = {
    **GOLDEN_SCENARIOS,
    "garr48_day": garr48_day_scenario,
    # Chord 3 fails mid-day and moves other cut links' matrix rows, so the
    # memo keys and replays cut matrices whose rows no longer follow the
    # hop counts.
    "garr48_day_chord_failure": lambda garr48: dataclasses.replace(
        garr48_day_scenario(garr48), link_failures=((50.0, 3),)),
    # The safeguard expiry falls between the first and second arrival
    # instants of the tick eleven windows after each graft.
    "expiry_between_arrivals": lambda garr48: cut_graft_scenario(
        safeguard_interval=10 * 0.2 + 1.5 * 0.001),
}


@pytest.mark.parametrize("make", MEMO_SCENARIOS.values(), ids=MEMO_SCENARIOS.keys())
def test_tick_memo_is_invisible_on_the_golden_scenarios(garr48, make, monkeypatch):
    node_ticks = []
    original = GospfNode.sample_tick

    def sample_tick(node, now, samples):
        node_ticks.append(now)
        return original(node, now, samples)

    monkeypatch.setattr(GospfNode, "sample_tick", sample_tick)
    sc = make(garr48)
    with_memo = outcome_and_node_states(sc)
    replayed = len(node_ticks)
    with tick_memo_off():
        without = outcome_and_node_states(sc)
    assert isinstance(with_memo[0][0], str)
    assert with_memo == without
    # The memo replayed at least one tick.
    assert replayed < len(node_ticks) - replayed


def test_tick_memo_keeps_the_rows_of_stale_cut_links():
    # A failure moves hop counts but leaves the links cut before it in their
    # old cut-matrix rows, and grafts escalate row by row, so the memo must
    # tell a link in its hop-count row from one in another row.
    ctrl = gospf.engine._Run(cut_graft_scenario()).controller
    node = ctrl.nodes[1]
    lid = min(set(node.topology.links) - node.mcst.edges)
    row = node._row_of[lid]
    node.matrix = {row: {lid}}
    in_place = ctrl._record(node)
    node.matrix = {row + 1: {lid}}
    assert ctrl._record(node) != in_place


def controller_with_uneven_safeguards(t1):
    """A controller whose nodes hold, in order: a live safeguard and one
    expired by t1; the same two; another live one; the first two again;
    nothing. Nodes share a signature only with the node before them."""
    ctrl = gospf.engine._Run(cut_graft_scenario()).controller
    live, expired, other = t1 + 0.5, t1 - 0.5, t1 + 0.0005
    held = [{5: live, 6: expired}, {5: live, 6: expired}, {5: other},
            {5: live, 6: expired}, {}]
    for node, safeguard in zip(ctrl.nodes.values(), held):
        node.safeguard = dict(safeguard)
    return ctrl


def test_tick_memo_signs_every_nodes_own_safeguards():
    t1 = 10.0
    ctrl = controller_with_uneven_safeguards(t1)
    instants = ctrl._instants(t1)
    sign = ctrl._sign_safeguards(t1)
    nodes = list(ctrl.nodes.values())
    assert [node.safeguard for node in nodes[:5]] == [
        {5: t1 + 0.5}, {5: t1 + 0.5}, {5: t1 + 0.0005}, {5: t1 + 0.5}, {}]
    assert sign == tuple(node.safeguard_signature(instants) for node in nodes)
    assert sign[2] != sign[1] and sign[3] == sign[1]


def test_quiet_tick_waits_for_the_soonest_expiry_of_any_node():
    t1 = 10.0
    ctrl = controller_with_uneven_safeguards(t1)
    ctrl.next_action = math.inf
    ctrl._finish(t1, 0)
    assert ctrl.next_action == t1 + 0.0005 - gospf.protocol._EPS


# --------------------------------------------------------- converged views

def node_view(node):
    cut = frozenset().union(*node.matrix.values())
    return (frozenset(node.active_view), tuple(sorted(node.safeguard.items())),
            frozenset(node.failed), cut)


@contextlib.contextmanager
def converged_view_check():
    """Within the block, every GospfController tick must end with all nodes
    holding the same active view, safeguards, failed links and cut set,
    every node's cached awake ports, when set, matching its state, and the
    ledger holding a link awake exactly when both its interfaces are.
    Yields the list of tick times checked."""
    ticks = []
    original = GospfController.tick

    def tick(ctrl, t1, samples):
        ctrl_bytes = original(ctrl, t1, samples)
        views = {node_view(node) for node in ctrl.nodes.values()}
        assert len(views) == 1, f"node views differ after the tick at t={t1}"
        for node in ctrl.nodes.values():
            assert node._awake_ports in (None, fresh_awake_ports(node)), \
                f"node {node.node_id}: stale awake ports after the tick at t={t1}"
        for lid, link in ctrl.run.topology.links.items():
            assert ctrl.run.ledger.awake(lid) == interfaces_awake(ctrl.nodes, link), \
                f"link {lid}: the ledger disagrees with its interfaces after the tick at t={t1}"
        ticks.append(t1)
        return ctrl_bytes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GospfController, "tick", tick)
        yield ticks


def test_views_converge_every_tick_on_a_garr48_day(garr48):
    with converged_view_check() as ticks:
        result = run(garr48_day_scenario(garr48))
    assert {"event=CUT", "event=GRAFT"} <= event_kinds(result)
    assert len(ticks) > 10


@pytest.mark.parametrize("make", [
    lambda garr48: cut_graft_scenario(),
    tree_failure_scenario,
], ids=["cut_graft", "tree_failure"])
def test_views_converge_every_tick_on_the_golden_scenarios(garr48, make):
    with converged_view_check() as ticks:
        run(make(garr48))
    assert ticks


@pytest.mark.parametrize("make", [
    lambda garr48: cut_graft_scenario(),
    tree_failure_scenario,
], ids=["cut_graft", "tree_failure"])
def test_dedup_keys_hold_only_the_last_ticks_messages(garr48, make, monkeypatch):
    original = GospfController.tick
    sent = []

    def tick(ctrl, t1, samples):
        before = {nid: node._seq for nid, node in ctrl.nodes.items()}
        ctrl_bytes = original(ctrl, t1, samples)
        fresh = {(nid, seq) for nid, node in ctrl.nodes.items()
                 for seq in range(before[nid], node._seq)}
        for node in ctrl.nodes.values():
            assert node.seen <= fresh, f"stale dedup keys after the tick at t={t1}"
        sent.append(len(fresh))
        return ctrl_bytes

    monkeypatch.setattr(GospfController, "tick", tick)
    run(make(garr48))
    assert sum(map(bool, sent)) > 1


@st.composite
def protocol_cases(draw):
    # Failures hit links outside the initial spanning tree, so they are
    # announced by LSA; a tree-link failure racing a cut is pinned below.
    rng = random.Random(draw(st.integers(0, 10_000)))
    n = draw(st.integers(min_value=4, max_value=10))
    topo = random_connected_topology(rng, n, draw(st.integers(min_value=1, max_value=n)))
    flows = []
    for fid in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        src, dst = rng.sample(sorted(topo.nodes), 2)
        times = sorted(rng.sample(range(20), rng.randint(1, 4)))
        flows.append(stepped_flow(fid, src, dst, [
            (0.5 * k, rng.choice((0.0, 1e5, 2e6, 8e6, 1.5e7))) for k in times],
            rng.choice(("udp", "tcp"))))
    chords = sorted(set(topo.links) - compute_mcst(topo).edges)
    failures = [(draw(st.integers(min_value=2, max_value=16)) * 0.5, lid)
                for lid in draw(st.lists(st.sampled_from(chords), max_size=2, unique=True))]
    return scenario(topo, TrafficMatrix(flows, 12.0), failures=failures, horizon=12.0)


@settings(max_examples=60, deadline=None)
@given(protocol_cases())
def test_views_converge_every_tick_on_random_scenarios(sc):
    with converged_view_check() as ticks:
        run(sc)
    assert ticks


def cut_racing_reset_scenario():
    # Tree link 5 fails in window 34 and the flow stopped in window 30, so
    # the tick that ends window 34 has nodes 4 and 6 start a RESET while
    # nodes 8 and 10 cut links 13 and 10. A node that applies a cut after
    # the RESET keeps the link cut; the others wake it. The times lie inside
    # their windows, so a fix of the window clock moves none of them.
    topo = make_topology(
        [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (2, 7), (7, 8), (6, 9), (9, 10),
         (6, 10), (1, 4), (3, 6), (6, 8), (4, 7)],
        [1e7, 1e7, 1e7, 5e7, 5e7, 1e7, 5e7, 1e7, 2e7, 1e7, 2e7, 5e7, 5e7, 1e8])
    flow = stepped_flow(1, 7, 10, [(4.5, 1.5e7), (5.9, 0.0)])
    return scenario(topo, TrafficMatrix([flow], 13.0), failures=[(6.9, 5)],
                    horizon=13.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a cut in the tick that starts a RESET splits the views")
def test_views_converge_when_a_cut_races_a_reset():
    with converged_view_check():
        run(cut_racing_reset_scenario())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the split views leave link 13 asleep at node 6; the new tree includes "
    "it, so the active set stops spanning once the other links are cut"))
def test_active_set_spans_after_a_cut_races_a_reset():
    run(cut_racing_reset_scenario())


# --------------------------------------------------------------- clock

@pytest.mark.xfail(strict=True, reason=(
    "float window clock: window 24 ends at 24*0.2+0.2 = 5.000000000000001, "
    "so the failure at t=5.0 applies one window early"))
def test_failure_applies_in_the_window_that_starts_at_its_time():
    active = run(baseline_failure_scenario()).metrics.active_links
    first_after = next(w for w, n in enumerate(active) if n != active[0])
    assert first_after == 25
