import itertools
import random
from fractions import Fraction

import pytest

from gospf.config import ScenarioConfig, parse_config
from gospf.engine import Scenario, run
from gospf.oracle import (CmndInstance, Demand, Infeasible, InstanceTooLarge,
                          check_flow_feasibility, gap_csv, heuristic_gap,
                          solve_static)
from gospf.traffic import Flow, TrafficMatrix

from conftest import make_topology, random_connected_topology


# ----------------------------------------------------- independent oracle

def brute_force_optimum(instance, ref_bandwidth=1e8):
    """Unpruned exhaustive optimum of the design problem.

    Enumerates every link subset; per subset enumerates every combination of
    simple paths per demand under the directed alpha-capacity constraint.
    Completely independent of the solver's search order and pruning.
    """
    topology = instance.topology
    costs = instance.link_costs(ref_bandwidth)
    powers = instance.link_powers()
    demands = [d for d in instance.demands if d.volume > 0]
    link_ids = sorted(topology.links)
    best = None

    def simple_paths(active, src, dst):
        found = []

        def dfs(node, path):
            if node == dst:
                found.append(tuple(path))
                return
            for nbr, lid in topology.adjacency[node]:
                if lid in active and nbr not in path:
                    path.append(nbr)
                    dfs(nbr, path)
                    path.pop()

        dfs(src, [src])
        return found

    def path_cost(path):
        return sum((costs[topology.link_between(u, v)]
                    for u, v in zip(path, path[1:])), Fraction(0))

    def capacity_ok(assignment):
        load = {}
        for demand, path in zip(demands, assignment):
            for u, v in zip(path, path[1:]):
                load[(u, v)] = load.get((u, v), Fraction(0)) + demand.volume
        for (u, v), total in load.items():
            link = topology.links[topology.link_between(u, v)]
            if total > instance.alpha * Fraction(link.capacity):
                return False
        return True

    for r in range(len(link_ids) + 1):
        for subset in itertools.combinations(link_ids, r):
            active = frozenset(subset)
            options = [simple_paths(active, d.src, d.dst) for d in demands]
            if any(not opts for opts in options):
                continue
            power = sum((powers[lid] for lid in active), Fraction(0))
            for assignment in itertools.product(*options):
                if not capacity_ok(assignment):
                    continue
                routing = sum((d.volume * path_cost(p)
                               for d, p in zip(demands, assignment)), Fraction(0))
                objective = power + routing
                if best is None or objective < best:
                    best = objective
    return best


def check_solution(instance, solution):
    """Flow conservation, capacity, and activation constraints, exactly."""
    topology = instance.topology
    load = {}
    for idx, demand in enumerate(instance.demands):
        path = solution.paths[idx]
        if demand.volume == 0:
            assert path == ()
            continue
        assert path[0] == demand.src and path[-1] == demand.dst
        for u, v in zip(path, path[1:]):
            lid = topology.link_between(u, v)
            assert lid is not None
            assert lid in solution.active  # y positive only on active links
            load[(u, v)] = load.get((u, v), Fraction(0)) + demand.volume
    for (u, v), total in load.items():
        link = topology.links[topology.link_between(u, v)]
        assert total <= instance.alpha * Fraction(link.capacity)


# ---------------------------------------------------------------- examples

def test_single_link_single_demand():
    topo = make_topology([(1, 2)], 1e7)
    inst = CmndInstance(topo, (Demand(1, 2, Fraction(5e6)),), Fraction(8, 10))
    solution = solve_static(inst)
    assert solution.active == frozenset({1})
    assert solution.power_cost == inst.link_powers()[1]
    assert solution.routing_cost == Fraction(5e6) * inst.link_costs()[1]
    check_solution(inst, solution)


def test_zero_demands_activate_nothing():
    topo = make_topology([(1, 2), (2, 3), (3, 1)], 1e7)
    demands = (Demand(1, 2, Fraction(0)), Demand(2, 3, Fraction(0)))
    solution = solve_static(CmndInstance(topo, demands, Fraction(1)))
    assert solution.active == frozenset()
    assert solution.objective == 0


def test_five_node_seven_link_matches_brute_force():
    topo = make_topology(
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4), (1, 3)],
        [1e7, 2e7, 1e7, 5e7, 1e7, 2.5e7, 4e7])
    demands = (Demand(1, 4, Fraction(4e6)), Demand(2, 5, Fraction(2e6)),
               Demand(3, 1, Fraction(1e6)))
    inst = CmndInstance(topo, demands, Fraction(8, 10))
    solution = solve_static(inst)
    assert solution.objective == brute_force_optimum(inst)
    check_solution(inst, solution)


def test_capacity_conflict_forces_path_split():
    # Two demands that cannot share the single cheap middle link.
    topo = make_topology([(1, 2), (2, 4), (1, 3), (3, 4)],
                         [1e7, 1e7, 1e7, 1e7])
    demands = (Demand(1, 4, Fraction(6e6)), Demand(1, 4, Fraction(6e6)))
    inst = CmndInstance(topo, demands, Fraction(8, 10))
    solution = solve_static(inst)
    assert solution.objective == brute_force_optimum(inst)
    check_solution(inst, solution)
    assert solution.paths[0] != solution.paths[1]


def test_infeasible_when_demand_exceeds_alpha_capacity():
    topo = make_topology([(1, 2)], 1e6)
    inst = CmndInstance(topo, (Demand(1, 2, Fraction(9e5)),), Fraction(1, 2))
    with pytest.raises(Infeasible):
        solve_static(inst)


def test_guardrails():
    rng = random.Random(0)
    big = random_connected_topology(rng, 12, 10)
    inst = CmndInstance(big, (Demand(1, 2, Fraction(1.0)),), Fraction(1))
    with pytest.raises(InstanceTooLarge):
        solve_static(inst, max_links=5)
    demands = tuple(Demand(1, 2, Fraction(1.0)) for _ in range(9))
    small = make_topology([(1, 2)], 1e7)
    with pytest.raises(InstanceTooLarge):
        solve_static(CmndInstance(small, demands, Fraction(1)), max_demands=8)


# ----------------------------------------------------- randomized equality

def random_instance(seed):
    rng = random.Random(seed)
    n_nodes = rng.randint(3, 6)
    extra = rng.randint(0, min(4, 9 - (n_nodes - 1)))
    topo = random_connected_topology(rng, n_nodes, extra,
                                     cap_choices=(1e6, 2e6, 5e6, 1e7))
    nodes = list(topo.nodes)
    demands = []
    for _ in range(rng.randint(1, 4)):
        src, dst = rng.sample(nodes, 2)
        volume = rng.choice([0, 1e5, 5e5, 1e6, 3e6])
        demands.append(Demand(src, dst, Fraction(volume)))
    alpha = rng.choice([Fraction(1, 2), Fraction(8, 10), Fraction(1)])
    return CmndInstance(topo, tuple(demands), alpha)


@pytest.mark.parametrize("seed", range(15))
def test_solver_matches_brute_force_randomized(seed):
    inst = random_instance(seed)
    expected = brute_force_optimum(inst)
    if expected is None:
        with pytest.raises(Infeasible):
            solve_static(inst)
    else:
        solution = solve_static(inst)
        assert solution.objective == expected
        check_solution(inst, solution)


@pytest.mark.parametrize("seed", range(8))
def test_random_search_never_beats_solver(seed):
    rng = random.Random(1000 + seed)
    inst = random_instance(seed)
    try:
        optimum = solve_static(inst)
    except Infeasible:
        return
    topology = inst.topology
    costs = inst.link_costs()
    powers = inst.link_powers()
    demands = [d for d in inst.demands if d.volume > 0]
    for _ in range(50):
        active = frozenset(lid for lid in topology.links if rng.random() < 0.7)
        load = {}
        total = sum((powers[lid] for lid in active), Fraction(0))
        ok = True
        for d in demands:
            # random walk attempt at a simple path
            path, node = [d.src], d.src
            while node != d.dst and len(path) <= len(topology.nodes):
                nbrs = [(n, l) for n, l in topology.adjacency[node]
                        if l in active and n not in path]
                if not nbrs:
                    break
                node, lid = rng.choice(nbrs)
                path.append(node)
            if node != d.dst:
                ok = False
                break
            for u, v in zip(path, path[1:]):
                lid = topology.link_between(u, v)
                load[(u, v)] = load.get((u, v), Fraction(0)) + d.volume
                total += d.volume * costs[lid]
        if not ok:
            continue
        feasible = all(
            load[(u, v)] <= inst.alpha *
            Fraction(topology.links[topology.link_between(u, v)].capacity)
            for (u, v) in load)
        if feasible:
            assert optimum.objective <= total


# -------------------------------------------------------------- gap reports

def tiny_scenario(rate):
    topo = make_topology([(1, 2), (2, 3), (3, 4), (4, 1)], 1e7)
    flow = Flow(1, 1, 3, "udp")
    flow.add_step(0.0, rate)
    cfg = parse_config("horizon=4.0")
    return Scenario(topo, TrafficMatrix([flow], 4.0), cfg)


def test_zero_traffic_gap_is_at_least_one():
    rows = heuristic_gap(tiny_scenario(0.0))
    assert rows
    for row in rows:
        assert row.feasible
        assert row.gap_ratio >= 1.0  # tree stays on, optimum powers off


def test_single_demand_gap_measured_against_solver():
    rows = heuristic_gap(tiny_scenario(3e6))
    settled = rows[-1]
    assert settled.feasible
    assert settled.heuristic_power >= settled.optimal_power > 0
    assert settled.gap_ratio == pytest.approx(
        settled.heuristic_power / settled.optimal_power)


def test_gap_csv_format():
    rows = heuristic_gap(tiny_scenario(3e6))
    text = gap_csv(rows)
    header, *body = text.splitlines()
    assert header == "window,heuristic_power,optimal_power,gap_ratio,feasible"
    assert len(body) == len(rows)


def test_gap_guardrail(garr48):
    cfg = ScenarioConfig()
    with pytest.raises(InstanceTooLarge):
        heuristic_gap(Scenario(garr48, TrafficMatrix([], cfg.horizon), cfg))


def test_flow_feasibility_checker():
    topo = make_topology([(1, 2), (2, 3)], 1e7)
    ok = [((1, 2, 3), 4e6)]
    assert check_flow_feasibility(topo, ok, Fraction(8, 10))
    too_much = [((1, 2, 3), 9e6)]
    assert not check_flow_feasibility(topo, too_much, Fraction(8, 10))
    broken_path = [((1, 3), 1e6)]
    assert not check_flow_feasibility(topo, broken_path, Fraction(8, 10))


def test_walkthrough_end_state_is_design_feasible():
    # Six-node graft walkthrough: after settling, the heuristic keeps the
    # tree plus one restored chord, and every quiesced window is feasible.
    topo = make_topology(
        [(1, 2), (2, 3), (2, 4), (2, 5), (3, 6), (1, 3), (2, 6)],
        [1e7, 1e7, 1e7, 1e7, 1e7, 1e7, 5e6])
    flow_dc = Flow(1, 4, 3, "udp")
    flow_dc.add_step(0.0, 0.0)
    flow_dc.add_step(4.0, 3e6)
    flow_fa = Flow(2, 6, 1, "udp")
    flow_fa.add_step(0.0, 0.0)
    flow_fa.add_step(4.0, 6e6)
    cfg = parse_config("horizon=10.0")
    scenario = Scenario(topo, TrafficMatrix([flow_dc, flow_fa], cfg.horizon), cfg)

    result = run(scenario, capture_states=True)
    assert result.states[-1].active == frozenset({1, 2, 3, 4, 5, 6})

    rows = heuristic_gap(scenario)
    assert rows and all(row.feasible for row in rows)
    assert all(row.gap_ratio >= 1.0 for row in rows)
