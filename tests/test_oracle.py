import collections
import dataclasses
import hashlib
import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import gospf.oracle
from gospf.config import ScenarioConfig, parse_config
from gospf.engine import Scenario, run
from gospf.graph import Topology, _UnionFind, shortest_paths
from gospf.oracle import (CmndInstance, CmndSolution, Demand, GapRow, Infeasible,
                          InstanceTooLarge, OracleError, check_flow_feasibility, gap_csv,
                          heuristic_gap, solve_static)
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


# ------------------------------------------ integer solver vs. rationals

def fraction_lex_shortest_path(topology: Topology, active: frozenset[int], costs,
                               src: int, dst: int) -> tuple[Fraction, tuple[int, ...]] | None:
    """Min-cost path with lexicographically smallest node sequence."""
    best = {src: (Fraction(0), (src,))}
    settled = set()
    heap = [(Fraction(0), (src,))]
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        if node == dst:
            return cost, path
        settled.add(node)
        for nbr, lid in topology.adjacency[node]:
            if lid not in active or nbr in settled:
                continue
            cand = (cost + costs[lid], path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, cand)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(0, 5))
def test_targeted_search_equals_the_rational_reference(seed, n_nodes, extra):
    # Small integer costs make equal-cost routes common, so the
    # lexicographic tie-break decides many of these paths.
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n_nodes, extra)
    costs = {lid: rng.randint(1, 3) for lid in topo.links}
    active = frozenset(lid for lid in topo.links if rng.random() < 0.8)
    for src in topo.nodes:
        for dst in topo.nodes:
            found = fraction_lex_shortest_path(topo, active, costs, src, dst)
            path = shortest_paths(topo, active, src, costs, target=dst).paths.get(dst)
            assert path == (found[1] if found else None)
            if found:
                assert sum(costs[topo.link_between(u, v)]
                           for u, v in zip(path, path[1:])) == found[0]


def fraction_all_simple_paths(topology: Topology, active: frozenset[int],
                              src: int, dst: int) -> list[tuple[int, ...]]:
    paths = []
    stack = [(src, (src,))]
    while stack:
        node, path = stack.pop()
        if node == dst:
            paths.append(path)
            continue
        for nbr, lid in sorted(topology.adjacency[node], reverse=True):
            if lid in active and nbr not in path:
                stack.append((nbr, path + (nbr,)))
    return paths


def fraction_path_arcs(path: tuple[int, ...]):
    return list(zip(path, path[1:]))


def fraction_check_capacity(topology: Topology, assignments, alpha: Fraction) -> bool:
    """Directed load per link must stay within alpha * capacity."""
    load: dict[tuple[int, int], Fraction] = {}
    for volume, path in assignments:
        for arc in fraction_path_arcs(path):
            load[arc] = load.get(arc, Fraction(0)) + volume
    for (u, v), total in load.items():
        lid = topology.link_between(u, v)
        if total > alpha * Fraction(topology.links[lid].capacity):
            return False
    return True


def fraction_route_demands(instance: CmndInstance, active: frozenset[int], costs,
                           demands) -> tuple[Fraction, dict[int, tuple[int, ...]]] | None:
    """Best single-path routing of `demands` over `active`, or None.

    Independent shortest paths are tried first; on a capacity conflict the
    joint assignment is searched exhaustively with cost-bound pruning.
    """
    alpha = instance.alpha
    topology = instance.topology
    shortest: list[tuple[Fraction, tuple[int, ...]]] = []
    for idx, d in demands:
        found = fraction_lex_shortest_path(topology, active, costs, d.src, d.dst)
        if found is None:
            return None
        shortest.append(found)

    greedy = [(d.volume, path) for (_i, d), (_c, path) in zip(demands, shortest)]
    if fraction_check_capacity(topology, greedy, alpha):
        routing = sum((d.volume * cost for (_i, d), (cost, _p) in zip(demands, shortest)),
                      Fraction(0))
        return routing, {idx: path for (idx, _d), (_c, path) in zip(demands, shortest)}

    # Conflict: enumerate per-demand simple paths, cheapest first.
    options = []
    for (idx, d), (_c, _p) in zip(demands, shortest):
        paths = fraction_all_simple_paths(topology, active, d.src, d.dst)
        scored = sorted(
            (sum((costs[topology.link_between(u, v)] for u, v in fraction_path_arcs(p)),
                 Fraction(0)), p)
            for p in paths)
        options.append((idx, d, scored))
    min_tail = [Fraction(0)] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        idx, d, scored = options[i]
        min_tail[i] = min_tail[i + 1] + d.volume * scored[0][0]

    best_cost: list[Fraction | None] = [None]
    best_paths: list[dict | None] = [None]

    def search(i: int, load: dict, cost_so_far: Fraction, chosen: dict):
        if best_cost[0] is not None and cost_so_far + min_tail[i] >= best_cost[0]:
            return
        if i == len(options):
            best_cost[0] = cost_so_far
            best_paths[0] = dict(chosen)
            return
        idx, d, scored = options[i]
        for path_cost, path in scored:
            new_load = dict(load)
            ok = True
            for arc in fraction_path_arcs(path):
                lid = topology.link_between(*arc)
                total = new_load.get(arc, Fraction(0)) + d.volume
                if total > alpha * Fraction(topology.links[lid].capacity):
                    ok = False
                    break
                new_load[arc] = total
            if not ok:
                continue
            chosen[idx] = path
            search(i + 1, new_load, cost_so_far + d.volume * path_cost, chosen)
            del chosen[idx]

    search(0, {}, Fraction(0), {})
    if best_cost[0] is None:
        return None
    return best_cost[0], best_paths[0]


def fraction_solve_static(instance: CmndInstance, *, max_links: int = 20,
                          max_demands: int = 8, ref_bandwidth: float = 1e8) -> CmndSolution:
    """The branch and bound as it was in rational arithmetic, connectivity
    checked at every node."""
    topology = instance.topology
    if len(topology.links) > max_links:
        raise InstanceTooLarge(
            f"{len(topology.links)} links exceeds the guardrail of {max_links}")
    nonzero = [(i, d) for i, d in enumerate(instance.demands) if d.volume > 0]
    if len(nonzero) > max_demands:
        raise InstanceTooLarge(
            f"{len(nonzero)} demands exceeds the guardrail of {max_demands}")

    costs = instance.link_costs(ref_bandwidth)
    powers = instance.link_powers()
    link_ids = sorted(topology.links)
    zero_paths = {i: () for i, d in enumerate(instance.demands) if d.volume == 0}

    if not nonzero:
        return CmndSolution(active=frozenset(), paths=dict(zero_paths),
                            power_cost=Fraction(0), routing_cost=Fraction(0))

    # Routing lower bound: every demand pays at least its full-graph min cost.
    full = frozenset(link_ids)
    routing_lb = Fraction(0)
    for _i, d in nonzero:
        found = fraction_lex_shortest_path(topology, full, costs, d.src, d.dst)
        if found is None:
            raise Infeasible(f"no path for demand {d.src}->{d.dst} even with all links")
        routing_lb += d.volume * found[0]

    best: dict = {"objective": None, "solution": None}

    def consider(active: frozenset[int], power: Fraction):
        routed = fraction_route_demands(instance, active, costs, nonzero)
        if routed is None:
            return
        routing, paths = routed
        objective = power + routing
        if best["objective"] is None or objective < best["objective"]:
            paths = dict(paths)
            paths.update(zero_paths)
            best["objective"] = objective
            best["solution"] = CmndSolution(
                active=active, paths=paths, power_cost=power, routing_cost=routing)

    def endpoints_connectable(included: list[int], undecided: list[int]) -> bool:
        uf = _UnionFind(topology.nodes)
        for lid in itertools.chain(included, undecided):
            link = topology.links[lid]
            uf.union(link.a, link.b)
        return all(uf.find(d.src) == uf.find(d.dst) for _i, d in nonzero)

    # Seed the incumbent with the full link set before branching.
    full_power = sum((powers[lid] for lid in link_ids), Fraction(0))
    consider(full, full_power)

    def branch(i: int, included: list[int], power: Fraction):
        if best["objective"] is not None and power + routing_lb >= best["objective"]:
            return
        if i == len(link_ids):
            active = frozenset(included)
            if active != full:
                consider(active, power)
            return
        if not endpoints_connectable(included, link_ids[i:]):
            return
        lid = link_ids[i]
        branch(i + 1, included, power)  # exclude first: cheaper subsets early
        included.append(lid)
        branch(i + 1, included, power + powers[lid])
        included.pop()

    branch(0, [], Fraction(0))
    if best["solution"] is None:
        raise Infeasible("no link subset supports the demands")
    return best["solution"]


# garr48's capacities give non-integer costs (1e8 / 155e6 = 20/31); 3e7 gives
# 10/3.
GARR_CAPACITIES = (34e6, 155e6, 622e6, 2.5e9, 3e7)


def assert_same_solution(instance):
    try:
        expected = fraction_solve_static(instance)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_static(instance)
        return
    solution = solve_static(instance)
    assert solution.active == expected.active
    assert solution.paths == expected.paths
    assert type(solution.power_cost) is type(solution.routing_cost) is Fraction
    assert solution.power_cost == expected.power_cost
    assert solution.routing_cost == expected.routing_cost


def tie_instance():
    # Two demands that cannot share a path between two exact-cost-tied
    # two-hop routes, at a non-integer cost and a dyadic volume.
    topo = make_topology([(1, 2), (2, 3), (1, 4), (4, 3)], 155e6)
    demands = (Demand(1, 3, Fraction(70e6 + 0.25)), Demand(1, 3, Fraction(70e6 + 0.5)))
    return CmndInstance(topo, demands, Fraction(0.8))


@st.composite
def exact_cases(draw):
    rng = random.Random(draw(st.integers(0, 10_000)))
    topo = random_connected_topology(rng, draw(st.integers(4, 7)),
                                     draw(st.integers(1, 3)), GARR_CAPACITIES)
    topo = Topology(topo.nodes, [dataclasses.replace(link, p_active=rng.choice((1.0, 0.3, 1.7)))
                                 for link in topo.links.values()])
    demands = []
    for _ in range(draw(st.integers(1, 4))):
        src, dst = rng.sample(sorted(topo.nodes), 2)
        volume = rng.choice((0.0, rng.randint(8, 60) * 1e6 + rng.choice((0.25, 0.5, 0.75))))
        demands.append(Demand(src, dst, Fraction(volume)))
    # Fraction(0.8) is the float's exact value, with a 2**52 denominator.
    alpha = draw(st.sampled_from((Fraction(0.8), Fraction(1, 2), Fraction(1))))
    return CmndInstance(topo, tuple(demands), alpha)


def detour_instance():
    # Excluding link 1 takes both demands off their bound paths, (1, 2, 3)
    # and (2, 1, 4), onto equal-cost detours, (1, 4, 3) and (2, 3, 4): the
    # recomputed bound is the same, and exclude-first order picks the tie.
    topo = make_topology([(1, 2), (2, 3), (1, 4), (4, 3), (2, 4)],
                         [155e6, 155e6, 155e6, 155e6, 34e6])
    demands = (Demand(1, 3, Fraction(50e6 + 0.5)), Demand(2, 4, Fraction(10e6 + 0.75)))
    return CmndInstance(topo, demands, Fraction(0.8))


def bridge_instance():
    # A square: once links 1 and 2 are out, link 3 is a bridge on the one
    # path left, so excluding it leaves demand 1->3 without a path and the
    # exclude child is skipped.
    topo = make_topology([(1, 2), (2, 3), (3, 4), (4, 1)], [155e6, 34e6, 622e6, 3e7])
    return CmndInstance(topo, (Demand(1, 3, Fraction(8e6 + 0.25)),), Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(exact_cases())
@example(tie_instance())
@example(detour_instance())
@example(bridge_instance())
def test_integer_solver_equals_the_rational_solver(instance):
    assert_same_solution(instance)


def test_exact_cost_tie_is_broken_as_in_the_rationals():
    instance = tie_instance()
    costs = instance.link_costs()
    assert costs[1] + costs[2] == costs[3] + costs[4]
    assert_same_solution(instance)
    assert sorted(solve_static(instance).paths.values()) == [(1, 2, 3), (1, 4, 3)]


# ---------------------------------------------------- shared scenario tables

def solve_outcome(solve, instance, **kwargs):
    try:
        solution = solve(instance, **kwargs)
    except Infeasible as exc:
        return type(exc), str(exc)
    assert type(solution.power_cost) is type(solution.routing_cost) is Fraction
    return solution.active, solution.paths, solution.power_cost, solution.routing_cost


@st.composite
def demand_sequences(draw):
    """One topology and alpha, and a sequence of demand sets drawn from a
    small pool of endpoint pairs, so that later solves can reuse earlier
    solves' shortest paths."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    topo = random_connected_topology(rng, draw(st.integers(4, 8)),
                                     draw(st.integers(1, 4)), GARR_CAPACITIES)
    topo = Topology(topo.nodes, [dataclasses.replace(link, p_active=rng.choice((1.0, 0.3, 1.7)))
                                 for link in topo.links.values()])
    alpha = draw(st.sampled_from((Fraction(0.8), Fraction(1, 2), Fraction(1))))
    pairs = [tuple(rng.sample(sorted(topo.nodes), 2)) for _ in range(3)]
    demand_sets = []
    for _ in range(draw(st.integers(1, 5))):
        demand_sets.append(tuple(
            Demand(*rng.choice(pairs),
                   Fraction(rng.choice((0.0, rng.randint(8, 60) * 1e6 + rng.choice((0.25, 0.5))))))
            for _ in range(rng.randint(1, 3))))
    return topo, alpha, demand_sets


@settings(max_examples=40, deadline=None)
@given(demand_sequences())
def test_shared_tables_give_the_same_solutions(case):
    topo, alpha, demand_sets = case
    tables = gospf.oracle._Tables(CmndInstance(topo, (), alpha), 1e8)
    for demands in demand_sets:
        instance = CmndInstance(topo, demands, alpha)
        fresh = solve_outcome(solve_static, instance)
        assert solve_outcome(solve_static, instance, tables=tables) == fresh
        if len(topo.links) <= 6:
            assert solve_outcome(fraction_solve_static, instance) == fresh


def test_solve_rejects_tables_built_for_another_instance():
    edges = [(1, 2), (2, 3), (3, 1)]
    topo = make_topology(edges, 1e7)
    half = Fraction(1, 2)
    loaded = CmndInstance(topo, (Demand(1, 2, Fraction(1e6)),), half)
    idle = CmndInstance(topo, (Demand(1, 2, Fraction(0)),), half)
    mismatched = [
        (gospf.oracle._Tables(CmndInstance(make_topology(edges, 1e7), (), half), 1e8), 1e8),
        (gospf.oracle._Tables(CmndInstance(topo, (), Fraction(1)), 1e8), 1e8),
        (gospf.oracle._Tables(CmndInstance(topo, (), half), 1e9), 1e8),
    ]
    for instance in (loaded, idle):
        for tables, ref_bandwidth in mismatched:
            with pytest.raises(OracleError, match="tables were built for another"):
                solve_static(instance, ref_bandwidth=ref_bandwidth, tables=tables)
    tables = gospf.oracle._Tables(CmndInstance(topo, (), half), 1e8)
    assert solve_static(loaded, tables=tables) == solve_static(loaded)


# ------------------------------------------------------- rounding of gap rows

def assert_correctly_rounded(value: float, exact: Fraction):
    """`value` is the float nearest `exact`, ties to an even significand."""
    error = abs(Fraction(value) - exact)
    for neighbour in (math.nextafter(value, -math.inf), math.nextafter(value, math.inf)):
        other = abs(Fraction(neighbour) - exact)
        assert other >= error
        if other == error:
            assert (Fraction(value) / Fraction(math.ulp(value))) % 2 == 0


@st.composite
def quotients(draw):
    """An exact positive rational n/d: anywhere, within 2^-k of a halfway
    point between two adjacent floats (ties included, and the 2^53 binade
    edge where the ulp doubles), or subnormal."""
    kind = draw(st.sampled_from(("any", "halfway", "subnormal")))
    if kind == "any":
        return draw(st.integers(1, 2**90)), draw(st.integers(1, 2**90))
    if kind == "halfway":
        significand = draw(st.integers(2**52, 2**53 - 1) | st.sampled_from((2**52, 2**53 - 1)))
        exponent = draw(st.integers(-80, 80))
        k = draw(st.integers(60, 200))
        nudge = draw(st.sampled_from((-1, 0, 1)))
        halfway = Fraction(2 * significand + 1, 2) * Fraction(2) ** exponent
        exact = halfway + Fraction(nudge, 2**k)
        return exact.numerator, exact.denominator
    # At most 2^40 / 2^1074 = 2^-1034, below the least normal float 2^-1022.
    return draw(st.integers(1, 2**40)), 2**draw(st.integers(1074, 1140)) * draw(st.integers(1, 99))


@settings(max_examples=300, deadline=None)
@given(quotients(), st.integers(1, 2**64), st.integers(1, 2**64))
@example((2**53 + 1, 1), 1, 1)
@example((2**54 - 1, 2), 3, 5)
@example((1, 2**1075), 1, 1)
@example((3, 2**1075), 7, 2**60)
def test_integer_row_division_rounds_as_fraction(quotient, a, b):
    # heuristic_gap scores a row as (h * q) / (s * p), for heuristic power
    # h / s and optimal power p / q, and reports h / s: each one int / int
    # true division. Here h * q / (s * p) = n / d and h / s = n * a / d.
    n, d = quotient
    h, q, s, p = n * a, b, d, a * b
    ratio = (h * q) / (s * p)
    assert ratio == float(Fraction(h * q, s * p)) == float(Fraction(n, d))
    assert_correctly_rounded(ratio, Fraction(n, d))
    assert h / s == float(Fraction(h, s))
    assert_correctly_rounded(h / s, Fraction(h, s))


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
    # Two dyadic rates that sum to exactly alpha * capacity on arc (2, 3).
    at_limit = [((1, 2, 3), 2.5e6 + 0.25), ((2, 3), 2.5e6 - 0.25)]
    assert check_flow_feasibility(topo, at_limit, Fraction(1, 2))
    over_limit = [((1, 2, 3), 2.5e6 + 0.25), ((2, 3), 2.5e6 - 0.125)]
    assert not check_flow_feasibility(topo, over_limit, Fraction(1, 2))


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

    result = run(scenario)
    assert result.metrics.windows[-1].active == frozenset({1, 2, 3, 4, 5, 6})

    rows = heuristic_gap(scenario)
    assert rows and all(row.feasible for row in rows)
    assert all(row.gap_ratio >= 1.0 for row in rows)


def gap_scenario(seed, capacities, alpha):
    """Seven nodes, four chords and three UDP flows of four non-integer
    rate steps each."""
    rng = random.Random(seed)
    topo = random_connected_topology(rng, 7, 4, capacities)
    min_cap = min(link.capacity for link in topo.links.values())
    flows = []
    for fid in (1, 2, 3):
        src, dst = rng.sample(sorted(topo.nodes), 2)
        flow = Flow(fid, src, dst, "udp")
        for step in range(4):
            flow.add_step(2.0 * step, rng.uniform(0.05, 0.35) * min_cap)
        flows.append(flow)
    cfg = parse_config(f"horizon=8.0\nalpha={alpha}")
    return Scenario(topo, TrafficMatrix(flows, cfg.horizon), cfg)


@pytest.mark.parametrize("seed, capacities, alpha, digest", [
    (5, (1e7, 2e7, 5e7), 0.8,
     "bb82081f95b55c392eff5ac7e9cf34c65a7ec5a6734effc4ca592f995d9d063b"),
    (6, (34e6, 155e6, 622e6, 3e7), 0.8,
     "169872b692a28ce16dde34e3e3336057cbd0a71463d74b9d0230d90bc787a90f"),
    (1, (34e6, 155e6, 2.5e9, 3e7), 0.5,
     "fb44a270c7a873128a72719ecba6dd2dbed097f320c65c4880aeb2396ad63dcb"),
])
def test_gap_csv_golden(seed, capacities, alpha, digest):
    # Recorded with the rational solver, before rows were memoised by state.
    text = gap_csv(heuristic_gap(gap_scenario(seed, capacities, alpha)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gap_builds_one_table_and_shares_its_shortest_paths(monkeypatch):
    # The scenario's four solves share one table, so each shortest path over
    # an available link set is searched once: 290 searches, where building
    # tables per solve made 389.
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(gospf.oracle, "_Tables")
    count(gospf.oracle, "solve_static")
    count(gospf.oracle, "shortest_paths")
    heuristic_gap(gap_scenario(1, (34e6, 155e6, 2.5e9, 3e7), 0.5))
    assert dict(counts) == {"_Tables": 1, "solve_static": 4, "shortest_paths": 290}


def fraction_gap_rows(scenario):
    """`heuristic_gap`'s rows scored window by window in rationals, with no
    caches: `Fraction` demand sums and link powers, the optimum from a
    fresh `solve_static`, and `fraction_check_capacity` for feasibility."""
    result = run(scenario)
    topology = scenario.topology
    alpha = Fraction(scenario.config.alpha)
    powers = {lid: 2 * Fraction(link.p_active) for lid, link in topology.links.items()}
    rows = []
    for w, window in enumerate(result.metrics.windows):
        if not window.quiesced:
            continue
        agg, live = {}, []
        for fid, rate, path in sorted(window.flows):
            if rate > 0:
                flow = scenario.traffic.flows[fid]
                agg[(flow.src, flow.dst)] = (agg.get((flow.src, flow.dst), Fraction(0))
                                             + Fraction(rate))
                live.append((Fraction(rate), path))
        demands = tuple(Demand(s, d, v) for (s, d), v in sorted(agg.items()))
        optimal = solve_static(CmndInstance(topology, demands, alpha),
                               ref_bandwidth=scenario.config.ref_bandwidth).power_cost
        heuristic = sum((powers[lid] for lid in window.active), Fraction(0))
        feasible = (all(path is not None and len(path) >= 2
                         and None not in map(topology.link_between, path, path[1:])
                         for _rate, path in live)
                    and fraction_check_capacity(topology, live, alpha))
        rows.append(GapRow(w, float(heuristic), float(optimal),
                           float(heuristic / optimal) if optimal > 0 else math.inf, feasible))
    return rows


@st.composite
def gap_cases(draw):
    """Small gospf scenarios with non-integer link powers, so rows hold
    non-dyadic power sums, and with flows that share endpoint pairs."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    topo = random_connected_topology(rng, draw(st.integers(4, 7)),
                                     draw(st.integers(1, 4)), GARR_CAPACITIES)
    topo = Topology(topo.nodes, [dataclasses.replace(link, p_active=rng.choice((1.0, 0.3, 1.7)))
                                 for link in topo.links.values()])
    min_cap = min(link.capacity for link in topo.links.values())
    pairs = [tuple(rng.sample(sorted(topo.nodes), 2)) for _ in range(2)]
    flows = []
    for fid in range(1, draw(st.integers(2, 4)) + 1):
        flow = Flow(fid, *rng.choice(pairs), rng.choice(("udp", "tcp")))
        for step in range(3):
            flow.add_step(2.0 * step, rng.uniform(0.02, 0.3) * min_cap)
        flows.append(flow)
    alpha = draw(st.sampled_from((0.8, 0.5, 1.0)))
    cfg = parse_config(f"horizon=6.0\nalpha={alpha}")
    return Scenario(topo, TrafficMatrix(flows, cfg.horizon), cfg)


def gap_outcome(score, scenario):
    try:
        return score(scenario)
    except Infeasible as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(gap_cases())
def test_gap_rows_equal_the_rational_reference(scenario):
    assert gap_outcome(heuristic_gap, scenario) == gap_outcome(fraction_gap_rows, scenario)


def test_bound_prunes_no_fewer_leaves_than_the_constant_bound(monkeypatch):
    # Leaf evaluations per gap scenario when every node was bounded by each
    # demand's minimum cost over all links. A bound over the links still
    # available is at least that large and the search order is the same, so
    # the search can only visit a subset of those leaves.
    constant_bound_leaves = {
        (5, (1e7, 2e7, 5e7), 0.8): 6,
        (6, (34e6, 155e6, 622e6, 3e7), 0.8): 48,
        (1, (34e6, 155e6, 2.5e9, 3e7), 0.5): 1143,
    }
    calls = [0]
    original = gospf.oracle._route_demands

    def route_counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(gospf.oracle, "_route_demands", route_counted)
    leaves = {}
    for case in constant_bound_leaves:
        calls[0] = 0
        heuristic_gap(gap_scenario(*case))
        leaves[case] = calls[0]
    assert all(leaves[case] <= n for case, n in constant_bound_leaves.items())
    assert any(leaves[case] < n for case, n in constant_bound_leaves.items())


def test_gap_solves_each_demand_set_and_checks_each_flow_set_once(monkeypatch):
    # At seed 5 one active-set change leaves the flows as they were, so four
    # distinct window states share three demand sets and three flow sets.
    scenario = gap_scenario(5, (1e7, 2e7, 5e7), 0.8)
    solved, checked = [], []
    original_solve = gospf.oracle.solve_static
    original_check = gospf.oracle.check_flow_feasibility

    def solve_counted(instance, **kwargs):
        solved.append(instance.demands)
        return original_solve(instance, **kwargs)

    def check_counted(topology, flows, alpha):
        checked.append(tuple(flows))
        return original_check(topology, flows, alpha)

    monkeypatch.setattr(gospf.oracle, "solve_static", solve_counted)
    monkeypatch.setattr(gospf.oracle, "check_flow_feasibility", check_counted)
    rows = heuristic_gap(scenario)

    result = run(scenario)
    states, demand_sets, flow_sets = set(), set(), set()
    for window in result.metrics.windows:
        if not window.quiesced:
            continue
        states.add((window.active, tuple(sorted(window.flows))))
        live = [(fid, path, rate) for fid, rate, path
                in sorted(window.flows) if rate > 0]
        flow_sets.add(tuple((path, rate) for _fid, path, rate in live))
        agg = {}
        for fid, _path, rate in live:
            flow = scenario.traffic.flows[fid]
            agg[(flow.src, flow.dst)] = agg.get((flow.src, flow.dst), 0) + Fraction(rate)
        demand_sets.add(tuple(Demand(s, d, v) for (s, d), v in sorted(agg.items())))
    assert len(solved) == len(demand_sets) and set(solved) == demand_sets
    assert len(checked) == len(flow_sets) and set(checked) == flow_sets
    assert len(rows) > len(states) > len(flow_sets) == len(demand_sets) > 1
