"""Exact small-instance solver for the capacitated single-path network design
problem: choose which links to power on and one path per demand so that
link power plus routing cost is minimal, subject to flow conservation and
alpha-scaled directed capacities.

All feasibility and objective comparisons run in exact rational arithmetic.
Intended for desk-scale instances only; a guardrail rejects anything larger.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import MODE_GOSPF, Scenario, run
from .graph import Topology, _UnionFind


class OracleError(ValueError):
    pass


class InstanceTooLarge(OracleError):
    pass


class Infeasible(OracleError):
    pass


@dataclass(frozen=True)
class Demand:
    src: int
    dst: int
    volume: Fraction  # bits/s


def link_powers(topology: Topology) -> dict[int, Fraction]:
    """Power of each link with both interfaces active."""
    return {lid: 2 * Fraction(link.p_active) for lid, link in topology.links.items()}


@dataclass(frozen=True)
class CmndInstance:
    topology: Topology
    demands: tuple[Demand, ...]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not (0 < self.alpha <= 1):
            raise OracleError(f"alpha must be in (0, 1], got {self.alpha}")
        for d in self.demands:
            if d.volume < 0:
                raise OracleError("demands must be non-negative")
            if d.src == d.dst:
                raise OracleError("demand endpoints must differ")

    def link_costs(self, ref_bandwidth: float = 1e8) -> dict[int, Fraction]:
        return {lid: Fraction(ref_bandwidth) / Fraction(link.capacity)
                for lid, link in self.topology.links.items()}

    def link_powers(self) -> dict[int, Fraction]:
        return link_powers(self.topology)


@dataclass(frozen=True)
class CmndSolution:
    active: frozenset[int]
    paths: dict[int, tuple[int, ...]]  # demand index -> node path (empty volume: ())
    power_cost: Fraction
    routing_cost: Fraction

    @property
    def objective(self) -> Fraction:
        return self.power_cost + self.routing_cost


def _lex_shortest_path(topology: Topology, active: frozenset[int], costs,
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


def _all_simple_paths(topology: Topology, active: frozenset[int],
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


def _path_arcs(path: tuple[int, ...]):
    return list(zip(path, path[1:]))


def _check_capacity(topology: Topology, assignments, alpha: Fraction) -> bool:
    """Directed load per link must stay within alpha * capacity."""
    load: dict[tuple[int, int], Fraction] = {}
    for volume, path in assignments:
        for arc in _path_arcs(path):
            load[arc] = load.get(arc, Fraction(0)) + volume
    for (u, v), total in load.items():
        lid = topology.link_between(u, v)
        if total > alpha * Fraction(topology.links[lid].capacity):
            return False
    return True


def _route_demands(instance: CmndInstance, active: frozenset[int], costs,
                   demands) -> tuple[Fraction, dict[int, tuple[int, ...]]] | None:
    """Best single-path routing of `demands` over `active`, or None.

    Independent shortest paths are tried first; on a capacity conflict the
    joint assignment is searched exhaustively with cost-bound pruning.
    """
    alpha = instance.alpha
    topology = instance.topology
    shortest: list[tuple[Fraction, tuple[int, ...]]] = []
    for idx, d in demands:
        found = _lex_shortest_path(topology, active, costs, d.src, d.dst)
        if found is None:
            return None
        shortest.append(found)

    greedy = [(d.volume, path) for (_i, d), (_c, path) in zip(demands, shortest)]
    if _check_capacity(topology, greedy, alpha):
        routing = sum((d.volume * cost for (_i, d), (cost, _p) in zip(demands, shortest)),
                      Fraction(0))
        return routing, {idx: path for (idx, _d), (_c, path) in zip(demands, shortest)}

    # Conflict: enumerate per-demand simple paths, cheapest first.
    options = []
    for (idx, d), (_c, _p) in zip(demands, shortest):
        paths = _all_simple_paths(topology, active, d.src, d.dst)
        scored = sorted(
            (sum((costs[topology.link_between(u, v)] for u, v in _path_arcs(p)),
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
            for arc in _path_arcs(path):
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


def solve_static(instance: CmndInstance, *, max_links: int = 20,
                 max_demands: int = 8, ref_bandwidth: float = 1e8) -> CmndSolution:
    """Global optimum over link subsets under the single-path restriction.

    Branch and bound over links in ascending id order: subtrees are pruned
    when the committed power plus a routing lower bound cannot beat the
    incumbent, or when the undecided links can no longer connect some demand
    pair.
    """
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
        found = _lex_shortest_path(topology, full, costs, d.src, d.dst)
        if found is None:
            raise Infeasible(f"no path for demand {d.src}->{d.dst} even with all links")
        routing_lb += d.volume * found[0]

    best: dict = {"objective": None, "solution": None}

    def consider(active: frozenset[int], power: Fraction):
        routed = _route_demands(instance, active, costs, nonzero)
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


@dataclass
class GapRow:
    window: int
    heuristic_power: float
    optimal_power: float
    gap_ratio: float
    feasible: bool


def check_flow_feasibility(topology: Topology, flows, alpha: Fraction) -> bool:
    """Eq-style feasibility of realized flows: each path connects its own
    endpoints and directed loads respect alpha-scaled capacities."""
    assignments = []
    for path, rate in flows:
        if rate <= 0:
            continue
        if path is None or len(path) < 2:
            return False
        for u, v in _path_arcs(path):
            if topology.link_between(u, v) is None:
                return False
        assignments.append((Fraction(rate), path))
    return _check_capacity(topology, assignments, alpha)


def heuristic_gap(scenario: Scenario, *, max_links: int = 20, max_demands: int = 8,
                  solution_cache: dict | None = None) -> list[GapRow]:
    """Run the protocol on `scenario` and score each quiesced window's active
    set against the exact optimum for that window's demands."""
    if scenario.config.mode != MODE_GOSPF:
        raise OracleError("gap analysis requires a gospf-mode scenario")
    if len(scenario.topology.links) > max_links:
        raise InstanceTooLarge(
            f"{len(scenario.topology.links)} links exceeds the guardrail of {max_links}")

    result = run(scenario, capture_states=True)
    alpha = Fraction(scenario.config.alpha)
    powers = link_powers(scenario.topology)
    cache = solution_cache if solution_cache is not None else {}
    # Quiesced windows repeat the same realized flows; check each set once.
    feasibility: dict[tuple, bool] = {}
    rows: list[GapRow] = []

    for w, quiet in enumerate(result.metrics.quiesced):
        if not quiet:
            continue
        state = result.states[w]
        agg: dict[tuple[int, int], Fraction] = {}
        flows_for_check = []
        for fid in sorted(state.flows):
            path, rate = state.flows[fid]
            if rate <= 0:
                continue
            flow = scenario.traffic.flows[fid]
            agg[(flow.src, flow.dst)] = agg.get((flow.src, flow.dst),
                                                Fraction(0)) + Fraction(rate)
            flows_for_check.append((path, rate))
        demands = tuple(Demand(s, d, v) for (s, d), v in sorted(agg.items()))
        if len(demands) > max_demands:
            raise InstanceTooLarge(
                f"{len(demands)} demands exceeds the guardrail of {max_demands}")

        key = demands
        if key in cache:
            optimal_power = cache[key]
        else:
            instance = CmndInstance(scenario.topology, demands, alpha)
            solution = solve_static(instance, max_links=max_links,
                                    max_demands=max_demands,
                                    ref_bandwidth=scenario.config.ref_bandwidth)
            optimal_power = solution.power_cost
            cache[key] = optimal_power

        heuristic_power = sum((powers[lid] for lid in state.active), Fraction(0))
        flows_key = tuple(flows_for_check)
        if flows_key not in feasibility:
            feasibility[flows_key] = check_flow_feasibility(scenario.topology,
                                                            flows_for_check, alpha)
        feasible = feasibility[flows_key]
        ratio = (float(heuristic_power / optimal_power) if optimal_power > 0
                 else math.inf)
        rows.append(GapRow(window=w, heuristic_power=float(heuristic_power),
                           optimal_power=float(optimal_power),
                           gap_ratio=ratio, feasible=feasible))
    return rows


def gap_csv(rows: list[GapRow]) -> str:
    lines = ["window,heuristic_power,optimal_power,gap_ratio,feasible"]
    for row in rows:
        lines.append(f"{row.window},{row.heuristic_power!r},{row.optimal_power!r},"
                     f"{row.gap_ratio!r},{str(row.feasible).lower()}")
    return "\n".join(lines) + "\n"
