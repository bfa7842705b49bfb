"""Exact small-instance solver for the capacitated single-path network design
problem: choose which links to power on and one path per demand so that
link power plus routing cost is minimal, subject to flow conservation and
alpha-scaled directed capacities.

All feasibility and objective comparisons are exact: the solver scales each
instance's rationals to integers, and the results are rationals again.
Intended for desk-scale instances only; a guardrail rejects anything larger.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import MODE_GOSPF, Scenario, run
from .graph import Topology, shortest_paths


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
    volume: Fraction | float  # bits/s


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
        """Power of each link with both interfaces active."""
        return {lid: 2 * Fraction(link.p_active) for lid, link in self.topology.links.items()}


@dataclass(frozen=True)
class CmndSolution:
    active: frozenset[int]
    paths: dict[int, tuple[int, ...]]  # demand index -> node path (empty volume: ())
    power_cost: Fraction
    routing_cost: Fraction

    @property
    def objective(self) -> Fraction:
        return self.power_cost + self.routing_cost


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


@dataclass(frozen=True)
class _ScaledDemand:
    """A nonzero demand in the solver's integer units: `weight` is its
    volume in objective units per cost unit, `load` its volume in capacity
    units."""
    index: int
    src: int
    dst: int
    weight: int
    load: int


def _route_demands(topology: Topology, active: frozenset[int], costs, limits,
                   demands, shortest) -> tuple[int, dict[int, tuple[int, ...]]] | None:
    """Best single-path routing of `demands` over `active`, or None.

    `shortest` holds each demand's lexicographic shortest (cost, path)
    over `active`. These independent shortest paths are tried first; on a
    capacity conflict the joint assignment is searched exhaustively with
    cost-bound pruning.
    """
    load = {}
    for d, (_c, path) in zip(demands, shortest):
        for arc in zip(path, path[1:]):
            load[arc] = load.get(arc, 0) + d.load
    if all(total <= limits[topology.link_between(*arc)] for arc, total in load.items()):
        routing = sum(d.weight * cost for d, (cost, _p) in zip(demands, shortest))
        return routing, {d.index: path for d, (_c, path) in zip(demands, shortest)}

    # Conflict: enumerate per-demand simple paths, cheapest first.
    options = []
    for d in demands:
        paths = _all_simple_paths(topology, active, d.src, d.dst)
        scored = sorted(
            (sum(costs[topology.link_between(u, v)] for u, v in zip(p, p[1:])), p)
            for p in paths)
        options.append((d, scored))
    min_tail = [0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        d, scored = options[i]
        min_tail[i] = min_tail[i + 1] + d.weight * scored[0][0]

    best_cost: list[int | None] = [None]
    best_paths: list[dict | None] = [None]

    def search(i, load, cost_so_far, chosen):
        if best_cost[0] is not None and cost_so_far + min_tail[i] >= best_cost[0]:
            return
        if i == len(options):
            best_cost[0] = cost_so_far
            best_paths[0] = dict(chosen)
            return
        d, scored = options[i]
        for path_cost, path in scored:
            new_load = dict(load)
            for arc in zip(path, path[1:]):
                total = new_load.get(arc, 0) + d.load
                if total > limits[topology.link_between(*arc)]:
                    break
                new_load[arc] = total
            else:
                chosen[d.index] = path
                search(i + 1, new_load, cost_so_far + d.weight * path_cost, chosen)
                del chosen[d.index]

    search(0, {}, 0, {})
    if best_cost[0] is None:
        return None
    return best_cost[0], best_paths[0]


def _integer_table(exact: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    """The least common denominator of `exact` and each value times it."""
    scale = math.lcm(*(value.denominator for value in exact.values()))
    return scale, {k: value.numerator * (scale // value.denominator)
                   for k, value in exact.items()}


class _Tables:
    """A topology's integer OSPF costs, link powers and `alpha * capacity`
    limits, each on its own scale, and a memo of lexicographic shortest
    paths, shared by a scenario's solves. A path depends on the costs and the
    available links, never on the demands, so an entry holds for every solve."""

    def __init__(self, instance: CmndInstance, ref_bandwidth: float):
        self.topology, self.alpha = instance.topology, instance.alpha
        self.ref_bandwidth = ref_bandwidth
        self.cost_scale, self.costs = _integer_table(instance.link_costs(ref_bandwidth))
        self.power_scale, self.powers = _integer_table(instance.link_powers())
        self.limit_scale, self.limits = _integer_table(
            {lid: instance.alpha * Fraction(link.capacity)
             for lid, link in instance.topology.links.items()})
        self._paths: dict[tuple, tuple | None] = {}

    def shortest(self, available: frozenset[int], src: int, dst: int):
        """(path, links, cost) of the lexicographic shortest src-dst path
        over `available`, or None; a cost is the exact sum of its links'."""
        key = (available, src, dst)
        if key not in self._paths:
            found = shortest_paths(self.topology, available, src, self.costs, dst).paths.get(dst)
            if found is not None:
                links = tuple(map(self.topology.link_between, found, found[1:]))
                found = (found, links, sum(map(self.costs.__getitem__, links)))
            self._paths[key] = found
        return self._paths[key]


def solve_static(instance: CmndInstance, *, max_links: int = 20, max_demands: int = 8,
                 ref_bandwidth: float = 1e8, tables: _Tables | None = None) -> CmndSolution:
    """Global optimum over link subsets under the single-path restriction.

    Branch and bound over links in ascending id order: subtrees are pruned
    when the committed power plus a routing lower bound over the links still
    available cannot beat the incumbent, or when those links can no longer
    connect some demand pair.

    The search runs in integers. Costs are scaled by their common
    denominator, objective terms (power, volume * cost) by one scale K, and
    volumes and alpha * capacity by one shared capacity scale. Multiplying
    by a positive integer preserves every comparison, ties included, so the
    search takes the same steps as in the rationals; the result is converted
    back once. `heuristic_gap` passes one `tables` to all of a scenario's
    solves; without it the call builds its own.
    """
    topology = instance.topology
    if len(topology.links) > max_links:
        raise InstanceTooLarge(
            f"{len(topology.links)} links exceeds the guardrail of {max_links}")
    nonzero = [(i, d) for i, d in enumerate(instance.demands) if d.volume > 0]
    if len(nonzero) > max_demands:
        raise InstanceTooLarge(
            f"{len(nonzero)} demands exceeds the guardrail of {max_demands}")
    if tables is not None and (tables.topology is not topology or tables.alpha != instance.alpha
                               or tables.ref_bandwidth != ref_bandwidth):
        raise OracleError("tables were built for another topology, alpha or ref_bandwidth")

    link_ids = sorted(topology.links)
    zero_paths = {i: () for i, d in enumerate(instance.demands) if d.volume == 0}

    if not nonzero:
        return CmndSolution(active=frozenset(), paths=dict(zero_paths),
                            power_cost=Fraction(0), routing_cost=Fraction(0))

    tables = tables or _Tables(instance, ref_bandwidth)
    volume_scale, volumes = _integer_table({i: Fraction(d.volume) for i, d in nonzero})
    objective_scale = math.lcm(tables.power_scale, tables.cost_scale * volume_scale)
    capacity_scale = math.lcm(volume_scale, tables.limit_scale)
    costs = tables.costs
    powers = {lid: p * (objective_scale // tables.power_scale)
              for lid, p in tables.powers.items()}
    limits = {lid: c * (capacity_scale // tables.limit_scale)
              for lid, c in tables.limits.items()}
    demands = [_ScaledDemand(i, d.src, d.dst,
                             volumes[i] * (objective_scale // tables.cost_scale // volume_scale),
                             volumes[i] * (capacity_scale // volume_scale))
               for i, d in nonzero]

    def routing_bound(available: frozenset[int]) -> tuple[int, set[int], list] | None:
        """Routing lower bound over `available`, each demand at its
        uncapacitated minimum cost, the links of the paths that reach it,
        and each demand's (cost, path); None if some demand has no path."""
        bound, path_links, shortest = 0, set(), []
        for d in demands:
            found = tables.shortest(available, d.src, d.dst)
            if found is None:
                return None
            path, links, cost = found
            bound += d.weight * cost
            path_links.update(links)
            shortest.append((cost, path))
        return bound, path_links, shortest

    full = frozenset(link_ids)
    root = routing_bound(full)
    if root is None:
        d = next(d for d in demands if tables.shortest(full, d.src, d.dst) is None)
        raise Infeasible(f"no path for demand {d.src}->{d.dst} even with all links")

    best: dict = {"objective": None, "solution": None}

    def consider(active: frozenset[int], power: int, shortest):
        routed = _route_demands(topology, active, costs, limits, demands, shortest)
        if routed is None:
            return
        routing, paths = routed
        objective = power + routing
        if best["objective"] is None or objective < best["objective"]:
            best["objective"] = objective
            best["solution"] = (active, paths, power, routing)

    # Seed the incumbent with the full link set before branching.
    consider(full, sum(powers.values()), root[2])

    # A node at depth i bounds routing over the links still available there,
    # included plus link_ids[i:]. The include child has the same available
    # set, and so the same bound. The exclude child loses one link: if no
    # bound path uses it, the paths survive and the bound stays; otherwise
    # it is recomputed, and the child is skipped when a demand loses its
    # last path. At a leaf the available links are the active ones, and the
    # bound's paths, lexicographic minima over a superset that all survive
    # in it, are its lexicographic shortest paths too.
    def branch(i, included, power, bound, path_links, shortest):
        if best["objective"] is not None and power + bound >= best["objective"]:
            return
        if i == len(link_ids):
            active = frozenset(included)
            if active != full:
                consider(active, power, shortest)
            return
        lid = link_ids[i]
        # Exclude first: cheaper subsets early.
        if lid not in path_links:
            branch(i + 1, included, power, bound, path_links, shortest)
        elif (child := routing_bound(frozenset(link_ids[i + 1:]).union(included))):
            branch(i + 1, included, power, *child)
        included.append(lid)
        branch(i + 1, included, power + powers[lid], bound, path_links, shortest)
        included.pop()

    branch(0, [], 0, *root)
    if best["solution"] is None:
        raise Infeasible("no link subset supports the demands")
    active, paths, power, routing = best["solution"]
    return CmndSolution(active=active, paths={**paths, **zero_paths},
                        power_cost=Fraction(power, objective_scale),
                        routing_cost=Fraction(routing, objective_scale))


@dataclass
class GapRow:
    window: int
    heuristic_power: float
    optimal_power: float
    gap_ratio: float
    feasible: bool


def check_flow_feasibility(topology: Topology, flows, alpha: Fraction) -> bool:
    """Eq-style feasibility of realized flows: each path connects its own
    endpoints and directed loads respect alpha-scaled capacities. Loads are
    integers on the rates' common denominator, compared with each loaded
    link's `alpha * capacity` by cross-multiplication."""
    rates = []
    for path, rate in flows:
        if rate <= 0:
            continue
        if path is None or len(path) < 2 or None in map(topology.link_between, path, path[1:]):
            return False
        rates.append((rate.as_integer_ratio(), path))
    scale = math.lcm(*(den for (_num, den), _path in rates))
    load = {}
    for (num, den), path in rates:
        for arc in zip(path, path[1:]):
            load[arc] = load.get(arc, 0) + num * (scale // den)
    alpha_num, alpha_den = alpha.as_integer_ratio()
    for arc, total in load.items():
        cap_num, cap_den = topology.links[topology.link_between(*arc)].capacity.as_integer_ratio()
        if total * alpha_den * cap_den > alpha_num * cap_num * scale:
            return False
    return True


def heuristic_gap(scenario: Scenario, *, max_links: int = 20,
                  max_demands: int = 8) -> list[GapRow]:
    """Run the protocol on `scenario` and score each quiesced window's active
    set against the exact optimum for that window's demands."""
    if scenario.config.mode != MODE_GOSPF:
        raise OracleError("gap analysis requires a gospf-mode scenario")
    if len(scenario.topology.links) > max_links:
        raise InstanceTooLarge(
            f"{len(scenario.topology.links)} links exceeds the guardrail of {max_links}")

    windows = run(scenario).metrics.windows
    alpha = Fraction(scenario.config.alpha)
    tables = _Tables(CmndInstance(scenario.topology, (), alpha), scenario.config.ref_bandwidth)
    # A row depends only on the window's active set and flows, and quiesced
    # windows repeat them: score each distinct state once. Distinct states
    # still share demands or flows, so those get their own caches.
    scored: dict[tuple, tuple[float, float, float, bool]] = {}
    cache: dict[tuple[Demand, ...], Fraction] = {}
    feasibility: dict[tuple, bool] = {}
    rows: list[GapRow] = []

    for w, window in enumerate(windows):
        if not window.quiesced:
            continue
        flows = tuple(sorted(window.flows))
        state_key = (window.active, flows)
        if state_key in scored:
            rows.append(GapRow(w, *scored[state_key]))
            continue
        agg: dict[tuple[int, int], float | Fraction] = {}
        flows_for_check = []
        for fid, rate, path in flows:
            flow = scenario.traffic.flows[fid]
            pair = (flow.src, flow.dst)
            # Only flows that share an endpoint pair need an exact sum.
            agg[pair] = Fraction(agg[pair]) + Fraction(rate) if pair in agg else rate
            flows_for_check.append((path, rate))
        demands = tuple(Demand(s, d, v) for (s, d), v in sorted(agg.items()))
        if len(demands) > max_demands:
            raise InstanceTooLarge(
                f"{len(demands)} demands exceeds the guardrail of {max_demands}")

        if demands not in cache:
            instance = CmndInstance(scenario.topology, demands, alpha)
            solution = solve_static(instance, max_links=max_links,
                                    max_demands=max_demands,
                                    ref_bandwidth=scenario.config.ref_bandwidth,
                                    tables=tables)
            cache[demands] = solution.power_cost
        optimal = cache[demands]

        heuristic = sum(map(tables.powers.__getitem__, window.active))
        flows_key = tuple(flows_for_check)
        if flows_key not in feasibility:
            feasibility[flows_key] = check_flow_feasibility(scenario.topology,
                                                            flows_for_check, alpha)
        # One integer true division each, correctly rounded as float(Fraction) is.
        ratio = ((heuristic * optimal.denominator) / (tables.power_scale * optimal.numerator)
                 if optimal > 0 else math.inf)
        scored[state_key] = (heuristic / tables.power_scale, float(optimal), ratio,
                             feasibility[flows_key])
        rows.append(GapRow(w, *scored[state_key]))
    return rows


def gap_csv(rows: list[GapRow]) -> str:
    lines = ["window,heuristic_power,optimal_power,gap_ratio,feasible"]
    for row in rows:
        lines.append(f"{row.window},{row.heuristic_power!r},{row.optimal_power!r},"
                     f"{row.gap_ratio!r},{str(row.feasible).lower()}")
    return "\n".join(lines) + "\n"
