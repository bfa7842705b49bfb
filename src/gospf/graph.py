"""Physical topology model, capacity-weighted spanning tree, and routing.

The spanning tree and path computations are exact and fully deterministic:
the tree takes links in descending capacity, an exact float comparison that
orders inverse capacities as the rationals do, equal capacities are ordered
by link id, and equal-cost paths are broken by the lexicographically
smallest node-id sequence. Every router computing these from the same
inputs arrives at the same answer.
"""

import heapq
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass


class TopologyError(ValueError):
    """Malformed or inconsistent topology input."""


class DisconnectedTopology(TopologyError):
    """The graph (or a mandatory subgraph) does not connect all nodes."""


@dataclass(frozen=True)
class Link:
    """Undirected capacitated link; power ratings apply per endpoint interface."""

    link_id: int
    a: int
    b: int
    capacity: float  # bits/s
    p_active: float = 1.0  # watts
    p_idle: float = 0.8
    p_sleep: float = 0.016
    e_c: float = 0.0  # joules per sleep-to-idle transition

    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)

    def other(self, node: int) -> int:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not an endpoint of link {self.link_id}")


class Topology:
    """Validated undirected simple connected graph with named nodes."""

    def __init__(self, nodes: dict[int, str], links):
        self.nodes: dict[int, str] = dict(sorted(nodes.items()))
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        self.links: dict[int, Link] = {}
        seen_pairs: set[tuple[int, int]] = set()
        for link in sorted(links, key=lambda l: l.link_id):
            if link.link_id in self.links:
                raise TopologyError(f"duplicate link id {link.link_id}")
            if link.a not in self.nodes or link.b not in self.nodes:
                raise TopologyError(f"link {link.link_id} references unknown node")
            if link.a == link.b:
                raise TopologyError(f"link {link.link_id} is a self-loop")
            pair = (min(link.a, link.b), max(link.a, link.b))
            if pair in seen_pairs:
                raise TopologyError(f"parallel link {link.link_id} between {pair}")
            if not link.capacity > 0:
                raise TopologyError(f"link {link.link_id} has non-positive capacity")
            seen_pairs.add(pair)
            self.links[link.link_id] = link

        self.adjacency: dict[int, list[tuple[int, int]]] = {n: [] for n in self.nodes}
        for link in self.links.values():
            self.adjacency[link.a].append((link.b, link.link_id))
            self.adjacency[link.b].append((link.a, link.link_id))
        for nbrs in self.adjacency.values():
            nbrs.sort()

        self._pair_link: dict[tuple[int, int], int] = {}
        for link in self.links.values():
            self._pair_link[(link.a, link.b)] = link.link_id
            self._pair_link[(link.b, link.a)] = link.link_id

        self._incident: dict[int, tuple[int, ...]] = {
            n: tuple(sorted(lid for _, lid in nbrs))
            for n, nbrs in self.adjacency.items()}

        if not is_connected(self, frozenset(self.links)):
            raise DisconnectedTopology("physical graph is not connected")

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(self.nodes)

    def incident(self, node: int) -> tuple[int, ...]:
        """Link ids touching `node`, ascending."""
        return self._incident[node]

    def link_between(self, a: int, b: int) -> int | None:
        return self._pair_link.get((a, b))


@dataclass(frozen=True)
class SpanningTree:
    """Edge ids of a spanning tree."""

    edges: frozenset[int]


@dataclass
class RoutingTable:
    """Single shortest path per reachable destination from one source node."""

    source: int
    paths: dict[int, tuple[int, ...]]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def compute_mcst(topology: Topology, exclude: frozenset[int] = frozenset()) -> SpanningTree:
    """Kruskal minimum spanning tree under edge weight 1/capacity.

    Capacities are positive, so ascending 1/capacity is descending capacity,
    and comparing the floats themselves is exact. Equal capacities are
    broken by ascending link id so every caller gets the identical edge set.
    """
    edges = sorted((-link.capacity, link.link_id, link)
                   for link in topology.links.values() if link.link_id not in exclude)

    uf = _UnionFind(topology.nodes)
    chosen: list[int] = []
    for _neg_capacity, lid, link in edges:
        if uf.union(link.a, link.b):
            chosen.append(lid)
            if len(chosen) == len(topology.nodes) - 1:
                break
    if len(chosen) != len(topology.nodes) - 1:
        raise DisconnectedTopology("graph does not span all nodes")
    return SpanningTree(edges=frozenset(chosen))


def bfs_hop_counts(topology: Topology, source: int,
                   active: frozenset[int] | set[int]) -> dict[int, int]:
    """Unit-weight hop count from `source` to every node it reaches over the
    `active` links."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr, lid in topology.adjacency[node]:
            if lid not in active or nbr in dist:
                continue
            dist[nbr] = dist[node] + 1
            queue.append(nbr)
    return dist


def is_connected(topology: Topology, active: frozenset[int] | set[int]) -> bool:
    """True iff the active links connect every node of the topology."""
    start = next(iter(topology.nodes))
    return len(bfs_hop_counts(topology, start, active)) == len(topology.nodes)


def ospf_costs(topology: Topology, ref_bandwidth: float = 1e8) -> dict[int, float]:
    """OSPF cost of each link, the reference bandwidth over its capacity."""
    return {lid: ref_bandwidth / link.capacity for lid, link in topology.links.items()}


def shortest_paths(topology: Topology, active: frozenset[int] | set[int],
                   source: int, costs: Mapping[int, float],
                   target: int | None = None) -> RoutingTable:
    """Dijkstra over the active links under the per-link `costs`, stopping
    once `target` is settled when one is given.

    Among equal-cost routes the lexicographically smallest node-id sequence
    wins, which both fixes every path deterministically and matches a
    brute-force (cost, path) minimization. The table holds settled nodes
    only. Costs may be floats (OSPF) or exact integers (the oracle); the
    search starts at cost 0 and adds each link's cost in path order.
    """
    best: dict[int, tuple] = {source: (0, (source,))}
    paths: dict[int, tuple[int, ...]] = {}
    heap = [(0, (source,))]
    adjacency = topology.adjacency
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in paths:
            continue
        paths[node] = path
        if node == target:
            break
        for nbr, lid in adjacency[node]:
            if lid not in active or nbr in paths:
                continue
            cand = (cost + costs[lid], path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, cand)
    return RoutingTable(source=source, paths=paths)


def parse_topology(text: str, *, p_active: float = 1.0, p_idle: float = 0.8,
                   p_sleep: float = 0.016, e_c: float = 0.0) -> Topology:
    """Parse the line-oriented topology format.

    node <id> <name>
    link <id> <nodeA> <nodeB> <capacity_bps> [<P_active> <P_idle> <P_sleep> <E_c>]

    Power fields may be omitted per link, in which case the given defaults
    apply. `#` starts a comment.
    """
    nodes: dict[int, str] = {}
    links: list[Link] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "node":
                if len(parts) != 3:
                    raise ValueError("expected: node <id> <name>")
                nid = int(parts[1])
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                nodes[nid] = parts[2]
            elif parts[0] == "link":
                if len(parts) not in (5, 9):
                    raise ValueError("expected: link <id> <a> <b> <capacity> "
                                     "[<P_a> <P_i> <P_s> <E_c>]")
                lid, a, b = int(parts[1]), int(parts[2]), int(parts[3])
                capacity = int(parts[4])
                if capacity <= 0:
                    raise ValueError(f"link {lid} has non-positive capacity")
                if len(parts) == 9:
                    pa, pi, ps, ec = (float(x) for x in parts[5:9])
                    if not all(0.0 <= x < math.inf for x in (pa, pi, ps, ec)):
                        raise ValueError(f"link {lid} power fields must be finite and "
                                         f"non-negative, got {' '.join(parts[5:9])}")
                else:
                    pa, pi, ps, ec = p_active, p_idle, p_sleep, e_c
                links.append(Link(lid, a, b, float(capacity), pa, pi, ps, ec))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: {exc}") from None
    return Topology(nodes, links)


def write_topology(topology: Topology) -> str:
    """Serialize a topology back into the parser's format."""
    out = []
    for nid, name in topology.nodes.items():
        out.append(f"node {nid} {name}")
    for link in topology.links.values():
        out.append(f"link {link.link_id} {link.a} {link.b} {int(link.capacity)} "
                   f"{link.p_active} {link.p_idle} {link.p_sleep} {link.e_c}")
    return "\n".join(out) + "\n"


def bundled_topology_text(name: str = "garr48") -> str:
    """Text of a topology file shipped with the package."""
    from importlib.resources import files

    return files("gospf").joinpath(f"data/{name}.topo").read_text()
