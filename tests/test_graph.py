import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gospf.graph import (DisconnectedTopology, Link, Topology, TopologyError,
                         bfs_hop_counts, compute_mcst, is_connected,
                         ospf_costs, parse_topology, shortest_paths,
                         write_topology)
from gospf.protocol import GospfNode

from conftest import make_topology, random_connected_topology


# ---------------------------------------------------------------- oracles

def enumerate_spanning_trees(topology):
    """All spanning edge sets of size |V|-1, by brute force."""
    n = len(topology.nodes)
    for combo in itertools.combinations(topology.links.values(), n - 1):
        ids = frozenset(l.link_id for l in combo)
        if is_connected(topology, ids):
            yield ids


def tree_weight(topology, edge_ids):
    return sum((Fraction(1) / Fraction(topology.links[e].capacity)
                for e in edge_ids), Fraction(0))


def path_cost(topology, path, ref_bandwidth=1e8):
    """OSPF cost of a node path, summed from the source as Dijkstra does."""
    cost = 0.0
    for u, v in zip(path, path[1:]):
        cost += ref_bandwidth / topology.links[topology.link_between(u, v)].capacity
    return cost


def hop_rows(topology, node):
    """The cut-matrix row `node` files each link under: hops from the node
    to the link's nearer endpoint."""
    gospf_node = GospfNode(node, topology, gamma_u=0.8, gamma_l=0.2,
                           safeguard_interval=2.0, mcst_reset_timer=5.0)
    return {lid: gospf_node._row_of[lid] for lid in topology.links}


def brute_force_paths(topology, active, source, ref_bandwidth=1e8):
    """Min (cost, node-sequence) over every simple path, per destination."""
    best = {source: (0.0, (source,))}

    def walk(node, cost, path):
        for nbr, lid in topology.adjacency[node]:
            if lid not in active or nbr in path:
                continue
            cand = (cost + ref_bandwidth / topology.links[lid].capacity,
                    path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
            walk(nbr, *cand)

    walk(source, 0.0, (source,))
    return best


@st.composite
def topologies(draw, max_nodes=8):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.integers(min_value=0, max_value=4))
    return random_connected_topology(random.Random(seed), n, extra)


# ------------------------------------------------------------------- MCST

def test_mcst_two_nodes_single_link():
    topo = make_topology([(1, 2)])
    assert compute_mcst(topo).edges == frozenset({1})


def test_mcst_four_node_example():
    # AB:10, BC:10, CA:1, CD:5 -> minimum total 1/u is {AB, BC, CD}
    topo = make_topology([(1, 2), (2, 3), (3, 1), (3, 4)],
                         [10.0, 10.0, 1.0, 5.0])
    tree = compute_mcst(topo)
    assert tree.edges == frozenset({1, 2, 4})
    assert tree_weight(topo, tree.edges) == Fraction(1, 10) + Fraction(1, 10) + Fraction(1, 5)


def test_mcst_garr48_cardinality(garr48):
    tree = compute_mcst(garr48)
    assert len(tree.edges) == 47
    assert is_connected(garr48, tree.edges)


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_mcst_matches_exhaustive_enumeration(topo):
    tree = compute_mcst(topo)
    assert len(tree.edges) == len(topo.nodes) - 1
    assert is_connected(topo, tree.edges)
    best = min(tree_weight(topo, t) for t in enumerate_spanning_trees(topo))
    assert tree_weight(topo, tree.edges) == best


@settings(max_examples=40, deadline=None)
@given(topologies(), st.integers(min_value=0, max_value=10_000))
def test_mcst_permutation_invariant(topo, seed):
    rng = random.Random(seed)
    shuffled_links = list(topo.links.values())
    rng.shuffle(shuffled_links)
    node_items = list(topo.nodes.items())
    rng.shuffle(node_items)
    reshuffled = Topology(dict(node_items), shuffled_links)
    assert compute_mcst(reshuffled).edges == compute_mcst(topo).edges


def test_mcst_tie_break_by_link_id():
    # Equal capacities everywhere: Kruskal must prefer ascending link ids.
    topo = make_topology([(1, 2), (2, 3), (3, 1)], 1e7)
    assert compute_mcst(topo).edges == frozenset({1, 2})


def test_mcst_exclude_makes_disconnection_detectable():
    topo = make_topology([(1, 2), (2, 3)])
    with pytest.raises(DisconnectedTopology):
        compute_mcst(topo, exclude=frozenset({1}))


# ----------------------------------------------------------- hop distance

def test_hop_distance_incident_is_zero():
    topo = make_topology([(1, 2), (2, 3), (3, 4)])
    assert hop_rows(topo, 1)[1] == 0
    assert hop_rows(topo, 2)[1] == 0


def test_hop_distance_path_graph():
    topo = make_topology([(1, 2), (2, 3), (3, 4)])
    assert hop_rows(topo, 1)[3] == 2


@settings(max_examples=50, deadline=None)
@given(topologies())
def test_hop_distance_matches_bfs(topo):
    node = min(topo.nodes)
    hops = bfs_hop_counts(topo, node, frozenset(topo.links))
    rows = hop_rows(topo, node)
    for link in topo.links.values():
        assert rows[link.link_id] == min(hops[link.a], hops[link.b])


def test_hop_distance_zero_iff_incident(garr48):
    node = 30
    incident = set(garr48.incident(node))
    for lid, row in hop_rows(garr48, node).items():
        assert (row == 0) == (lid in incident)


def test_hop_distance_on_reference_topology_matches_bfs(garr48):
    for node in (1, 25, 48):
        hops = bfs_hop_counts(garr48, node, frozenset(garr48.links))
        rows = hop_rows(garr48, node)
        for link in garr48.links.values():
            assert rows[link.link_id] == min(hops[link.a], hops[link.b])


# ---------------------------------------------------------- shortest paths

def test_shortest_paths_source_is_trivial():
    topo = make_topology([(1, 2)])
    table = shortest_paths(topo, frozenset({1}), 1, ospf_costs(topo))
    assert table.paths[1] == (1,)
    assert path_cost(topo, table.paths[1]) == 0.0


def test_shortest_paths_two_nodes():
    topo = make_topology([(1, 2)])
    table = shortest_paths(topo, frozenset({1}), 1, ospf_costs(topo))
    assert table.source == 1
    assert table.paths[2] == (1, 2)


def test_shortest_paths_five_node_mixed_capacities():
    # Ring with a chord; brute force confirms both costs and tie-breaks.
    topo = make_topology([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4)],
                         [1e7, 1e7, 5e7, 1e7, 2e7, 2.5e7])
    active = frozenset(topo.links)
    table = shortest_paths(topo, active, 1, ospf_costs(topo))
    oracle = brute_force_paths(topo, active, 1)
    for dest in topo.nodes:
        assert path_cost(topo, table.paths[dest]) == oracle[dest][0]
        assert table.paths[dest] == oracle[dest][1]


@settings(max_examples=60, deadline=None)
@given(topologies(max_nodes=6))
def test_shortest_paths_match_brute_force(topo):
    active = frozenset(topo.links)
    for source in topo.nodes:
        table = shortest_paths(topo, active, source, ospf_costs(topo))
        oracle = brute_force_paths(topo, active, source)
        for dest in topo.nodes:
            assert path_cost(topo, table.paths[dest]) == pytest.approx(oracle[dest][0])
            assert table.paths[dest] == oracle[dest][1]


@settings(max_examples=60, deadline=None)
@given(topologies(), st.integers(min_value=0, max_value=10_000))
def test_targeted_search_settles_the_full_tables_paths(topo, seed):
    # Stopping at a target changes no path: the targeted table holds the
    # target's full-table path and only nodes already settled, each with
    # its full-table path.
    rng = random.Random(seed)
    active = frozenset(lid for lid in topo.links if rng.random() < 0.8)
    costs = ospf_costs(topo)
    for source in topo.nodes:
        full = shortest_paths(topo, active, source, costs).paths
        for target in topo.nodes:
            paths = shortest_paths(topo, active, source, costs, target=target).paths
            assert paths.get(target) == full.get(target)
            assert all(full[node] == path for node, path in paths.items())


def test_shortest_paths_reports_unreachable():
    topo = make_topology([(1, 2), (2, 3)])
    table = shortest_paths(topo, frozenset({1}), 1, ospf_costs(topo))
    assert set(table.paths) == {1, 2}
    assert 3 not in table.paths


# ------------------------------------------------------------ connectivity

def test_is_connected_full_and_tree(garr48):
    assert is_connected(garr48, frozenset(garr48.links))
    tree = compute_mcst(garr48)
    assert is_connected(garr48, tree.edges)


def test_tree_minus_edge_disconnects(garr48):
    tree = compute_mcst(garr48)
    some_edge = min(tree.edges)
    assert not is_connected(garr48, tree.edges - {some_edge})


# ------------------------------------------------------------------ parser

def test_parse_round_trip(garr48):
    text = write_topology(garr48)
    again = parse_topology(text)
    assert again.nodes == garr48.nodes
    assert again.links == garr48.links


def test_topology_without_nodes_rejected():
    with pytest.raises(TopologyError, match="topology has no nodes"):
        parse_topology("# no node lines\n")
    with pytest.raises(TopologyError, match="topology has no nodes"):
        Topology({}, [])


def test_parse_rejects_duplicate_node():
    with pytest.raises(TopologyError, match="line 2"):
        parse_topology("node 1 a\nnode 1 b\n")


def test_parse_rejects_unknown_endpoint():
    text = "node 1 a\nnode 2 b\nlink 1 1 9 100\n"
    with pytest.raises(TopologyError):
        parse_topology(text)


def test_parse_rejects_bad_capacity():
    text = "node 1 a\nnode 2 b\nlink 1 1 2 0\n"
    with pytest.raises(TopologyError, match="line 3"):
        parse_topology(text)


def test_parse_rejects_parallel_links():
    text = "node 1 a\nnode 2 b\nlink 1 1 2 10\nlink 2 2 1 10\n"
    with pytest.raises(TopologyError):
        parse_topology(text)


def test_parse_rejects_disconnected():
    text = ("node 1 a\nnode 2 b\nnode 3 c\nnode 4 d\n"
            "link 1 1 2 10\nlink 2 3 4 10\n")
    with pytest.raises(DisconnectedTopology):
        parse_topology(text)


def test_parse_power_defaults_apply():
    topo = parse_topology("node 1 a\nnode 2 b\nlink 1 1 2 10\n",
                          p_active=2.0, p_sleep=0.5)
    link = topo.links[1]
    assert link.p_active == 2.0
    assert link.p_sleep == 0.5
    assert link.p_idle == 0.8


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        Topology({1: "a", 2: "b"}, [Link(1, 1, 1, 10.0), Link(2, 1, 2, 10.0)])
