import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gospf.protocol
from gospf.energy import InterfaceRole, OperationalState, UtilizationClass, classify
from gospf.graph import is_connected, shortest_paths
from gospf.protocol import (ControlMessage, GospfNode, MessageKind,
                            ProtocolHooks)

from conftest import fresh_awake_ports, make_topology


class RecordingHooks(ProtocolHooks):
    def __init__(self):
        self.events = []

    def record_event(self, t, node, event, link, seq):
        self.events.append((t, node, event, link, seq))

    def of_kind(self, kind):
        return [e for e in self.events if e[2] == kind]


def build_node(topo, node_id, hooks=None, **overrides):
    params = dict(gamma_u=0.8, gamma_l=0.2, safeguard_interval=2.0,
                  mcst_reset_timer=5.0, t_sample=0.2)
    params.update(overrides)
    return GospfNode(node_id, topo, hooks=hooks or RecordingHooks(), **params)


def build_all_nodes(topo, **overrides):
    hooks = RecordingHooks()
    nodes = {n: build_node(topo, n, hooks, **overrides) for n in topo.node_ids}
    return nodes, hooks


def deliver_all(nodes, transmissions, now):
    """Worklist delivery until the flood settles."""
    queue = list(transmissions)
    while queue:
        link, receiver, msg = queue.pop(0)
        queue.extend(nodes[receiver].handle_message(now, msg, arrival_link=link))


def samples_for(node, u_map, cap=1e7, window=0.2):
    """Utilization per link as the engine computes it from the bits each
    link carried over one window."""
    return {lid: (u * cap * window) / (cap * window) for lid, u in u_map.items()}


# Chain 1-2-3-4-5 (tree ids 1..4) with same-capacity chords cut by id order.
# Distances use the full graph, so from node 1: chord 5=(1,3) sits at row 0
# and chords 6=(2,4), 7=(3,5) both at row 1 (node 3 is one hop via chord 5).
CHAIN_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4), (3, 5)]

# Longer chain for a clean three-row escalation from node 1:
# 6=(1,3) row 0, 7=(2,4) row 1, 8=(4,6) row 2.
LONG_CHAIN_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                    (1, 3), (2, 4), (4, 6)]


def chain_topology():
    return make_topology(CHAIN_EDGES, 1e7)


def long_chain_topology():
    return make_topology(LONG_CHAIN_EDGES, 1e7)


# --------------------------------------------------------------- cut rules

def test_all_normal_no_messages():
    topo = chain_topology()
    node = build_node(topo, 1)
    out = node.sample_tick(0.2, samples_for(node, {1: 0.5, 5: 0.5}))
    assert out == []
    assert node.iface_state[5] is OperationalState.IDLE


def test_underutilized_nontree_link_is_cut():
    topo = chain_topology()
    hooks = RecordingHooks()
    node = build_node(topo, 1, hooks)
    out = node.sample_tick(0.2, samples_for(node, {1: 0.5, 5: 0.05}))
    lscups = [msg for _link, _peer, msg in out if msg.kind is MessageKind.LSCUP]
    assert lscups and all(msg.links == (5,) for msg in lscups)
    assert node.iface_state[5] is OperationalState.SLEEP
    assert node.iface_role[5] is InterfaceRole.MCST_CUT
    assert 5 not in node.active_view
    assert node.matrix[0] == {5}
    assert [e[2] for e in hooks.events] == ["CUT", "SLEEP"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(0.8, 0.2), (1.0, 0.0), (0.3, 0.1)]), st.data())
def test_tick_splits_samples_as_classify_does(gammas, data):
    # Node 3 of the chain owns tree links 2 and 3 and chords 5 and 7. Each
    # sample sits on, just past or just short of a threshold, or is NaN.
    # Any over link makes the tick graft from the first one (with nothing
    # cut, that is CONGESTION_UNRESOLVED); otherwise it cuts every under
    # chord in port order.
    gamma_u, gamma_l = gammas
    values = [math.nan]
    for gamma in gammas:
        values += [gamma, math.nextafter(gamma, -math.inf), math.nextafter(gamma, math.inf)]
    node = build_node(chain_topology(), 3, gamma_u=gamma_u, gamma_l=gamma_l)
    samples = {lid: data.draw(st.sampled_from(values)) for lid in node.iface_state}
    classes = [(lid, classify(samples[lid], gamma_u, gamma_l))
               for lid, _peer in node.awake_ports()]
    node.sample_tick(0.2, samples)
    over = [lid for lid, cls in classes if cls is UtilizationClass.OVERUTILIZED]
    if over:
        expected = [("CONGESTION_UNRESOLVED", over[0])]
    else:
        expected = [("CUT", lid) for lid, cls in classes
                    if cls is UtilizationClass.UNDERUTILIZED and lid not in node.mcst.edges]
    assert [(kind, lid) for _t, _n, kind, lid, _seq in node.hooks.events
            if kind != "SLEEP"] == expected


def test_mcst_link_never_cut():
    topo = chain_topology()
    node = build_node(topo, 1)
    out = node.sample_tick(0.2, samples_for(node, {1: 0.0, 5: 0.5}))
    assert out == []
    assert node.iface_state[1] is OperationalState.IDLE


def test_no_cut_while_any_interface_overutilized():
    topo = chain_topology()
    node = build_node(topo, 3)
    out = node.sample_tick(0.2, samples_for(node, {2: 0.9, 3: 0.05, 5: 0.05, 7: 0.05}))
    kinds = {msg.kind for _link, _peer, msg in out}
    assert MessageKind.LSCUP not in kinds
    assert node.iface_state[7] is not OperationalState.SLEEP


# ------------------------------------------------------------ LSCUP handling

def test_lscup_adjacent_sleeps_and_refloods():
    topo = chain_topology()
    node = build_node(topo, 3)
    msg = ControlMessage(MessageKind.LSCUP, origin=1, seq=0, links=(5,))
    out = node.handle_message(0.2, msg, arrival_link=2)
    assert node.iface_state[5] is OperationalState.SLEEP
    assert out and all(sent is msg for _link, _peer, sent in out)
    assert all(link != 2 for link, _peer, _msg in out)


def test_lscup_nonadjacent_updates_matrix_and_refloods():
    topo = chain_topology()
    node = build_node(topo, 5)

    def crosses_link_5(table):
        return any(topo.link_between(u, v) == 5
                   for path in table.paths.values() for u, v in zip(path, path[1:]))

    assert crosses_link_5(node.routing_table())  # 5-3-1 is the route to 1
    msg = ControlMessage(MessageKind.LSCUP, origin=1, seq=0, links=(5,))
    out = node.handle_message(0.2, msg, arrival_link=4)
    # link 5 endpoints (1, 3): node 3 is one hop from node 5 via chord 7
    assert node.matrix[1] == {5}
    assert 5 not in node.active_view
    assert not crosses_link_5(node.routing_table())
    assert out


def test_duplicate_message_dropped():
    topo = chain_topology()
    node = build_node(topo, 3)
    msg = ControlMessage(MessageKind.LSCUP, origin=1, seq=0, links=(5,))
    assert node.handle_message(0.2, msg, arrival_link=2)
    assert node.handle_message(0.3, msg, arrival_link=3) == []


def test_unknown_link_logged_and_dropped():
    topo = chain_topology()
    node = build_node(topo, 3)
    msg = ControlMessage(MessageKind.LSCUP, origin=1, seq=0, links=(99,))
    assert node.handle_message(0.2, msg, arrival_link=2) == []
    assert node.iface_state == {lid: OperationalState.IDLE
                                for lid in topo.incident(3)}


# ----------------------------------------------------------------- grafting

def populate_matrix(node, chords):
    """Cut the given chords via received LSCUPs."""
    for seq, lid in enumerate(chords):
        msg = ControlMessage(MessageKind.LSCUP, origin=200, seq=seq, links=(lid,))
        node.handle_message(0.0, msg, arrival_link=1)


def test_graft_escalates_row_by_row_then_unresolved():
    topo = long_chain_topology()
    hooks = RecordingHooks()
    node = build_node(topo, 1, hooks)
    populate_matrix(node, (6, 7, 8))
    assert node.matrix[0] == {6} and node.matrix[1] == {7} and node.matrix[2] == {8}

    congested = samples_for(node, {1: 0.95, 6: 0.0})
    rows_seen = []
    for tick in range(1, 4):
        out = node.sample_tick(0.2 * tick, congested)
        lsgups = [msg for _link, _peer, msg in out if msg.kind is MessageKind.LSGUP]
        assert lsgups
        rows_seen.append(lsgups[0].links)
    assert rows_seen == [(6,), (7,), (8,)]

    out = node.sample_tick(0.8, congested)
    assert [msg for _link, _peer, msg in out if msg.kind is MessageKind.LSGUP] == []
    assert hooks.of_kind("CONGESTION_UNRESOLVED")


def test_graft_wakes_incident_link_and_sets_safeguard():
    topo = chain_topology()
    node = build_node(topo, 1)
    populate_matrix(node, (5, 6, 7))
    node.sample_tick(0.2, samples_for(node, {1: 0.95, 5: 0.0}))
    assert node.iface_state[5] is OperationalState.IDLE
    assert node.iface_role[5] is InterfaceRole.MCST_GRAFT
    # safeguard_interval plus one sampling period of slack
    assert node.safeguard[5] == pytest.approx(0.2 + 2.0 + 0.2)


def test_scan_floor_resets_when_congestion_clears():
    topo = chain_topology()
    node = build_node(topo, 1)
    populate_matrix(node, (5, 6, 7))
    node.sample_tick(0.2, samples_for(node, {1: 0.95, 5: 0.0}))
    assert node.scan_floor == 1
    node.sample_tick(0.4, samples_for(node, {1: 0.5, 5: 0.5}))
    assert node.scan_floor == 0


def test_safeguard_blocks_recut_until_expiry():
    topo = chain_topology()
    node = build_node(topo, 1)
    populate_matrix(node, (5, 6, 7))
    node.sample_tick(0.2, samples_for(node, {1: 0.95, 5: 0.0}))
    quiet = samples_for(node, {1: 0.5, 5: 0.0})
    assert node.sample_tick(0.4, quiet) == []  # safeguarded
    assert node.iface_state[5] is OperationalState.IDLE
    out = node.sample_tick(2.4, quiet)  # 0.2 + 2.0 + 0.2 slack elapsed
    assert any(msg.kind is MessageKind.LSCUP for _link, _peer, msg in out)
    assert node.iface_state[5] is OperationalState.SLEEP


def test_next_safeguard_expiry_is_the_first_tick_that_may_recut():
    topo = chain_topology()
    node = build_node(topo, 1)
    assert node.next_safeguard_expiry(0.0) == math.inf
    populate_matrix(node, (5, 6, 7))
    node.sample_tick(0.2, samples_for(node, {1: 0.95, 5: 0.0}))
    quiet = samples_for(node, {1: 0.5, 5: 0.0})
    expiry = node.next_safeguard_expiry(0.4)
    assert 0.4 < expiry < node.safeguard[5]
    assert node.sample_tick(math.nextafter(expiry, 0.0), quiet) == []
    out = node.sample_tick(expiry, quiet)
    assert any(msg.kind is MessageKind.LSCUP for _link, _peer, msg in out)
    assert node.next_safeguard_expiry(expiry) == math.inf


def test_tick_forgets_expired_safeguards():
    # An entry whose expiry less the timer slack is at or before the tick
    # compares like an absent one from then on, so the tick drops it.
    topo = chain_topology()
    node = build_node(topo, 1)
    populate_matrix(node, (5, 6, 7))
    node.sample_tick(0.2, samples_for(node, {1: 0.95, 5: 0.0}))
    expiry = node.next_safeguard_expiry(0.4)
    normal = samples_for(node, {1: 0.5, 5: 0.5})
    node.sample_tick(math.nextafter(expiry, 0.0), normal)
    assert list(node.safeguard) == [5]
    node.sample_tick(expiry, normal)
    assert node.safeguard == {}
    node.safeguard = {5: 3.0, 6: 1.0, 7: 2.0}
    node.forget_expired_safeguards(2.0)
    assert node.safeguard == {5: 3.0}


def test_routing_memo_keeps_current_and_previous_view(monkeypatch):
    topo = chain_topology()
    node = build_node(topo, 1)
    calls = []
    original = gospf.protocol.shortest_paths

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gospf.protocol, "shortest_paths", counted)

    def check_table():
        fresh = original(topo, frozenset(node.active_view), 1, node.costs)
        assert node.routing_table().paths == fresh.paths
        assert len(node._route_memo) <= 2

    check_table()
    populate_matrix(node, (5, 6, 7))  # cut
    check_table()
    node.sample_tick(0.2, samples_for(node, {1: 0.95, 5: 0.0}))  # graft 5
    assert 5 in node.active_view
    check_table()
    out = node.sample_tick(2.4, samples_for(node, {1: 0.5, 5: 0.0}))  # cut 5 again
    assert any(msg.kind is MessageKind.LSCUP for _link, _peer, msg in out)
    views_computed = len(calls)
    check_table()
    assert len(calls) == views_computed  # the view before the graft is memoised


def test_lsgup_on_active_link_is_idempotent():
    topo = chain_topology()
    node = build_node(topo, 5)
    before_state = dict(node.iface_state)
    msg = ControlMessage(MessageKind.LSGUP, origin=1, seq=0, links=(5,), expiry=2.4)
    out = node.handle_message(0.2, msg, arrival_link=4)
    assert node.iface_state == before_state
    assert 5 in node.active_view
    assert out  # still re-flooded


def test_stale_lscup_ignored_after_graft_but_forwarded():
    topo = chain_topology()
    node = build_node(topo, 5)
    graft = ControlMessage(MessageKind.LSGUP, origin=1, seq=0, links=(5,), expiry=2.4)
    node.handle_message(0.2, graft, arrival_link=4)
    stale = ControlMessage(MessageKind.LSCUP, origin=3, seq=0, links=(5,))
    out = node.handle_message(0.21, stale, arrival_link=4)
    assert 5 in node.active_view  # graft wins
    assert out  # the message still floods on


# ------------------------------------------------------------------ floods

def test_leaf_refloods_nothing_beyond_arrival_link():
    topo = make_topology([(1, 2), (2, 3)], 1e7)
    node = build_node(topo, 1)  # leaf: single interface
    msg = ControlMessage(MessageKind.LSCUP, origin=3, seq=0, links=(2,))
    assert node.handle_message(0.2, msg, arrival_link=1) == []


def test_flood_copies_on_all_but_arrival():
    topo = make_topology([(1, 2), (1, 3), (1, 4)], 1e7)
    node = build_node(topo, 1)
    msg = ControlMessage(MessageKind.LSA, origin=2, seq=0, links=(1,))
    out = node.flood(msg, arrival_link=1)
    assert len(out) == 2
    assert {peer for _link, peer, _msg in out} == {3, 4}


def test_flood_reaches_every_node_exactly_once():
    topo = make_topology([(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)], 1e7)
    nodes, _hooks = build_all_nodes(topo)
    seen_before = {n: len(nodes[n].seen) for n in nodes}
    out = nodes[1].sample_tick(0.2, samples_for(nodes[1], {1: 0.5, 4: 0.05, 5: 0.5}))
    assert out
    deliver_all(nodes, out, 0.201)
    for n in nodes:
        if n == 1:
            continue
        assert len(nodes[n].seen) == seen_before[n] + 1


def test_flood_transmission_bound():
    topo = make_topology([(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)], 1e7)
    nodes, _hooks = build_all_nodes(topo)
    transmissions = []
    out = nodes[1].sample_tick(0.2, samples_for(nodes[1], {1: 0.5, 4: 0.05, 5: 0.5}))
    queue = list(out)
    while queue:
        link, receiver, msg = copy = queue.pop(0)
        transmissions.append(copy)
        queue.extend(nodes[receiver].handle_message(0.201, msg, arrival_link=link))
    active = sum(1 for n in nodes.values() for s in [n] if s) and len(topo.links)
    assert len(transmissions) <= 2 * active


# ------------------------------------------------------- awake-port cache
# Each node caches the ports it floods over. A stale cache would send the
# re-flood below over the wrong links.

def primed(node):
    """`node` with its awake-port cache filled."""
    assert node.awake_ports() == fresh_awake_ports(node)
    return node


def reflood_links(node, msg, arrival_link):
    out = node.handle_message(0.4, msg, arrival_link=arrival_link)
    assert node._awake_ports == fresh_awake_ports(node)
    return {link for link, _peer, _msg in out}


def test_sleep_drops_the_awake_ports():
    node = primed(build_node(chain_topology(), 3))
    msg = ControlMessage(MessageKind.LSCUP, origin=1, seq=0, links=(5,))
    assert reflood_links(node, msg, arrival_link=2) == {3, 7}


def test_wake_drops_the_awake_ports():
    node = build_node(chain_topology(), 1)
    populate_matrix(node, (5,))
    primed(node)
    msg = ControlMessage(MessageKind.LSGUP, origin=2, seq=0, links=(5,), expiry=2.6)
    assert reflood_links(node, msg, arrival_link=1) == {5}


def test_lsa_drops_the_awake_ports():
    node = primed(build_node(square_topology(), 1))
    msg = ControlMessage(MessageKind.LSA, origin=4, seq=0, links=(4,))
    assert reflood_links(node, msg, arrival_link=1) == set()


def test_reset_drops_the_awake_ports():
    node = build_node(square_topology(), 1)
    cut = ControlMessage(MessageKind.LSCUP, origin=4, seq=0, links=(4,))
    assert reflood_links(node, cut, arrival_link=1) == set()
    primed(node)
    msg = ControlMessage(MessageKind.RESET, origin=2, seq=0, links=(2,))
    assert reflood_links(node, msg, arrival_link=1) == {4}


# ------------------------------------------------------------------- reset

def square_topology():
    return make_topology([(1, 2), (2, 3), (3, 4), (4, 1)], 1e7)


def cut_link_everywhere(nodes, lid, origin):
    msg = ControlMessage(MessageKind.LSCUP, origin=origin, seq=77, links=(lid,))
    for node in nodes.values():
        node.seen.discard(msg.key())
        node.handle_message(0.2, msg)


def test_second_reset_for_a_failed_link_keeps_the_hop_table(monkeypatch):
    # Both endpoints of a failed tree link start a reset, so every node gets
    # two RESETs naming it; only the first changes the failed set.
    node = build_node(square_topology(), 1)
    searches = []
    original = gospf.protocol.bfs_hop_counts

    def counted(*args):
        searches.append(args[1])
        return original(*args)

    monkeypatch.setattr(gospf.protocol, "bfs_hop_counts", counted)
    first = ControlMessage(MessageKind.RESET, origin=2, seq=0, links=(2,))
    node.handle_message(0.4, first, arrival_link=1)
    assert searches == [1]
    rows = node._row_of
    assert rows == {1: 0, 2: 1, 3: 1, 4: 0}
    second = ControlMessage(MessageKind.RESET, origin=3, seq=0, links=(2,))
    node.handle_message(0.4, second, arrival_link=4)
    assert searches == [1]
    assert node._row_of is rows
    assert node._row_of == {1: 0, 2: 1, 3: 1, 4: 0}


def test_nontree_failure_triggers_lsa_not_reset():
    topo = square_topology()
    nodes, hooks = build_all_nodes(topo)
    cut_link_everywhere(nodes, 4, origin=1)
    nodes[1].notice_link_failure(4)
    out = nodes[1].sample_tick(0.4, samples_for(nodes[1], {1: 0.5}))
    kinds = {msg.kind for _link, _peer, msg in out}
    assert kinds == {MessageKind.LSA}
    assert nodes[1].reset_until is None
    assert not hooks.of_kind("RESET")


def test_mcst_failure_resets_and_recomputes_tree():
    topo = square_topology()
    nodes, hooks = build_all_nodes(topo)
    tree_before = nodes[1].mcst.edges
    assert tree_before == frozenset({1, 2, 3})
    cut_link_everywhere(nodes, 4, origin=1)
    assert all(n.iface_state.get(4, None) in (None, OperationalState.SLEEP)
               for n in nodes.values())

    nodes[2].notice_link_failure(2)
    nodes[3].notice_link_failure(2)
    out = nodes[2].sample_tick(0.4, samples_for(nodes[2], {1: 0.5}))
    out += nodes[3].sample_tick(0.4, samples_for(nodes[3], {3: 0.5}))
    assert hooks.of_kind("RESET")
    deliver_all(nodes, out, 0.401)

    for node in nodes.values():
        assert node.reset_until is not None
        for lid, state in node.iface_state.items():
            if lid == 2:
                continue
            assert state is OperationalState.IDLE  # all awake during reset
        assert node.matrix == {} or not any(node.matrix.values())
        assert node.safeguard == {}

    for node in nodes.values():
        node.complete_reset_if_due(6.0)
        assert node.reset_until is None
        assert node.mcst.edges == frozenset({1, 3, 4})
        assert 2 not in node.mcst.edges

    views = {frozenset(node.active_view) for node in nodes.values()}
    assert views == {frozenset({1, 3, 4})}
    assert is_connected(topo, next(iter(views)))


def test_duplicate_reset_is_idempotent():
    topo = square_topology()
    nodes, _hooks = build_all_nodes(topo)
    nodes[2].notice_link_failure(2)
    out = nodes[2].sample_tick(0.4, samples_for(nodes[2], {1: 0.5}))
    deliver_all(nodes, out, 0.401)
    first_until = nodes[4].reset_until
    nodes[3].notice_link_failure(2)
    out = nodes[3].sample_tick(0.6, samples_for(nodes[3], {3: 0.5}))
    deliver_all(nodes, out, 0.601)
    assert nodes[4].reset_until >= first_until


def test_tick_suppressed_during_reset_window():
    topo = square_topology()
    nodes, _hooks = build_all_nodes(topo)
    nodes[2].notice_link_failure(2)
    deliver_all(nodes, nodes[2].sample_tick(0.4, {}), 0.401)
    out = nodes[4].sample_tick(0.6, samples_for(nodes[4], {3: 0.0, 4: 0.0}))
    assert out == []  # no cuts while resetting


# ------------------------------------------------------- view consistency

def test_views_converge_after_cut_flood():
    topo = chain_topology()
    nodes, _hooks = build_all_nodes(topo)
    out = []
    for n in sorted(nodes):
        u = {lid: 0.05 if lid >= 5 else 0.5 for lid in topo.incident(n)}
        out.extend(nodes[n].sample_tick(0.2, samples_for(nodes[n], u)))
    deliver_all(nodes, out, 0.201)
    views = {frozenset(node.active_view) for node in nodes.values()}
    assert views == {frozenset({1, 2, 3, 4})}
    for node in nodes.values():
        assert is_connected(topo, node.active_view)


def check_node_invariants(topo, nodes):
    views = {frozenset(node.active_view) for node in nodes.values()}
    assert len(views) == 1  # eventual consistency once floods settled
    view = next(iter(views))
    assert nodes[1].mcst.edges <= view
    assert is_connected(topo, view)
    for node in nodes.values():
        for lid, state in node.iface_state.items():
            role = node.iface_role[lid]
            if role is InterfaceRole.MCST_CUT:
                assert state is OperationalState.SLEEP
            if role is InterfaceRole.MCST_TREE:
                assert state is not OperationalState.SLEEP
            assert (lid in node.active_view) == (state is not OperationalState.SLEEP)


def test_random_tick_sequences_preserve_invariants():
    import random

    from conftest import random_connected_topology

    for seed in range(10):
        rng = random.Random(seed)
        topo = random_connected_topology(rng, rng.randint(4, 9), rng.randint(2, 5))
        nodes, _hooks = build_all_nodes(topo)
        for step in range(1, 25):
            now = 0.2 * step
            out = []
            for n in sorted(nodes):
                u = {lid: rng.choice((0.0, 0.1, 0.5, 0.95))
                     for lid in topo.incident(n)}
                out.extend(nodes[n].sample_tick(
                    now, samples_for(nodes[n], u,
                                     cap=topo.links[min(topo.links)].capacity)))
            deliver_all(nodes, out, now + 0.001)
            check_node_invariants(topo, nodes)
