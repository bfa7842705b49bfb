import contextlib
import random

import pytest

from gospf.energy import OperationalState
from gospf.engine import GospfController
from gospf.graph import Link, Topology, bundled_topology_text, parse_topology


@pytest.fixture(scope="session")
def garr48():
    return parse_topology(bundled_topology_text("garr48"))


def make_topology(edges, capacities=None, **link_kwargs):
    """Build a topology from (a, b) pairs; nodes inferred, link ids 1-based.

    `capacities` maps either all links (scalar) or per-edge (list).
    """
    if capacities is None:
        capacities = [1e7] * len(edges)
    elif isinstance(capacities, (int, float)):
        capacities = [float(capacities)] * len(edges)
    nodes = {}
    links = []
    for i, ((a, b), cap) in enumerate(zip(edges, capacities), start=1):
        nodes[a] = f"n{a}"
        nodes[b] = f"n{b}"
        links.append(Link(i, a, b, float(cap), **link_kwargs))
    return Topology(nodes, links)


def random_connected_topology(rng: random.Random, n_nodes: int, extra: int,
                              cap_choices=(1e7, 2e7, 5e7, 1e8)):
    """Random tree plus `extra` chords; capacities drawn from `cap_choices`."""
    nodes = list(range(1, n_nodes + 1))
    edges = []
    for i in range(1, n_nodes):
        parent = rng.choice(nodes[:i])
        edges.append((parent, nodes[i]))
    pairs = {tuple(sorted(e)) for e in edges}
    candidates = [(a, b) for a in nodes for b in nodes
                  if a < b and (a, b) not in pairs]
    rng.shuffle(candidates)
    edges.extend(candidates[:extra])
    caps = [rng.choice(cap_choices) for _ in edges]
    return make_topology(edges, caps)


def fresh_awake_ports(node):
    """A GospfNode's (link, peer) ports that are neither failed nor asleep,
    recomputed from its state."""
    return tuple((lid, peer) for lid, peer in node._ports
                 if lid not in node.failed
                 and node.iface_state[lid] is not OperationalState.SLEEP)


class NeverHits(dict):
    """A tick memo that misses every lookup and keeps nothing stored in it,
    so every tick runs in full."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


@contextlib.contextmanager
def tick_memo_off():
    """Within the block, new GospfControllers run every tick in full."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GospfController, "memo_factory", NeverHits)
        yield


@pytest.fixture
def no_tick_memo():
    with tick_memo_off():
        yield
