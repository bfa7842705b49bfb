"""The distributed link cut/graft state machine.

Each node owns a link-state view of the topology, the shared spanning tree,
a matrix of switched-off links indexed by hop distance, and safeguard timers
for recently restored links. All inter-node effects travel as flooded
control messages; the node never touches another node's state.
"""

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .energy import (InterfaceRole, OperationalState, UtilizationClass, classify,
                     validate_thresholds)
from .graph import (RoutingTable, SpanningTree, Topology, bfs_hop_counts,
                    compute_mcst, ospf_costs, shortest_paths)

log = logging.getLogger(__name__)

# Timer comparisons tolerate float accumulation in tick arithmetic; the
# safeguard slack is orders of magnitude larger than this.
_EPS = 1e-9

_OVER = UtilizationClass.OVERUTILIZED
_UNDER = UtilizationClass.UNDERUTILIZED


class MessageKind(Enum):
    LSCUP = "LSCUP"
    LSGUP = "LSGUP"
    LSA = "LSA"
    RESET = "RESET"


@dataclass(frozen=True)
class ControlMessage:
    """Flooded protocol message; (origin, seq) identifies it for dedup.

    LSGUP messages carry the absolute safeguard expiry of the restored
    links so that every node in the network records the identical timer.
    """

    kind: MessageKind
    origin: int
    seq: int
    links: tuple[int, ...]
    expiry: float = 0.0

    def key(self) -> tuple[int, int]:
        return (self.origin, self.seq)


class ProtocolHooks:
    """Engine-side callbacks; the default implementation records nothing. A
    node calls `interface_slept` or `interface_woke` right before it records
    the matching SLEEP or WAKE event."""

    def record_event(self, t: float, node: int, event: str, link: int, seq: int) -> None:
        pass

    def interface_woke(self, t: float, node: int, link: int) -> None:
        pass

    def interface_slept(self, t: float, node: int, link: int) -> None:
        pass

    def spanning_tree(self, topology: Topology, exclude: frozenset[int]) -> SpanningTree:
        """The shared tree over the links not in `exclude`. Every node
        computes the same tree from the same inputs, so an engine that
        hosts many nodes may hand out one copy per failed-link set."""
        return compute_mcst(topology, exclude=exclude)


class GospfNode:
    """Sequential per-router state machine. The engine delivers ticks and
    messages one at a time; outputs are (link, peer, message) copies to
    enqueue."""

    def __init__(self, node_id: int, topology: Topology, *, gamma_u: float,
                 gamma_l: float, safeguard_interval: float, mcst_reset_timer: float,
                 t_sample: float = 0.2, costs: dict[int, float] | None = None,
                 hooks: ProtocolHooks | None = None):
        self.node_id = node_id
        self.topology = topology
        validate_thresholds(gamma_u, gamma_l)
        self.gamma_u = gamma_u
        self.gamma_l = gamma_l
        self.safeguard_interval = safeguard_interval
        self.mcst_reset_timer = mcst_reset_timer
        self.t_sample = t_sample
        # OSPF cost per link; an engine hands every node the same table.
        self.costs = ospf_costs(topology) if costs is None else costs
        self.hooks = hooks or ProtocolHooks()

        self.failed: set[int] = set()
        self.mcst: SpanningTree = self.hooks.spanning_tree(topology, frozenset())
        self.active_view: set[int] = set(topology.links)
        self._local_links: tuple[int, ...] = topology.incident(node_id)
        # (link, peer) for every local link, in flood order.
        self._ports: tuple[tuple[int, int], ...] = tuple(
            (lid, topology.links[lid].other(node_id)) for lid in self._local_links)
        # The ports whose link is neither failed nor asleep, in flood order.
        # Every change to `failed` or `iface_state` resets it to None.
        self._awake_ports: tuple[tuple[int, int], ...] | None = None
        self.iface_state: dict[int, OperationalState] = {}
        self.iface_role: dict[int, InterfaceRole] = {}
        for lid in self._local_links:
            self.iface_state[lid] = OperationalState.IDLE
            self.iface_role[lid] = (InterfaceRole.MCST_TREE if lid in self.mcst.edges
                                    else InterfaceRole.MCST_UNCUT)
        self.matrix: dict[int, set[int]] = {}
        self.safeguard: dict[int, float] = {}
        # Keys of the messages seen since the controller's last tick began.
        self.seen: set[tuple[int, int]] = set()
        self.scan_floor = 0
        self.reset_until: float | None = None
        self.pending_failures: list[int] = []
        self._seq = 0
        self._set_hops()
        self._routing: RoutingTable | None = None
        # The current and the previous (view, table) pair: the midday
        # cut/graft oscillation flips between two views.
        self._route_memo: dict[frozenset[int], RoutingTable] = {}

    # ------------------------------------------------------------------ util

    def _next_message(self, kind: MessageKind, links: tuple[int, ...],
                      expiry: float = 0.0) -> ControlMessage:
        msg = ControlMessage(kind, self.node_id, self._seq, links, expiry)
        self._seq += 1
        self.seen.add(msg.key())
        return msg

    def _set_hops(self) -> None:
        """Hop counts over the surviving links, and from them the cut-matrix
        row of every link: hops to its nearer endpoint (inf if neither is
        reachable)."""
        hops = bfs_hop_counts(self.topology, self.node_id,
                              self.topology.links.keys() - self.failed)
        self._row_of = {lid: min(hops.get(link.a, math.inf), hops.get(link.b, math.inf))
                        for lid, link in self.topology.links.items()}

    def _add_failed(self, link_id: int) -> None:
        """Record a failed link. The hop table depends on the failed set
        alone, so a link already in it (a second RESET or LSA for the same
        failure) leaves the table as it is."""
        if link_id not in self.failed:
            self.failed.add(link_id)
            self._set_hops()

    def routing_table(self) -> RoutingTable:
        if self._routing is None:
            view = frozenset(self.active_view)
            memo = self._route_memo
            table = memo.pop(view, None)
            if table is None:
                table = shortest_paths(self.topology, view, self.node_id, self.costs)
                if len(memo) == 2:
                    del memo[next(iter(memo))]
            memo[view] = table
            self._routing = table
        return self._routing

    def next_safeguard_expiry(self, now: float) -> float:
        """The earliest time after `now` at which sample_tick's safeguard
        comparisons change their outcome, or inf when none will. Forgets
        the safeguards expired by `now`."""
        self.forget_expired_safeguards(now)
        return min(self.safeguard.values(), default=math.inf) - _EPS

    def graft_expiry(self, now: float) -> float:
        """The safeguard expiry of the links a graft at `now` restores. One
        sampling period of slack keeps it strictly after every remote wake
        timestamp, so re-cuts are never mistaken for stale cuts."""
        return now + self.safeguard_interval + self.t_sample

    def safeguard_signature(self, instants: list[float]) -> tuple[tuple[int, int], ...]:
        """Each safeguard's link and how many of the ascending `instants` lie
        below its expiry less _EPS. Every read of a safeguard compares that
        value with a time, so two safeguard maps with the same signature
        read alike at those instants."""
        safeguard = self.safeguard
        return tuple(zip(safeguard, map(bisect_left, repeat(instants),
                                        map(_EPS.__rsub__, safeguard.values()))))

    def forget_expired_safeguards(self, now: float) -> None:
        """Drop the safeguards that have expired by `now`. Such an entry
        compares like an absent one at `now` and after, and a later graft's
        expiry exceeds it, so nothing reads a difference."""
        safeguard = self.safeguard
        if safeguard and min(safeguard.values()) - _EPS <= now:
            for lid in [lid for lid, s in safeguard.items() if s - _EPS <= now]:
                del safeguard[lid]

    def awake_ports(self) -> tuple[tuple[int, int], ...]:
        """(link, peer) for every local link neither failed nor asleep."""
        ports = self._awake_ports
        if ports is None:
            failed, state, sleep = self.failed, self.iface_state, OperationalState.SLEEP
            ports = self._awake_ports = tuple(
                (lid, peer) for lid, peer in self._ports
                if lid not in failed and state[lid] is not sleep)
        return ports

    def flood(self, message: ControlMessage, arrival_link: int | None = None):
        """(link, peer, message) for every awake interface except the arrival one."""
        ports = self._awake_ports
        if ports is None:
            ports = self.awake_ports()
        return [(lid, peer, message) for lid, peer in ports if lid != arrival_link]

    def _sleep_interface(self, now: float, link_id: int) -> None:
        if self.iface_state.get(link_id) in (OperationalState.IDLE, OperationalState.ACTIVE):
            self.iface_state[link_id] = OperationalState.SLEEP
            self._awake_ports = None
            self.iface_role[link_id] = InterfaceRole.MCST_CUT
            self.hooks.interface_slept(now, self.node_id, link_id)
            self.hooks.record_event(now, self.node_id, "SLEEP", link_id, -1)

    def _wake_interface(self, now: float, link_id: int, role: InterfaceRole) -> None:
        if self.iface_state.get(link_id) is OperationalState.SLEEP:
            self.iface_state[link_id] = OperationalState.IDLE
            self._awake_ports = None
            self.iface_role[link_id] = role
            self.hooks.interface_woke(now, self.node_id, link_id)
            self.hooks.record_event(now, self.node_id, "WAKE", link_id, -1)

    # ---------------------------------------------------------------- events

    def sample_tick(self, now: float, samples: dict[int, float]):
        """Periodic check: handle failure news, then cut or graft per the
        thresholds. `samples` maps link ids to their utilization over the
        window just ended and may cover more links than this node owns.
        Returns the copies to send."""
        self.forget_expired_safeguards(now)
        out = []
        while self.pending_failures:
            lid = self.pending_failures.pop(0)
            if lid in self.failed:
                continue
            if lid in self.mcst.edges:
                out.extend(self._start_reset(now, lid))
            else:
                out.extend(self._announce_failure(now, lid))
        if self.reset_until is not None:
            return out

        gamma_u, gamma_l = self.gamma_u, self.gamma_l
        over = None
        under = []
        for lid, _peer in self.awake_ports():
            if lid not in samples:
                continue
            kind = classify(samples[lid], gamma_u, gamma_l)
            if kind is _OVER:
                if over is None:
                    over = lid
            elif kind is _UNDER:
                under.append(lid)
            if (self.iface_role[lid] is InterfaceRole.MCST_GRAFT
                    and self.safeguard.get(lid, -math.inf) - _EPS <= now):
                self.iface_role[lid] = InterfaceRole.MCST_UNCUT

        if over is not None:
            out.extend(self._graft_step(now, over))
            return out

        self.scan_floor = 0
        for lid in under:
            if lid in self.mcst.edges:
                continue
            if self.safeguard.get(lid, -math.inf) - _EPS > now:
                continue
            out.extend(self._cut(now, lid))
        return out

    def _cut(self, now: float, link_id: int):
        msg = self._next_message(MessageKind.LSCUP, (link_id,))
        self.hooks.record_event(now, self.node_id, "CUT", link_id, msg.seq)
        self._sleep_interface(now, link_id)
        self._mark_cut(link_id)
        return self.flood(msg)

    def _mark_cut(self, link_id: int) -> None:
        self.active_view.discard(link_id)
        row = self._row_of[link_id]
        cut = self.matrix.get(row)
        if cut is None:
            self.matrix[row] = {link_id}
        else:
            cut.add(link_id)
        self._routing = None

    def _graft_step(self, now: float, congested_link: int):
        """Restore the links in the first non-empty matrix row at or past the
        scan floor; escalation advances the floor one row per tick while the
        congestion lasts."""
        row = None
        for r in sorted(self.matrix):
            if r >= self.scan_floor and self.matrix[r]:
                row = r
                break
        if row is None:
            self.hooks.record_event(now, self.node_id, "CONGESTION_UNRESOLVED",
                                    congested_link, -1)
            return []
        links = tuple(sorted(self.matrix[row]))
        expiry = self.graft_expiry(now)
        msg = self._next_message(MessageKind.LSGUP, links, expiry)
        self.hooks.record_event(now, self.node_id, "GRAFT", congested_link, msg.seq)
        self._apply_graft(now, links, expiry)
        self.scan_floor = row + 1
        return self.flood(msg)

    def _apply_graft(self, now: float, links: tuple[int, ...], expiry: float) -> None:
        live = [lid for lid in links if lid not in self.failed]
        for row in self.matrix.values():
            row.difference_update(live)
        for lid in live:
            self.active_view.add(lid)
            # Safeguard recorded at every node, not only endpoints: an LSCUP
            # naming a safeguarded link is stale (cut lost the race to this
            # graft) and must be ignored identically everywhere. The carried
            # absolute expiry makes the decision identical at every node.
            self.safeguard[lid] = max(self.safeguard.get(lid, -math.inf), expiry)
            if lid in self.iface_state:
                self._wake_interface(now, lid, InterfaceRole.MCST_GRAFT)
                if (self.iface_role[lid] is not InterfaceRole.MCST_TREE
                        and self.iface_state[lid] is not OperationalState.SLEEP):
                    self.iface_role[lid] = InterfaceRole.MCST_GRAFT
        self._routing = None

    def handle_message(self, now: float, msg: ControlMessage,
                       arrival_link: int | None = None):
        """Apply a received message and re-flood it. Duplicates are dropped."""
        key = (msg.origin, msg.seq)  # msg.key(), without the call
        seen = self.seen
        if key in seen:
            return []
        seen.add(key)
        links = msg.links
        known = self.topology.links
        for lid in links:
            if lid not in known:
                log.warning("node %d: dropping %s naming unknown link(s) %s",
                            self.node_id, msg.kind.value, links)
                return []
        kind = msg.kind
        if kind is MessageKind.LSCUP:
            lid = links[0]
            if self.safeguard.get(lid, -math.inf) - _EPS > now:
                pass  # stale cut superseded by a graft; forward but ignore
            else:
                if lid in self.iface_state:
                    self._sleep_interface(now, lid)
                self._mark_cut(lid)
        elif kind is MessageKind.LSGUP:
            self._apply_graft(now, links, msg.expiry)
        elif kind is MessageKind.LSA:
            self._apply_failure(now, links[0])
        elif kind is MessageKind.RESET:
            self._apply_reset(now, links[0])
        return self.flood(msg, arrival_link)

    # --------------------------------------------------------------- failure

    def notice_link_failure(self, link_id: int) -> None:
        """Link-layer down signal from the engine; acted on at the next tick."""
        if link_id not in self.pending_failures:
            self.pending_failures.append(link_id)

    def _announce_failure(self, now: float, link_id: int):
        msg = self._next_message(MessageKind.LSA, (link_id,))
        self._apply_failure(now, link_id)
        return self.flood(msg)

    def _apply_failure(self, now: float, link_id: int) -> None:
        self._add_failed(link_id)
        self._awake_ports = None
        self.active_view.discard(link_id)
        if link_id in self.iface_state:
            self._sleep_interface(now, link_id)
        for row in self.matrix.values():
            row.discard(link_id)
        self.safeguard.pop(link_id, None)
        self._routing = None

    def _start_reset(self, now: float, failed_link: int):
        msg = self._next_message(MessageKind.RESET, (failed_link,))
        self.hooks.record_event(now, self.node_id, "RESET", failed_link, msg.seq)
        self._apply_reset(now, failed_link)
        return self.flood(msg)

    def _apply_reset(self, now: float, failed_link: int) -> None:
        """Wake everything except the failed link, forget cut/safeguard state,
        and schedule the tree recomputation."""
        self._add_failed(failed_link)
        self._awake_ports = None
        for lid in self._local_links:
            if lid in self.failed:
                if lid == failed_link:
                    self._sleep_interface(now, lid)
                continue
            role = (InterfaceRole.MCST_TREE
                    if self.iface_role.get(lid) is InterfaceRole.MCST_TREE
                    else InterfaceRole.MCST_UNCUT)
            self._wake_interface(now, lid, role)
        self.matrix.clear()
        self.safeguard.clear()
        self.scan_floor = 0
        self.pending_failures = [l for l in self.pending_failures if l != failed_link]
        self.active_view = set(self.topology.links) - self.failed
        until = now + self.mcst_reset_timer
        self.reset_until = until if self.reset_until is None else max(self.reset_until, until)
        self._routing = None

    def complete_reset_if_due(self, now: float) -> None:
        """After the reset timer elapses, recompute the tree on the surviving
        topology and resume normal operation."""
        if self.reset_until is None or now < self.reset_until - _EPS:
            return
        self.reset_until = None
        self.mcst = self.hooks.spanning_tree(self.topology, frozenset(self.failed))
        for lid in self.iface_state:
            if lid in self.failed:
                continue
            if lid in self.mcst.edges:
                self.iface_role[lid] = InterfaceRole.MCST_TREE
            elif self.iface_state[lid] is OperationalState.SLEEP:
                self.iface_role[lid] = InterfaceRole.MCST_CUT
            else:
                self.iface_role[lid] = InterfaceRole.MCST_UNCUT
        self._routing = None
