"""Deterministic windowed simulation loop binding topology, protocol, traffic,
and energy accounting, plus the GOSPF-vs-baseline comparison report.

Time advances in sampling windows. Within each window: demands are evaluated
and allocated on the routes the controller currently believes in, energy
accrues for the window, and the controller runs its end-of-window checks.
One loop serves both modes: `AlwaysOn` is the standard-OSPF baseline and
`GospfController` runs a GospfNode per router. Identical scenarios produce
byte-identical metrics and event logs.
"""

import hashlib
import heapq
import math
import sys
from dataclasses import dataclass, field
from operator import attrgetter

from .config import ConfigError, ScenarioConfig
from .energy import (ONE, EnergyAccount, EnergyLedger, InterfaceRole, OperationalState,
                     classify, exact)
# Re-exported: profiling tools look the network-energy sum up on this module.
from .energy import total_network_energy  # noqa: F401
from .graph import (DisconnectedTopology, RoutingTable, SpanningTree, Topology,
                    bfs_hop_counts, is_connected, ospf_costs, shortest_paths,
                    write_topology)
from .protocol import GospfNode, ProtocolHooks
from .traffic import TrafficMatrix, allocate, ordered_sum, write_traffic

MODE_GOSPF = "gospf"


class MismatchedScenarios(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    traffic: TrafficMatrix
    config: ScenarioConfig
    link_failures: tuple[tuple[float, int], ...] = ()  # (time, link_id)

    def fingerprint(self) -> str:
        """Scenario identity for compare(); excludes the mode."""
        cfg = self.config
        blob = "\x00".join([
            write_topology(self.topology),
            write_traffic(self.traffic),
            f"{cfg.horizon!r}|{cfg.t_sample!r}|{cfg.gamma_u!r}|{cfg.gamma_l!r}"
            f"|{cfg.safeguard!r}|{cfg.ref_bandwidth!r}|{cfg.tcp_burst_frac!r}",
            repr(sorted(self.link_failures)),
        ])
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Window:
    """Everything one window yields. A replayed window yields the record of
    the window before it."""

    active: frozenset[int]  # links usable for traffic at the window end
    flows: tuple  # (fid, rate, path) per flow with a positive rate, as allocated
    charged: int  # ledger units the window added
    offered_bits: float
    delivered_bits: float
    dropped_bits: float
    ctrl_bytes: int
    quiesced: bool


@dataclass
class MetricsSeries:
    mode: str
    fingerprint: str
    t_sample: float
    horizon: float
    windows: list[Window] = field(default_factory=list)
    energy_j: list[float] = field(default_factory=list)  # cumulative, per window
    congestion_unresolved: int = 0

    # Per-window columns and totals, read from the records.

    @property
    def times(self) -> list[float]:
        return [w * self.t_sample for w in range(len(self.windows))]

    @property
    def active_links(self) -> list[int]:
        return [len(window.active) for window in self.windows]

    @property
    def throughput_bps(self) -> list[float]:
        return [window.delivered_bits / self.t_sample for window in self.windows]

    @property
    def dropped_bits(self) -> list[float]:
        return [window.dropped_bits for window in self.windows]

    @property
    def quiesced(self) -> list[bool]:
        return [window.quiesced for window in self.windows]

    @property
    def ctrl_bytes_total(self) -> int:
        return sum(window.ctrl_bytes for window in self.windows)

    @property
    def total_energy_j(self) -> float:
        return self.energy_j[-1] if self.energy_j else 0.0

    @property
    def avg_active_links(self) -> float:
        return sum(self.active_links) / len(self.windows) if self.windows else 0.0

    @property
    def loss_pct(self) -> float:
        offered = ordered_sum(window.offered_bits for window in self.windows)
        if offered <= 0:
            return 0.0
        return 100.0 * ordered_sum(window.dropped_bits for window in self.windows) / offered

    @property
    def overhead_pct(self) -> float:
        delivered_bytes = ordered_sum(window.delivered_bits for window in self.windows) / 8.0
        if delivered_bytes <= 0:
            return 0.0 if self.ctrl_bytes_total == 0 else math.inf
        return 100.0 * self.ctrl_bytes_total / delivered_bytes

    def csv_text(self) -> str:
        """One row per window; a repeated record's columns are formatted once."""
        ts = self.t_sample
        lines = ["t,active_links,power_w,throughput_bps,energy_j,ctrl_bytes,dropped_bits"]
        last = None
        for i, (window, energy) in enumerate(zip(self.windows, self.energy_j)):
            if window is not last:
                last = window
                head = (f"{len(window.active)},{window.charged / ONE / ts!r},"
                        f"{window.delivered_bits / ts!r}")
                tail = f"{window.ctrl_bytes},{window.dropped_bits!r}"
            lines.append(f"{i * ts!r},{head},{energy!r},{tail}")
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [
            f"mode={self.mode}",
            f"fingerprint={self.fingerprint}",
            f"windows={len(self.windows)}",
            f"t_sample={self.t_sample!r}",
            f"horizon={self.horizon!r}",
            f"total_energy_j={self.total_energy_j!r}",
            f"avg_active_links={self.avg_active_links!r}",
            f"loss_pct={self.loss_pct!r}",
            f"overhead_pct={self.overhead_pct!r}",
            f"congestion_unresolved={self.congestion_unresolved}",
        ]
        return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    metrics: MetricsSeries
    events: list[str]
    accounts: dict[tuple[int, int], EnergyAccount] | None = None  # (link, node)
    # Message copies sent over each link, for links that carried any.
    flood_copies: dict[int, int] = field(default_factory=dict)

    def links_csv_text(self, topology: Topology) -> str:
        """One row per link: flood copies, then each endpoint interface's
        wake-ups and seconds asleep."""
        lines = ["link,a,b,flood_copies,wakeups_a,wakeups_b,sleep_s_a,sleep_s_b"]
        for lid, link in topology.links.items():
            acct_a, acct_b = self.accounts[(lid, link.a)], self.accounts[(lid, link.b)]
            lines.append(f"{lid},{link.a},{link.b},{self.flood_copies.get(lid, 0)},"
                         f"{acct_a.switch_count},{acct_b.switch_count},"
                         f"{acct_a.t_sleep!r},{acct_b.t_sleep!r}")
        return "\n".join(lines) + "\n"


@dataclass
class SavingReport:
    saving_pct: float
    loss_pct_a: float
    loss_pct_b: float
    overhead_pct_a: float
    overhead_pct_b: float
    avg_active_links_a: float
    avg_active_links_b: float

    @property
    def loss_delta_pct(self) -> float:
        return self.loss_pct_a - self.loss_pct_b

    def text(self) -> str:
        lines = [
            f"saving_pct={self.saving_pct!r}",
            f"loss_delta_pct={self.loss_delta_pct!r}",
            f"loss_pct_a={self.loss_pct_a!r}",
            f"loss_pct_b={self.loss_pct_b!r}",
            f"overhead_pct_a={self.overhead_pct_a!r}",
            f"overhead_pct_b={self.overhead_pct_b!r}",
            f"avg_active_links_a={self.avg_active_links_a!r}",
            f"avg_active_links_b={self.avg_active_links_b!r}",
        ]
        return "\n".join(lines) + "\n"


def compare(a: MetricsSeries, b: MetricsSeries) -> SavingReport:
    """Energy saving of run `a` relative to reference run `b` (the baseline).
    Reads only fingerprint, total_energy_j, loss_pct, overhead_pct and
    avg_active_links, which `gospf compare` reads back from summary.txt."""
    if a.fingerprint != b.fingerprint:
        raise MismatchedScenarios("metric series come from different scenarios")
    if b.total_energy_j <= 0:
        raise MismatchedScenarios("reference run consumed no energy")
    saving = (1.0 - a.total_energy_j / b.total_energy_j) * 100.0
    return SavingReport(
        saving_pct=saving,
        loss_pct_a=a.loss_pct, loss_pct_b=b.loss_pct,
        overhead_pct_a=a.overhead_pct, overhead_pct_b=b.overhead_pct,
        avg_active_links_a=a.avg_active_links, avg_active_links_b=b.avg_active_links,
    )


class AlwaysOn:
    """Standard OSPF, the baseline: every link that has not failed stays
    awake and carries shortest-path traffic."""

    def __init__(self, run: "_Run"):
        self.run = run
        self.tables: dict[int, RoutingTable] = {}  # per source, until a failure
        self.flood_copies: dict[int, int] = {}  # never floods
        self.next_action = math.inf  # a tick never acts

    def fail(self, lid: int) -> None:
        for side in self.run.topology.links[lid].endpoints():
            self.run.ledger.sleep((lid, side))
        self.tables.clear()

    def start_window(self, w: int, t0: float) -> dict[int, float]:
        return {}

    def routing_for(self, source: int) -> RoutingTable:
        table = self.tables.get(source)
        if table is None:
            run = self.run
            usable = frozenset(run.topology.links) - frozenset(run.failed)
            table = shortest_paths(run.topology, usable, source, run.costs)
            self.tables[source] = table
        return table

    def tick(self, t1: float, samples: dict[int, float]) -> int:
        return 0

    def resetting(self) -> bool:
        return False


class _TickEntry:
    """What one memoised tick did, relative to its start: the events in
    order, as (instant index, node, link, event, seq offset), where the
    offset, None for seq -1, is from the node's `_seq` at the tick start;
    per changed node (index, record after the tick, seq advance, links
    grafted); the links that carried copies and how many each; and the id
    of the state the tick leaves."""

    __slots__ = ("events", "deltas", "links", "copies", "counter", "post")

    def __init__(self, events, deltas, links, copies, post):
        self.events = events
        self.deltas = deltas
        self.links = links
        self.copies = copies
        self.counter = sum(copies)
        self.post = post


_NAME = attrgetter("_name_")
_STATES = OperationalState.__members__
_ROLES = InterfaceRole.__members__


class GospfController(ProtocolHooks):
    """GOSPF: one GospfNode per router, ticked in ascending node id. Acts as
    the nodes' hooks and delivers their floods in (arrival, origin, seq,
    receiver) order; floods settle within the window that sends them.

    Ticks are memoised on (state id, safeguard signature, sample classes);
    see `tick`."""

    # The tick memo's type: anything with `get` and item assignment.
    memo_factory = dict

    def __init__(self, run: "_Run"):
        self.run = run
        cfg = run.cfg
        # One spanning tree per failed-link set, shared by every node.
        self.trees: dict[frozenset[int], SpanningTree] = {}
        # -inf after any send, event, failure or reset completion since the
        # last tick. After a tick that sent and recorded nothing, the
        # earliest time at which a node's safeguard comparisons change; a
        # tick that ends before it, on the same samples, repeats that tick
        # exactly.
        self.next_action = -math.inf
        self.nodes = {nid: GospfNode(
            nid, run.topology, gamma_u=cfg.gamma_u, gamma_l=cfg.gamma_l,
            safeguard_interval=cfg.safeguard, mcst_reset_timer=cfg.mcst_reset_timer,
            t_sample=cfg.t_sample, costs=run.costs, hooks=self)
            for nid in run.topology.node_ids}
        self._node_list = list(self.nodes.values())
        # Message copies each link carried since the last window start, and
        # over the whole run.
        self.window_copies: dict[int, int] = {}
        self.flood_copies: dict[int, int] = {}
        self._forget_states()
        # The events of the tick being recorded, else None.
        self._events: list | None = None

    def record_event(self, t, node, event, link, seq):
        self.run.events.append(f"t={t:.6f} node={node} event={event} link={link} seq={seq}")
        self.next_action = -math.inf
        if event == "CONGESTION_UNRESOLVED":
            self.run.congestion_unresolved += 1
        if self._events is not None:
            self._events.append((t, node, link, event, seq))

    def interface_woke(self, t, node, link):
        self.run.ledger.wake((link, node))
        self.run.active = None

    def interface_slept(self, t, node, link):
        self.run.ledger.sleep((link, node))
        self.run.active = None

    def spanning_tree(self, topology: Topology, exclude: frozenset[int]) -> SpanningTree:
        tree = self.trees.get(exclude)
        if tree is None:
            tree = self.trees[exclude] = super().spanning_tree(topology, exclude)
        return tree

    def fail(self, lid: int) -> None:
        for side in self.run.topology.links[lid].endpoints():
            self.nodes[side].notice_link_failure(lid)
        self.next_action = -math.inf
        # Failed links only accumulate, and every record holds its node's,
        # so no state recorded so far can recur.
        self._forget_states()

    def _forget_states(self) -> None:
        self.memo = self.memo_factory()
        # Known controller states: a tuple of node records (see `_record`)
        # per state id, and the id of each. `state_id` is the current one,
        # None when unknown.
        self.states: list[tuple] = []
        self.state_ids: dict[tuple, int] = {}
        self.state_id: int | None = None
        # Interned record parts, so that states and nodes share them, and
        # the view last interned.
        self.canon: dict = {}
        self._last_view: frozenset[int] | None = None

    def start_window(self, w: int, t0: float) -> dict[int, float]:
        """Finish the tree resets that are due; returns, and clears, the
        control bits the previous window's floods put on each link."""
        for node in self._node_list:
            if node.reset_until is None:
                continue
            try:
                node.complete_reset_if_due(t0)
            except DisconnectedTopology as exc:
                raise DisconnectedTopology(
                    f"window {w}: link failures partitioned the "
                    f"network; no spanning tree survives") from exc
            if node.reset_until is None:
                self.next_action = -math.inf
        window, self.window_copies = self.window_copies, {}
        bits = self.run.cfg.control_msg_bytes * 8.0
        return {lid: n * bits for lid, n in window.items()}

    def routing_for(self, source: int) -> RoutingTable:
        return self.nodes[source].routing_table()

    def tick(self, t1: float, samples: dict[int, float]) -> int:
        """Periodic checks, then drain the resulting floods; returns the
        control bytes sent.

        While no node is resetting or holds a pending failure, a tick is a
        function of the controller state, of where each safeguard expiry
        falls among the tick's comparison instants and of each sample's
        class. Those three are the memo key; a repeated key replays the
        recorded events instead of ticking the nodes."""
        self.next_action = math.inf
        nodes = self._node_list
        # The last tick drained every flood, so no copy of an older message
        # can arrive: dedup keys are needed only within one tick.
        for node in nodes:
            node.seen.clear()
        if any(node.reset_until is not None or node.pending_failures for node in nodes):
            self.state_id = None
            return self._finish(t1, self._drain(t1, samples))
        if self.state_id is None:
            self.state_id = self._intern_state(tuple(self._record(node) for node in nodes))
        key = (self.state_id, self._sign_safeguards(t1), self._classes(samples))
        entry = self.memo.get(key)
        if entry is None:
            entry = self.memo[key] = self._record_tick(t1, samples)
        else:
            self._replay(entry, t1)
        self.state_id = entry.post
        return self._finish(t1, entry.counter)

    def _instants(self, t1: float) -> list[float]:
        """Every time a tick at t1 compares: t1, and each hop's arrival,
        built by the adds `_drain` makes. No copy travels more hops than
        there are nodes."""
        latency = self.run.cfg.control_latency
        instants = [t1]
        for _ in self._node_list:
            instants.append(instants[-1] + latency)
        return instants

    def _drain(self, t1: float, samples: dict[int, float]) -> int:
        """Tick every node, then deliver the floods; returns the copies
        sent. Each copy in flight is a heap entry (arrival, origin, seq,
        receiver, counter, link, message); the counter numbers the tick's
        copies and keeps comparisons off the link and message."""
        nodes = self.nodes
        latency = self.run.cfg.control_latency
        copies = self.window_copies
        queue = []
        push, pop = heapq.heappush, heapq.heappop
        counter = 0
        for node in self._node_list:
            for lid, receiver, msg in node.sample_tick(t1, samples):
                push(queue, (t1 + latency, msg.origin, msg.seq, receiver, counter, lid, msg))
                counter += 1
                copies[lid] = copies.get(lid, 0) + 1
        # Looked up on the class once per tick, so that a wrapper installed
        # there before the run sees every copy.
        handle = GospfNode.handle_message
        while queue:
            arrival, _origin, _seq, receiver, _counter, link, msg = pop(queue)
            sent = handle(nodes[receiver], arrival, msg, link)
            if not sent:
                continue
            forwarded = arrival + latency
            for lid, peer, out in sent:
                push(queue, (forwarded, out.origin, out.seq, peer, counter, lid, out))
                counter += 1
                copies[lid] = copies.get(lid, 0) + 1
        return counter

    def _finish(self, t1: float, counter: int) -> int:
        """Add the tick's copies to the run's and set the next action time;
        returns the control bytes sent."""
        if counter:
            totals = self.flood_copies
            for lid, n in self.window_copies.items():
                totals[lid] = totals.get(lid, 0) + n
            self.next_action = -math.inf
        elif self.next_action == math.inf:
            # Nodes holding the same safeguards have the same next expiry.
            soonest, held = math.inf, None
            for node in self._node_list:
                if node.safeguard != held:
                    held = node.safeguard
                    soonest = min(soonest, node.next_safeguard_expiry(t1))
            self.next_action = soonest
        return counter * self.run.cfg.control_msg_bytes

    # ------------------------------------------------------------ tick memo

    def _intern(self, part):
        return self.canon.setdefault(part, part)

    def _record(self, node: GospfNode, before: tuple | None = None) -> tuple:
        """The node's state without times or seqs: (active view, interface
        states, roles, cut matrix, scan floor, failed links, tree edges),
        states and roles by member name, whose hash is cached, and the cut
        matrix as its non-empty rows, sorted (row, links) pairs. Returns
        `before` itself when the node still matches it. A tick the memo
        covers changes neither the failed links nor the tree."""
        intern = self._intern
        view = node.active_view
        if before is not None and view == before[0]:
            view = before[0]
        elif view == self._last_view:
            view = self._last_view
        else:
            view = self._last_view = intern(frozenset(view))
        record = (view,
                  intern(tuple(map(_NAME, node.iface_state.values()))),
                  intern(tuple(map(_NAME, node.iface_role.values()))),
                  intern(tuple(sorted((row, intern(frozenset(cut)))
                                      for row, cut in node.matrix.items() if cut))),
                  node.scan_floor,
                  intern(frozenset(node.failed)) if before is None else before[5],
                  node.mcst.edges)
        return before if record == before else record

    def _intern_state(self, records: tuple) -> int:
        sid = self.state_ids.get(records)
        if sid is None:
            sid = self.state_ids[records] = len(self.states)
            self.states.append(records)
        return sid

    def _sign_safeguards(self, t1: float) -> tuple:
        """Every node's safeguard signature at the tick's instants, once it
        forgot its expired safeguards. A node holding the same safeguards as
        the node before it, which forgot them, has nothing to forget and
        the same signature."""
        instants = self._instants(t1)
        signs = []
        held = sign = None
        for node in self._node_list:
            safeguard = node.safeguard
            if safeguard != held:
                node.forget_expired_safeguards(t1)
                if safeguard != held:
                    held, sign = safeguard, node.safeguard_signature(instants)
            signs.append(sign)
        return tuple(signs)

    def _classes(self, samples: dict[int, float]) -> tuple:
        """Each link's sample class by `classify`, by name, whose hash is
        cached; None for no sample."""
        cfg = self.run.cfg
        gamma_u, gamma_l = cfg.gamma_u, cfg.gamma_l
        return tuple([None if u is None else classify(u, gamma_u, gamma_l)._name_
                      for u in map(samples.get, self.run.topology.links)])

    def _record_tick(self, t1: float, samples: dict[int, float]) -> _TickEntry:
        """Run the tick in full and record what it did."""
        nodes = self._node_list
        seqs = [node._seq for node in nodes]
        safeguards = [dict(node.safeguard) for node in nodes]
        self._events = []
        try:
            self._drain(t1, samples)
            events = self._events
        finally:
            self._events = None
        instants = self._instants(t1)
        index = {}
        for k in range(len(instants) - 1, -1, -1):
            index[instants[k]] = k
        seq_of = {node.node_id: seq for node, seq in zip(nodes, seqs)}
        events = tuple((index[t], nid, link, event, None if seq == -1 else seq - seq_of[nid])
                       for t, nid, link, event, seq in events)
        state = self.states[self.state_id]
        post = list(state)
        deltas = []
        for i, node in enumerate(nodes):
            before = state[i]
            if node.seen:
                record = self._record(node, before)
                advance = node._seq - seqs[i]
                held = safeguards[i]
                grafted = tuple(lid for lid, s in node.safeguard.items() if held.get(lid) != s)
            else:
                # A node that sent and received nothing can only have moved
                # its scan floor or turned a grafted interface uncut.
                advance, grafted = 0, ()
                record = before
                if (node.scan_floor != before[4]
                        or tuple(map(_NAME, node.iface_role.values())) != before[2]):
                    record = self._record(node, before)
            if record is not before or advance or grafted:
                deltas.append((i, record, advance, grafted))
                post[i] = record
        copies = self.window_copies
        return _TickEntry(events, tuple(deltas), tuple(copies), tuple(copies.values()),
                          self._intern_state(tuple(post)))

    def _replay(self, entry: _TickEntry, t1: float) -> None:
        """Apply a recorded tick through the same hooks a full one calls: a
        node calls the interface hook right before it records a SLEEP or
        WAKE event."""
        nodes = self.nodes
        instants = self._instants(t1) if entry.events else None
        for k, nid, link, event, offset in entry.events:
            t = instants[k]
            if event == "SLEEP":
                self.interface_slept(t, nid, link)
            elif event == "WAKE":
                self.interface_woke(t, nid, link)
            self.record_event(t, nid, event, link,
                              -1 if offset is None else nodes[nid]._seq + offset)
        state = self.states[self.state_id]
        node_list = self._node_list
        for i, record, advance, grafted in entry.deltas:
            node = node_list[i]
            before = state[i]
            if record is not before:
                view, iface, role, matrix, node.scan_floor, _failed, _tree = record
                if view is not before[0]:
                    node.active_view = set(view)
                    node._routing = None
                if iface is not before[1]:
                    node.iface_state.update(zip(node._local_links,
                                                map(_STATES.__getitem__, iface)))
                    node._awake_ports = None
                if role is not before[2]:
                    node.iface_role.update(zip(node._local_links,
                                               map(_ROLES.__getitem__, role)))
                if matrix is not before[3]:
                    node.matrix = {row: set(cut) for row, cut in matrix}
            node._seq += advance
            if grafted:
                # A grafted link keeps the later of what it held and the
                # expiry of a graft at t1.
                expiry = node.graft_expiry(t1)
                safeguard = node.safeguard
                for lid in grafted:
                    safeguard[lid] = max(safeguard.get(lid, -math.inf), expiry)
        copies = self.window_copies
        for lid, n in zip(entry.links, entry.copies):
            copies[lid] = copies.get(lid, 0) + n

    def resetting(self) -> bool:
        return any(node.reset_until is not None for node in self._node_list)


class _Run:
    """State for a single simulation run."""

    def __init__(self, scenario: Scenario):
        scenario.config.validate()
        self.scenario = scenario
        self.cfg = scenario.config
        self.topology = scenario.topology

        for flow in scenario.traffic.flows.values():
            if flow.src not in self.topology.nodes or flow.dst not in self.topology.nodes:
                raise ConfigError(f"flow {flow.flow_id} references unknown node")
        for _t, lid in scenario.link_failures:
            if lid not in self.topology.links:
                raise ConfigError(f"scheduled failure of unknown link {lid}")

        # Floods take the hop diameter plus 2 hops to settle. The diameter is
        # below the node count n, so it is searched for only when n + 1 hops
        # overrun a window.
        topo, latency = self.topology, self.cfg.control_latency
        if (latency * (len(topo.nodes) + 1) > self.cfg.t_sample
                and latency * (2 + max(max(bfs_hop_counts(topo, s, topo.links.keys()).values())
                                       for s in topo.nodes)) > self.cfg.t_sample):
            raise ConfigError(
                "control_latency too large for t_sample: floods must settle "
                "within one sampling window")

        ts = self.cfg.t_sample
        self.n_windows = int(math.floor(self.cfg.horizon / ts + 1e-9))
        if not self.n_windows:
            raise ConfigError(f"horizon={self.cfg.horizon!r} is shorter than one sampling "
                              f"window, t_sample={ts!r}")
        # The ledger converts each per-window increment exactly and rounds
        # the network total once per window: every increment must be finite,
        # and the total must stay a float. The bound charges each interface
        # all three powers for t_sample plus one wake in every window.
        most = 0
        for link in self.topology.links.values():
            increments = (link.p_active * ts, link.p_idle * ts, link.p_sleep * ts, link.e_c)
            if not all(math.isfinite(x) for x in increments):
                raise ConfigError(f"link {link.link_id}: energy per window is not finite "
                                  f"at t_sample={ts!r}")
            most += 2 * sum(exact(x) for x in increments)
        if self.n_windows * most > exact(sys.float_info.max):
            raise ConfigError("network energy over the horizon may exceed the largest float")

        self.events: list[str] = []
        self.ledger = EnergyLedger(self.topology.links.values(), ts)
        self.accounts: dict[tuple[int, int], EnergyAccount] = self.ledger.accounts

        # OSPF cost per link, shared by every routing table of the run.
        self.costs = ospf_costs(self.topology, self.cfg.ref_bandwidth)
        self.failed: set[int] = set()
        # Links usable for traffic; None until recomputed after a change.
        self.active: frozenset[int] | None = None
        self.congestion_unresolved = 0
        self.controller = (GospfController if self.cfg.mode == MODE_GOSPF
                           else AlwaysOn)(self)

    def _ground_truth_active(self) -> frozenset[int]:
        """Links usable for traffic: not failed, both interfaces awake. The
        set is cached until an interface sleeps or wakes or a link fails."""
        if self.active is None:
            awake = self.ledger.awake
            self.active = frozenset(lid for lid in self.topology.links
                                    if lid not in self.failed and awake(lid))
        return self.active

    def run(self) -> RunResult:
        """Step every window. Per-window results whose inputs did not change
        since the previous window (demands, link samples, busy times,
        connectivity verdicts) are reused, not recomputed.

        Energy goes through the ledger: a link's increments are converted
        only in windows where its busy time changes, an interface's only
        when it sleeps or wakes, and each window adds the network's rate.

        A window that repeats a steady one is replayed: the previous window
        applied no failure and had no control bits in; this window applies
        no failure, has the same rates, and ends before the controller's
        next action time, which any event, send or failure since the last
        tick sets to -inf. Its tick would repeat the previous tick exactly,
        so it is not run: the window charges the previous window's
        increments and appends the previous window's record."""
        cfg = self.cfg
        ts = cfg.t_sample
        ctrl = self.controller
        ledger = self.ledger
        metrics = MetricsSeries(mode=cfg.mode, fingerprint=self.scenario.fingerprint(),
                                t_sample=ts, horizon=cfg.horizon)

        failures = sorted(self.scenario.link_failures)
        failure_idx = 0
        traffic = self.scenario.traffic
        capacities = {lid: link.capacity for lid, link in self.topology.links.items()}
        hops_of = {}  # allocate()'s hops per path
        all_links = frozenset(self.topology.links)

        # Inputs and results of the previous window, reused while unchanged.
        window = None
        prev_link_bits = {}
        prev_rates = None
        demands = traffic.window_demands(self.n_windows, ts, cfg.tcp_burst_frac)
        steady = False
        samples = dict.fromkeys(capacities, 0.0)  # per-link utilization
        busy = dict.fromkeys(capacities, 0.0)  # the ledger starts every link idle
        surviving_connected = is_connected(self.topology, all_links)

        for w in range(self.n_windows):
            t0 = w * ts
            t1 = t0 + ts
            events_before = len(self.events)
            total_before = ledger.total
            failed_this_window = False

            # Scheduled link failures take effect at the window start.
            while failure_idx < len(failures) and failures[failure_idx][0] < t1:
                _ft, lid = failures[failure_idx]
                failure_idx += 1
                if lid in self.failed:
                    continue
                self.failed.add(lid)
                self.active = None
                failed_this_window = True
                ctrl.fail(lid)
            if failed_this_window:
                surviving_connected = is_connected(self.topology, all_links - self.failed)
            ctrl_bits = ctrl.start_window(w, t0)
            rates = next(demands)

            if (steady and not failed_this_window and rates == prev_rates
                    and t1 < ctrl.next_action):
                ledger.charge()
            else:
                # Demands and fluid allocation on the currently believed routes.
                usable = self._ground_truth_active()
                flow_paths = []
                for fid, rate in rates.items():
                    if rate <= 0:
                        continue
                    flow = traffic.flows[fid]
                    path = ctrl.routing_for(flow.src).paths.get(flow.dst)
                    flow_paths.append((fid, rate, path))
                alloc = allocate(flow_paths, capacities, usable, ts,
                                 self.topology.link_between, hops_of)

                # Interface bit counters: data plus last window's control traffic.
                link_bits = dict(alloc.link_bits)
                for lid, bits in ctrl_bits.items():
                    link_bits[lid] = link_bits.get(lid, 0.0) + bits
                if link_bits != prev_link_bits:
                    # Only links that carry bits now or did before can change.
                    samples = dict(samples)
                    for lid in link_bits.keys() | prev_link_bits.keys():
                        cap = capacities[lid]
                        bits = link_bits.get(lid, 0.0)
                        samples[lid] = bits / (cap * ts)
                        t_busy = min(ts, bits / cap)
                        if t_busy != busy[lid]:
                            busy[lid] = t_busy
                            ledger.set_busy(lid, t_busy)
                    prev_link_bits = link_bits

                # Energy for this window under the states in force during it.
                ledger.charge()

                # Protocol checks at the window end, floods drained.
                ctrl_bytes = ctrl.tick(t1, samples)

                # Every distinct active set is checked once, in the first
                # window that ends with it.
                active = self._ground_truth_active()
                if window is None or active is not window.active:
                    if surviving_connected and not is_connected(self.topology, active):
                        raise AssertionError(
                            f"window {w}: active link set no longer spans the network")

                # Wake costs charged by the tick land in this window.
                window = Window(
                    active, tuple(flow_paths), ledger.total - total_before,
                    alloc.offered_bits, alloc.delivered_bits, alloc.dropped_bits, ctrl_bytes,
                    not ctrl_bytes and len(self.events) == events_before
                    and not failed_this_window and not ctrl.resetting())

            metrics.windows.append(window)
            metrics.energy_j.append(ledger.total / ONE)  # an exact sum, rounded once

            # A window with control bits in was charged for them; the next
            # window, without them, charges different increments.
            steady = not failed_this_window and not ctrl_bits
            prev_rates = rates

        ledger.close()
        metrics.congestion_unresolved = self.congestion_unresolved
        return RunResult(metrics=metrics, events=self.events, accounts=self.accounts,
                         flood_copies=ctrl.flood_copies)


def run(scenario: Scenario) -> RunResult:
    """Execute one scenario deterministically."""
    return _Run(scenario).run()
