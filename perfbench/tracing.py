"""Span tracing for the traced benchmark run.

The traced run replaces the public functions of each gospf layer with
wrappers that time every call. The package imports most of these functions
by name (``from .traffic import allocate``), so a wrapper is installed on the
binding the caller looks up: ``gospf.engine.allocate`` rather than
``gospf.traffic.allocate``. Methods are wrapped on their class. Every binding
is restored when the ``traced`` context exits.

Spans are not kept one by one (the daily pair makes millions of them); each
wrapper folds its span into per-name totals as it closes. A span's self time
is its duration minus the durations of the spans it directly contains, so
the self times of all spans add up to the durations of the root spans.
"""

import contextlib
import importlib
import time


class Tracer:
    """Per-name call counts, inclusive time and self time of nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._child_time: list[float] = []  # one accumulator per open span

    def wrap(self, name: str, fn):
        """Return `fn` wrapped in a span called `name`."""
        clock = self.clock
        open_spans = self._child_time
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return span

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s_by_layer(self) -> dict[str, float]:
        """Self time summed per layer, the span name's first component."""
        out: dict[str, float] = {}
        for name, (_calls, _total, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out


# (module, attribute, span name). Module-level functions are wrapped where
# the caller looks them up; the split of shortest_paths by caller is kept in
# the span name.
FUNCTION_BINDINGS = (
    ("gospf.cli", "main", "cli.main"),
    ("gospf.cli", "parse_topology", "graph.parse_topology"),
    ("gospf.cli", "parse_traffic", "traffic.parse_traffic"),
    ("gospf.engine", "run", "engine.run"),
    ("gospf.oracle", "run", "engine.run"),
    ("gospf.engine", "allocate", "traffic.allocate"),
    ("gospf.engine", "write_traffic", "traffic.write_traffic"),
    ("gospf.traffic", "write_traffic", "traffic.write_traffic"),
    ("gospf.traffic", "generate_traffic", "traffic.generate_traffic"),
    ("gospf.traffic", "place_flows", "traffic.place_flows"),
    ("gospf.engine", "shortest_paths", "graph.shortest_paths.engine"),
    ("gospf.protocol", "shortest_paths", "graph.shortest_paths.protocol"),
    ("gospf.traffic", "shortest_paths", "graph.shortest_paths.traffic"),
    ("gospf.graph", "compute_mcst", "graph.compute_mcst"),
    ("gospf.protocol", "compute_mcst", "graph.compute_mcst"),
    ("gospf.traffic", "compute_mcst", "graph.compute_mcst"),
    ("gospf.graph", "is_connected", "graph.is_connected"),
    ("gospf.engine", "is_connected", "graph.is_connected"),
    ("gospf.engine", "bfs_hop_counts", "graph.bfs_hop_counts"),
    ("gospf.protocol", "bfs_hop_counts", "graph.bfs_hop_counts"),
    ("gospf.engine", "total_network_energy", "energy.total_network_energy"),
    ("gospf.oracle", "heuristic_gap", "oracle.heuristic_gap"),
    ("gospf.oracle", "solve_static", "oracle.solve_static"),
    ("gospf.oracle", "check_flow_feasibility", "oracle.check_flow_feasibility"),
)

# (module, class, method, span name).
METHOD_BINDINGS = (
    ("gospf.energy", "EnergyAccount", "accrue", "energy.accrue"),
    ("gospf.protocol", "GospfNode", "sample_tick", "protocol.sample_tick"),
    ("gospf.protocol", "GospfNode", "handle_message", "protocol.handle_message"),
    ("gospf.protocol", "GospfNode", "complete_reset_if_due",
     "protocol.complete_reset_if_due"),
    ("gospf.protocol", "GospfNode", "routing_table", "protocol.routing_table"),
)


def _observed(tracer: Tracer, span_name: str, fn):
    """`fn` plus the counts the per-layer ratios need, read from its inputs
    and outputs outside the span, so they cost the caller, not the layer."""
    if span_name == "engine.run":
        def observed(scenario, *args, **kwargs):
            result = fn(scenario, *args, **kwargs)
            metrics = result.metrics
            tracer.count("engine.windows", len(metrics.times))
            tracer.count("engine.quiesced", sum(metrics.quiesced))
            tracer.count("engine.flood_copies",
                         metrics.ctrl_bytes_total / scenario.config.control_msg_bytes)
            return result
        return observed
    if span_name == "protocol.handle_message":
        def observed(node, now, msg, *args, **kwargs):
            if msg.key() not in node.seen:
                tracer.count("protocol.handle_message.fresh")
            return fn(node, now, msg, *args, **kwargs)
        return observed
    if span_name == "oracle.heuristic_gap":
        def observed(*args, **kwargs):
            rows = fn(*args, **kwargs)
            tracer.count("oracle.scored_windows", len(rows))
            return rows
        return observed
    return fn


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every binding in the tables; restore the
    original objects on exit, whatever happens inside."""
    saved = []
    try:
        for mod, attr, name in FUNCTION_BINDINGS:
            module = importlib.import_module(mod)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _observed(tracer, name, tracer.wrap(name, original)))
        for mod, cls, attr, name in METHOD_BINDINGS:
            klass = getattr(importlib.import_module(mod), cls)
            original = klass.__dict__[attr]
            saved.append((klass, attr, original))
            setattr(klass, attr, _observed(tracer, name, tracer.wrap(name, original)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
