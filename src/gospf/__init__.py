"""Energy-aware OSPF extension ("green" link cut/graft) as a deterministic
simulator, plus an exact solver for the underlying network-design problem."""

from .config import ConfigError, ScenarioConfig, parse_config
from .energy import (EnergyAccount, InterfaceRole, OperationalState,
                     UtilizationClass, classify, total_network_energy)
from .engine import (MetricsSeries, MismatchedScenarios, RunResult,
                     SavingReport, Scenario, compare, run)
from .graph import (DisconnectedTopology, Link, RoutingTable, SpanningTree,
                    Topology, TopologyError, compute_mcst, is_connected,
                    parse_topology, shortest_paths, write_topology)
from .oracle import (CmndInstance, CmndSolution, Demand, Infeasible,
                     InstanceTooLarge, heuristic_gap, solve_static)
from .protocol import ControlMessage, GospfNode, MessageKind
from .traffic import (Flow, TrafficError, TrafficMatrix, allocate,
                      generate_traffic, parse_traffic, write_traffic)

__version__ = "0.1.0"
