"""Command-line front end: run scenarios, compare runs, generate traffic
profiles, and compute optimality-gap reports.

Set GOSPF_LOG=debug|info for verbose logging.
"""

import argparse
import logging
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import engine, oracle, traffic
from .config import ConfigError, ScenarioConfig, parse_config
from .engine import MismatchedScenarios, Scenario
from .graph import Topology, TopologyError, parse_topology
from .traffic import TrafficError, parse_traffic

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("GOSPF_LOG", "").lower()
    if level == "debug":
        logging.basicConfig(level=logging.DEBUG)
    elif level == "info":
        logging.basicConfig(level=logging.INFO)
    else:
        logging.basicConfig(level=logging.WARNING)


def _read(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return p.read_text()


def _load_topology(args) -> tuple[ScenarioConfig, Topology]:
    """The config (defaults, then --config, then --mode) and the topology,
    whose links default to the config's power ratings."""
    cfg = parse_config(_read(args.config, "config")) if args.config else ScenarioConfig()
    if getattr(args, "mode", None):
        cfg = parse_config(f"mode={args.mode}", cfg)
    topo = parse_topology(_read(args.topology, "topology"),
                          p_active=cfg.p_active, p_idle=cfg.p_idle,
                          p_sleep=cfg.p_sleep, e_c=cfg.e_c)
    return cfg, topo


def _load_scenario(args) -> Scenario:
    cfg, topo = _load_topology(args)
    matrix = parse_traffic(_read(args.traffic, "traffic"), horizon=cfg.horizon)
    return Scenario(topology=topo, traffic=matrix, config=cfg)


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    result = engine.run(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(result.metrics.csv_text())
    (out / "events.log").write_text("\n".join(result.events) + ("\n" if result.events else ""))
    (out / "summary.txt").write_text(result.metrics.summary_text())
    (out / "links.csv").write_text(result.links_csv_text(scenario.topology))
    log.info("run complete: %d windows, %.3f J", len(result.metrics.windows),
             result.metrics.total_energy_j)
    return 0


_SUMMARY_FLOATS = ("total_energy_j", "loss_pct", "overhead_pct", "avg_active_links")


def _read_summary(directory: str) -> SimpleNamespace:
    """The fields of a run's summary.txt that engine.compare reads."""
    text = _read(str(Path(directory) / "summary.txt"), "summary")
    values = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    missing = [key for key in ("fingerprint",) + _SUMMARY_FLOATS if key not in values]
    if missing:
        raise ConfigError(f"summary in {directory} lacks {', '.join(missing)}")
    try:
        floats = {key: float(values[key]) for key in _SUMMARY_FLOATS}
    except ValueError as exc:
        raise ConfigError(f"summary in {directory}: {exc}") from None
    return SimpleNamespace(fingerprint=values["fingerprint"], **floats)


def cmd_compare(args) -> int:
    report = engine.compare(_read_summary(args.dir_a), _read_summary(args.dir_b))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.txt").write_text(report.text())
    sys.stdout.write(report.text())
    return 0


def cmd_gen_traffic(args) -> int:
    cfg, topo = _load_topology(args)
    matrix = traffic.generate_traffic(
        topo, args.kind, args.flows, args.peak_util, cfg.horizon,
        flavor=args.flavor, ref_bandwidth=cfg.ref_bandwidth)
    text = traffic.write_traffic(matrix)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gap(args) -> int:
    rows = oracle.heuristic_gap(_load_scenario(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gap.csv").write_text(oracle.gap_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gospf",
        description="Energy-aware link cut/graft routing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--topology", required=True, help="topology file")
    p_run.add_argument("--traffic", required=True, help="traffic file")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--mode", choices=["gospf", "baseline"])
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="energy saving of run A versus reference run B")
    p_cmp.add_argument("dir_a", help="candidate run directory (e.g. gospf)")
    p_cmp.add_argument("dir_b", help="reference run directory (e.g. baseline)")
    p_cmp.add_argument("--out", default=".", help="directory for comparison.txt")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-traffic", help="emit a synthetic traffic profile")
    p_gen.add_argument("--kind", choices=["daily", "weekly"], required=True)
    p_gen.add_argument("--topology", required=True)
    p_gen.add_argument("--flows", type=int, default=17)
    p_gen.add_argument("--peak-util", type=float, default=0.4, dest="peak_util")
    p_gen.add_argument("--flavor", choices=["udp", "tcp"], default="udp")
    p_gen.add_argument("--config", help="key=value config file (horizon etc.)")
    p_gen.add_argument("--out", help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen_traffic)

    p_gap = sub.add_parser("gap", help="optimality gap of quiesced windows")
    p_gap.add_argument("--topology", required=True)
    p_gap.add_argument("--traffic", required=True)
    p_gap.add_argument("--config")
    p_gap.add_argument("--out", default="out")
    p_gap.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError, TrafficError, MismatchedScenarios,
            oracle.OracleError, OSError) as exc:
        print(f"gospf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
