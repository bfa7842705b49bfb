import pytest

from gospf import engine
from gospf.cli import main
from gospf.config import parse_config
from gospf.engine import Scenario
from gospf.graph import bundled_topology_text, parse_topology
from gospf.traffic import parse_traffic

SMALL_TOPO = """\
node 1 a
node 2 b
node 3 c
node 4 d
link 1 1 2 10000000
link 2 2 3 10000000
link 3 3 4 10000000
link 4 4 1 10000000
"""

SMALL_TRAFFIC = """\
flow 1 1 3 udp
rate 1 0 2000000
"""


@pytest.fixture()
def small_files(tmp_path):
    topo = tmp_path / "net.topo"
    topo.write_text(SMALL_TOPO)
    traffic = tmp_path / "flows.traffic"
    traffic.write_text(SMALL_TRAFFIC)
    config = tmp_path / "run.conf"
    config.write_text("horizon=4.0\n")
    return topo, traffic, config


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_writes_outputs(small_files, tmp_path):
    topo, traffic, config = small_files
    out = tmp_path / "out"
    code = run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", out)
    assert code == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "events.log").is_file()
    assert (out / "summary.txt").is_file()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "t,active_links,power_w,throughput_bps,energy_j,ctrl_bytes,dropped_bits"


def test_links_csv_has_one_row_per_link(small_files, tmp_path):
    topo, traffic, config = small_files
    out = tmp_path / "out"
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", out) == 0
    lines = (out / "links.csv").read_text().splitlines()
    assert lines[0] == "link,a,b,flood_copies,wakeups_a,wakeups_b,sleep_s_a,sleep_s_b"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:3] for row in rows] == [["1", "1", "2"], ["2", "2", "3"],
                                         ["3", "3", "4"], ["4", "4", "1"]]
    # Every copy in the per-window control bytes is counted on some link.
    ctrl = [int(line.split(",")[5])
            for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert sum(int(row[3]) for row in rows) * 64 == sum(ctrl) > 0
    assert "event=FLOOD" not in (out / "events.log").read_text()


def test_run_missing_topology_is_diagnosed(tmp_path, capsys):
    code = run_cli("run", "--topology", tmp_path / "absent.topo",
                   "--traffic", tmp_path / "absent.traffic", "--out", tmp_path)
    assert code != 0
    assert "absent.topo" in capsys.readouterr().err


def test_run_malformed_link_line(tmp_path, capsys):
    topo = tmp_path / "bad.topo"
    topo.write_text("node 1 a\nnode 2 b\nlink 1 1 2 oops\n")
    traffic = tmp_path / "t.traffic"
    traffic.write_text("")
    code = run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--out", tmp_path / "out")
    assert code != 0
    assert "line 3" in capsys.readouterr().err


def test_compare_identical_runs_zero_saving(small_files, tmp_path, capsys):
    topo, traffic, config = small_files
    for name in ("a", "b"):
        assert run_cli("run", "--topology", topo, "--traffic", traffic,
                       "--config", config, "--out", tmp_path / name) == 0
    code = run_cli("compare", tmp_path / "a", tmp_path / "b",
                   "--out", tmp_path)
    assert code == 0
    text = (tmp_path / "comparison.txt").read_text()
    assert "saving_pct=0.0" in text


def test_compare_gospf_vs_baseline(small_files, tmp_path):
    topo, traffic, config = small_files
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--mode", "gospf",
                   "--out", tmp_path / "g") == 0
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--mode", "baseline",
                   "--out", tmp_path / "b") == 0
    assert run_cli("compare", tmp_path / "g", tmp_path / "b",
                   "--out", tmp_path) == 0
    text = (tmp_path / "comparison.txt").read_text()
    saving = float(text.splitlines()[0].split("=")[1])
    assert saving > 0


def test_run_reports_unknown_config_key(small_files, tmp_path, capsys):
    topo, traffic, _config = small_files
    config = tmp_path / "seed.conf"
    config.write_text("seed=1\n")
    code = run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", tmp_path / "out")
    assert code == 2
    assert "line 1: unknown key 'seed'" in capsys.readouterr().err


def test_compare_cli_matches_in_memory_compare(small_files, tmp_path):
    topo, traffic, config = small_files
    for mode in ("gospf", "baseline"):
        assert run_cli("run", "--topology", topo, "--traffic", traffic,
                       "--config", config, "--mode", mode,
                       "--out", tmp_path / mode) == 0
    assert run_cli("compare", tmp_path / "gospf", tmp_path / "baseline",
                   "--out", tmp_path) == 0

    cfg = parse_config(config.read_text())
    topology = parse_topology(topo.read_text())
    matrix = parse_traffic(traffic.read_text(), horizon=cfg.horizon)
    gospf, baseline = (
        engine.run(Scenario(topology, matrix, parse_config(f"mode={mode}", cfg))).metrics
        for mode in ("gospf", "baseline"))
    assert (tmp_path / "comparison.txt").read_text() == \
        engine.compare(gospf, baseline).text()


def test_compare_rejects_malformed_summary(small_files, tmp_path, capsys):
    topo, traffic, config = small_files
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", tmp_path / "good") == 0
    bad = tmp_path / "bad"
    bad.mkdir()
    fingerprint = [l for l in (tmp_path / "good" / "summary.txt").read_text()
                   .splitlines() if l.startswith("fingerprint=")][0]
    (bad / "summary.txt").write_text(fingerprint + "\n")
    code = run_cli("compare", tmp_path / "good", bad, "--out", tmp_path)
    assert code != 0
    assert "lacks" in capsys.readouterr().err


def test_compare_rejects_non_numeric_summary_value(small_files, tmp_path, capsys):
    topo, traffic, config = small_files
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", tmp_path / "good") == 0
    bad = tmp_path / "bad"
    bad.mkdir()
    text = (tmp_path / "good" / "summary.txt").read_text()
    (bad / "summary.txt").write_text(text.replace("loss_pct=", "loss_pct=x"))
    code = run_cli("compare", tmp_path / "good", bad, "--out", tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert "Traceback" not in err


def test_compare_mismatched_scenarios_fails(small_files, tmp_path, capsys):
    topo, traffic, config = small_files
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", tmp_path / "a") == 0
    other = tmp_path / "other.conf"
    other.write_text("horizon=8.0\n")
    assert run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", other, "--out", tmp_path / "b") == 0
    code = run_cli("compare", tmp_path / "a", tmp_path / "b", "--out", tmp_path)
    assert code != 0


def test_gen_traffic_to_file_and_round_trip(tmp_path):
    topo = tmp_path / "garr48.topo"
    topo.write_text(bundled_topology_text("garr48"))
    out = tmp_path / "daily.traffic"
    code = run_cli("gen-traffic", "--kind", "daily", "--topology", topo,
                   "--flows", "17", "--peak-util", "0.4", "--out", out)
    assert code == 0
    matrix = parse_traffic(out.read_text())
    assert len(matrix.flows) == 17
    assert all(f.kind == "udp" for f in matrix.flows.values())


def test_gen_traffic_single_flow(small_files, tmp_path):
    topo, _traffic, _config = small_files
    out = tmp_path / "one.traffic"
    code = run_cli("gen-traffic", "--kind", "daily", "--topology", topo,
                   "--flows", "1", "--out", out)
    assert code == 0
    assert len(parse_traffic(out.read_text()).flows) == 1


def test_gen_traffic_weekly_weekend_below_weekday(small_files, tmp_path):
    topo, _traffic, _config = small_files
    out = tmp_path / "weekly.traffic"
    assert run_cli("gen-traffic", "--kind", "weekly", "--topology", topo,
                   "--flows", "2", "--out", out) == 0
    matrix = parse_traffic(out.read_text())
    day = 1440.0 / 7
    for flow in matrix.flows.values():
        weekday = max(r for t, r in flow.schedule if t < day)
        weekend = max(r for t, r in flow.schedule if t >= 5 * day)
        assert weekend < weekday


def test_gen_traffic_tcp_flavor(small_files, tmp_path):
    topo, _traffic, _config = small_files
    out = tmp_path / "tcp.traffic"
    assert run_cli("gen-traffic", "--kind", "daily", "--topology", topo,
                   "--flows", "2", "--flavor", "tcp", "--out", out) == 0
    matrix = parse_traffic(out.read_text())
    assert all(f.kind == "tcp" for f in matrix.flows.values())


def test_gen_traffic_deterministic(small_files, tmp_path):
    topo, _traffic, _config = small_files
    a, b = tmp_path / "a.traffic", tmp_path / "b.traffic"
    for out in (a, b):
        assert run_cli("gen-traffic", "--kind", "daily", "--topology", topo,
                       "--flows", "3", "--out", out) == 0
    assert a.read_text() == b.read_text()


def test_gap_small_scenario(small_files, tmp_path):
    topo, traffic, config = small_files
    out = tmp_path / "gapout"
    code = run_cli("gap", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", out)
    assert code == 0
    lines = (out / "gap.csv").read_text().splitlines()
    assert lines[0] == "window,heuristic_power,optimal_power,gap_ratio,feasible"
    assert len(lines) > 1


def test_gap_zero_traffic_ratios_at_least_one(small_files, tmp_path):
    topo, _traffic, config = small_files
    empty = tmp_path / "none.traffic"
    empty.write_text("# no flows\n")
    out = tmp_path / "gap0"
    assert run_cli("gap", "--topology", topo, "--traffic", empty,
                   "--config", config, "--out", out) == 0
    rows = (out / "gap.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        assert float(row.split(",")[3]) >= 1.0


def test_gap_guardrail_on_garr48(tmp_path, capsys):
    topo = tmp_path / "garr48.topo"
    topo.write_text(bundled_topology_text("garr48"))
    empty = tmp_path / "none.traffic"
    empty.write_text("")
    code = run_cli("gap", "--topology", topo, "--traffic", empty,
                   "--out", tmp_path / "gap")
    assert code != 0
    assert "guardrail" in capsys.readouterr().err


def test_log_env_var_accepted(small_files, tmp_path, monkeypatch):
    topo, _traffic, _config = small_files
    monkeypatch.setenv("GOSPF_LOG", "debug")
    out = tmp_path / "logged.traffic"
    assert run_cli("gen-traffic", "--kind", "daily", "--topology", topo,
                   "--flows", "1", "--out", out) == 0


def test_run_outputs_deterministic(small_files, tmp_path):
    topo, traffic, config = small_files
    for name in ("x", "y"):
        assert run_cli("run", "--topology", topo, "--traffic", traffic,
                       "--config", config, "--out", tmp_path / name) == 0
    for fname in ("metrics.csv", "events.log", "summary.txt", "links.csv"):
        assert (tmp_path / "x" / fname).read_bytes() == \
            (tmp_path / "y" / fname).read_bytes()


@pytest.mark.parametrize("line", [
    "horizon=nan", "horizon=inf", "t_sample=nan", "t_sample=inf",
    "control_latency=nan", "control_latency=inf", "mcst_reset_timer=inf",
    "mcst_reset_timer=nan", "safeguard_interval=nan", "safeguard_interval=inf",
    "ref_bandwidth=nan", "ref_bandwidth=inf", "ref_bandwidth=0", "ref_bandwidth=-1e8",
    "control_msg_bytes=-5", "tcp_burst_frac=-0.01", "tcp_burst_frac=nan",
    "tcp_burst_frac=inf", "p_active=-1", "p_active=nan", "p_idle=-0.8",
    "p_idle=inf", "p_sleep=-0.016", "p_sleep=nan", "e_c=-1", "e_c=inf",
    "seed=1", "horizon=1e300", "t_sample=1e-300",
])
def test_run_rejects_out_of_domain_config(small_files, tmp_path, capsys, line):
    topo, traffic, _config = small_files
    config = tmp_path / "bad.conf"
    config.write_text(f"horizon=4.0\n{line}\n")
    code = run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert line.split("=")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("topo_text, traffic_text", [
    pytest.param(SMALL_TOPO.replace("link 1 1 2 10000000",
                                    "link 1 1 2 10000000 nan 0.8 0.016 0"),
                 SMALL_TRAFFIC, id="link-power-nan"),
    pytest.param(SMALL_TOPO.replace("link 1 1 2 10000000",
                                    "link 1 1 2 10000000 -5 0.8 0.016 0"),
                 SMALL_TRAFFIC, id="link-power-negative"),
    pytest.param(SMALL_TOPO.replace("link 1 1 2 10000000",
                                    "link 1 1 2 10000000 1.0 0.8 inf 0"),
                 SMALL_TRAFFIC, id="link-power-inf"),
    pytest.param(SMALL_TOPO, "flow 1 1 3 udp\nrate 1 0 nan\n", id="rate-nan"),
    pytest.param(SMALL_TOPO, "flow 1 1 3 udp\nrate 1 0 inf\n", id="rate-inf"),
    pytest.param(SMALL_TOPO, "flow 1 1 3 udp\nrate 1 nan 100\n", id="time-nan"),
])
def test_run_rejects_non_finite_or_negative_inputs(tmp_path, capsys, topo_text,
                                                   traffic_text):
    topo = tmp_path / "net.topo"
    topo.write_text(topo_text)
    traffic = tmp_path / "flows.traffic"
    traffic.write_text(traffic_text)
    code = run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert "line " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("power, config_text, message", [
    pytest.param("1e308", "horizon=4.0\nt_sample=2.0\n", "energy per window is not finite",
                 id="increment-inf"),
    pytest.param("1e306", "t_sample=1.0\n", "may exceed the largest float",
                 id="total-too-large"),
])
def test_run_rejects_energy_a_float_cannot_hold(tmp_path, capsys, power, config_text,
                                                message):
    # 1e308 W for 2 s is inf joules per window; 1e306 W per window is finite,
    # but a day of it on eight interfaces is not.
    topo = tmp_path / "net.topo"
    topo.write_text(SMALL_TOPO.replace("link 1 1 2 10000000",
                                       f"link 1 1 2 10000000 {power} 0.8 0.016 0"))
    traffic = tmp_path / "flows.traffic"
    traffic.write_text(SMALL_TRAFFIC)
    config = tmp_path / "run.conf"
    config.write_text(config_text)
    code = run_cli("run", "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert message in err
    assert "Traceback" not in err


def test_gen_traffic_rejects_nan_peak_util(small_files, capsys):
    topo, _traffic, _config = small_files
    code = run_cli("gen-traffic", "--kind", "daily", "--topology", topo,
                   "--flows", "1", "--peak-util", "nan")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert "peak utilization must be positive" in err


@pytest.mark.parametrize("command", ["run", "gap"])
def test_topology_without_nodes_is_diagnosed(tmp_path, capsys, command):
    topo = tmp_path / "empty.topo"
    topo.write_text("# no nodes\n")
    traffic = tmp_path / "empty.traffic"
    traffic.write_text("")
    code = run_cli(command, "--topology", topo, "--traffic", traffic,
                   "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert "topology has no nodes" in err


@pytest.mark.parametrize("command, output", [("run", "metrics.csv"), ("gap", "gap.csv")])
def test_horizon_shorter_than_one_window_is_diagnosed(small_files, tmp_path, capsys,
                                                      command, output):
    topo, traffic, _config = small_files
    config = tmp_path / "short.conf"
    config.write_text("horizon=0.1\nt_sample=0.2\n")
    out = tmp_path / "out"
    code = run_cli(command, "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gospf: error:")
    assert "horizon=0.1" in err and "t_sample=0.2" in err
    assert not (out / output).exists()


@pytest.mark.parametrize("command", ["run", "gap"])
def test_failed_command_leaves_no_output_directory(small_files, tmp_path, capsys, command):
    topo, traffic, _config = small_files
    config = tmp_path / "short.conf"
    config.write_text("horizon=0.1\n")
    out = tmp_path / "out"
    code = run_cli(command, "--topology", topo, "--traffic", traffic,
                   "--config", config, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith("gospf: error:")
    assert not out.exists()
