import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gospf.config import ConfigError, parse_config
from gospf.energy import (EnergyAccount, InvalidThresholds, InvalidTransition,
                          NegativeDuration, OperationalState, UtilizationClass,
                          classify, total_network_energy, validate_thresholds)
from gospf.engine import Scenario, run
from gospf.graph import Link, Topology, TopologyError
from gospf.protocol import GospfNode
from gospf.traffic import Flow, TrafficMatrix

from conftest import make_topology

DEFAULT_POWERS = dict(p_active=1.0, p_idle=0.8, p_sleep=0.016)


def elapsed(acct):
    return acct.t_active + acct.t_idle + acct.t_sleep


def test_accrue_active_ten_seconds():
    acct = EnergyAccount(**DEFAULT_POWERS)
    acct.accrue(OperationalState.ACTIVE, 10.0)
    assert acct.energy_j == pytest.approx(10.0)
    assert acct.t_active == 10.0


def test_accrue_sleep_hundred_seconds():
    acct = EnergyAccount(**DEFAULT_POWERS)
    acct.accrue(OperationalState.SLEEP, 100.0)
    assert acct.energy_j == pytest.approx(1.6)


def test_accrue_zero_duration_is_identity():
    acct = EnergyAccount(**DEFAULT_POWERS)
    acct.accrue(OperationalState.IDLE, 0.0)
    assert acct.energy_j == 0.0
    assert elapsed(acct) == 0.0


def test_accrue_rejects_negative_duration():
    acct = EnergyAccount(**DEFAULT_POWERS)
    with pytest.raises(NegativeDuration):
        acct.accrue(OperationalState.IDLE, -1.0)


def test_wakeup_with_zero_transition_cost():
    acct = EnergyAccount(**DEFAULT_POWERS, e_c=0.0)
    acct.enter_sleep()
    acct.record_wakeup()
    assert acct.switch_count == 1
    assert acct.energy_j == 0.0
    assert acct.state is OperationalState.IDLE


def test_wakeup_charges_transition_energy_each_time():
    acct = EnergyAccount(**DEFAULT_POWERS, e_c=0.5)
    for _ in range(2):
        acct.enter_sleep()
        acct.record_wakeup()
    assert acct.switch_count == 2
    assert acct.energy_j == pytest.approx(1.0)


def test_wakeup_from_awake_is_invalid():
    acct = EnergyAccount(**DEFAULT_POWERS)
    with pytest.raises(InvalidTransition):
        acct.record_wakeup()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(OperationalState)),
                          st.floats(min_value=0, max_value=1e4)),
                max_size=30))
def test_time_buckets_conserve_elapsed_time(steps):
    acct = EnergyAccount(**DEFAULT_POWERS)
    total = 0.0
    for state, duration in steps:
        acct.accrue(state, duration)
        total += duration
    assert elapsed(acct) == pytest.approx(total, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(OperationalState)),
                          st.floats(min_value=0, max_value=1e4)),
                max_size=30))
def test_energy_monotone_nondecreasing(steps):
    acct = EnergyAccount(**DEFAULT_POWERS)
    previous = 0.0
    for state, duration in steps:
        acct.accrue(state, duration)
        assert acct.energy_j >= previous
        previous = acct.energy_j


def first_tick_samples(monkeypatch, rate):
    """The utilization samples node 1 receives at the first tick of a gospf
    run with one flow 1->3 over links of 10 and 20 Mbit/s."""
    seen = []
    tick = GospfNode.sample_tick

    def recording_tick(node, now, samples):
        if node.node_id == 1:
            seen.append(dict(samples))
        return tick(node, now, samples)

    with monkeypatch.context() as patch:
        patch.setattr(GospfNode, "sample_tick", recording_tick)
        flow = Flow(1, 1, 3, "udp")
        flow.add_step(0.0, rate)
        cfg = parse_config("horizon=1.0")
        run(Scenario(make_topology([(1, 2), (2, 3)], [1e7, 2e7]),
                     TrafficMatrix([flow], cfg.horizon), cfg))
    return seen[0]


def test_utilization_examples(monkeypatch):
    # Each link's sample is its bits over capacity times the window.
    assert first_tick_samples(monkeypatch, 0.0) == {1: 0.0, 2: 0.0}
    assert first_tick_samples(monkeypatch, 1e6) == pytest.approx({1: 0.1, 2: 0.05})
    assert first_tick_samples(monkeypatch, 1e7) == pytest.approx({1: 1.0, 2: 0.5})


def test_utilization_rejects_degenerate_inputs():
    # A zero line rate or a zero window never reaches a utilization sample.
    with pytest.raises(TopologyError):
        Topology({1: "a", 2: "b"}, [Link(1, 1, 2, 0.0)])
    with pytest.raises(ConfigError):
        parse_config("t_sample=0").validate()


def test_classify_examples():
    assert classify(0.5, 0.8, 0.2) is UtilizationClass.NORMAL
    assert classify(0.85, 0.8, 0.2) is UtilizationClass.OVERUTILIZED
    assert classify(0.1, 0.8, 0.2) is UtilizationClass.UNDERUTILIZED


def test_classify_boundaries_are_inclusive_normal():
    assert classify(0.8, 0.8, 0.2) is UtilizationClass.NORMAL
    assert classify(0.2, 0.8, 0.2) is UtilizationClass.NORMAL


def test_classify_rejects_swapped_thresholds():
    with pytest.raises(InvalidThresholds):
        validate_thresholds(0.2, 0.8)
    with pytest.raises(InvalidThresholds):
        GospfNode(1, make_topology([(1, 2)]), gamma_u=0.2, gamma_l=0.8,
                  safeguard_interval=2.0, mcst_reset_timer=5.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_classify_monotone_in_utilization(a, b):
    lo, hi = min(a, b), max(a, b)
    order = {UtilizationClass.UNDERUTILIZED: 0, UtilizationClass.NORMAL: 1,
             UtilizationClass.OVERUTILIZED: 2}
    assert order[classify(lo, 0.8, 0.2)] <= order[classify(hi, 0.8, 0.2)]


def test_total_network_energy():
    assert total_network_energy([]) == 0.0
    accounts = [EnergyAccount(**DEFAULT_POWERS) for _ in range(2)]
    for acct in accounts:
        acct.accrue(OperationalState.ACTIVE, 1.0)
    assert total_network_energy(accounts) == pytest.approx(2.0)
