from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gospf.energy
from gospf.config import ConfigError, parse_config
from gospf.energy import (ONE, EnergyAccount, EnergyLedger, InvalidThresholds,
                          InvalidTransition, NegativeDuration, OperationalState,
                          UtilizationClass, classify, exact, total_network_energy,
                          validate_thresholds)
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


def test_sleep_from_sleep_is_invalid():
    acct = EnergyAccount(**DEFAULT_POWERS)
    acct.enter_sleep()
    with pytest.raises(InvalidTransition):
        acct.enter_sleep()
    ledger = EnergyLedger([Link(1, 1, 2, 1e7)], 0.2)
    ledger.sleep((1, 1))
    with pytest.raises(InvalidTransition):
        ledger.sleep((1, 1))


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


# ------------------------------------------------------------------ ledger

def test_exact_converts_every_finite_float():
    assert exact(0.0) == 0
    assert exact(5e-324) == 1
    assert exact(1.0) == ONE
    assert Fraction(exact(0.1), ONE) == Fraction(0.1)
    assert exact(1e308) / ONE == 1e308
    with pytest.raises(OverflowError):
        exact(float("inf"))


def test_ledger_rejects_negative_busy_times():
    ledger = EnergyLedger([Link(1, 1, 2, 1e7)], 0.2)
    with pytest.raises(NegativeDuration):
        ledger.set_busy(1, -0.1)
    with pytest.raises(NegativeDuration):
        ledger.set_busy(1, 0.3)  # idle share would be negative
    with pytest.raises(NegativeDuration):
        EnergyLedger([Link(1, 1, 2, 1e7)], -0.2).set_busy(1, 0.0)


def test_ledger_converts_a_recent_busy_time_once(monkeypatch):
    # The last three busy times set keep their conversions; a fourth
    # distinct one evicts the least recently set.
    conversions = []
    original = gospf.energy.exact

    def exact_counted(x):
        conversions.append(x)
        return original(x)

    ledger = EnergyLedger([Link(1, 1, 2, 1e7)], 0.2)
    monkeypatch.setattr(gospf.energy, "exact", exact_counted)
    per_set = []
    for t_busy in (0.1, 0.05, 0.1, 0.02, 0.05, 0.07, 0.1):
        before = len(conversions)
        ledger.set_busy(1, t_busy)
        ledger.charge()
        per_set.append(len(conversions) - before)
    assert per_set == [4, 4, 0, 4, 0, 4, 4]
    monkeypatch.undo()
    fresh = EnergyLedger([Link(1, 1, 2, 1e7)], 0.2)
    for t_busy in (0.1, 0.05, 0.1, 0.02, 0.05, 0.07, 0.1):
        fresh._links[1].recent = ()
        fresh.set_busy(1, t_busy)
        fresh.charge()
    assert ledger.total == fresh.total


def test_ledger_charges_the_wake_cost_to_the_last_window():
    ledger = EnergyLedger([Link(1, 1, 2, 1e7, e_c=0.5)], 0.2)
    ledger.sleep((1, 1))
    ledger.charge()
    before = ledger.total
    ledger.wake((1, 1))
    assert ledger.total - before == exact(0.5)
    ledger.close()
    assert ledger.accounts[(1, 1)].switch_count == 1
    assert ledger.accounts[(1, 1)].energy_j == 0.016 * 0.2 + 0.5
    assert ledger.accounts[(1, 1)].t_sleep == 0.2


KEYS = ((1, 1), (1, 2), (2, 2), (2, 3))
POWERS = st.floats(min_value=0.0, max_value=50.0)


@st.composite
def ledger_scripts(draw):
    """Two links with drawn ratings and a sequence of busy changes, sleep or
    wake toggles, and runs of charged windows."""
    t_sample = draw(st.sampled_from((0.2, 0.3, 0.05)))
    links = [Link(lid, lid, lid + 1, 1e7, draw(POWERS), draw(POWERS), draw(POWERS),
                  draw(POWERS)) for lid in (1, 2)]
    busy = st.one_of(st.sampled_from((0.0, t_sample, 1 / 30, 5e-324)),
                     st.floats(min_value=0.0, max_value=t_sample))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("busy"), st.sampled_from((1, 2)), busy),
        st.tuples(st.just("toggle"), st.sampled_from(KEYS)),
        st.tuples(st.just("charge"), st.integers(min_value=1, max_value=5))),
        max_size=40))
    return t_sample, links, steps


@settings(max_examples=150, deadline=None)
@given(ledger_scripts())
@example((0.2, [Link(1, 1, 2, 1e7, 1.3, 0.7, 0.011, 0.4), Link(2, 2, 3, 1e7)],
          [("busy", 1, 1 / 30), ("charge", 2), ("toggle", (1, 1)), ("busy", 1, 5e-324),
           ("charge", 3), ("toggle", (1, 1)), ("busy", 2, 0.2), ("charge", 1)]))
def test_ledger_equals_the_eager_sums(script):
    # Eagerly, every window adds each interface's increment under its state
    # then, as exact Fractions of the same float products, and each wake
    # adds e_c; `accrue` and `record_wakeup` add the same amounts in floats.
    t_sample, links, steps = script
    ledger = EnergyLedger(links, t_sample)
    by_id = {link.link_id: link for link in links}
    busy = {1: 0.0, 2: 0.0}
    eager = {key: [Fraction(0)] * 4 for key in KEYS}
    floats = {key: EnergyAccount(by_id[key[0]].p_active, by_id[key[0]].p_idle,
                                 by_id[key[0]].p_sleep, by_id[key[0]].e_c) for key in KEYS}
    total = Fraction(0)
    for step in steps:
        if step[0] == "busy":
            ledger.set_busy(step[1], step[2])
            busy[step[1]] = step[2]
        elif step[0] == "toggle":
            key = step[1]
            if floats[key].state is OperationalState.SLEEP:
                ledger.wake(key)
                floats[key].record_wakeup()
                eager[key][0] += Fraction(by_id[key[0]].e_c)
                total += Fraction(by_id[key[0]].e_c)
            else:
                ledger.sleep(key)
                floats[key].enter_sleep()
        else:
            for _ in range(step[1]):
                ledger.charge()
                for key in KEYS:
                    link, acct = by_id[key[0]], floats[key]
                    if acct.state is OperationalState.SLEEP:
                        increment = (link.p_sleep * t_sample, 0.0, 0.0, t_sample)
                        acct.accrue(OperationalState.SLEEP, t_sample)
                    else:
                        t_busy = busy[key[0]]
                        t_idle = t_sample - t_busy
                        increment = (link.p_active * t_busy, t_busy, t_idle, 0.0)
                        eager[key][0] += Fraction(link.p_idle * t_idle)
                        total += Fraction(link.p_idle * t_idle)
                        acct.accrue(OperationalState.ACTIVE, t_busy)
                        acct.accrue(OperationalState.IDLE, t_idle)
                    eager[key] = [s + Fraction(x) for s, x in zip(eager[key], increment)]
                    total += Fraction(increment[0])
    assert ledger.total == total * ONE
    ledger.close()
    fields = ("energy_j", "t_active", "t_idle", "t_sleep")
    for key in KEYS:
        acct = ledger.accounts[key]
        assert [getattr(acct, f) for f in fields] == [float(x) for x in eager[key]]
        assert [getattr(acct, f) for f in fields] == pytest.approx(
            [getattr(floats[key], f) for f in fields], rel=1e-12, abs=0.0)
        assert (acct.state, acct.switch_count) == (floats[key].state,
                                                   floats[key].switch_count)


@settings(max_examples=100, deadline=None)
@given(ledger_scripts())
def test_ledger_awake_means_both_interfaces_awake(script):
    # Busy changes and charged windows leave the awake state alone.
    t_sample, links, steps = script
    ledger = EnergyLedger(links, t_sample)
    asleep = set()
    for step in steps:
        if step[0] == "busy":
            ledger.set_busy(step[1], step[2])
        elif step[0] == "toggle":
            key = step[1]
            if key in asleep:
                ledger.wake(key)
                asleep.remove(key)
            else:
                ledger.sleep(key)
                asleep.add(key)
        else:
            ledger.charge()
        for link in links:
            assert ledger.awake(link.link_id) == all(
                (link.link_id, side) not in asleep for side in link.endpoints())
