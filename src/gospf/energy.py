"""Interface operational states, per-interface energy accounting, and thresholds."""

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum


class EnergyError(ValueError):
    pass


class NegativeDuration(EnergyError):
    pass


class InvalidTransition(EnergyError):
    pass


class InvalidThresholds(EnergyError):
    pass


class OperationalState(Enum):
    ACTIVE = "active"
    IDLE = "idle"
    SLEEP = "sleep"


class InterfaceRole(Enum):
    """Topology role of an interface as seen by the protocol."""

    MCST_TREE = "mcst_tree"
    MCST_UNCUT = "mcst_uncut"
    MCST_CUT = "mcst_cut"
    MCST_GRAFT = "mcst_graft"


class UtilizationClass(Enum):
    OVERUTILIZED = "overutilized"
    NORMAL = "normal"
    UNDERUTILIZED = "underutilized"


@dataclass(slots=True)
class EnergyAccount:
    """Accumulated state time and energy for one interface.

    Energy is p_active*t_active + p_idle*t_idle + p_sleep*t_sleep plus e_c per
    sleep-to-idle transition; `switch_count` tracks those transitions.
    """

    p_active: float
    p_idle: float
    p_sleep: float
    e_c: float = 0.0
    t_active: float = 0.0
    t_idle: float = 0.0
    t_sleep: float = 0.0
    switch_count: int = 0
    energy_j: float = 0.0
    state: OperationalState = OperationalState.IDLE

    def accrue(self, state: OperationalState, duration: float) -> None:
        """Charge `duration` seconds spent in `state`."""
        if duration < 0:
            raise NegativeDuration(f"duration {duration} < 0")
        if state is OperationalState.ACTIVE:
            self.t_active += duration
            self.energy_j += self.p_active * duration
        elif state is OperationalState.IDLE:
            self.t_idle += duration
            self.energy_j += self.p_idle * duration
        else:
            self.t_sleep += duration
            self.energy_j += self.p_sleep * duration

    def record_wakeup(self) -> None:
        """Sleep-to-idle transition: bump the switch counter and pay e_c."""
        if self.state is not OperationalState.SLEEP:
            raise InvalidTransition(f"wakeup from {self.state.value}, expected sleep")
        self.switch_count += 1
        self.energy_j += self.e_c
        self.state = OperationalState.IDLE

    def enter_sleep(self) -> None:
        self.state = OperationalState.SLEEP


@dataclass
class ChargePlan:
    """One sampling window's state-time and energy increments per account,
    computed once and applied to every window that repeats it.

    `awake` holds (account, t_busy, p_active*t_busy, t_idle, p_idle*t_idle)
    and `asleep` holds (account, window, p_sleep*window). Applying the plan
    makes the same additions, in the same order, as the equivalent `accrue`
    calls: `energy_j + e_busy + e_idle` adds left to right, whereas one
    pre-summed `e_busy + e_idle` would round differently.
    """

    awake: list[tuple[EnergyAccount, float, float, float, float]]
    asleep: list[tuple[EnergyAccount, float, float]]

    def apply(self) -> None:
        for acct, t_busy, e_busy, t_idle, e_idle in self.awake:
            acct.t_active += t_busy
            acct.t_idle += t_idle
            acct.energy_j = acct.energy_j + e_busy + e_idle
        for acct, window, e_sleep in self.asleep:
            acct.t_sleep += window
            acct.energy_j += e_sleep


def plan_window(charges: Iterable[tuple[EnergyAccount, float]], window: float) -> ChargePlan:
    """Plan one window for (account, t_busy) pairs under each account's
    current state: `window` seconds asleep, or `t_busy` active plus the
    rest idle."""
    if window < 0:
        raise NegativeDuration(f"duration {window} < 0")
    awake = []
    asleep = []
    for acct, t_busy in charges:
        if acct.state is OperationalState.SLEEP:
            asleep.append((acct, window, acct.p_sleep * window))
            continue
        if t_busy < 0:
            raise NegativeDuration(f"duration {t_busy} < 0")
        t_idle = window - t_busy
        if t_idle < 0:
            raise NegativeDuration(f"duration {t_idle} < 0")
        awake.append((acct, t_busy, acct.p_active * t_busy, t_idle, acct.p_idle * t_idle))
    return ChargePlan(awake, asleep)


def classify(u_r: float, gamma_u: float, gamma_l: float) -> UtilizationClass:
    """Overutilized above gamma_u, underutilized below gamma_l, else normal.
    The thresholds are checked once, by validate_thresholds."""
    if u_r > gamma_u:
        return UtilizationClass.OVERUTILIZED
    if u_r < gamma_l:
        return UtilizationClass.UNDERUTILIZED
    return UtilizationClass.NORMAL


def validate_thresholds(gamma_u: float, gamma_l: float) -> None:
    if not (0.0 <= gamma_l < gamma_u <= 1.0):
        raise InvalidThresholds(
            f"need 0 <= gamma_l < gamma_u <= 1, got gamma_l={gamma_l} gamma_u={gamma_u}")


def total_network_energy(accounts) -> float:
    """Sum of accumulated energy over all interface accounts."""
    return sum([acct.energy_j for acct in accounts])
