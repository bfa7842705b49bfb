"""Interface operational states, per-interface energy accounting, and thresholds."""

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
    `accrue` and `record_wakeup` charge the float fields directly. In a run,
    an EnergyLedger keeps the exact sums and writes the float fields once,
    when the run ends.
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

    def wake(self) -> None:
        """Sleep-to-idle transition: bump the switch counter."""
        if self.state is not OperationalState.SLEEP:
            raise InvalidTransition(f"wakeup from {self.state.value}, expected sleep")
        self.switch_count += 1
        self.state = OperationalState.IDLE

    def record_wakeup(self) -> None:
        """Sleep-to-idle transition that also pays e_c."""
        self.wake()
        self.energy_j += self.e_c

    def enter_sleep(self) -> None:
        if self.state is OperationalState.SLEEP:
            raise InvalidTransition("sleep from sleep, expected idle or active")
        self.state = OperationalState.SLEEP


# Ledger sums are Python ints in units of 2**-1074, the smallest positive
# float. Every finite float is a whole number of units, so each converts
# exactly, integer sums are exact in any order, and a sum is rounded only
# when it is read.
UNIT_BITS = 1074
ONE = 1 << UNIT_BITS  # one joule, or one second, in ledger units


def exact(x: float) -> int:
    """`x` in ledger units, exactly; raises OverflowError on inf and
    ValueError on NaN."""
    n, d = x.as_integer_ratio()
    return n << (UNIT_BITS + 1 - d.bit_length())


class _Link:
    """A link's per-window increments (energy, t_active, t_idle, t_sleep)
    in ledger units, shared by both of its interfaces: `awake` at the
    link's current busy time and `asleep`; and its wake cost `e_c`.
    `awake_sums` adds up the awake increments of windows [0, since).
    `n_awake` counts its interfaces that are awake. `recent` holds (busy
    time, awake) for the last three busy times set, the most recent first:
    the midday oscillation returns a link to a busy time it had one or two
    changes before."""

    __slots__ = ("p_active", "p_idle", "awake", "asleep", "e_c", "since",
                 "awake_sums", "n_awake", "recent")

    def __init__(self, link, window: int, t_sample: float):
        self.p_active, self.p_idle = link.p_active, link.p_idle
        self.awake = (exact(link.p_idle * t_sample), 0, window, 0)
        self.asleep = (exact(link.p_sleep * t_sample), 0, 0, window)
        self.e_c = exact(link.e_c)
        self.since = 0
        self.awake_sums = (0, 0, 0, 0)
        self.n_awake = 0
        self.recent: tuple[tuple[float, tuple[int, ...]], ...] = ()

    def sums_at(self, asleep: bool, w: int) -> tuple[int, ...]:
        """The awake or the asleep increments added up over windows [0, w)."""
        if asleep:
            energy, _, _, t_sleep = self.asleep
            return (w * energy, 0, 0, w * t_sleep)
        n = w - self.since
        sums, awake = self.awake_sums, self.awake
        return (sums[0] + n * awake[0], sums[1] + n * awake[1], sums[2] + n * awake[2], 0)


class _Interface:
    """An interface's sums over the periods it has finished, and `start`,
    its link's `sums_at` in its current state when that period began."""

    __slots__ = ("account", "link", "sums", "start")

    def __init__(self, account: EnergyAccount, link: _Link):
        self.account = account
        self.link = link
        self.sums = (0, 0, 0, 0)
        self.start = (0, 0, 0, 0)

    def sums_at(self, w: int) -> tuple[int, ...]:
        """Energy, t_active, t_idle and t_sleep over windows [0, w)."""
        now = self.link.sums_at(self.account.state is OperationalState.SLEEP, w)
        return tuple(s + a - b for s, a, b in zip(self.sums, now, self.start))


class EnergyLedger:
    """Exact energy and state time of every interface, charged per change.

    An awake interface gains p_active*t_busy + p_idle*(t_sample - t_busy)
    per window, t_busy being its link's busy time; an asleep one gains
    p_sleep*t_sample; each product is the float the per-window formula
    computes, converted exactly. A link's increments change only when its
    busy time does, converted once for both interfaces; an interface
    switches between its link's two only when it sleeps or wakes. The
    network total gains the sum of the increments in force, `rate`, in one
    integer add per window.
    """

    def __init__(self, links, t_sample: float):
        """`links`: graph.Link-like records; both interfaces of a link draw
        the link's power ratings. Every interface starts idle."""
        self.t_sample = t_sample
        window = exact(t_sample)
        self.windows = 0  # windows charged so far
        self.total = 0  # network energy so far
        self.rate = 0  # network energy per window under the increments in force
        self.accounts: dict[tuple[int, int], EnergyAccount] = {}  # (link, node)
        self._links: dict[int, _Link] = {}
        self._interfaces: dict[tuple[int, int], _Interface] = {}
        for link in links:
            charges = self._links[link.link_id] = _Link(link, window, t_sample)
            for side in link.endpoints():
                acct = self.accounts[(link.link_id, side)] = EnergyAccount(
                    p_active=link.p_active, p_idle=link.p_idle,
                    p_sleep=link.p_sleep, e_c=link.e_c)
                self._interfaces[(link.link_id, side)] = _Interface(acct, charges)
                charges.n_awake += 1
                self.rate += charges.awake[0]

    def set_busy(self, lid: int, t_busy: float) -> None:
        """From the next window charged on, link `lid` is busy for `t_busy`
        seconds of each window and idle for the rest."""
        link = self._links[lid]
        recent = link.recent
        for used in recent:
            if used[0] == t_busy:
                if used is not recent[0]:
                    link.recent = (used, *[other for other in recent if other is not used])
                break
        else:
            t_idle = self.t_sample - t_busy
            if t_busy < 0 or t_idle < 0:
                raise NegativeDuration(f"busy time {t_busy} outside [0, {self.t_sample}]")
            used = (t_busy, (exact(link.p_active * t_busy) + exact(link.p_idle * t_idle),
                             exact(t_busy), exact(t_idle), 0))
            link.recent = (used, *recent[:2])
        if link.since != self.windows:
            link.awake_sums = link.sums_at(False, self.windows)
            link.since = self.windows
        self.rate += link.n_awake * (used[1][0] - link.awake[0])
        link.awake = used[1]

    def _switch(self, iface: _Interface, asleep: bool) -> None:
        """Close the interface's current period and open one in the other
        state; the account rejects a switch to the state it is in."""
        link, w = iface.link, self.windows
        sums = iface.sums_at(w)
        if asleep:
            iface.account.enter_sleep()
            link.n_awake -= 1
            self.rate += link.asleep[0] - link.awake[0]
        else:
            iface.account.wake()
            link.n_awake += 1
            self.rate += link.awake[0] - link.asleep[0]
        iface.sums = sums
        iface.start = link.sums_at(asleep, w)

    def sleep(self, key: tuple[int, int]) -> None:
        """The (link, node) interface sleeps from the next window charged on."""
        self._switch(self._interfaces[key], True)

    def wake(self, key: tuple[int, int]) -> None:
        """The (link, node) interface wakes from the next window charged on;
        its wake cost lands in the last window charged."""
        iface = self._interfaces[key]
        self._switch(iface, False)
        e_c = iface.link.e_c
        iface.sums = (iface.sums[0] + e_c, *iface.sums[1:])
        self.total += e_c

    def awake(self, lid: int) -> bool:
        """Both interfaces of link `lid` are awake."""
        return self._links[lid].n_awake == 2

    def charge(self) -> None:
        """Charge one window under the increments in force."""
        self.windows += 1
        self.total += self.rate

    def close(self) -> None:
        """Write every interface's sums, each rounded once, to its account."""
        for iface in self._interfaces.values():
            acct = iface.account
            acct.energy_j, acct.t_active, acct.t_idle, acct.t_sleep = (
                s / ONE for s in iface.sums_at(self.windows))


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
