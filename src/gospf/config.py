"""Flat key=value scenario configuration with validated defaults."""

import math
from dataclasses import dataclass, fields, replace

from .energy import validate_thresholds


class ConfigError(ValueError):
    pass


# Most windows one run may simulate; a day at t_sample=0.02 is 72,000.
MAX_WINDOWS = 10**7


@dataclass(frozen=True)
class ScenarioConfig:
    gamma_u: float = 0.8
    gamma_l: float = 0.2
    t_sample: float = 0.2
    safeguard_interval: float | None = None  # defaults to 10 * t_sample
    mcst_reset_timer: float = 5.0
    alpha: float = 0.8
    control_latency: float = 0.001
    horizon: float = 1440.0
    mode: str = "gospf"
    ref_bandwidth: float = 1e8
    control_msg_bytes: int = 64
    tcp_burst_frac: float = 0.01
    p_active: float = 1.0
    p_idle: float = 0.8
    p_sleep: float = 0.016
    e_c: float = 0.0

    @property
    def safeguard(self) -> float:
        return self.safeguard_interval if self.safeguard_interval is not None \
            else 10.0 * self.t_sample

    def validate(self) -> None:
        try:
            validate_thresholds(self.gamma_u, self.gamma_l)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for key in _FINITE_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.t_sample <= 0:
            raise ConfigError(f"t_sample must be positive, got {self.t_sample}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.horizon / self.t_sample > MAX_WINDOWS:
            raise ConfigError(f"horizon / t_sample exceeds {MAX_WINDOWS} windows: "
                              f"{self.horizon} / {self.t_sample}")
        if self.mode not in ("gospf", "baseline"):
            raise ConfigError(f"mode must be gospf or baseline, got {self.mode!r}")
        if not (0 < self.alpha <= 1):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.control_latency < 0:
            raise ConfigError("control_latency must be >= 0")
        if self.safeguard < 0 or self.mcst_reset_timer < 0:
            raise ConfigError("timers must be >= 0")
        if self.ref_bandwidth <= 0:
            raise ConfigError(f"ref_bandwidth must be positive, got {self.ref_bandwidth}")
        for key in _NON_NEGATIVE_KEYS:
            value = getattr(self, key)
            if value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")


# Keys whose value must be a finite number (gamma_u, gamma_l and alpha are
# range-checked, which already rejects nan and inf).
_FINITE_KEYS = ("horizon", "t_sample", "control_latency", "mcst_reset_timer",
                "safeguard_interval", "ref_bandwidth", "tcp_burst_frac",
                "p_active", "p_idle", "p_sleep", "e_c")
_NON_NEGATIVE_KEYS = ("control_msg_bytes", "tcp_burst_frac", "p_active", "p_idle",
                      "p_sleep", "e_c")
# Each key's parser, from its annotation: int, str, or else float (also `float | None`).
_PARSERS = {f.name: f.type if f.type in (int, str) else float for f in fields(ScenarioConfig)}


def parse_config(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse `key=value` lines over the defaults (or over `base`)."""
    cfg = base or ScenarioConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from None
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg
