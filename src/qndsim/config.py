"""Flat ``key = value`` run configuration.

Exact keys, one per line, ``#`` comments; values round-trip bit-exactly
through repr, so an echoed config reproduces its run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, require_positive
from .measurement import METER_KINDS, CollapsePolicy, MeterSpec
from .observables import BATH_MODELS, OscillatorParams

CONFIG_KEYS = (
    "mass_kg",
    "omega1_rad_s",
    "tau1_s",
    "temperature_K",
    "bath_model",
    "meter_kind",
    "sigma_m_m",
    "collapse_policy",
    "dt_s",
    "n_meas",
    "n_traj",
    "burn_in_s",
    "seed",
)

_INT_KEYS = frozenset({"n_meas", "n_traj", "seed"})
_STR_KEYS = frozenset({"bath_model", "meter_kind", "collapse_policy"})
_POLICIES = tuple(p.value for p in CollapsePolicy)


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on, including the master seed."""

    mass_kg: float
    omega1_rad_s: float
    tau1_s: float
    temperature_K: float
    bath_model: str
    meter_kind: str
    sigma_m_m: float
    collapse_policy: str
    dt_s: float
    n_meas: int
    n_traj: int
    burn_in_s: float
    seed: int

    def __post_init__(self) -> None:
        for key in ("mass_kg", "omega1_rad_s", "tau1_s", "temperature_K", "sigma_m_m", "dt_s"):
            require_positive(key, getattr(self, key), ConfigError)
        if not (isinstance(self.burn_in_s, (int, float)) and math.isfinite(self.burn_in_s) and self.burn_in_s >= 0.0):
            raise ConfigError(f"burn_in_s must be finite and >= 0, got {self.burn_in_s!r}")
        if not (isinstance(self.n_meas, int) and self.n_meas >= 1):
            raise ConfigError(f"n_meas must be an integer >= 1, got {self.n_meas!r}")
        if not (isinstance(self.n_traj, int) and self.n_traj >= 1):
            raise ConfigError(f"n_traj must be an integer >= 1, got {self.n_traj!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.bath_model not in BATH_MODELS:
            raise ConfigError(f"bath_model must be classical or quantum, got {self.bath_model!r}")
        if self.meter_kind not in METER_KINDS:
            raise ConfigError(f"meter_kind must be one of {METER_KINDS}, got {self.meter_kind!r}")
        if self.collapse_policy not in _POLICIES:
            raise ConfigError(f"collapse_policy must be one of {_POLICIES}, got {self.collapse_policy!r}")

    def oscillator(self) -> OscillatorParams:
        return OscillatorParams(
            mass=self.mass_kg,
            omega1=self.omega1_rad_s,
            tau1=self.tau1_s,
            temperature=self.temperature_K,
            bath_model=self.bath_model,
        )

    def meter(self) -> MeterSpec:
        return MeterSpec(kind=self.meter_kind, sigma_m=self.sigma_m_m)

    def policy(self) -> CollapsePolicy:
        return CollapsePolicy(self.collapse_policy)


def default_config() -> RunConfig:
    """Millikelvin-regime defaults: gram-scale bar mode read out by a
    quantum-limited back-action-evading X1 meter."""
    return RunConfig(
        mass_kg=1e-3,
        omega1_rad_s=1e4,
        tau1_s=1e4,
        temperature_K=0.05,
        bath_model="classical",
        meter_kind="qnd_x1",
        sigma_m_m=1e-18,
        collapse_policy="orthodox",
        dt_s=1e-2,
        n_meas=100,
        n_traj=10000,
        burn_in_s=0.0,
        seed=20260811,
    )


def convert_config_value(key: str, raw: str):
    """Parse one raw string as the given config key's type."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if key in _STR_KEYS:
            return raw
        if key in _INT_KEYS:
            try:
                return int(raw)
            except ValueError:
                value = float(raw)
                if value != int(value):
                    raise ConfigError(f"{key} must be an integer, got {raw!r}")
                return int(value)
        return float(raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse value for {key}: {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse config text; unset keys fall back to the defaults."""
    seen: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key or not raw:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = raw
    overrides = {key: convert_config_value(key, raw) for key, raw in seen.items()}
    return replace(default_config(), **overrides)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def format_config(config: RunConfig) -> str:
    """Render in canonical key order; parse(format(c)) == c."""
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(config, key)
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"
