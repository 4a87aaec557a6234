"""Flat ``key = value`` run configuration.

Exact keys, one per line, ``#`` comments; values round-trip bit-exactly
through repr, so an echoed config reproduces its run.  ``RunConfig`` is the
schema: each of its fields declares one key's name, type and default, in
the canonical order, and ``CONFIG_KEYS`` and the parser read them from there.
Its names are checked against the vocabularies of ``observables``; the
module imports nothing else of the package but ``errors``, so loading a
config loads neither numpy nor the engine.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, require_positive
from .observables import BATH_MODELS, COLLAPSE_POLICIES, METER_KINDS, MeterSpec, OscillatorParams


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on, including the master seed.

    The defaults are the millikelvin regime: a gram-scale bar mode read out
    by a quantum-limited back-action-evading X1 meter."""

    mass_kg: float = 1e-3
    omega1_rad_s: float = 1e4
    tau1_s: float = 1e4
    temperature_K: float = 0.05
    bath_model: str = "classical"
    meter_kind: str = "qnd_x1"
    sigma_m_m: float = 1e-18
    collapse_policy: str = "orthodox"
    dt_s: float = 1e-2
    n_meas: int = 100
    n_traj: int = 10000
    burn_in_s: float = 0.0
    seed: int = 20260811

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
        if self.collapse_policy not in COLLAPSE_POLICIES:
            raise ConfigError(f"collapse_policy must be one of {COLLAPSE_POLICIES}, got {self.collapse_policy!r}")

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


# key -> type, in field order: the class float, int or str, since this module
# does not postpone the evaluation of annotations
_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}
CONFIG_KEYS = tuple(_KEY_TYPES)


def default_config() -> RunConfig:
    """The defaults declared on ``RunConfig``'s fields."""
    return RunConfig()


def convert_config_value(key: str, raw: str):
    """Parse one raw string as the given config key's type."""
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if kind is not int:
            return kind(raw)
        try:
            return int(raw)
        except ValueError:
            value = float(raw)  # e.g. "1e3"
    except ValueError:
        raise ConfigError(f"cannot parse value for {key}: {raw!r}") from None
    if not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    return int(value)


def parse_config(text: str) -> RunConfig:
    """Parse config text; unset keys fall back to the defaults.  An error
    names its line as ``line N: ...``."""
    return _parse(text, "line ")


def _parse(text: str, where: str) -> RunConfig:
    """``parse_config`` with ``where`` before each error's line number.  A
    value is checked on its own line, in a ``RunConfig`` with every other
    field at its default: each field is checked alone."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        try:
            if not sep or not key or not raw:
                raise ConfigError(f"expected 'key = value', got {raw_line!r}")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if key in values:
                raise ConfigError(f"duplicate key {key!r}")
            values[key] = convert_config_value(key, raw)
            RunConfig(**{key: values[key]})
        except ConfigError as exc:
            raise ConfigError(f"{where}{lineno}: {exc}") from None
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """Read and parse a config file.  An error names the file and the line as
    ``path:N: ...``."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
    return _parse(text, f"{path}:")


def format_config(config: RunConfig) -> str:
    """Render in canonical key order; parse(format(c)) == c."""
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(config, key)
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"
