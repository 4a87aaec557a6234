"""Feasibility arithmetic: noise quanta and zero-point displacement.

eta1 = (kB T / hbar w1)(dt / tau1) counts the mean thermal energy exchanged
with the mechanical mode per measurement interval in units of hbar w1; eta2
is the same figure for the electrical readout mode.  Both near unity mark
the regime where quantum measurement noise competes with thermal drift.  An
eta that overflows raises NumericalFailureError rather than report inf.
The amplifier figure eta_a is a pass-through input (no formula exists for
it here), and the zero-point displacement sqrt(hbar / m w) shows why small
test masses enlarge the quantum floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping, Sequence

from .config import RunConfig
from .constants import HBAR, KB
from .errors import ParameterError, require_finite, require_positive


@dataclass(frozen=True)
class BudgetInputs:
    """Operating point: bath temperature, mechanical and electrical modes,
    measurement interval, amplifier quanta, and test mass (zero-point only)."""

    temperature: float  # K
    omega1: float  # rad/s, mechanical
    tau1: float  # s, mechanical relaxation
    omega2: float  # rad/s, electrical
    tau2: float  # s, electrical relaxation
    dt: float  # s, measurement interval
    amplifier_quanta: float
    mass: float  # kg

    def __post_init__(self) -> None:
        for f in fields(self):
            require_positive(f.name, getattr(self, f.name))


def operating_point(config: RunConfig) -> BudgetInputs:
    """The budget point of a run: its bath temperature, mechanical mode,
    interval and mass, read out by an electrical mode at 1e8 rad/s with a
    1 s relaxation time through an amplifier that adds one quantum.  The run
    config has no electrical fields; this is their one source."""
    return BudgetInputs(
        temperature=config.temperature_K,
        omega1=config.omega1_rad_s,
        tau1=config.tau1_s,
        omega2=1e8,
        tau2=1.0,
        dt=config.dt_s,
        amplifier_quanta=1.0,
        mass=config.mass_kg,
    )


@dataclass(frozen=True)
class BudgetReport:
    """Noise quanta and derived figures for one operating point."""

    eta1: float
    eta2: float
    eta_a: float
    delta_e_br: float  # J, thermal energy drift per interval = eta1 * hbar * omega1
    x_zp: float  # m, zero-point displacement of the mechanical mode


def eta1(inputs: BudgetInputs) -> float:
    """Brownian-drift quanta of the mechanical mode per interval."""
    return require_finite("eta1", (KB * inputs.temperature / (HBAR * inputs.omega1)) * (inputs.dt / inputs.tau1))


def eta2(inputs: BudgetInputs) -> float:
    """Dissipation quanta of the electrical readout mode per interval."""
    return require_finite("eta2", (KB * inputs.temperature / (HBAR * inputs.omega2)) * (inputs.dt / inputs.tau2))


def zero_point_displacement(mass: float, omega: float) -> float:
    """Ground-state position spread sqrt(hbar / (m omega))."""
    if not (mass > 0.0 and omega > 0.0):
        raise ParameterError(f"mass and omega must be > 0, got {mass!r}, {omega!r}")
    return math.sqrt(HBAR / (mass * omega))


def budget_report(inputs: BudgetInputs) -> BudgetReport:
    """All pointwise budget figures for one operating point."""
    e1 = eta1(inputs)
    return BudgetReport(
        eta1=e1,
        eta2=eta2(inputs),
        eta_a=inputs.amplifier_quanta,
        delta_e_br=e1 * HBAR * inputs.omega1,
        x_zp=zero_point_displacement(inputs.mass, inputs.omega1),
    )


def budget_sweep(
    base: BudgetInputs,
    axes: Mapping[str, Sequence[float]] | None = None,
) -> list[tuple[BudgetInputs, BudgetReport]]:
    """Reports over the cartesian grid of the given axes, row-major.

    Axis order follows the mapping order; an axes value of None or {} yields
    the single base point.  Empty axes are rejected.
    """
    if not axes:
        return [(base, budget_report(base))]
    names = list(axes.keys())
    valid = {f.name for f in fields(BudgetInputs)}
    for name in names:
        if name not in valid:
            raise ParameterError(f"unknown budget field {name!r}")
        if len(axes[name]) == 0:
            raise ParameterError(f"empty grid axis {name!r}")
    rows = []
    for combo in itertools.product(*(axes[name] for name in names)):
        point = replace(base, **dict(zip(names, combo)))
        rows.append((point, budget_report(point)))
    return rows


#: Column order of the budget CSV emitted by the harness.
BUDGET_CSV_COLUMNS = ("T_K", "omega1", "tau1", "omega2", "tau2", "dt_s", "eta1", "eta2", "eta_a", "x_zp_m")


def budget_csv_rows(pairs: Iterable[tuple[BudgetInputs, BudgetReport]]) -> list[str]:
    """Header plus one formatted row per grid point, in the given order."""
    lines = [",".join(BUDGET_CSV_COLUMNS)]
    for inputs, report in pairs:
        values = (
            inputs.temperature, inputs.omega1, inputs.tau1, inputs.omega2, inputs.tau2,
            inputs.dt, report.eta1, report.eta2, report.eta_a, report.x_zp,
        )
        lines.append(",".join(f"{v:.17g}" for v in values))
    return lines
