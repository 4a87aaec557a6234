"""Feasibility arithmetic: noise quanta and zero-point displacement.

eta1 = (kB T / hbar w1)(dt / tau1) counts the mean thermal energy exchanged
with the mechanical mode per measurement interval in units of hbar w1; eta2
is the same figure for the electrical readout mode.  Both near unity mark
the regime where quantum measurement noise competes with thermal drift.
The amplifier figure eta_a is a pass-through input (no formula exists for
it here), and the zero-point displacement sqrt(hbar / m w) shows why small
test masses enlarge the quantum floor.  ``budget_figures`` makes all five
figures of one operating point; a figure that is not finite raises
NumericalFailureError rather than report inf.  The module formats no text:
the ``budget`` command spells the figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .config import RunConfig
from .constants import HBAR, KB
from .errors import require_finite, require_nonzero, require_positive


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


def eta1(inputs: BudgetInputs) -> float:
    """Brownian-drift quanta of the mechanical mode per interval."""
    quantum = require_nonzero("hbar omega1", HBAR * inputs.omega1, omega1=inputs.omega1)
    return require_finite("eta1", (KB * inputs.temperature / quantum) * (inputs.dt / inputs.tau1))


def eta2(inputs: BudgetInputs) -> float:
    """Dissipation quanta of the electrical readout mode per interval."""
    quantum = require_nonzero("hbar omega2", HBAR * inputs.omega2, omega2=inputs.omega2)
    return require_finite("eta2", (KB * inputs.temperature / quantum) * (inputs.dt / inputs.tau2))


def budget_figures(inputs: BudgetInputs) -> dict[str, float]:
    """The five figures of one operating point, under the names ``budget``
    prints: the two etas, the amplifier quanta, the thermal energy drift per
    interval eta1 hbar w1 in J, and the zero-point displacement in m."""
    # mass and omega1 scaled into [1/2, 1) by powers of two, which is exact,
    # so that their product and hbar over it cannot under- or overflow: the
    # root gives the plain formula's bits wherever those two are normal
    (mass, mass_exponent), (omega1, omega1_exponent) = math.frexp(inputs.mass), math.frexp(inputs.omega1)
    half, odd = divmod(mass_exponent + omega1_exponent, 2)
    figures = {
        "eta1": eta1(inputs),
        "eta2": eta2(inputs),
        "eta_a": inputs.amplifier_quanta,
        "delta_e_br_J": KB * inputs.temperature * (inputs.dt / inputs.tau1),  # eta1 hbar w1, with no hbar w1 to underflow
        "x_zp_m": math.ldexp(math.sqrt(math.ldexp(HBAR / (mass * omega1), -odd)), -half),
    }
    return {name: require_finite(name, value) for name, value in figures.items()}

