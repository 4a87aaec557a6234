"""Thermal dynamics of the quadratures in the rotating frame.

With the fast oscillation rotated away, the bath acts as two independent
Ornstein-Uhlenbeck processes, one per amplitude.  tau1 is the ENERGY
relaxation time, so amplitudes decay with time constant 2*tau1: over a step
dt the decay factor is d = exp(-dt / 2 tau1) and the stationary variance is

    V_inf = kB T / (m w1^2)                                (classical bath)
    V_inf = (hbar / 2 m w1) coth(hbar w1 / 2 kB T)         (quantum bath)

``thermal_step`` is the exact discretization of this process, valid for any
dt with zero step-size bias: sampled means decay by d and receive a Gaussian
kick of variance V_inf (1 - d^2); covariances relax deterministically,
v <- d^2 v + V_inf (1 - d^2).  Starting a trajectory at E = 0, the mean
energy therefore grows as kB T (1 - exp(-t/tau1)) ~ kB T t / tau1, which is
the Brownian-drift noise figure eta1 per interval when divided by hbar w1.

``free_evolve`` is trivial by construction: the amplitudes are constants of
the free motion, so only the clock advances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, KB
from .errors import ParameterError
from .observables import OscillatorParams


@dataclass(slots=True)
class GaussianQuadState:
    """Gaussian state of the amplitude pair: sampled means plus conditional
    covariance (v11, v22, v12), all in m^2, and the lab-time stamp.

    The means may also be arrays over a batch of trajectories that share one
    covariance and clock, as the ensemble steps them."""

    mean1: float
    mean2: float
    v11: float
    v22: float
    v12: float = 0.0
    time: float = 0.0


@dataclass(frozen=True)
class EnergyReport:
    """Energy split between the two amplitudes, in joules."""

    e1: float
    e2: float
    total: float


def stationary_variance(params: OscillatorParams) -> float:
    """Equilibrium variance of each amplitude under the configured bath."""
    if params.bath_model == "classical":
        return KB * params.temperature / (params.mass * params.omega1**2)
    # quantum: coth crossover to the zero-point floor hbar / (2 m w1)
    x = HBAR * params.omega1 / (2.0 * KB * params.temperature)
    return HBAR / (2.0 * params.mass * params.omega1) / math.tanh(x)


def zero_point_variance(params: OscillatorParams) -> float:
    """Ground-state amplitude variance hbar / (2 m w1)."""
    return HBAR / (2.0 * params.mass * params.omega1)


#: Normals one ``thermal_step`` draws: the kicks of mean1 and mean2.
THERMAL_STEP_DRAWS = 2


def thermal_step(
    state: GaussianQuadState,
    dt: float,
    params: OscillatorParams,
    rng: np.random.Generator,
) -> GaussianQuadState:
    """Exact Ornstein-Uhlenbeck update over dt > 0.

    Means are sampled (mean1 first, then mean2, two rng draws); covariances
    are deterministic, so the map is a convex mix with V_inf * I and
    preserves positive semidefiniteness for any dt.  Each draw is centred on
    the decayed mean, so a batch state (array means) gets one normal per
    trajectory from a plain Generator as from the ensemble's draw source.
    """
    if not (dt > 0.0):
        raise ParameterError(f"thermal step requires dt > 0, got {dt!r}")
    d = math.exp(-dt / (2.0 * params.tau1))
    d2 = d * d
    vinf = stationary_variance(params)
    kick = vinf * (1.0 - d2)
    sd = math.sqrt(kick)
    return GaussianQuadState(
        mean1=rng.normal(d * state.mean1, sd),
        mean2=rng.normal(d * state.mean2, sd),
        v11=d2 * state.v11 + kick,
        v22=d2 * state.v22 + kick,
        v12=d2 * state.v12,
        time=state.time + dt,
    )


def free_evolve(state: GaussianQuadState, dt: float) -> GaussianQuadState:
    """Advance the clock by dt >= 0; amplitudes are constants of the motion."""
    if not (dt >= 0.0):
        raise ParameterError(f"free evolution requires dt >= 0, got {dt!r}")
    return replace(state, time=state.time + dt)


def energy_of(state: GaussianQuadState, params: OscillatorParams) -> EnergyReport:
    """Energy (1/2) m w1^2 (mean^2 + v) per amplitude.

    For sampled classical points (v = 0) this is the plain point energy
    (1/2) m w1^2 X^2 used in ensemble statistics.
    """
    half_mw2 = 0.5 * params.mass * params.omega1**2
    e1 = half_mw2 * (state.mean1 * state.mean1 + state.v11)
    e2 = half_mw2 * (state.mean2 * state.mean2 + state.v22)
    return EnergyReport(e1=e1, e2=e2, total=e1 + e2)
