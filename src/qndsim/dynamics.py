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

The step has two halves.  ``thermal_relax`` is the covariance half: it needs
no draw, so ``measurement.plan_schedule`` runs it once per schedule, and
``measurement.step_means`` applies its decay and kick sd to the means of a
batch of trajectories that share one covariance.  ``thermal_step`` composes
the two halves for one state, whose means are floats or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, KB
from .errors import ParameterError, require_nonzero
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


def stationary_variance(params: OscillatorParams) -> float:
    """Equilibrium variance of each amplitude under the configured bath."""
    if params.bath_model == "classical":
        return KB * params.temperature / params.stiffness
    # quantum: coth crossover to the zero-point floor hbar / (2 m w1)
    x = HBAR * params.omega1 / (2.0 * KB * params.temperature)
    x = require_nonzero("hbar omega1 / 2 kB T", x, omega1=params.omega1, temperature=params.temperature)
    return zero_point_variance(params) / math.tanh(x)


def zero_point_variance(params: OscillatorParams) -> float:
    """Ground-state amplitude variance hbar / (2 m w1); a 2 m w1 that
    underflows to 0 raises NumericalFailureError."""
    two_m_omega1 = 2.0 * params.mass * params.omega1
    return HBAR / require_nonzero("2 m omega1", two_m_omega1, mass=params.mass, omega1=params.omega1)


def thermal_relax(
    state: GaussianQuadState, dt: float, params: OscillatorParams
) -> tuple[float, float, GaussianQuadState]:
    """Covariance half of ``thermal_step``: (decay d, kick sd, the state with
    its covariance relaxed and its clock advanced by dt > 0, means as given).

    The covariances are deterministic, v <- d^2 v + V_inf (1 - d^2): a convex
    mix with V_inf * I, which preserves positive semidefiniteness for any dt.
    """
    if not (dt > 0.0):
        raise ParameterError(f"thermal step requires dt > 0, got {dt!r}")
    d = math.exp(-dt / (2.0 * params.tau1))
    d2 = d * d
    kick = stationary_variance(params) * (1.0 - d2)
    v11, v22, v12 = d2 * state.v11 + kick, d2 * state.v22 + kick, d2 * state.v12
    return d, math.sqrt(kick), GaussianQuadState(state.mean1, state.mean2, v11, v22, v12, state.time + dt)


def thermal_step(
    state: GaussianQuadState,
    dt: float,
    params: OscillatorParams,
    rng: np.random.Generator,
) -> GaussianQuadState:
    """Exact Ornstein-Uhlenbeck update over dt > 0: ``thermal_relax`` for the
    covariance and clock, then the sampled means decay by d, each with a
    Gaussian kick, mean1 first (two rng draws).  Each draw is centred on the
    decayed mean, so means that are arrays over a batch get one normal per
    trajectory."""
    d, sd, relaxed = thermal_relax(state, dt, params)
    relaxed.mean1, relaxed.mean2 = rng.normal(d * state.mean1, sd), rng.normal(d * state.mean2, sd)
    return relaxed
