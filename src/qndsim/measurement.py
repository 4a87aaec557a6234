"""Gaussian meter models for stroboscopic quadrature measurement.

A meter reads the projection u . (X1, X2) of the state with additive Gaussian
noise of standard deviation sigma_m.  The read direction u is fixed for the
back-action-evading kinds (qnd_x1, qnd_x2) and rotates as (cos w1 t, sin w1 t)
for a naive position meter, since x = X1 cos w1 t + X2 sin w1 t.

The outcome is drawn from the predictive law N(u . mean, u^T V u + sigma_m^2).
Under the orthodox policy the state then collapses by the Gaussian conditional
(Kalman) update, and the meter injects its Heisenberg-minimum disturbance

    sigma_ba = hbar / (2 m w1 sigma_m)

entirely along the conjugate direction u_perp: ideal evasion, the monitored
variance is never increased.  The quantum-limited choice saturates
[X1, X2] = i hbar / (m w1), so the uncertainty product V >= (hbar / 2 m w1)^2
survives every orthodox update.

The no_conditioning policy is the naive no-collapse foil used to validate the
statistical detector: outcomes are drawn from the same predictive law, but the
state never conditions on them, and the meter disturbance lands unsteered, as
an isotropic Gaussian kick of scale sigma_ba on both sampled means (on top of
the u_perp covariance term).  This is an anomaly injector, not a model of any
particular alternative theory.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .dynamics import THERMAL_STEP_DRAWS, GaussianQuadState, thermal_step
from .errors import NumericalFailureError, ParameterError, StateDomainError, require_positive
from .observables import OscillatorParams

METER_KINDS = ("qnd_x1", "qnd_x2", "position")

# Relative slack for the PSD test on input covariances.
_PSD_SLACK = 1e-12


class CollapsePolicy(str, enum.Enum):
    """How the state responds to a measurement outcome."""

    ORTHODOX = "orthodox"
    NO_CONDITIONING = "no_conditioning"


@dataclass(frozen=True)
class MeterSpec:
    """What is measured and how well: meter kind and readout noise sigma_m [m]."""

    kind: str
    sigma_m: float

    def __post_init__(self) -> None:
        if self.kind not in METER_KINDS:
            raise ParameterError(f"unknown meter kind {self.kind!r}; expected one of {METER_KINDS}")
        require_positive("sigma_m", self.sigma_m)


@dataclass(slots=True)
class MeasurementRecord:
    """One measurement: time, outcome, v11 before and after, and the
    post-measurement v22 and means, which with post_v11 make a record CSV
    row.  For a batch state the outcome and means are arrays over its
    trajectories."""

    time: float
    outcome: float
    pre_v11: float
    post_v11: float
    post_v22: float
    post_mean1: float
    post_mean2: float


def measurement_direction(kind: str, t: float, params: OscillatorParams) -> tuple[float, float]:
    """Unit read direction in the (X1, X2) plane for a meter of this kind at time t."""
    if kind == "qnd_x1":
        return 1.0, 0.0
    if kind == "qnd_x2":
        return 0.0, 1.0
    if kind == "position":
        w1t = params.omega1 * t
        return math.cos(w1t), math.sin(w1t)
    raise ParameterError(f"unknown meter kind {kind!r}")


def backaction_sigma(meter: MeterSpec, params: OscillatorParams) -> float:
    """Heisenberg-minimum conjugate disturbance hbar / (2 m w1 sigma_m), in m."""
    return HBAR / (2.0 * params.mass * params.omega1 * meter.sigma_m)


def _scale_exponent(state: GaussianQuadState, sigma_m: float) -> int:
    """The j >= 0 for which measure scales the covariance and sigma_m^2 by
    4**j: the largest of them then lies near 2**509, so that products of
    tiny variances stay normal numbers and no product overflows.  A power of
    two scales exactly, so wherever the unscaled products were normal the
    scaled update returns the same bits; j = 0 leaves huge and non-finite
    values as they are, and j <= 511 keeps 4**j and its inverse normal."""
    largest = max(sigma_m * sigma_m, abs(state.v11), abs(state.v22), abs(state.v12))
    if not math.isfinite(largest):
        return 0
    return min(max((510 - math.frexp(largest)[1]) // 2, 0), 511)


def _require_psd(v11: float, v22: float, v12: float, state: GaussianQuadState) -> None:
    """Reject a covariance that is not PSD; v11, v22, v12 are the state's,
    scaled so that the determinant does not underflow."""
    det = v11 * v22 - v12 * v12
    scale = max(v11, v22, 0.0)
    if v11 < 0.0 or v22 < 0.0 or det < -_PSD_SLACK * scale * scale:
        raise StateDomainError(
            f"covariance not PSD: v11={state.v11!r} v22={state.v22!r} v12={state.v12!r}"
        )


def measure(
    state: GaussianQuadState,
    meter: MeterSpec,
    policy: CollapsePolicy | str,
    params: OscillatorParams,
    rng: np.random.Generator,
) -> tuple[float, GaussianQuadState, MeasurementRecord]:
    """Draw one outcome and return (outcome, updated state, record).

    The clock does not advance: measurements are instantaneous events between
    thermal steps.  For a batch state (array means) the outcome is an array
    too: each draw (the outcome, and under no_conditioning the kicks of both
    means) is centred on the array, so any generator gives one normal per
    trajectory.  Covariance and record bookkeeping stay scalars.  The covariance
    arithmetic runs on the covariance and sigma_m^2 scaled by 4**j (see
    ``_scale_exponent``), and the results are scaled back; the gain and the
    outcome's spread are ratios and square roots, from which the scale
    divides out exactly.  Where the scaled sigma_m^2, or its product with
    v11 or v22, still falls below the normal range, an orthodox update raises
    NumericalFailureError rather than return a variance that lost its digits.
    """
    policy = CollapsePolicy(policy)
    j = _scale_exponent(state, meter.sigma_m)
    half, scale = 2.0**j, 4.0**j
    v11, v22, v12 = state.v11 * scale, state.v22 * scale, state.v12 * scale
    _require_psd(v11, v22, v12, state)

    u1, u2 = measurement_direction(meter.kind, state.time, params)
    mu = u1 * state.mean1 + u2 * state.mean2
    vu1 = v11 * u1 + v12 * u2
    vu2 = v12 * u1 + v22 * u2
    var_pred = u1 * vu1 + u2 * vu2
    sm = meter.sigma_m * half
    s2 = sm * sm
    sigma_y2 = var_pred + s2
    outcome = rng.normal(mu, math.sqrt(sigma_y2) / half)

    sba = backaction_sigma(meter, params)
    sba2 = sba * sba
    if not math.isfinite(sba2):
        raise NumericalFailureError(f"meter disturbance overflow at sigma_m={meter.sigma_m!r}")

    # conjugate direction receives the covariance back-action term
    p1, p2 = -u2, u1
    if policy is CollapsePolicy.ORTHODOX:
        # s2 * v11 and s2 * v22 enter the posterior variances: below the
        # normal range they lose digits or vanish, even below the floor
        tiny = sys.float_info.min
        if s2 < tiny or any(v and s2 * v < tiny for v in (v11, v22)):
            raise NumericalFailureError(
                f"covariance product underflow at sigma_m={meter.sigma_m!r}, v11={state.v11!r}, v22={state.v22!r}"
            )
        k1 = vu1 / sigma_y2
        k2 = vu2 / sigma_y2
        innov = outcome - mu
        mean1 = state.mean1 + k1 * innov
        mean2 = state.mean2 + k2 * innov
        # cancellation-free form of V - (Vu)(Vu)^T / sigma_y2: the posterior is
        # (sigma_m^2 V + det(V) u_perp u_perp^T) / sigma_y2, manifestly PSD
        det = v11 * v22 - v12 * v12
        v11 = (s2 * v11 + det * u2 * u2) / sigma_y2 / scale + sba2 * p1 * p1
        v22 = (s2 * v22 + det * u1 * u1) / sigma_y2 / scale + sba2 * p2 * p2
        v12 = (s2 * v12 - det * u1 * u2) / sigma_y2 / scale + sba2 * p1 * p2
    else:
        # no collapse: unsteered meter disturbance kicks the sampled means
        mean1 = rng.normal(state.mean1, sba)
        mean2 = rng.normal(state.mean2, sba)
        v11 = state.v11 + sba2 * p1 * p1
        v22 = state.v22 + sba2 * p2 * p2
        v12 = state.v12 + sba2 * p1 * p2

    # outcome and means are floats, or arrays when an ensemble chunk is
    # stepped as a batch; np.isfinite takes both
    sampled_finite = np.isfinite(outcome).all() and np.isfinite(mean1).all() and np.isfinite(mean2).all()
    if not (sampled_finite and math.isfinite(v11) and math.isfinite(v22) and math.isfinite(v12)):
        raise NumericalFailureError("measurement produced a non-finite outcome or state")

    new_state = GaussianQuadState(mean1=mean1, mean2=mean2, v11=v11, v22=v22, v12=v12, time=state.time)
    record = MeasurementRecord(
        time=state.time,
        outcome=outcome,
        pre_v11=state.v11,
        post_v11=v11,
        post_v22=v22,
        post_mean1=mean1,
        post_mean2=mean2,
    )
    return outcome, new_state, record


def schedule_steps(
    state: GaussianQuadState,
    meter: MeterSpec,
    policy: CollapsePolicy | str,
    params: OscillatorParams,
    dt: float,
    n_meas: int,
    rng: np.random.Generator,
) -> Iterator[tuple[MeasurementRecord, GaussianQuadState]]:
    """Alternate thermal_step(dt) and measure, n_meas times, and yield each
    measurement's (record, state after it).

    This is the one step loop: ``run_schedule`` collects it, and the
    ensemble takes one step at a time, so that it holds one step's record
    when it keeps no rows.  The arguments are checked once, when the first
    step is asked for.  ``rng`` may be any source with the Generator's
    ``normal(loc, scale)``.  For a batch state every draw takes the means'
    shape, so a plain Generator gives each trajectory its own normals; the
    ensemble passes a source that draws each trajectory's from that
    trajectory's own stream.
    """
    if n_meas < 1:
        raise ParameterError(f"schedule requires n_meas >= 1, got {n_meas!r}")
    if not (dt > 0.0):
        raise ParameterError(f"schedule requires dt > 0, got {dt!r}")
    for _ in range(n_meas):
        state = thermal_step(state, dt, params, rng)
        _, state, record = measure(state, meter, policy, params, rng)
        yield record, state


def run_schedule(
    initial: GaussianQuadState,
    meter: MeterSpec,
    policy: CollapsePolicy | str,
    params: OscillatorParams,
    dt: float,
    n_meas: int,
    rng: np.random.Generator,
) -> tuple[list[MeasurementRecord], GaussianQuadState]:
    """Alternate thermal_step(dt) and measure, n_meas times, and return
    (every step's record, final state), as ``schedule_steps`` yields them."""
    steps = list(schedule_steps(initial, meter, policy, params, dt, n_meas, rng))
    return [record for record, _ in steps], steps[-1][1]


def schedule_draws(policy: CollapsePolicy | str, n_meas: int) -> int:
    """Normals ``schedule_steps`` draws over n_meas steps: per step those of
    ``thermal_step``, then the outcome, and under no_conditioning the kicks
    of both means."""
    measure_draws = 1 if CollapsePolicy(policy) is CollapsePolicy.ORTHODOX else 3
    return n_meas * (THERMAL_STEP_DRAWS + measure_draws)
