"""Gaussian meter models for stroboscopic quadrature measurement.

A meter reads the projection u . (X1, X2) of the state with additive Gaussian
noise of standard deviation sigma_m.  ``observables.measurement_direction``
gives the read direction u: (cos a, sin a), turned a quarter for qnd_x2, at
the angle a = 0 for the back-action-evading kinds and a = w1 t for a naive
position meter: x = X1 cos w1 t + X2 sin w1 t.

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

Meter kinds, their read directions, ``MeterSpec`` and the collapse
policies' names are declared in ``observables``, beside ``OscillatorParams``.
``measure`` and ``plan_schedule`` take a policy by its name and check it,
raising ParameterError for an unknown one; below them it is the
``orthodox`` bool.

Covariance, gains, read direction and the outcome's spread depend on no
outcome: the recursion is data-free (Kalman 1960).  So a step has two halves.
``plan_schedule`` runs the covariance half of a whole schedule once, with
every check, and stores it as a ``SchedulePlan``, whose ``lead`` of thermal
steps before the first measurement holds an ensemble's start and burn-in,
and whose ``draws`` counts the normals a schedule takes.  ``step_means``,
the one array step loop, steps a (2, n) array of means in place; it asks
for those normals in blocks of whole steps, scales each block once, and
declares their order in its docstring; ``ensemble`` is its one driver.
``measure`` is one measurement built from the covariance half and the same
arithmetic on scalars, and ``run_schedule`` alternates ``thermal_step`` and
``measure``: the scalar reference that the kernel's trajectories are checked
against, bit for bit.  The two share only the covariance half.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .dynamics import GaussianQuadState, thermal_relax, thermal_step
from .errors import NumericalFailureError, ParameterError, StateDomainError
from .observables import COLLAPSE_POLICIES, MeterSpec, OscillatorParams, measurement_direction

# Relative slack for the PSD test on input covariances.
_PSD_SLACK = 1e-12

#: Most standard normals ``step_means`` asks for per stream at a time, unless
#: a block's lead and one step need more: the widest draw block of a run, so
#: a run of at most 384 a stream (a default run takes 302) asks once.
DRAW_BLOCK = 384


@dataclass(slots=True)
class MeasurementRecord:
    """One measurement, as ``measure`` returns it and ``run_schedule``
    collects it: time, outcome, v11 before and after, and the
    post-measurement v22; the means after it are in the returned state.  For
    a batch state the outcome is an array over its trajectories.  An ensemble
    chunk keeps no records: its record CSV rows take time and variances from
    the config's plan, and outcomes and means from the chunk."""

    time: float
    outcome: float
    pre_v11: float
    post_v11: float
    post_v22: float


def backaction_sigma(meter: MeterSpec, params: OscillatorParams) -> float:
    """Heisenberg-minimum conjugate disturbance hbar / (2 m w1 sigma_m), in m."""
    return HBAR / (2.0 * params.mass * params.omega1 * meter.sigma_m)


def _orthodox(policy: str) -> bool:
    """Whether the collapse policy named ``policy`` conditions the state on
    the outcome; a name not in ``COLLAPSE_POLICIES`` raises ParameterError."""
    if policy not in COLLAPSE_POLICIES:
        raise ParameterError(f"unknown collapse policy {policy!r}; expected one of {COLLAPSE_POLICIES}")
    return policy == "orthodox"


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


def _conditioned(
    state: GaussianQuadState, meter: MeterSpec, orthodox: bool, params: OscillatorParams
) -> tuple[tuple[float, float, float, float, float], GaussianQuadState]:
    """Covariance half of ``measure``: the read (u1, u2, outcome sd, k1, k2)
    and the state with the posterior covariance, its means and clock as given.

    It needs no outcome.  The arithmetic runs on the covariance and sigma_m^2
    scaled by 4**j (see ``_scale_exponent``), and the results are scaled
    back; the gains and the outcome's spread are ratios and square roots, from
    which the scale divides out exactly.  Where the scaled sigma_m^2, or its
    product with v11 or v22, still falls below the normal range, an orthodox
    update raises NumericalFailureError rather than return a variance that
    lost its digits, and so does a read or covariance that is not finite.
    Under no_conditioning the gains are 0 and unused.
    """
    j = _scale_exponent(state, meter.sigma_m)
    half, scale = 2.0**j, 4.0**j
    v11, v22, v12 = state.v11 * scale, state.v22 * scale, state.v12 * scale
    _require_psd(v11, v22, v12, state)

    u1, u2 = measurement_direction(meter.kind, state.time, params)
    vu1 = v11 * u1 + v12 * u2
    vu2 = v12 * u1 + v22 * u2
    var_pred = u1 * vu1 + u2 * vu2
    sm = meter.sigma_m * half
    s2 = sm * sm
    sigma_y2 = var_pred + s2
    outcome_sd = math.sqrt(sigma_y2) / half

    sba = backaction_sigma(meter, params)
    sba2 = sba * sba
    if not math.isfinite(sba2):
        raise NumericalFailureError(f"meter disturbance overflow at sigma_m={meter.sigma_m!r}")

    # conjugate direction receives the covariance back-action term
    p1, p2 = -u2, u1
    k1 = k2 = 0.0
    if orthodox:
        # s2 * v11 and s2 * v22 enter the posterior variances: below the
        # normal range they lose digits or vanish, even below the floor
        tiny = sys.float_info.min
        if s2 < tiny or any(v and s2 * v < tiny for v in (v11, v22)):
            raise NumericalFailureError(
                f"covariance product underflow at sigma_m={meter.sigma_m!r}, v11={state.v11!r}, v22={state.v22!r}"
            )
        k1 = vu1 / sigma_y2
        k2 = vu2 / sigma_y2
        # cancellation-free form of V - (Vu)(Vu)^T / sigma_y2: the posterior is
        # (sigma_m^2 V + det(V) u_perp u_perp^T) / sigma_y2, manifestly PSD
        det = v11 * v22 - v12 * v12
        v11 = (s2 * v11 + det * u2 * u2) / sigma_y2 / scale + sba2 * p1 * p1
        v22 = (s2 * v22 + det * u1 * u1) / sigma_y2 / scale + sba2 * p2 * p2
        v12 = (s2 * v12 - det * u1 * u2) / sigma_y2 / scale + sba2 * p1 * p2
    else:
        v11 = state.v11 + sba2 * p1 * p1
        v22 = state.v22 + sba2 * p2 * p2
        v12 = state.v12 + sba2 * p1 * p2
    if not all(map(math.isfinite, (v11, v22, v12, outcome_sd, k1, k2))):
        raise NumericalFailureError("measurement produced a non-finite outcome or state")
    posterior = GaussianQuadState(mean1=state.mean1, mean2=state.mean2, v11=v11, v22=v22, v12=v12, time=state.time)
    return (u1, u2, outcome_sd, k1, k2), posterior


def measure(
    state: GaussianQuadState,
    meter: MeterSpec,
    policy: str,
    params: OscillatorParams,
    rng: np.random.Generator,
) -> tuple[float, GaussianQuadState, MeasurementRecord]:
    """Draw one outcome and return (outcome, updated state, record):
    ``_conditioned`` updates the covariance, then the means are read.

    The outcome is drawn from N(u . mean, outcome sd^2).  An orthodox update
    then moves each mean by its gain times the innovation; under
    no_conditioning each mean takes an unsteered kick of sigma_ba instead.
    Each draw is centred on what it moves, so for a batch state (array
    means) the outcome is an array too, with one normal per trajectory from
    any generator; covariance and clock stay scalars.  The clock does not
    advance: measurements are instantaneous events between thermal steps.
    """
    orthodox = _orthodox(policy)
    (u1, u2, outcome_sd, k1, k2), post = _conditioned(state, meter, orthodox, params)
    mu = u1 * state.mean1 + u2 * state.mean2
    outcome = rng.normal(mu, outcome_sd)
    if orthodox:
        innov = outcome - mu
        post.mean1, post.mean2 = state.mean1 + k1 * innov, state.mean2 + k2 * innov
    else:
        sba = backaction_sigma(meter, params)
        post.mean1, post.mean2 = rng.normal(state.mean1, sba), rng.normal(state.mean2, sba)
    if not all(np.isfinite(value).all() for value in (outcome, post.mean1, post.mean2)):
        raise NumericalFailureError("measurement produced a non-finite outcome or state")
    return outcome, post, MeasurementRecord(state.time, outcome, state.v11, post.v11, post.v22)


#: One step of a ``SchedulePlan``, 64 bytes: the clock and the variances a
#: record row reports after the measurement, and the read of ``_conditioned``.
_PLAN_COLUMNS = ("time", "post_v11", "post_v22", "u1", "u2", "outcome_sd", "k1", "k2")
PLAN_STEP = np.dtype([(name, np.float64) for name in _PLAN_COLUMNS])


@dataclass(frozen=True, eq=False)
class SchedulePlan:
    """The data-free half of a schedule, as ``plan_schedule`` computes it
    once: the thermal step's decay and kick sd, one ``PLAN_STEP`` record per
    measurement, and the lead, which ``plan_schedule`` leaves empty: the
    (decay, kick sd) of each thermal step that the means take before the
    first measurement.  ``step_means`` applies it."""

    orthodox: bool
    sigma_ba: float
    decay: float
    kick_sd: float
    steps: np.ndarray
    lead: tuple[tuple[float, float], ...] = ()

    @property
    def draws(self) -> int:
        """Normals ``step_means`` takes a trajectory, in the order that its
        docstring declares."""
        return 2 * len(self.lead) + len(self.steps) * (3 if self.orthodox else 5)


def step_means(
    plan: SchedulePlan, means: np.ndarray, normals: Callable[[int], np.ndarray], values: np.ndarray | None = None
) -> None:
    """Step ``means``, the (2, n) X1 and X2 means of a batch of trajectories,
    in place through ``plan``, taking the plan's draws from ``normals``:
    ``normals(k)`` returns the next k standard normals of each trajectory's
    stream as a (k, n) array, which the kernel overwrites and does not keep
    past the next call.  With ``values``, an (n_meas, 3, n) array, write each
    step's outcomes and means after the measurement into ``values[step]``.

    This is the one step loop, and the one owner of the draw order.  Each
    trajectory takes ``plan.draws`` normals: the two kicks of each lead step,
    then per step the two thermal kicks, the outcome and, under
    no_conditioning, the kicks of both means.  They are asked for in blocks
    of whole steps, the first led by the lead's draws, each at most
    ``DRAW_BLOCK`` per stream unless the lead and one step exceed it, and
    no block is wider than the first.  Each block is multiplied in place,
    once, by the sd of each of its draws, through the transposed view, whose
    rows are each trajectory's draws where ``normals`` holds them in a row;
    a draw of N(loc, sd^2) is then ``loc + (sd * z)``, as
    ``Generator.normal`` computes it, and the steps only add it.

    Per step: ``m *= d; m += kicks``, then ``mu = u1 m1 + u2 m2`` and
    ``y = mu + noise``, then ``m += K (y - mu)`` under orthodox, or
    ``m += kicks`` of sigma_ba under no_conditioning; so each trajectory gets
    the values a scalar ``thermal_step`` and ``measure`` give it, bit for bit.

    Finiteness is checked once, over the final means or, with ``values``,
    over every value written: with finite coefficients a non-finite outcome
    or mean stays non-finite at every later step (0 * inf is nan), and under
    orthodox each outcome feeds the means.  Under no_conditioning no outcome
    feeds a mean, so without ``values`` each outcome is checked as it is
    drawn.  Either raises NumericalFailureError.
    """
    # (u1, u2) and (k1, k2) of each step, as (2, 1) columns of the plan's table
    table = plan.steps.view(np.float64).reshape(len(plan.steps), len(_PLAN_COLUMNS), 1)
    reads, gains, outcome_sds = table[:, 3:5], table[:, 6:8], plan.steps["outcome_sd"]
    mu, y, product = np.empty_like(means[0]), np.empty_like(means[0]), np.empty_like(means)
    orthodox, decay, lead = plan.orthodox, plan.decay, plan.lead
    width = 3 if orthodox else 5
    slots = np.array([plan.kick_sd, plan.kick_sd, 0.0, plan.sigma_ba, plan.sigma_ba][:width])
    per_block = max(1, (DRAW_BLOCK - 2 * len(lead)) // width)
    # a non-finite value is reported below, once, not warned of at each step
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(plan.steps), per_block):
            hi = min(lo + per_block, len(plan.steps))
            scales = np.concatenate((np.repeat([sd for _, sd in lead], 2), np.tile(slots, hi - lo)))
            scales[2 * len(lead) + 2::width] = outcome_sds[lo:hi]
            block = normals(len(scales))
            np.multiply(block.T, scales, out=block.T)
            for i, (lead_decay, _) in enumerate(lead):
                means *= lead_decay
                means += block[2 * i:2 * i + 2]
            by_step = block[2 * len(lead):].reshape(hi - lo, width, -1)
            lead = ()
            for step, read, gain, drawn in zip(range(lo, hi), reads[lo:hi], gains[lo:hi], by_step):
                means *= decay
                means += drawn[:2]
                np.multiply(means, read, out=product)
                np.add(product[0], product[1], out=mu)
                outcome = y if values is None else values[step, 0]
                np.add(mu, drawn[2], out=outcome)
                if orthodox:
                    np.subtract(outcome, mu, out=mu)  # the innovation
                    np.multiply(gain, mu, out=product)
                    means += product
                else:
                    means += drawn[3:]
                    if values is None and not np.isfinite(outcome).all():
                        raise NumericalFailureError("measurement produced a non-finite outcome or state")
                if values is not None:
                    values[step, 1:] = means
    if not np.isfinite(means if values is None else values).all():
        raise NumericalFailureError("measurement produced a non-finite outcome or state")


def plan_schedule(
    state: GaussianQuadState,
    meter: MeterSpec,
    policy: str,
    params: OscillatorParams,
    dt: float,
    n_meas: int,
) -> SchedulePlan:
    """Plan n_meas alternations of a thermal step of dt and a measurement,
    from the covariance and clock of ``state`` (its means are not read), with
    no lead.

    This is the one covariance recursion: ``thermal_relax`` and
    ``_conditioned`` once per step, with every check they make (dt > 0
    among them), so a covariance that fails raises here, before any mean is
    stepped.
    """
    if n_meas < 1:
        raise ParameterError(f"schedule requires n_meas >= 1, got {n_meas!r}")
    orthodox = _orthodox(policy)
    steps = np.empty(n_meas, dtype=PLAN_STEP)
    for step in range(n_meas):
        decay, kick_sd, state = thermal_relax(state, dt, params)
        read, state = _conditioned(state, meter, orthodox, params)
        steps[step] = (state.time, state.v11, state.v22, *read)
    return SchedulePlan(orthodox, backaction_sigma(meter, params), decay, kick_sd, steps)


def run_schedule(
    initial: GaussianQuadState,
    meter: MeterSpec,
    policy: str,
    params: OscillatorParams,
    dt: float,
    n_meas: int,
    rng: np.random.Generator,
) -> tuple[list[MeasurementRecord], GaussianQuadState]:
    """Alternate ``thermal_step`` over dt and ``measure``, n_meas times, and
    return (every step's record, final state).

    This is the scalar reference that the ensemble's chunks are checked
    against: it shares the covariance half (``thermal_relax`` and
    ``_conditioned``) with ``plan_schedule``, but steps the means by the
    scalar arithmetic and draws of ``thermal_step`` and ``measure``.  Float
    means give float outcomes and means, and array means arrays.
    """
    if n_meas < 1:
        raise ParameterError(f"schedule requires n_meas >= 1, got {n_meas!r}")
    state, records = initial, []
    for _ in range(n_meas):
        _, state, record = measure(thermal_step(state, dt, params, rng), meter, policy, params, rng)
        records.append(record)
    return records, state
