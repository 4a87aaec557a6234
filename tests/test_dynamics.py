import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import (
    KB,
    GaussianQuadState,
    OscillatorParams,
    ParameterError,
    stationary_variance,
    thermal_step,
)

M = 1e-3
W1 = 1e4
VINF = 6.903245e-30  # kB * 0.05 / (M * W1**2), frozen


# --- stationary variance -----------------------------------------------------


def test_stationary_variance_classical_frozen(params):
    assert math.isclose(stationary_variance(params), VINF, rel_tol=1e-12)


def test_stationary_variance_quantum_high_temperature():
    classical = OscillatorParams(M, W1, 1e4, 50.0, bath_model="classical")
    quantum = OscillatorParams(M, W1, 1e4, 50.0, bath_model="quantum")
    assert math.isclose(stationary_variance(quantum), stationary_variance(classical), rel_tol=1e-3)


def test_stationary_variance_quantum_zero_point_floor():
    quantum = OscillatorParams(M, W1, 1e4, 1e-9, bath_model="quantum")
    assert math.isclose(stationary_variance(quantum), 5.272859085e-36, rel_tol=1e-9)


# --- thermal step -------------------------------------------------------------


def test_thermal_step_small_dt_limit(params, rng):
    state = GaussianQuadState(2e-15, -1e-15, 1e-31, 2e-31, 5e-32, time=1.0)
    dt = 1e-14 * params.tau1
    out = thermal_step(state, dt, params, rng)
    kick_sd = math.sqrt(VINF * dt / params.tau1)
    assert abs(out.mean1 - state.mean1) <= 6 * kick_sd + 1e-12 * abs(state.mean1)
    assert abs(out.mean2 - state.mean2) <= 6 * kick_sd + 1e-12 * abs(state.mean2)
    assert abs(out.v11 - state.v11) <= 2 * VINF * dt / params.tau1
    assert out.time == state.time + dt


def test_thermal_step_long_relaxation(params, rng):
    # deterministic part: covariance lands on V_inf for dt >> tau1
    state = GaussianQuadState(0.0, 0.0, 0.0, 0.0)
    out = thermal_step(state, 50 * params.tau1, params, rng)
    assert math.isclose(out.v11, VINF, rel_tol=1e-6)
    assert math.isclose(out.v22, VINF, rel_tol=1e-6)
    # sampled part: means are N(0, V_inf) across an ensemble
    n = 20000
    finals = np.array([thermal_step(state, 50 * params.tau1, params, rng).mean1 for _ in range(n)])
    se = VINF * math.sqrt(2.0 / (n - 1))
    assert abs(np.var(finals, ddof=1) - VINF) <= 5 * se


def test_thermal_step_kicks_each_trajectory_of_a_batch(params):
    # a batch state stepped with a plain Generator: one normal per trajectory
    n = 5
    state = GaussianQuadState(np.zeros(n), np.zeros(n), 0.0, 0.0)
    out = thermal_step(state, 20.0, params, np.random.default_rng(5))
    assert out.mean1.shape == out.mean2.shape == (n,)
    assert len(np.unique(out.mean1)) == len(np.unique(out.mean2)) == n


def test_thermal_step_rejects_nonpositive_dt(params, rng):
    state = GaussianQuadState(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        thermal_step(state, 0.0, params, rng)
    with pytest.raises(ParameterError):
        thermal_step(state, -1.0, params, rng)


def test_markov_composition_deterministic_moments(params, rng):
    state = GaussianQuadState(1e-15, 0.0, 3e-30, 1e-30, 4e-31)
    once = thermal_step(state, 123.0, params, rng)
    twice = thermal_step(thermal_step(state, 100.0, params, rng), 23.0, params, rng)
    for field in ("v11", "v22", "v12"):
        assert math.isclose(getattr(once, field), getattr(twice, field), rel_tol=1e-12)
    assert math.isclose(once.time, twice.time, rel_tol=1e-12)


def test_fixed_point_covariance_exactly_invariant(params, rng):
    state = GaussianQuadState(0.0, 0.0, VINF, VINF, 0.0)
    out = thermal_step(state, 17.0, params, rng)
    assert math.isclose(out.v11, VINF, rel_tol=1e-15)
    assert math.isclose(out.v22, VINF, rel_tol=1e-15)
    assert out.v12 == 0.0


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(0.0, 1e-28),
    b=st.floats(0.0, 1e-28),
    c=st.floats(-1.0, 1.0),
    dt=st.floats(1e-6, 1e6),
)
def test_thermal_step_preserves_psd(a, b, c, dt):
    params = OscillatorParams(M, W1, 1e4, 0.05)
    rng = np.random.default_rng(1)
    v12 = c * math.sqrt(a * b)
    out = thermal_step(GaussianQuadState(0.0, 0.0, a, b, v12), dt, params, rng)
    det = out.v11 * out.v22 - out.v12 * out.v12
    assert out.v11 >= 0.0 and out.v22 >= 0.0
    assert det >= -1e-12 * max(out.v11, out.v22) ** 2


def test_ensemble_equipartition(params, rng):
    # from a cold start the sampled means reach the equilibrium spread
    n = 20000
    state = GaussianQuadState(0.0, 0.0, 0.0, 0.0)
    finals = np.array([thermal_step(state, 10 * params.tau1, params, rng).mean1 for _ in range(n)])
    se = VINF * math.sqrt(2.0 / (n - 1))
    assert abs(np.var(finals, ddof=1) - VINF) <= 5 * se


def test_energy_drift_matches_brownian_rate(params, rng):
    # <E>(t) from E = 0 grows at kB T / tau1 (window small vs tau1)
    n = 10000
    steps = 8
    dt = 0.002 * params.tau1
    half_mw2 = 0.5 * M * W1**2
    energy_sum = np.zeros(steps + 1)
    for _ in range(n):
        state = GaussianQuadState(0.0, 0.0, 0.0, 0.0)
        for k in range(1, steps + 1):
            state = thermal_step(state, dt, params, rng)
            energy_sum[k] += half_mw2 * (state.mean1**2 + state.mean2**2)
    mean_energy = energy_sum / n
    t_grid = dt * np.arange(steps + 1)
    slope = np.polyfit(t_grid, mean_energy, 1)[0]
    assert math.isclose(slope, KB * params.temperature / params.tau1, rel_tol=0.05)
