import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import (
    HBAR,
    LinearObservable,
    OscillatorParams,
    ParameterError,
    commutator_symplectic,
    heisenberg_evolve,
    is_qnd_sequence,
    quadrature_observable,
    resolve_observable,
)

M = 1e-3
W1 = 1e4

coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
times = st.floats(min_value=-1e-2, max_value=1e-2, allow_nan=False, allow_infinity=False)


def obs_strategy():
    return st.tuples(coeff, coeff).filter(lambda c: c != (0.0, 0.0)).map(lambda c: LinearObservable(*c))


def close(a, b, rel=1e-12, scale=None):
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= rel * max(scale, 1e-300)


# --- quadrature transforms -------------------------------------------------


def test_quadratures_against_complex_oracle(params, rng):
    # oracle: X1 + i X2 is (x + i p / m w1) exp(i w1 t), the convention that
    # the co-rotating observables, the position meter's read direction and
    # the qnd-check command share
    for _ in range(300):
        x = rng.normal(0.0, 1e-15)
        p = rng.normal(0.0, 1e-18)
        t = rng.uniform(-1.0, 1.0)
        z = (x + 1j * p / (M * W1)) * np.exp(1j * W1 * t)
        x1, x2 = (obs.c_x * x + obs.c_p * p for obs in (quadrature_observable(k, t, params) for k in ("x1", "x2")))
        assert close(x1, z.real, rel=1e-12, scale=abs(z))
        assert close(x2, z.imag, rel=1e-12, scale=abs(z))


# --- Heisenberg evolution ---------------------------------------------------


def test_evolve_position_quarter_period(params):
    out = heisenberg_evolve(LinearObservable(1.0, 0.0), math.pi / (2 * W1), params)
    assert abs(out.c_x) <= 1e-12 / (M * W1)
    assert close(out.c_p, 1.0 / (M * W1))


def test_evolve_identity_at_zero(params):
    obs = LinearObservable(0.3, -2.1e-3)
    out = heisenberg_evolve(obs, 0.0, params)
    assert out == obs


def test_x1_is_constant_of_motion(params, rng):
    # the time-t member of the co-rotating family pulls back to (1, 0)
    for t in rng.uniform(-1.0, 1.0, size=50):
        out = heisenberg_evolve(quadrature_observable("x1", t, params), t, params)
        assert close(out.c_x, 1.0, rel=1e-12)
        assert abs(out.c_p) <= 1e-12 / (M * W1)


def test_evolve_rejects_infinite_time(params):
    with pytest.raises(ParameterError):
        heisenberg_evolve(LinearObservable(1.0, 0.0), math.inf, params)


# --- commutators -------------------------------------------------------------


def test_commutator_x1_x2_equal_time(params, rng):
    for t in rng.uniform(-1.0, 1.0, size=20):
        a = quadrature_observable("x1", t, params)
        b = quadrature_observable("x2", t, params)
        s = commutator_symplectic(a, b)
        assert close(s, 1.0 / (M * W1), rel=1e-12)
    assert close(HBAR * 0.1, 1.0546e-35, rel=1e-4)


def test_commutator_self_is_zero(params):
    a = quadrature_observable("x1", 0.37, params)
    assert commutator_symplectic(a, a) == 0.0


def test_position_unequal_times(params, rng):
    x0 = LinearObservable(1.0, 0.0)
    for t in rng.uniform(1e-5, 1.0, size=100):
        s = commutator_symplectic(x0, heisenberg_evolve(x0, t, params))
        assert close(s, math.sin(W1 * t) / (M * W1), rel=1e-12, scale=1.0 / (M * W1))


@given(a=obs_strategy(), b=obs_strategy())
def test_commutator_antisymmetry_exact(a, b):
    assert commutator_symplectic(a, b) == -commutator_symplectic(b, a)


@given(a=obs_strategy(), b=obs_strategy(), c=obs_strategy(), alpha=coeff, beta=coeff)
def test_commutator_bilinearity(a, b, c, alpha, beta):
    try:
        combo = LinearObservable(alpha * a.c_x + beta * b.c_x, alpha * a.c_p + beta * b.c_p)
    except ParameterError:
        return  # the linear combination degenerated to the zero observable
    left = commutator_symplectic(combo, c)
    right = alpha * commutator_symplectic(a, c) + beta * commutator_symplectic(b, c)
    # error bound scales with the coefficient magnitudes entering the sums
    scale = (abs(alpha) * (abs(a.c_x) + abs(a.c_p)) + abs(beta) * (abs(b.c_x) + abs(b.c_p))) * (
        abs(c.c_x) + abs(c.c_p)
    )
    assert abs(left - right) <= 1e-12 * max(scale, 1e-300)


@settings(max_examples=60)
@given(a=obs_strategy(), b=obs_strategy(), t=times)
def test_evolution_preserves_symplectic_form(a, b, t):
    params = OscillatorParams(M, W1, 1e4, 0.05)
    before = commutator_symplectic(a, b)
    after = commutator_symplectic(heisenberg_evolve(a, t, params), heisenberg_evolve(b, t, params))
    scale = max(abs(before), (abs(a.c_x) + abs(a.c_p) * M * W1) * (abs(b.c_x) + abs(b.c_p) * M * W1) / (M * W1))
    assert abs(after - before) <= 1e-12 * max(scale, 1e-300)


# --- QND classification ------------------------------------------------------


def test_x1_sequence_is_qnd(params, rng):
    verdict = is_qnd_sequence("x1", list(rng.uniform(0.0, 1.0, size=10)), params)
    assert verdict.is_qnd
    assert verdict.max_violation <= 1e-12 / (M * W1)


def test_position_sequence_quarter_period_fails(params):
    verdict = is_qnd_sequence("x", [0.0, math.pi / (2 * W1)], params)
    assert not verdict.is_qnd
    assert close(verdict.max_violation, 1.0 / (M * W1), rel=1e-12)


def test_position_sequence_half_period_is_stroboscopic_qnd(params):
    verdict = is_qnd_sequence("x", [0.0, math.pi / W1], params)
    assert verdict.is_qnd


def test_qnd_sequence_needs_two_times(params):
    with pytest.raises(ParameterError):
        is_qnd_sequence("x1", [0.0], params)


def test_resolve_observable_kinds(params):
    assert resolve_observable("x", 0.5, params) == LinearObservable(1.0, 0.0)
    assert resolve_observable("p", 0.5, params) == LinearObservable(0.0, 1.0 / (M * W1))
    rotating = resolve_observable("x1", 0.5, params)
    assert rotating == quadrature_observable("x1", 0.5, params)
    with pytest.raises(ParameterError):
        resolve_observable("energy", 0.0, params)


# --- domain validation -------------------------------------------------------


def test_observable_rejects_zero_and_nonfinite():
    with pytest.raises(ParameterError):
        LinearObservable(0.0, 0.0)
    with pytest.raises(ParameterError):
        LinearObservable(math.nan, 1.0)


@pytest.mark.parametrize("field", ["mass", "omega1", "tau1", "temperature"])
def test_params_reject_nonpositive(field):
    kwargs = dict(mass=1e-3, omega1=1e4, tau1=1e4, temperature=0.05)
    kwargs[field] = 0.0
    with pytest.raises(ParameterError):
        OscillatorParams(**kwargs)
    kwargs[field] = -1.0
    with pytest.raises(ParameterError):
        OscillatorParams(**kwargs)


def test_params_reject_unknown_bath():
    with pytest.raises(ParameterError):
        OscillatorParams(1e-3, 1e4, 1e4, 0.05, bath_model="hot")
