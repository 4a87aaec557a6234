import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import (
    HBAR,
    NumericalFailureError,
    OscillatorParams,
    ParameterError,
    is_qnd_sequence,
    measurement_direction,
)
from qndsim.observables import METER_KINDS, OBSERVABLE_KINDS, READS

M = 1e-3
W1 = 1e4

times = st.floats(min_value=-1e-2, max_value=1e-2, allow_nan=False, allow_infinity=False)


def close(a, b, rel=1e-12, scale=None):
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= rel * max(scale, 1e-300)


def amplitudes(x, p, t):
    """The oracle, independent of the package: X1 + i X2 is
    (x + i p / m w1) exp(i w1 t), for the lab-frame x and p at time t."""
    z = (x + 1j * p / (M * W1)) * np.exp(1j * W1 * t)
    return z.real, z.imag


def free_flow(x, p, t):
    """Lab-frame (x, p) after free evolution by t from (x, p)."""
    c, s = math.cos(W1 * t), math.sin(W1 * t)
    return x * c + p / (M * W1) * s, p * c - M * W1 * x * s


def read(kind, t, params, x1, x2):
    u1, u2 = measurement_direction(kind, t, params)
    return u1 * x1 + u2 * x2


def cross(u, v):
    """u1 v2 - u2 v1: [u . X, v . X] over i hbar / (m w1)."""
    return u[0] * v[1] - u[1] * v[0]


# --- reads against the complex-amplitude oracle ------------------------------


def test_quadratures_against_complex_oracle(params, rng):
    # each QND-check name reads, from the amplitudes of a lab-frame (x, p)
    # at time t, the quantity it names: X1, X2, x and p / m w1
    for _ in range(300):
        x = rng.normal(0.0, 1e-15)
        p = rng.normal(0.0, 1e-18)
        t = rng.uniform(-1.0, 1.0)
        x1, x2 = amplitudes(x, p, t)
        scale = math.hypot(x1, x2)
        for kind, want in (("x1", x1), ("x2", x2), ("x", x), ("p", p / (M * W1))):
            assert close(read(kind, t, params, x1, x2), want, rel=1e-12, scale=scale)


def test_read_table_covers_meter_kinds_and_qnd_names():
    assert set(READS) == set(METER_KINDS) | set(OBSERVABLE_KINDS)


# --- free evolution ----------------------------------------------------------


def test_evolve_position_quarter_period(params):
    # x a quarter period on is p / m w1 at time 0
    u = measurement_direction("x", math.pi / (2 * W1), params)
    v = measurement_direction("p", 0.0, params)
    assert abs(u[0] - v[0]) <= 1e-12 and close(u[1], v[1])


def test_evolve_identity_at_zero(params):
    # at t = 0 the lab-frame reads are the amplitudes, bit for bit
    assert measurement_direction("x", 0.0, params) == measurement_direction("x1", 0.0, params) == (1.0, 0.0)
    assert measurement_direction("p", 0.0, params) == measurement_direction("x2", 0.0, params) == (-0.0, 1.0)


def test_x1_is_constant_of_motion(params, rng):
    # the oracle's amplitudes of a freely evolving (x, p) do not move, and
    # the x1 read is the same direction at every time
    for t in rng.uniform(-1.0, 1.0, size=50):
        x, p = rng.normal(0.0, 1e-15), rng.normal(0.0, 1e-18)
        x1, x2 = amplitudes(x, p, 0.0)
        y1, y2 = amplitudes(*free_flow(x, p, t), t)
        assert close(y1, x1, rel=1e-12, scale=math.hypot(x1, x2))
        assert close(y2, x2, rel=1e-12, scale=math.hypot(x1, x2))
        assert measurement_direction("x1", t, params) == (1.0, 0.0)


def test_evolve_rejects_infinite_time(params):
    for kind in OBSERVABLE_KINDS:
        with pytest.raises(NumericalFailureError, match=r"^the read angle is not finite at t=inf$"):
            measurement_direction(kind, math.inf, params)


# --- commutators -------------------------------------------------------------


def test_commutator_x1_x2_equal_time(params, rng):
    # [X1, X2] = [x, p / m w1] = i hbar / (m w1) at every time
    for t in rng.uniform(-1.0, 1.0, size=20):
        assert cross(measurement_direction("x1", t, params), measurement_direction("x2", t, params)) == 1.0
        assert close(cross(measurement_direction("x", t, params), measurement_direction("p", t, params)), 1.0)
    assert close(HBAR * 0.1, 1.0546e-35, rel=1e-4)


def test_commutator_self_is_zero(params):
    for kind in OBSERVABLE_KINDS:
        assert is_qnd_sequence(kind, [0.37, 0.37], params).max_violation == 0.0


def test_position_unequal_times(params, rng):
    # [x(0), x(t)] = (i hbar / m w1) sin(w1 t)
    for t in rng.uniform(1e-5, 1.0, size=100):
        violation = is_qnd_sequence("x", [0.0, t], params).max_violation
        assert close(violation, abs(math.sin(W1 * t)) / (M * W1), rel=1e-12, scale=1.0 / (M * W1))


@given(kind=st.sampled_from(OBSERVABLE_KINDS), a=times, b=times)
def test_commutator_antisymmetry_exact(kind, a, b):
    # [A, B] = -[B, A]: the order of two reads does not change the violation
    params = OscillatorParams(M, W1, 1e4, 0.05)
    assert is_qnd_sequence(kind, [a, b], params) == is_qnd_sequence(kind, [b, a], params)


@settings(max_examples=60)
@given(kind=st.sampled_from(OBSERVABLE_KINDS), a=times, b=times, t=times)
def test_evolution_preserves_symplectic_form(kind, a, b, t):
    # evolving both reads on by the same t leaves their commutator as it was
    params = OscillatorParams(M, W1, 1e4, 0.05)
    before = is_qnd_sequence(kind, [a, b], params).max_violation
    after = is_qnd_sequence(kind, [a + t, b + t], params).max_violation
    assert abs(after - before) <= 1e-12 / (M * W1)


# --- QND classification ------------------------------------------------------


def test_x1_sequence_is_qnd(params, rng):
    verdict = is_qnd_sequence("x1", list(rng.uniform(0.0, 1.0, size=10)), params)
    assert verdict.is_qnd
    assert verdict.max_violation <= 1e-12 / (M * W1)


def test_position_sequence_quarter_period_fails(params):
    verdict = is_qnd_sequence("x", [0.0, math.pi / (2 * W1)], params)
    assert not verdict.is_qnd
    assert close(verdict.max_violation, 1.0 / (M * W1), rel=1e-12)
    # the tolerance is relative: a subnormal m w1 puts both the violation
    # and tol / (m w1) past the double range, and the verdict stands
    tiny = OscillatorParams(1e-300, 1e-20, 1.0, 1.0)
    assert not is_qnd_sequence("x", [0.0, math.pi / (2 * 1e-20)], tiny).is_qnd


def test_position_sequence_half_period_is_stroboscopic_qnd(params):
    verdict = is_qnd_sequence("x", [0.0, math.pi / W1], params)
    assert verdict.is_qnd


def test_qnd_sequence_needs_two_times(params):
    with pytest.raises(ParameterError):
        is_qnd_sequence("x1", [0.0], params)


def test_resolve_observable_kinds(params):
    # the QND-check names read as the meter kinds they share a direction with
    for t in (0.0, 0.5, -3.25):
        assert measurement_direction("x", t, params) == measurement_direction("position", t, params)
        assert measurement_direction("x1", t, params) == measurement_direction("qnd_x1", t, params)
        assert measurement_direction("x2", t, params) == measurement_direction("qnd_x2", t, params)
    with pytest.raises(ParameterError, match="^unknown meter kind 'energy'$"):
        is_qnd_sequence("energy", [0.0, 1.0], params)


# --- domain validation -------------------------------------------------------


def test_observable_rejects_zero_and_nonfinite(params, rng):
    # every read is a unit direction, never zero, and a non-finite time has none
    for kind in READS:
        for t in rng.uniform(-1.0, 1.0, size=20):
            assert close(math.hypot(*measurement_direction(kind, t, params)), 1.0, rel=1e-15)
        for t in (math.nan, -math.inf):
            with pytest.raises(NumericalFailureError):
                measurement_direction(kind, t, params)


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
