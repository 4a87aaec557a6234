import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qndsim import (
    HBAR,
    GaussianQuadState,
    MeterSpec,
    NumericalFailureError,
    OscillatorParams,
    ParameterError,
    StateDomainError,
    backaction_sigma,
    measure,
    measurement_direction,
    run_schedule,
    thermal_step,
)
from qndsim.dynamics import thermal_relax
from qndsim.measurement import PLAN_STEP, plan_schedule, step_means
from qndsim.observables import COLLAPSE_POLICIES, METER_KINDS

M = 1e-3
W1 = 1e4
VINF = 6.903245e-30
ZP_VAR = (HBAR / (2 * M * W1)) ** 2  # squared-commutator floor (hbar / 2 m w1)^2


def negligible_bath():
    return OscillatorParams(mass=M, omega1=W1, tau1=1e12, temperature=1e-12)


# --- directions and the back-action scale -------------------------------------


def test_direction_cases(params):
    assert measurement_direction("qnd_x1", 0.0, params) == (1.0, 0.0)
    assert measurement_direction("qnd_x2", 123.0, params) == (0.0, 1.0)
    assert math.copysign(1.0, measurement_direction("qnd_x2", 123.0, params)[0]) == -1.0  # -sin(0 t)
    assert measurement_direction("position", 0.0, params) == (1.0, 0.0)
    u = measurement_direction("position", math.pi / (2 * W1), params)
    assert abs(u[0]) <= 1e-12 and math.isclose(u[1], 1.0, rel_tol=1e-12)
    u = measurement_direction("position", math.pi / (4 * W1), params)
    assert math.isclose(u[0], math.sqrt(2) / 2, rel_tol=1e-12)
    assert math.isclose(u[1], math.sqrt(2) / 2, rel_tol=1e-12)


def test_unknown_meter_kind_has_no_direction(params):
    with pytest.raises(ParameterError, match="^unknown meter kind 'bogus'$"):
        measurement_direction("bogus", 0.0, params)


@pytest.mark.parametrize("kind", METER_KINDS)
def test_a_clock_past_the_double_range_has_no_direction(kind, params):
    # cos(inf) raises ValueError and 0 * inf is nan: either would leave the angle undefined
    with pytest.raises(NumericalFailureError, match=r"^the read angle is not finite at t=inf$"):
        measurement_direction(kind, math.inf, params)


def test_position_direction_follows_the_free_flow(params, rng):
    # the amplitudes are constants of the free motion, so the position
    # meter's u . (X1, X2) at time t is the lab-frame x(t) of the free flow
    # from (x, p) = (X1, m w1 X2) at time 0
    for _ in range(50):
        x1, x2 = rng.normal(0.0, 1e-15, size=2)
        t = rng.uniform(0.0, 1.0)
        x, p = x1, M * W1 * x2
        x_t = ((x - 1j * p / (M * W1)) * np.exp(1j * W1 * t)).real
        u1, u2 = measurement_direction("position", t, params)
        assert abs(u1 * x1 + u2 * x2 - x_t) <= 1e-11 * math.hypot(x1, x2)


def test_backaction_sigma_frozen(params):
    meter = MeterSpec("qnd_x1", 1e-18)
    assert math.isclose(backaction_sigma(meter, params), 5.272859085e-18, rel_tol=1e-12)


def test_meter_spec_validation():
    with pytest.raises(ParameterError):
        MeterSpec("qnd_x3", 1e-18)
    with pytest.raises(ParameterError):
        MeterSpec("qnd_x1", 0.0)
    with pytest.raises(ParameterError):
        MeterSpec("qnd_x1", math.inf)


# --- single measurements -------------------------------------------------------


def test_infinitely_weak_meter_leaves_state(params, rng):
    state = GaussianQuadState(2e-15, -1e-15, VINF, VINF, 1e-31)
    meter = MeterSpec("qnd_x1", 1.0)  # resolution 15 orders above the thermal spread
    for policy in COLLAPSE_POLICIES:
        _, out, _ = measure(state, meter, policy, params, rng)
        assert math.isclose(out.mean1, state.mean1, rel_tol=1e-9)
        assert math.isclose(out.mean2, state.mean2, rel_tol=1e-9)
        assert math.isclose(out.v11, state.v11, rel_tol=1e-12)
        assert math.isclose(out.v22, state.v22, rel_tol=1e-12)


def test_sharp_value_measurement(params, rng):
    meter = MeterSpec("qnd_x1", 1e-18)
    sba2 = backaction_sigma(meter, params) ** 2
    state = GaussianQuadState(2e-15, 0.0, 0.0, VINF, 0.0)
    outcomes = []
    for _ in range(30000):
        y, out, _ = measure(state, meter, "orthodox", params, rng)
        outcomes.append(y)
    # nothing to learn about a sharp value; back-action still applies
    assert out.mean1 == state.mean1
    assert out.v11 == 0.0
    assert math.isclose(out.v22 - state.v22, sba2, rel_tol=1e-9)
    outcomes = np.array(outcomes)
    n = len(outcomes)
    assert abs(outcomes.mean() - 2e-15) <= 5 * meter.sigma_m / math.sqrt(n)
    var = outcomes.var(ddof=1)
    assert abs(var - meter.sigma_m**2) <= 5 * meter.sigma_m**2 * math.sqrt(2.0 / (n - 1))


def test_kalman_update_closed_form(params, rng):
    meter = MeterSpec("qnd_x1", 1e-18)
    state = GaussianQuadState(1e-15, 0.0, VINF, VINF, 0.0)
    _, out, _ = measure(state, meter, "orthodox", params, rng)
    s2 = meter.sigma_m**2
    assert math.isclose(out.v11, VINF * s2 / (VINF + s2), rel_tol=1e-12)
    assert math.isclose(out.v22, VINF + HBAR**2 / (4 * M**2 * W1**2 * s2), rel_tol=1e-12)


def test_kalman_update_against_grid_bayes_oracle(params):
    # brute-force Bayesian update on a discretized Gaussian grid, correlated case
    mean = (0.2, -0.4)
    v11, v22, v12 = 1.0, 0.8, 0.3
    sigma_m = 0.5
    y = 0.9
    xs = np.linspace(mean[0] - 8.0, mean[0] + 8.0, 801)
    ys_ = np.linspace(mean[1] - 8.0, mean[1] + 8.0, 801)
    g1, g2 = np.meshgrid(xs, ys_, indexing="ij")
    d1, d2 = g1 - mean[0], g2 - mean[1]
    det = v11 * v22 - v12**2
    quad = (v22 * d1**2 - 2 * v12 * d1 * d2 + v11 * d2**2) / det
    logw = -0.5 * quad - 0.5 * (y - g1) ** 2 / sigma_m**2
    w = np.exp(logw - logw.max())
    w /= w.sum()
    oracle_mean1 = float((w * g1).sum())
    oracle_mean2 = float((w * g2).sum())
    oracle_v11 = float((w * (g1 - oracle_mean1) ** 2).sum())
    oracle_v22 = float((w * (g2 - oracle_mean2) ** 2).sum())
    oracle_v12 = float((w * (g1 - oracle_mean1) * (g2 - oracle_mean2)).sum())

    # drive measure() to produce exactly outcome y by reusing its rng order
    class _FixedOutcome:
        def normal(self, loc, scale):
            return y

    state = GaussianQuadState(mean[0], mean[1], v11, v22, v12)
    _, out, _ = measure(state, MeterSpec("qnd_x1", sigma_m), "orthodox", params, _FixedOutcome())
    assert math.isclose(out.mean1, oracle_mean1, rel_tol=1e-6)
    assert math.isclose(out.mean2, oracle_mean2, rel_tol=1e-6)
    assert math.isclose(out.v11, oracle_v11, rel_tol=1e-5)
    assert math.isclose(out.v22, oracle_v22, rel_tol=1e-5)
    assert math.isclose(out.v12, oracle_v12, rel_tol=1e-4, abs_tol=1e-8)


def test_outcome_statistics_match_predictive(params, rng):
    state = GaussianQuadState(5e-16, -2e-16, VINF, 0.5 * VINF, 0.2 * VINF)
    meter = MeterSpec("qnd_x1", 2e-15)
    predictive = VINF + meter.sigma_m**2
    n = 100000
    # a batch of n copies of the state draws one outcome per copy
    batch = GaussianQuadState(np.full(n, state.mean1), np.full(n, state.mean2), state.v11, state.v22, state.v12)
    draws = measure(batch, meter, "orthodox", params, rng)[0]
    se = predictive * math.sqrt(2.0 / (n - 1))
    assert abs(draws.var(ddof=1) - predictive) <= 3 * se


def test_policies_share_the_first_outcome(params):
    state = GaussianQuadState(1e-15, 2e-16, VINF, VINF, 0.0)
    meter = MeterSpec("qnd_x1", 1e-16)
    key = np.array([11, 22], dtype=np.uint64)
    y_orth, _, _ = measure(state, meter, "orthodox", params, np.random.Generator(np.random.Philox(key=key)))
    y_none, _, _ = measure(
        state, meter, "no_conditioning", params, np.random.Generator(np.random.Philox(key=key))
    )
    assert y_orth == y_none


def test_no_conditioning_keeps_covariance_unconditioned(params, rng):
    state = GaussianQuadState(1e-15, 2e-16, VINF, VINF, 0.0)
    meter = MeterSpec("qnd_x1", 1e-18)
    sba2 = backaction_sigma(meter, params) ** 2
    _, out, _ = measure(state, meter, "no_conditioning", params, rng)
    assert out.v11 == state.v11
    assert math.isclose(out.v22 - state.v22, sba2, rel_tol=1e-9)


def test_no_conditioning_kicks_each_trajectory_of_a_batch(params):
    # a batch state measured with a plain Generator: one kick per trajectory
    n = 5
    state = GaussianQuadState(np.zeros(n), np.zeros(n), VINF, VINF, 0.0)
    _, out, _ = measure(state, MeterSpec("qnd_x1", 1e-18), "no_conditioning", params, np.random.default_rng(5))
    assert out.mean1.shape == out.mean2.shape == (n,)
    assert len(np.unique(out.mean1)) == len(np.unique(out.mean2)) == n


def test_measure_rejects_non_psd(params, rng):
    bad = GaussianQuadState(0.0, 0.0, 1e-30, 1e-30, 9e-30)
    with pytest.raises(StateDomainError):
        measure(bad, MeterSpec("qnd_x1", 1e-18), "orthodox", params, rng)
    with pytest.raises(StateDomainError):
        measure(GaussianQuadState(0.0, 0.0, -1e-30, 1e-30, 0.0), MeterSpec("qnd_x1", 1e-18), "orthodox", params, rng)


def test_tiny_meter_resolution_overflows_cleanly(params, rng):
    state = GaussianQuadState(0.0, 0.0, VINF, VINF, 0.0)
    with pytest.raises(NumericalFailureError):
        measure(state, MeterSpec("qnd_x1", 1e-300), "orthodox", params, rng)
    # sigma_m**2 overflows: the no-collapse state stays finite, the outcome does not
    with pytest.raises(NumericalFailureError):
        measure(state, MeterSpec("qnd_x1", 1e160), "no_conditioning", params, rng)


def test_unknown_collapse_policy_is_a_parameter_error(params, rng):
    state = GaussianQuadState(0.0, 0.0, VINF, VINF, 0.0)
    meter = MeterSpec("qnd_x1", 1e-18)
    with pytest.raises(ParameterError, match="unknown collapse policy 'bogus'"):
        measure(state, meter, "bogus", params, rng)
    with pytest.raises(ParameterError, match="unknown collapse policy 'bogus'"):
        plan_schedule(state, meter, "bogus", params, 1e-2, 3)
    with pytest.raises(ParameterError, match="unknown collapse policy 'bogus'"):
        run_schedule(state, meter, "bogus", params, 1e-2, 3, rng)


# --- invariants ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    rho=st.floats(1.0, 100.0),
    squeeze=st.floats(-2.5, 2.5),
    angle=st.floats(0.0, math.pi),
    log_sigma=st.floats(-20.0, -16.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_uncertainty_product_preserved(rho, squeeze, angle, log_sigma, seed):
    # V = R diag(s e^{2r}, s e^{-2r}) R^T with s = rho * sqrt(floor): det = rho^2 * floor
    params = OscillatorParams(M, W1, 1e4, 0.05)
    floor = ZP_VAR
    s = rho * math.sqrt(floor)
    c, sn = math.cos(angle), math.sin(angle)
    va, vb = s * math.exp(2 * squeeze), s * math.exp(-2 * squeeze)
    v11 = c * c * va + sn * sn * vb
    v22 = sn * sn * va + c * c * vb
    v12 = c * sn * (va - vb)
    rng = np.random.default_rng(seed)
    state = GaussianQuadState(rng.normal(0.0, math.sqrt(v11)), rng.normal(0.0, math.sqrt(v22)), v11, v22, v12)
    _, out, _ = measure(state, MeterSpec("qnd_x1", 10.0**log_sigma), "orthodox", params, rng)
    det_after = out.v11 * out.v22 - out.v12**2
    assert det_after >= floor * (1.0 - 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    v11=st.floats(0.0, 1e-28),
    v22=st.floats(0.0, 1e-28),
    corr=st.floats(-1.0, 1.0),
    log_sigma=st.floats(-20.0, -14.0),
    orthodox=st.booleans(),
)
def test_backaction_evasion_never_raises_v11(v11, v22, corr, log_sigma, orthodox):
    params = OscillatorParams(M, W1, 1e4, 0.05)
    rng = np.random.default_rng(3)
    state = GaussianQuadState(0.0, 0.0, v11, v22, corr * math.sqrt(v11 * v22))
    policy = "orthodox" if orthodox else "no_conditioning"
    _, out, record = measure(state, MeterSpec("qnd_x1", 10.0**log_sigma), policy, params, rng)
    assert record.post_v11 <= record.pre_v11 * (1.0 + 1e-15)
    assert out.v11 <= state.v11 * (1.0 + 1e-15)


def test_underflowing_product_does_not_raise_v11():
    # s2 * v11 is about 2.6e-324: unscaled it rounds up to the smallest
    # subnormal, and v11 came out as 5.87e-272, nearly twice the input
    params = OscillatorParams(M, W1, 1e4, 0.05)
    v = 3.0668299705607350e-272
    state = GaussianQuadState(0.0, 0.0, v, v, 0.0)
    meter = MeterSpec("qnd_x1", 10**-26.0375)
    _, out, record = measure(state, meter, "orthodox", params, np.random.default_rng(3))
    s2 = Fraction(meter.sigma_m) ** 2
    exact = Fraction(v) * s2 / (Fraction(v) + s2)
    assert out.v11 <= v
    assert abs(Fraction(out.v11) - exact) <= exact * 2**-52
    assert record.post_v11 == out.v11


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(METER_KINDS),
    e11=st.integers(-1074, -93),
    e22=st.integers(-1074, -93),
    m11=st.floats(1.0, 2.0),
    m22=st.floats(1.0, 2.0),
    corr=st.floats(-1.0, 1.0),
    log_sigma=st.floats(-30.0, -5.0),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_orthodox_update_over_the_subnormal_range(kind, e11, e22, m11, m22, corr, log_sigma, phase):
    # variances from 1e-28 down through the subnormals, where s2 * V and
    # det(V) underflow unless the update scales them; the checks are exact
    # rational arithmetic on the doubles that go in and come out
    params = OscillatorParams(M, W1, 1e4, 0.05)
    v11, v22 = math.ldexp(m11, e11), math.ldexp(m22, e22)  # rounded onto the subnormal grid
    v12 = corr * math.sqrt(v11) * math.sqrt(v22)
    f11, f22, f12 = Fraction(v11), Fraction(v22), Fraction(v12)
    det_in = f11 * f22 - f12 * f12
    assume(det_in >= 0)
    state = GaussianQuadState(0.0, 0.0, v11, v22, v12, phase / W1)
    _, out, _ = measure(state, MeterSpec(kind, 10.0**log_sigma), "orthodox", params, np.random.default_rng(7))
    g11, g22, g12 = Fraction(out.v11), Fraction(out.v22), Fraction(out.v12)
    u1, u2 = (Fraction(c) for c in measurement_direction(kind, state.time, params))
    # rounding slack: a relative 2**-40 of each term (sigma_ba^2 * s2 itself
    # is the floor only to a few ulps), and a few steps of the subnormal grid
    eps, grid = Fraction(2) ** -40, Fraction(2) ** -1072

    terms = (u1 * u1 * g11, 2 * u1 * u2 * g12, u2 * u2 * g22)
    monitored_in = u1 * u1 * f11 + 2 * u1 * u2 * f12 + u2 * u2 * f22
    assert sum(terms) <= monitored_in + eps * (sum(abs(t) for t in terms) + monitored_in) + grid

    products = abs(g11 * g22) + g12 * g12
    slack = eps * products + grid * (abs(g11) + abs(g22) + 2 * abs(g12))
    det_out = g11 * g22 - g12 * g12
    assert g11 >= 0 and g22 >= 0 and det_out >= -slack
    # det' = floor + (s2 / sigma_y2) (det - floor): never below min(det, floor)
    assert det_out >= min(det_in, Fraction(ZP_VAR)) - slack


# --- schedules -------------------------------------------------------------------


def test_schedule_base_case_matches_manual_composition(params):
    meter = MeterSpec("qnd_x1", 1e-18)
    state = GaussianQuadState(1e-15, 0.0, VINF, VINF, 0.0)
    key = np.array([5, 6], dtype=np.uint64)
    records, final = run_schedule(
        state, meter, "orthodox", params, 1e-2, 1, np.random.Generator(np.random.Philox(key=key))
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    manual = thermal_step(state, 1e-2, params, rng)
    _, manual, manual_record = measure(manual, meter, "orthodox", params, rng)
    assert len(records) == 1
    assert final == manual
    assert records[0] == manual_record


def test_schedule_on_batch_means_matches_manual_composition(params):
    # the step kernel on a batch, step by step against run_schedule, which
    # composes thermal_step and measure by hand: every outcome, the plan's
    # clock and variances, and the final means
    meter = MeterSpec("qnd_x1", 1e-18)
    state = GaussianQuadState(np.array([1e-15, -2e-15]), np.zeros(2), VINF, VINF, 0.0)
    key = np.array([5, 6], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    records, final = run_schedule(state, meter, "no_conditioning", params, 1e-2, 4, rng)
    assert len(records) == 4
    plan = plan_schedule(state, meter, "no_conditioning", params, 1e-2, 4)
    means, values = np.array([state.mean1, state.mean2]), np.empty((4, 3, 2))
    rng = np.random.Generator(np.random.Philox(key=key))
    step_means(plan, means, lambda k: rng.standard_normal((k, 2)), values)
    for record, row, (outcome, _, _) in zip(records, plan.steps.tolist(), values):
        assert record.outcome.tobytes() == outcome.tobytes()
        assert (record.time, record.post_v11, record.post_v22) == row[:3]
    assert final.mean1.tobytes() == means[0].tobytes() and final.mean2.tobytes() == means[1].tobytes()


@pytest.mark.parametrize("kind", METER_KINDS)
@pytest.mark.parametrize("policy", ["orthodox", "no_conditioning"])
def test_plan_equals_the_steps_composed_by_hand(kind, policy, params):
    # the plan's clock and covariance, and the step kernel on one
    # trajectory, step by step against thermal_step and measure, burn-in
    # included; the position meter's read direction turns with time
    meter = MeterSpec(kind, 1e-18)
    state = GaussianQuadState(1e-15, -2e-15, VINF, 0.5 * VINF, 1e-31, 0.25)
    decay, kick_sd, relaxed = thermal_relax(state, 0.5, params)
    plan = replace(plan_schedule(relaxed, meter, policy, params, 1e-3, 9), lead=((decay, kick_sd),))
    means, values = np.array([[state.mean1], [state.mean2]]), np.empty((9, 3, 1))
    rng = np.random.default_rng(3)
    step_means(plan, means, lambda k: rng.standard_normal((k, 1)), values)
    stepped = values[..., 0].tolist()
    assert means[:, 0].tolist() == stepped[-1][1:]
    rng = np.random.default_rng(3)
    manual = thermal_step(state, 0.5, params, rng)
    for row, (outcome, mean1, mean2) in zip(plan.steps.tolist(), stepped):
        manual = thermal_step(manual, 1e-3, params, rng)
        manual_outcome, manual, _ = measure(manual, meter, policy, params, rng)
        assert row[:3] == (manual.time, manual.v11, manual.v22)
        assert row[3:5] == measurement_direction(kind, manual.time, params)
        assert (outcome, mean1, mean2) == (manual_outcome, manual.mean1, manual.mean2)


def test_plan_holds_at_most_64_bytes_a_step(params):
    def traced_bytes(n_meas):
        start = GaussianQuadState(0.0, 0.0, VINF, VINF)
        tracemalloc.start()
        try:
            plan = plan_schedule(start, MeterSpec("position", 1e-18), "orthodox", params, 1e-3, n_meas)
            assert plan.steps.shape == (n_meas,)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    # Python's free lists move the traced total by a few hundred bytes from
    # call to call; 1 KB of slack is far below the 18 KB that one more 8-byte
    # value per step would add
    assert PLAN_STEP.itemsize == 64
    small = traced_bytes(768)
    assert traced_bytes(3072) - small <= 64 * (3072 - 768) + 1024


def test_schedule_kalman_contraction_law(rng):
    params = negligible_bath()
    meter = MeterSpec("qnd_x1", 1e-18)
    v0 = VINF
    state = GaussianQuadState(0.0, 0.0, v0, v0, 0.0)
    records, _ = run_schedule(state, meter, "orthodox", params, 1e-2, 40, rng)
    s2 = meter.sigma_m**2
    for k, record in enumerate(records, start=1):
        assert math.isclose(record.post_v11, v0 * s2 / (s2 + k * v0), rel_tol=1e-9)


def test_schedule_linear_heating_law(rng):
    params = negligible_bath()
    meter = MeterSpec("qnd_x1", 1e-18)
    sba2 = backaction_sigma(meter, params) ** 2
    v0 = VINF
    state = GaussianQuadState(0.0, 0.0, v0, v0, 0.0)
    records, _ = run_schedule(state, meter, "orthodox", params, 1e-2, 40, rng)
    for k, record in enumerate(records, start=1):
        assert math.isclose(record.post_v22, v0 + k * sba2, rel_tol=1e-9)


def test_position_meter_heats_monitored_quadrature(rng):
    # generic stroboscopic phase: back-action leaks into X1 over the schedule
    params = negligible_bath()
    meter = MeterSpec("position", 1e-16)
    state = GaussianQuadState(0.0, 0.0, 1e-40, 1e-40, 0.0)
    records, final = run_schedule(state, meter, "orthodox", params, 2e-4, 60, rng)
    deltas = np.array([r.post_v11 - r.pre_v11 for r in records])
    assert deltas.mean() > 0.0
    assert final.v11 > 10 * 1e-40


def qnd_x1_plan(n_meas):
    """The plan of an orthodox qnd_x1 schedule of n_meas steps of 1e-2 s from
    V_inf, under a negligible bath, and the square of its meter's sigma_m
    and sigma_ba."""
    params, meter = negligible_bath(), MeterSpec("qnd_x1", 1e-18)
    plan = plan_schedule(GaussianQuadState(0.0, 0.0, VINF, VINF, 0.0), meter, "orthodox", params, 1e-2, n_meas)
    return plan, meter.sigma_m**2, backaction_sigma(meter, params) ** 2


def test_plan_kalman_contraction_law():
    # the engine's own covariance, as the ensemble steps it, under the law
    # that test_schedule_kalman_contraction_law checks on the reference
    plan, s2, _ = qnd_x1_plan(40)
    for k, v11 in enumerate(plan.steps["post_v11"].tolist(), start=1):
        assert math.isclose(v11, VINF * s2 / (s2 + k * VINF), rel_tol=1e-9)


def test_plan_linear_heating_law():
    plan, _, sba2 = qnd_x1_plan(40)
    for k, v22 in enumerate(plan.steps["post_v22"].tolist(), start=1):
        assert math.isclose(v22, VINF + k * sba2, rel_tol=1e-9)


def test_plan_position_meter_heats_monitored_quadrature():
    # the back-action of each read leaks into X1 as the read direction turns,
    # so the X1 variance grows at every step of this schedule
    start = GaussianQuadState(0.0, 0.0, 1e-40, 1e-40, 0.0)
    plan = plan_schedule(start, MeterSpec("position", 1e-16), "orthodox", negligible_bath(), 2e-4, 60)
    v11 = np.concatenate(([start.v11], plan.steps["post_v11"]))
    assert (np.diff(v11) > 0.0).all()
    assert v11[-1] > 10 * 1e-40


def test_schedule_argument_validation(params, rng):
    state = GaussianQuadState(0.0, 0.0, 0.0, 0.0)
    meter = MeterSpec("qnd_x1", 1e-18)
    with pytest.raises(ParameterError):
        run_schedule(state, meter, "orthodox", params, 1e-2, 0, rng)
    with pytest.raises(ParameterError):
        run_schedule(state, meter, "orthodox", params, 0.0, 5, rng)
