"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Everything is seeded; the statistical criteria hold at their
stated tolerances for these seeds (and with wide margin for almost any
other seed).
"""

import math
from dataclasses import replace

import numpy as np

from qndsim import (
    HBAR,
    KB,
    BudgetInputs,
    GaussianQuadState,
    MeterSpec,
    OscillatorParams,
    backaction_sigma,
    default_config,
    eta1,
    eta2,
    gof_boltzmann,
    heating_slope,
    is_qnd_sequence,
    measure,
    run_ensemble,
    SampleSeries,
    thermal_step,
)

M = 1e-3
W1 = 1e4
TAU1 = 1e4
T_BATH = 0.05
VINF = 6.903245e-30


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, detail


def _budget_point(**overrides):
    base = dict(
        temperature=T_BATH, omega1=W1, tau1=TAU1, omega2=1e8, tau2=1.0,
        dt=1e-2, amplifier_quanta=1.0, mass=M,
    )
    base.update(overrides)
    return BudgetInputs(**base)


def test_criterion_01_brownian_noise_quanta():
    reference = eta1(_budget_point())
    ok_ref = abs(reference - 0.6546) <= 0.001 * 0.6546
    values = [eta1(_budget_point(temperature=t, tau1=tau1)) for t in (0.05, 0.1) for tau1 in (1e3, 1e4)]
    ok_span = math.isclose(min(values), 0.654601696036032, rel_tol=1e-9) and math.isclose(
        max(values), 13.092033920720642, rel_tol=1e-9
    )
    ok_order_unity = 0.1 < reference < 10.0
    _report(
        1,
        ok_ref and ok_span and ok_order_unity,
        f"eta1={reference:.7g} (target 0.6546 +/- 0.1%), corner span "
        f"[{min(values):.4g}, {max(values):.4g}] (expected ~[0.65, 13.1])",
    )


def test_criterion_02_electrical_noise_quanta():
    reference = eta2(_budget_point())
    _report(
        2,
        abs(reference - 0.6546) <= 0.001 * 0.6546,
        f"eta2={reference:.7g} (target 0.6546 +/- 0.1%)",
    )


def test_criterion_03_qnd_classification():
    params = OscillatorParams(M, W1, TAU1, T_BATH)
    rng = np.random.default_rng(3)
    scale = 1.0 / (M * W1)

    amp = is_qnd_sequence("x1", list(rng.uniform(0.0, 2.0, size=10)), params)
    ok_amp = amp.is_qnd and amp.max_violation <= 1e-12 * scale

    pos = is_qnd_sequence("x", [0.0, math.pi / (2 * W1)], params)
    ok_pos = (not pos.is_qnd) and abs(pos.max_violation - scale) <= 1e-12 * scale

    worst = 0.0
    for t in rng.uniform(1e-5, 1.0, size=100):
        s = is_qnd_sequence("x", [0.0, t], params).max_violation
        expected = abs(math.sin(W1 * t)) * scale
        worst = max(worst, abs(s - expected) / scale)
    ok_unequal = worst <= 1e-12

    _report(
        3,
        ok_amp and ok_pos and ok_unequal,
        f"X1 violation={amp.max_violation:.2e} (<= {1e-12 * scale:.1e}), "
        f"x quarter-period violation={pos.max_violation:.6g} (target {scale:g}), "
        f"[x(0),x(t)] worst rel err={worst:.2e}",
    )


def test_criterion_04_equipartition():
    params = OscillatorParams(M, W1, TAU1, T_BATH)
    rng = np.random.default_rng(4)
    n = 100000
    cold = GaussianQuadState(0.0, 0.0, 0.0, 0.0)
    m1 = np.empty(n)
    m2 = np.empty(n)
    for i in range(n):
        state = thermal_step(cold, 10.0 * TAU1, params, rng)
        m1[i] = state.mean1
        m2[i] = state.mean2
    var = m1.var(ddof=1)
    se_var = VINF * math.sqrt(2.0 / (n - 1))
    ok_var = abs(var - VINF) <= 3 * se_var

    energies = 0.5 * M * W1**2 * (m1**2 + m2**2)
    mean_e = energies.mean()
    se_e = energies.std(ddof=1) / math.sqrt(n)
    ok_e = abs(mean_e - KB * T_BATH) <= 3 * se_e

    _report(
        4,
        ok_var and ok_e,
        f"Var[X1]={var:.6e} vs V_inf={VINF:.6e} ({abs(var - VINF) / se_var:.2f} SE), "
        f"<E>={mean_e:.6e} vs kBT={KB * T_BATH:.6e} ({abs(mean_e - KB * T_BATH) / se_e:.2f} SE)",
    )


def test_criterion_05_brownian_drift_rate():
    params = OscillatorParams(M, W1, TAU1, T_BATH)
    n = 100000
    rng = np.random.default_rng(5)
    steps = 10
    dt = 0.002 * TAU1  # window 0.02 tau1, inside the t <= 0.1 tau1 regime
    half_mw2 = 0.5 * M * W1**2
    # the ensemble steps as one batch state: array means, shared covariance
    state = GaussianQuadState(np.zeros(n), np.zeros(n), 0.0, 0.0)
    mean_energy = np.zeros(steps + 1)
    for k in range(1, steps + 1):
        state = thermal_step(state, dt, params, rng)
        mean_energy[k] = half_mw2 * np.mean(state.mean1**2 + state.mean2**2)
    slope = np.polyfit(dt * np.arange(steps + 1), mean_energy, 1)[0]
    target = KB * T_BATH / TAU1
    rel = abs(slope - target) / target
    _report(5, rel <= 0.05, f"dE/dt={slope:.6e} vs kBT/tau1={target:.6e} (rel err {rel:.3%})")


def test_criterion_06_central_prediction():
    summary = run_ensemble(default_config())  # qnd_x1, orthodox, 1e4 x 100
    t1 = summary.t1_hat_K
    p = summary.gof_p_value
    ok_t1 = abs(t1 - T_BATH) <= 0.05 * T_BATH
    ok_p = p > 0.01
    _report(
        6,
        ok_t1 and ok_p,
        f"t1_hat={t1:.6g} K vs T={T_BATH} K (rel err {abs(t1 - T_BATH) / T_BATH:.3%}), "
        f"gof p={p:.4g} (> 0.01 required)",
    )


def test_criterion_07_backaction_heating():
    params = OscillatorParams(M, W1, 1e12, 1e-12)  # negligible bath
    meter = MeterSpec("qnd_x1", 1e-18)
    sba = backaction_sigma(meter, params)
    rng = np.random.default_rng(7)
    n_traj, n_meas = 10000, 50
    # the ensemble steps as one batch state: array means, shared covariance
    state = GaussianQuadState(np.zeros(n_traj), np.zeros(n_traj), VINF, VINF, 0.0)
    trace = np.zeros(n_meas)
    contraction_violations = 0
    total_steps = 0
    for k in range(n_meas):
        state = thermal_step(state, 1e-2, params, rng)
        pre_v11 = state.v11
        _, state, record = measure(state, meter, "orthodox", params, rng)
        trace[k] = record.post_v22
        # v11 is shared, so each step counts once per trajectory
        total_steps += n_traj
        if record.post_v11 > pre_v11:
            contraction_violations += n_traj
    slope = heating_slope(trace)
    rel_err = abs(slope - sba**2) / sba**2
    ok_slope = rel_err <= 0.10
    ok_v11 = contraction_violations == 0
    _report(
        7,
        ok_slope and ok_v11,
        f"v22 slope={slope:.6e} vs sigma_ba^2={sba**2:.6e} (rel err {rel_err:.3%}), "
        f"v11 non-increasing in {total_steps - contraction_violations}/{total_steps} steps",
    )


def test_criterion_08_uncertainty_product():
    params = OscillatorParams(M, W1, TAU1, T_BATH)
    rng = np.random.default_rng(8)
    floor = (HBAR / (2 * M * W1)) ** 2
    n = 100000
    rho = 10.0 ** rng.uniform(0.0, 2.0, size=n)
    squeeze = rng.uniform(-2.5, 2.5, size=n)
    angle = rng.uniform(0.0, math.pi, size=n)
    sigma_m = 10.0 ** rng.uniform(-20.0, -15.0, size=n)
    s = rho * math.sqrt(floor)
    va = s * np.exp(2 * squeeze)
    vb = s * np.exp(-2 * squeeze)
    c, sn = np.cos(angle), np.sin(angle)
    v11 = c * c * va + sn * sn * vb
    v22 = sn * sn * va + c * c * vb
    v12 = c * sn * (va - vb)
    violations = 0
    for i in range(n):
        state = GaussianQuadState(0.0, 0.0, float(v11[i]), float(v22[i]), float(v12[i]))
        _, out, _ = measure(state, MeterSpec("qnd_x1", float(sigma_m[i])), "orthodox", params, rng)
        if out.v11 * out.v22 - out.v12**2 < floor * (1.0 - 1e-12):
            violations += 1
    _report(8, violations == 0, f"uncertainty-product violations: {violations}/{n} (slack 1e-12 relative)")


def test_criterion_09_detector_power_on_foils():
    base = default_config()
    flagged = {}
    details = []
    for name, overrides in (
        ("no_conditioning", dict(collapse_policy="no_conditioning", sigma_m_m=1e-20, seed=9001)),
        ("position_meter", dict(meter_kind="position", sigma_m_m=1e-20, seed=9002)),
    ):
        summary = run_ensemble(replace(base, **overrides))
        t1, stderr, p = summary.t1_hat_K, summary.t1_stderr_K, summary.gof_p_value
        inflated = (t1 - T_BATH) > 5 * stderr
        flagged[name] = (p < 1e-3) or inflated
        details.append(f"{name}: t1_hat={t1:.4g} K ({(t1 - T_BATH) / stderr:.1f} stderr above T), p={p:.3g}")
    _report(9, all(flagged.values()), "; ".join(details))


def test_criterion_10_false_alarm_calibration():
    rng = np.random.default_rng(10)
    sd = math.sqrt(VINF)
    replicas = 5000
    n = 400
    rejections = 0
    for _ in range(replicas):
        series = SampleSeries(rng.normal(0.0, sd, size=n))
        if gof_boltzmann(series) < 0.05:
            rejections += 1
    rate = rejections / replicas
    _report(
        10,
        0.04 <= rate <= 0.06,
        f"H0 rejection rate at alpha=0.05: {rate:.4f} over {replicas} replicas (required 0.05 +/- 0.01)",
    )


def test_criterion_11_determinism(tmp_path, pooled):
    config = replace(default_config(), n_traj=192, n_meas=8, seed=11011)
    path = tmp_path / "records.csv"
    outputs = []
    for workers in (1, 1, 8):
        summary = run_ensemble(config, workers=workers, record_path=str(path))
        outputs.append((summary.to_json(), path.read_bytes()))
    ok_repeat = outputs[0] == outputs[1]
    ok_workers = outputs[0] == outputs[2]
    # eight workers asked for, two cores and two chunks of rows: a pool of two
    ok_pool = pooled == [2]
    _report(
        11,
        ok_repeat and ok_workers and ok_pool,
        f"byte-identical summary+records: repeat run {ok_repeat}, workers 1 vs 8 {ok_workers} (pools {pooled})",
    )
