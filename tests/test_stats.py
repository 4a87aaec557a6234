import hashlib
import math
import os
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qndsim import default_config, ensemble, stats
from qndsim import (
    KB,
    DegenerateSeriesError,
    GaussianQuadState,
    InsufficientDataError,
    MeterSpec,
    NumericalFailureError,
    OscillatorParams,
    ParameterError,
    SampleSeries,
    backaction_sigma,
    energy_histogram,
    estimate_t1,
    gof_boltzmann,
    heating_slope,
    run_schedule,
)

M = 1e-3
W1 = 1e4
THERMAL_SD = math.sqrt(6.903245e-30)  # sqrt(kB*0.05/(M*W1^2))


def thermal_series(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return SampleSeries(rng.normal(0.0, scale * THERMAL_SD, size=n))


# --- effective temperature -----------------------------------------------------


def test_estimate_t1_recovers_bath_temperature(params):
    fit = estimate_t1(thermal_series(100000, seed=42), params)
    assert abs(fit.t1_hat - 0.05) <= 3 * fit.stderr
    assert math.isclose(fit.stderr, fit.t1_hat * math.sqrt(2.0 / (100000 - 1)), rel_tol=1e-12)


def test_estimate_t1_consistency_over_n(params):
    # stderr shrinks and the estimate stays inside its 3-sigma band
    previous = None
    for n in (1000, 10000, 100000):
        fit = estimate_t1(thermal_series(n, seed=n), params)
        assert abs(fit.t1_hat - 0.05) <= 3 * fit.stderr
        if previous is not None:
            assert fit.stderr < previous
        previous = fit.stderr


def test_estimate_t1_quadratic_scaling(params):
    series = thermal_series(500, seed=7)
    doubled = SampleSeries(2.0 * series.values)
    assert estimate_t1(doubled, params).t1_hat == 4.0 * estimate_t1(series, params).t1_hat


def test_estimate_t1_sample_size_contract(params):
    rng = np.random.default_rng(0)
    estimate_t1(SampleSeries(rng.normal(size=30)), params)
    with pytest.raises(InsufficientDataError):
        estimate_t1(SampleSeries(rng.normal(size=29)), params)


def test_estimate_t1_degenerate(params):
    with pytest.raises(DegenerateSeriesError):
        estimate_t1(SampleSeries(np.full(50, 1e-15)), params)


# --- goodness of fit -------------------------------------------------------------


def test_gof_accepts_thermal_data():
    assert gof_boltzmann(thermal_series(2000, seed=11)) > 0.01


def test_gof_deterministic():
    series = thermal_series(500, seed=3)
    a = gof_boltzmann(series)
    b = gof_boltzmann(series)
    assert a == b


def test_gof_calibration_smoke():
    # under H0 the rejection rate at 5% stays near 5% (tight check in acceptance)
    rng = np.random.default_rng(99)
    n, replicas = 150, 400
    rejections = 0
    for _ in range(replicas):
        series = SampleSeries(rng.normal(0.0, THERMAL_SD, size=n))
        if gof_boltzmann(series) < 0.05:
            rejections += 1
    rate = rejections / replicas
    assert 0.01 <= rate <= 0.10


def test_gof_rejects_exponential_injection():
    rng = np.random.default_rng(5)
    series = SampleSeries(rng.exponential(THERMAL_SD, size=10000))
    assert gof_boltzmann(series) < 0.001


def test_gof_rejects_uniform_injection():
    rng = np.random.default_rng(6)
    series = SampleSeries(rng.uniform(-THERMAL_SD, THERMAL_SD, size=5000))
    assert gof_boltzmann(series) < 0.001


def test_gof_contracts():
    rng = np.random.default_rng(8)
    with pytest.raises(InsufficientDataError):
        gof_boltzmann(SampleSeries(rng.normal(size=99)))
    with pytest.raises(DegenerateSeriesError):
        gof_boltzmann(SampleSeries(np.zeros(200)))


# --- normal CDF ------------------------------------------------------------------


def ndtr_inputs():
    """Tails, subnormals, signed zeros, infinities, NaN and 256 ulps either
    side of every branch point of the Cephes ndtr: |a| = 1 (erf to erfc),
    sqrt(2) (erfc's own erf branch to its exp form), 8 sqrt(2) (P/Q to R/S)
    and sqrt(2 MAXLOG) (the underflow cut)."""
    rng = np.random.default_rng(11)
    edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * stats._MAXLOG)])
    ulps = edges[:, None] + np.arange(-256, 257) * np.spacing(edges)[:, None]
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300])
    magnitudes = np.concatenate([
        np.linspace(0.0, 45.0, 450_001),
        np.logspace(-310.0, 308.0, 10_001),
        ulps.ravel(),
        tiny,
        np.abs(rng.standard_normal(100_000)),
        [np.inf],
    ])
    return np.concatenate([magnitudes, -magnitudes, [np.nan, -np.nan]])


def test_ndtr_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    a = ndtr_inputs()
    expected = special.ndtr(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stats._ndtr(a, np.empty_like(a))
        # in place and two-dimensional, as the KS statistic calls it
        rows = a[: 2 * (len(a) // 2)].reshape(2, -1).copy()
        in_place = stats._ndtr(rows, out=rows)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    differ = got[~nan].view(np.uint64) != expected[~nan].view(np.uint64)
    assert not differ.any(), a[~nan][differ][:10]
    assert in_place is rows and np.array_equal(rows.ravel(), got[: rows.size], equal_nan=True)


# --- calibration tables ------------------------------------------------------------

# sha256 of _calibration_table(n, n_mc).tobytes(), made with numpy 2.4.6 and
# scipy 1.17.1 before the table build was blocked; every entry is pinned,
# including the partial last block of each build.
TABLE_DIGESTS = {
    (100, 2000): "aaed690985222c02418bcf8cf7b4445e34abc02c210dfc15643ca7b3efee294a",
    (300, 1000): "249db44ad17e3910d03581cfaf6260dae7fba34ca28131fbfd75e55336592062",
    (1000, 2000): "7bb03ae85fc5256c31505671bd93751ad1d7c19eca4bc079a188666e97b741b0",
    (4000, 2000): "762cb73b4f2972a447f1529b4f4c1aabde5fe97dabb135fb97ac2818835fc1ab",
    (10000, 2000): "983a6eb3e0d763a06eefd0d64acdea0f308b92294dfab2dfb8b051e3f5da99b7",
}


def table_digest(table):
    return hashlib.sha256(table.tobytes()).hexdigest()


@pytest.fixture
def cold_tables(monkeypatch, tmp_path):
    """An empty in-process table cache and an empty on-disk one."""
    monkeypatch.setattr(stats, "_null_tables", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


@pytest.mark.parametrize("n, n_mc", list(TABLE_DIGESTS))
def test_calibration_table_bytes(n, n_mc, cold_tables):
    assert table_digest(stats._calibration_table(n, n_mc)) == TABLE_DIGESTS[(n, n_mc)]


def _unpickled():
    raise AssertionError("a cached table was unpickled")


class _Bomb:
    def __reduce__(self):
        return (_unpickled, ())


def _no_full_build(monkeypatch):
    """Let only the one-replica check of a cached table draw."""
    build = stats._null_distances

    def checked(n, n_mc, count):
        assert count == 1, "the full table was built"
        return build(n, n_mc, count)

    monkeypatch.setattr(stats, "_null_distances", checked)


def test_calibration_table_disk_hit(cold_tables, monkeypatch):
    n, n_mc = 300, 1000
    stats._calibration_table(n, n_mc)
    path = stats._table_path(n, n_mc)
    assert path.startswith(str(cold_tables / "cache" / "qndsim"))
    with open(path, "rb") as handle:
        assert len(handle.read()) == 8 * n_mc + 128
    monkeypatch.setattr(stats, "_null_tables", {})
    _no_full_build(monkeypatch)
    table = stats._calibration_table(n, n_mc)
    assert table_digest(table) == TABLE_DIGESTS[(n, n_mc)]
    assert list(stats._null_tables) == [(n, n_mc)]


def test_relative_xdg_cache_home_falls_back_to_home(cold_tables, monkeypatch):
    # the XDG spec ignores a relative XDG_CACHE_HOME; so does the table cache
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(cold_tables))
    path = stats._table_path(300, 1000)
    assert path == str(cold_tables / ".cache" / "qndsim" / f"ks-300-1000-numpy{np.__version__}.npy")
    stats._calibration_table(300, 1000)
    assert os.path.isfile(path)


def _truncated(handle, good):
    np.save(handle, good)
    handle.truncate(128 + 8 * 500)


def _nan(handle, good):
    bad = good.copy()
    bad[5] = np.nan
    np.save(handle, bad)


def _one_ulp(handle, good):
    bad = good.copy()
    bad[0] = np.nextafter(bad[0], 1.0)
    np.save(handle, bad)


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncated,
        lambda handle, good: np.save(handle, good[:-1]),
        lambda handle, good: np.save(handle, good.astype(np.float32)),
        _nan,
        _one_ulp,
        lambda handle, good: np.save(handle, np.array([_Bomb()] * len(good)), allow_pickle=True),
    ],
    ids=["truncated", "wrong_shape", "float32", "nan", "entry0_one_ulp", "pickled_objects"],
)
def test_calibration_table_rejects_bad_file(corrupt, cold_tables, monkeypatch):
    n, n_mc = 300, 1000
    good = stats._calibration_table(n, n_mc).copy()
    path = stats._table_path(n, n_mc)
    with open(path, "wb") as handle:
        corrupt(handle, good)
    monkeypatch.setattr(stats, "_null_tables", {})
    assert table_digest(stats._calibration_table(n, n_mc)) == TABLE_DIGESTS[(n, n_mc)]
    # the bad file was replaced: a later lookup loads it without a full build
    monkeypatch.setattr(stats, "_null_tables", {})
    _no_full_build(monkeypatch)
    assert table_digest(stats._calibration_table(n, n_mc)) == TABLE_DIGESTS[(n, n_mc)]


@pytest.mark.parametrize("blocked", ["cache_below_a_file", "table_path_is_a_directory"])
def test_calibration_table_unwritable_cache(blocked, cold_tables, monkeypatch):
    n, n_mc = 300, 1000
    if blocked == "cache_below_a_file":
        (cold_tables / "file").write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cold_tables / "file" / "cache"))
    else:
        os.makedirs(stats._table_path(n, n_mc))
    assert table_digest(stats._calibration_table(n, n_mc)) == TABLE_DIGESTS[(n, n_mc)]
    assert list(cold_tables.rglob("*.tmp")) == []


# --- back-action heating ----------------------------------------------------------


def test_heating_slope_exact_line():
    sba = 5.272859085e-18
    trace = 6.9e-30 + sba**2 * np.arange(1, 26)
    assert abs(heating_slope(trace) - sba**2) <= 1e-9 * sba**2


def test_heating_slope_constant_sequence():
    assert abs(heating_slope(np.full(10, 4.2e-30))) <= 1e-12 * 4.2e-30


def test_heating_slope_needs_five_points():
    with pytest.raises(InsufficientDataError):
        heating_slope(np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heating_slope_rejects_a_trace_that_is_not_finite(bad):
    trace = np.full(10, 4.2e-30)
    trace[6] = bad
    with pytest.raises(ParameterError, match="must be finite"):
        heating_slope(trace)


def test_heating_slope_that_overflows_is_a_numerical_failure():
    # every point is finite, but the fit through 1.7e308 at the last two does not stay so
    trace = np.full(5, 4.2e-30)
    trace[3:] = 1.7e308
    with pytest.raises(NumericalFailureError, match="the v22 heating slope is not finite"):
        heating_slope(trace)


@pytest.mark.parametrize("trace", [
    # the products at either end overflow, to -inf and +inf
    np.array([1.7e308, 0.0, 0.0, 0.0, 1.7e308]),
    # every product and its error is finite, but their sum is not
    np.where(np.arange(40001) > 20000, 1e300, 0.0),
], ids=["inf-minus-inf", "sum-overflows"])
def test_heating_slope_whose_sum_leaves_the_double_range_is_a_numerical_failure(trace):
    with pytest.raises(NumericalFailureError, match="the v22 heating slope is not finite"):
        heating_slope(trace)


def exact_slope(trace):
    """The least-squares slope of ``trace`` in exact rationals."""
    n = len(trace)
    numerator = sum(Fraction(2 * i - (n - 1), 2) * Fraction(y) for i, y in enumerate(trace.tolist()))
    return numerator / Fraction(n * (n * n - 1), 12)


def ulps_from(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def random_traces():
    rng = np.random.default_rng(20261022)
    for k in range(60):
        n = int(rng.integers(5, 601))
        if k % 2:
            yield 1e-30 * (1.0 + rng.standard_normal(n))
        else:  # a small slope on a large constant: polyfit's cancellation
            yield 7.3e-30 + 1e-44 * rng.standard_normal(n) + 1e-46 * np.arange(n)


@pytest.mark.parametrize("trace", random_traces())
def test_heating_slope_is_within_two_ulp_of_the_exact_slope(trace):
    assert ulps_from(heating_slope(trace), exact_slope(trace)) <= 2


@pytest.mark.parametrize("trace", random_traces())
def test_heating_slope_of_a_reversed_trace_is_negated_exactly(trace):
    assert heating_slope(trace[::-1]) == -heating_slope(trace)


def test_heating_slope_of_the_default_qnd_x2_plan_is_within_two_ulp():
    trace = ensemble._setup(replace(default_config(), meter_kind="qnd_x2")).steps["post_v22"]
    assert ulps_from(heating_slope(trace), exact_slope(trace)) <= 2


def test_heating_slope_simulated_schedule(rng):
    params = OscillatorParams(M, W1, 1e12, 1e-12)
    meter = MeterSpec("qnd_x1", 1e-18)
    sba = backaction_sigma(meter, params)
    n_traj, n_meas = 100, 30
    trace = np.zeros(n_meas)
    for _ in range(n_traj):
        state = GaussianQuadState(0.0, 0.0, 6.903245e-30, 6.903245e-30, 0.0)
        records, _ = run_schedule(state, meter, "orthodox", params, 1e-2, n_meas, rng)
        trace += [r.post_v22 for r in records]
    assert abs(heating_slope(trace / n_traj) - sba**2) <= 0.1 * sba**2


# --- energy histogram ---------------------------------------------------------------


def test_histogram_counts_and_shape(params):
    series = thermal_series(5000, seed=21)
    hist = energy_histogram(series, params, 12)
    assert hist.counts.sum() == 5000
    assert len(hist.bin_edges) == 13
    assert np.all(hist.counts >= 0)
    assert np.all(np.diff(hist.model_density) < 0)  # Gamma(1/2) tail is monotone
    assert np.all(np.isfinite(hist.model_density))


def test_histogram_model_matches_gamma_half(params):
    series = thermal_series(20000, seed=22)
    hist = energy_histogram(series, params, 10)
    theta = KB * estimate_t1(series, params).t1_hat
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    expected = np.exp(-centers / theta) / np.sqrt(math.pi * theta * centers)
    assert np.allclose(hist.model_density, expected, rtol=1e-12)
    # observed counts track the integrated Gamma(1/2, theta) mass per bin
    cdf = [math.erf(math.sqrt(max(e, 0.0) / theta)) for e in hist.bin_edges]
    predicted = len(series) * np.diff(cdf)
    observed = hist.counts.astype(float)
    for k in range(len(observed)):
        assert abs(observed[k] - predicted[k]) <= 6 * math.sqrt(max(predicted[k], 1.0)) + 3.0


def test_histogram_empty_bins_allowed(params):
    values = np.concatenate([np.full(50, 1e-16), np.full(50, 1e-15), [3e-15]])
    series = SampleSeries(values)
    hist = energy_histogram(series, params, 40)
    assert hist.counts.sum() == len(values)
    assert (hist.counts == 0).any()


def test_histogram_bin_contract(params):
    with pytest.raises(ParameterError):
        energy_histogram(thermal_series(200, seed=1), params, 4)


def test_histogram_has_at_most_one_bin_per_sample(params):
    series = thermal_series(200, seed=1)
    assert energy_histogram(series, params, 200).counts.sum() == 200
    for n_bins in (201, 10_000_000):
        with pytest.raises(ParameterError, match="one bin per sample"):
            energy_histogram(series, params, n_bins)


# --- series validation ----------------------------------------------------------------


def test_series_validation():
    with pytest.raises(ParameterError):
        SampleSeries(np.array([1.0, math.nan]))
    with pytest.raises(ParameterError):
        SampleSeries(np.ones((2, 2)))
