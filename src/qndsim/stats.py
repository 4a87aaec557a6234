"""Detector statistics for the monitored quadrature.

``estimate_t1`` maps the sample variance of an X1 ensemble to an effective
temperature through equipartition, m w1^2 Var[X1] = kB T1, with the standard
error from the chi-squared sampling law of the variance.

``gof_boltzmann`` tests the thermal law and returns its p-value.  The tested
density is proportional to exp(-m w1^2 X1^2 / 2 kB T1) PER UNIT X1, i.e. a
zero-mean Gaussian in X1; over the energy E1 = m w1^2 X1^2 / 2 the same law
is Gamma(1/2, kB T1), so fitting a plain exponential to E1 values would
wrongly reject the true model.  The test statistic is the Kolmogorov-Smirnov
distance between the empirical CDF and N(0, sigma_hat^2) with sigma_hat
estimated from the same sample, and the p-value comes from Monte Carlo
recalibration in the style of Lilliefors: ``N_MC`` = 2000 replicas are drawn
from the fitted null, the scale re-estimated per replica, and the observed
distance ranked in the replica table.  The normal CDF is a numpy port of
Cephes ``ndtr`` that equals ``scipy.special.ndtr`` bit for bit, so the
package needs numpy only.  The statistic is scale-pivotal (D(c x) = D(x)),
so one table per sample size n serves every series.  Tables are seeded
deterministically and cached twice: in memory for the life of the process
(16 KB per distinct n, never evicted), and on disk in
``$XDG_CACHE_HOME/qndsim`` (``~/.cache/qndsim`` when unset), one ``.npy``
file per n and numpy version.  A file is used only if it holds float64 of
shape (N_MC,), finite and in (0, 1], whose entry 0 equals a fresh
one-replica build; anything else is rebuilt and replaced.  A cache that
cannot be read or written is skipped, so the cache never changes a result.

``heating_slope`` quantifies back-action on the demolished quadrature as the
least-squares growth rate of v22 versus measurement count.  It is an exact
closed-form sum, with no BLAS or LAPACK routine, so its bytes are the same
on any CPU.

``boltzmann_verdict`` flags a run when the KS test rejects or when the
temperature pull exceeds 5.  Against linear-Gaussian alternatives, such as
the two foils (``no_conditioning`` and the position meter), the pull
carries the test: their X1 law stays a zero-mean Gaussian whose variance
alone grows, and the KS statistic is scale-pivotal, so it has no power
there beyond its false-alarm rate.  On 2 000 x 25 runs, 40 seeds per
point, nearly every foil flag came from the pull, and KS rejected 4 of the
320 foil runs, about its false-alarm rate.  The KS leg stays as the guard
of the shape: an anomaly that bends the law at the bath's temperature
leaves the pull near 0, and only KS can see it.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .constants import KB
from .errors import DegenerateSeriesError, InsufficientDataError, ParameterError, require_finite
from .observables import OscillatorParams

#: Replicas in a KS null table.
N_MC = 2000

#: Stream key for the deterministic calibration tables ("ks_lilli" in hex).
_TABLE_STREAM_KEY = 0x6B735F6C696C6C69

#: Normals drawn per block of a table build.
_BLOCK_VALUES = 1 << 16

#: Veltkamp's constant 2**27 + 1: splits a double into two 26-bit halves.
_SPLIT = 134217729.0

_null_tables: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True)
class SampleSeries:
    """Ensemble of quadrature samples (meters) at a fixed protocol point."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ParameterError("sample series must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ParameterError("sample series must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BoltzmannFit:
    """Effective temperature of one quadrature, with its standard error."""

    t1_hat: float  # K
    stderr: float  # K


@dataclass(frozen=True)
class EnergyHistogram:
    """Histogram of single-quadrature energies with the fitted model density."""

    bin_edges: np.ndarray  # J, length n_bins + 1
    counts: np.ndarray
    model_density: np.ndarray  # 1/J, at bin centers


def _usable_variance(values: np.ndarray) -> float:
    """Sample variance, rejecting series that are constant to rounding; one
    that overflows raises NumericalFailureError.  The bound is squared as a
    numpy scalar, by the C pow a float uses, which past the double range
    gives inf where a float raises OverflowError."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named, not warned of
        variance = require_finite("the sample variance", float(np.var(values, ddof=1)))
        if variance <= (1e-15 * np.max(np.abs(values))) ** 2:
            raise DegenerateSeriesError("series carries no resolvable variation")
    return variance


def estimate_t1(series: SampleSeries, params: OscillatorParams) -> BoltzmannFit:
    """Effective temperature from equipartition of a zero-mean ensemble; one
    that overflows raises NumericalFailureError."""
    n = len(series)
    if n < 30:
        raise InsufficientDataError(f"need >= 30 samples to estimate T1, got {n}")
    variance = _usable_variance(series.values)
    t1 = require_finite("the T1 estimate", params.stiffness * variance / KB)
    return BoltzmannFit(t1_hat=t1, stderr=t1 * math.sqrt(2.0 / (n - 1)))


# Cephes ndtr, erf and erfc (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the code behind scipy.special.ndtr.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc underflows to 0 past exp(-MAXLOG)
# erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8, with R / S from 8 on; Q, S
# and U lead with the 1 that Cephes leaves implicit (its p1evl)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(w) = w T(w^2) / U(w^2) for |w| <= 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Horner's rule, one rounded multiply and one rounded add per step."""
    y = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _half_erfc(z: np.ndarray) -> np.ndarray:
    """erfc(z) / 2 for z >= 1 (one-dimensional)."""
    with np.errstate(over="ignore"):  # z * z is inf from 1.3e154 on, past the cut anyway
        zz = z * z
    half = np.zeros_like(z)
    kept = zz <= _MAXLOG
    z = z[kept]
    # libm's exp, as the C code calls it: numpy's vectorised exp differs in the last bit
    e = np.fromiter(map(math.exp, np.negative(zz[kept]).tolist()), np.float64, len(z))
    low = z < 8.0
    p = np.where(low, _polevl(z, _ERFC_P), _polevl(z, _ERFC_R))
    q = np.where(low, _polevl(z, _ERFC_Q), _polevl(z, _ERFC_S))
    half[kept] = 0.5 * (e * p / q)
    return half


def _ndtr(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normal CDF of ``a``, written to ``out`` (which may be ``a``).

    Cephes' coefficients, branch points and order of operations, so the
    result equals scipy.special.ndtr bit for bit: 0.5 + erf(x)/2 for
    |x| < 1/sqrt(2), else erfc(|x|)/2 reflected for x > 0, with x = a/sqrt(2).
    NaN stays NaN and no input warns."""
    x = a * _SQRT1_2
    z = np.abs(x)
    # the clip keeps |x| > 1, where erf is not used, finite
    erf = np.clip(x, -1.0, 1.0)
    ww = erf * erf
    erf *= _polevl(ww, _ERF_T)
    erf /= _polevl(ww, _ERF_U)
    # out = erfc(|x|) / 2: 1 - erf(|x|) below 1, where erf(|x|) = |erf(x)| exactly
    np.subtract(1.0, np.abs(erf, out=ww), out=out)
    out *= 0.5
    far = z >= 1.0
    out[far] = _half_erfc(z[far])
    np.subtract(1.0, out, out=out, where=x > 0.0)
    erf *= 0.5
    erf += 0.5
    np.copyto(out, erf, where=z < _SQRT1_2)
    return out


def _ks_rows(sorted_rows: np.ndarray, sigmas: np.ndarray, work: np.ndarray) -> np.ndarray:
    """KS distance of each row (pre-sorted) against N(0, sigma^2).

    Overwrites ``sorted_rows`` and ``work``, which has the same shape."""
    n = sorted_rows.shape[1]
    cdf = _ndtr(np.divide(sorted_rows, sigmas[:, None], out=work), out=work)
    below = np.subtract(cdf, np.arange(n) / n, out=sorted_rows).max(axis=1)
    above = np.subtract(np.arange(1, n + 1) / n, cdf, out=cdf).max(axis=1)
    return np.maximum(below, above)


def _null_distances(n: int, n_mc: int, count: int) -> np.ndarray:
    """The first ``count`` entries of the (n, n_mc) null table, scale refit
    per replica, drawn in blocks of at most _BLOCK_VALUES normals (one row
    when n is larger)."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([_TABLE_STREAM_KEY, (n << 21) ^ n_mc], dtype=np.uint64))
    )
    table = np.empty(count)
    rows = max(1, min(count, _BLOCK_VALUES // n))
    z = np.empty((rows, n))
    work = np.empty((rows, n))
    for start in range(0, count, rows):
        m = min(rows, count - start)
        block = rng.standard_normal(out=z[:m])
        sig = np.sqrt(block.var(axis=1, ddof=1))
        block.sort(axis=1)
        table[start : start + m] = _ks_rows(block, sig, work[:m])
    return table


def _table_path(n: int, n_mc: int) -> str:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    name = f"ks-{n}-{n_mc}-numpy{np.__version__}.npy"
    return os.path.join(root, "qndsim", name)


def _load_table(path: str, n: int, n_mc: int) -> np.ndarray | None:
    """The table stored at ``path`` if it passes every check, else None.

    Entry 0 is rebuilt (one replica) and compared, which ties the file to this
    code's stream key, statistic and ndtr."""
    try:
        with open(path, "rb") as handle:
            # the .npy format only: np.load would also open zip archives
            table = np.lib.format.read_array(handle, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if (
        table.dtype != np.float64
        or table.shape != (n_mc,)
        or not np.all((table > 0.0) & (table <= 1.0))
        or table[0] != _null_distances(n, n_mc, 1)[0]
    ):
        return None
    return table


def _store_table(path: str, table: np.ndarray) -> None:
    """Write ``table`` to ``path`` atomically; give up silently on OSError.

    No fsync: a file cut short by a crash fails the checks of _load_table."""
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                np.lib.format.write_array(handle, table, allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError:
        pass


def _calibration_table(n: int, n_mc: int) -> np.ndarray:
    """Null distances for sample size n, scale refit per replica; cached in
    memory and on disk."""
    key = (n, n_mc)
    table = _null_tables.get(key)
    if table is None:
        path = _table_path(n, n_mc)
        table = _load_table(path, n, n_mc)
        if table is None:
            table = _null_distances(n, n_mc, n_mc)
            _store_table(path, table)
        _null_tables[key] = table
    return table


def gof_boltzmann(series: SampleSeries) -> float:
    """p-value of the Monte-Carlo-calibrated KS test of the thermal law on an
    X ensemble."""
    n = len(series)
    if n < 100:
        raise InsufficientDataError(f"need >= 100 samples for the fit test, got {n}")
    variance = _usable_variance(series.values)
    observed = np.sort(series.values)[None, :]
    d_obs = float(_ks_rows(observed, np.array([math.sqrt(variance)]), np.empty_like(observed))[0])
    table = _calibration_table(n, N_MC)
    return (1 + int(np.count_nonzero(table >= d_obs))) / (N_MC + 1)


def boltzmann_verdict(p_value: float, t1_hat: float, t1_stderr: float, temperature: float, alpha: float):
    """(deviation, pull) against a bath at ``temperature``, where the pull is
    (t1_hat - temperature) / t1_stderr.  A run deviates when the fit test
    rejects at level ``alpha`` or when the pull exceeds 5: a heated ensemble
    can stay Gaussian, which the fit test alone cannot see."""
    pull = (t1_hat - temperature) / t1_stderr
    return p_value < alpha or pull > 5.0, pull


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: (head, tail) with head + tail == a exactly and 26
    significant bits each, unless a * _SPLIT overflows (then nan)."""
    t = a * _SPLIT
    head = t - (t - a)
    return head, a - head


def heating_slope(var_x2_by_step) -> float:
    """Least-squares growth of v22 per measurement; one that overflows
    raises NumericalFailureError.

    Over the centred step index c_i = i - (n - 1)/2 the slope is
    sum(c_i y_i) / (n (n^2 - 1) / 12).  Each product c_i y_i comes with its
    rounding error, from Dekker's two-product on Veltkamp halves (Dekker
    1971), and one ``math.fsum`` adds them all exactly, so the numerator is
    correctly rounded in any order of the steps and the slope lies within
    2 ulp of the exact one.  No BLAS or LAPACK routine runs: the bytes are
    the same on any CPU."""
    trace = np.asarray(var_x2_by_step, dtype=np.float64)
    if trace.ndim != 1 or len(trace) < 5:
        raise InsufficientDataError(f"need >= 5 variance points, got shape {trace.shape}")
    if not np.isfinite(trace).all():
        raise ParameterError("the v22 trace must be finite")
    n = len(trace)
    c = np.arange(n) - (n - 1) / 2
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in inf or nan, which is named
        products = c * trace
        c_head, c_tail = _halves(c)
        y_head, y_tail = _halves(trace)
        errors = c_head * y_head - products + c_head * y_tail + c_tail * y_head + c_tail * y_tail
    try:
        numerator = math.fsum(products.tolist() + errors.tolist())
    except (OverflowError, ValueError):  # inf - inf among the terms, or a partial sum past the double range
        numerator = math.nan
    return require_finite("the v22 heating slope", numerator / (n * (n * n - 1) / 12))


def energy_histogram(series: SampleSeries, params: OscillatorParams, n_bins: int) -> EnergyHistogram:
    """Histogram of E = (1/2) m w1^2 X^2 with the Gamma(1/2, kB T1) overlay.

    At most one bin per sample, so that the histogram's size is bounded by
    its input's."""
    if n_bins < 5:
        raise ParameterError(f"need >= 5 bins, got {n_bins}")
    if n_bins > len(series):
        raise ParameterError(f"need at most one bin per sample ({len(series)}), got {n_bins}")
    fit = estimate_t1(series, params)
    energies = 0.5 * params.mass * params.omega1**2 * series.values**2
    counts, edges = np.histogram(energies, bins=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    theta = KB * fit.t1_hat
    # Gamma(1/2, theta): E^{-1/2} exp(-E/theta) / (sqrt(pi theta))
    density = np.exp(-centers / theta) / np.sqrt(math.pi * theta * centers)
    return EnergyHistogram(bin_edges=edges, counts=counts, model_density=density)
