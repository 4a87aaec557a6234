"""Linear-observable algebra on the oscillator phase space.

A first-degree observable O = c_x * x + c_p * p is stored by its coefficient
pair (c_x dimensionless, c_p in s/kg), so the value of O is always a length.
Free harmonic evolution acts linearly on the coefficients,

    x(t) = x cos(w1 t) + (p / m w1) sin(w1 t),
    p(t) = p cos(w1 t) - m w1 x sin(w1 t),

and the commutator of two such observables is a multiple of the identity,

    [A, B] = i hbar (A.c_x B.c_p - A.c_p B.c_x),

so QND classification only ever needs the real symplectic factor computed by
``commutator_symplectic``; the i*hbar is factored out once and for all.

The stroboscopically monitored quadratures are the rotating-frame amplitudes

    X1(t) = x cos(w1 t) - (p / m w1) sin(w1 t),
    X2(t) = x sin(w1 t) + (p / m w1) cos(w1 t),

i.e. real and imaginary part of (x + i p / m w1) exp(i w1 t).  Measuring "X1"
at lab time t means measuring the time-t member of this co-rotating family;
evolving that member back with the free motion always lands on the fixed pair
(1, 0), which is why the amplitudes commute with themselves across arbitrary
measurement times while plain position does not.

The module also declares the run's vocabularies, the bath models, meter
kinds and collapse policies, and its parameter records, ``OscillatorParams``
and ``MeterSpec``.  It imports no numpy, so the run config, which is checked
against them, loads without the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailureError, ParameterError, require_nonzero, require_positive

#: Bath models of OscillatorParams and the run config.
BATH_MODELS = ("classical", "quantum")

#: Meter kinds of MeterSpec and the run config; ``measurement`` gives each
#: its read direction.
METER_KINDS = ("qnd_x1", "qnd_x2", "position")

#: Collapse policies of ``measurement`` and the run config: the orthodox
#: Kalman update, and the no-collapse foil.
COLLAPSE_POLICIES = ("orthodox", "no_conditioning")

#: Default QND tolerance, relative to the natural commutator scale 1/(m w1).
QND_TOL = 1e-9

#: Observable kinds resolvable by name.
OBSERVABLE_KINDS = ("x1", "x2", "x", "p")


@dataclass(frozen=True)
class OscillatorParams:
    """Mechanical oscillator and bath.

    mass [kg], angular frequency omega1 [rad/s], energy relaxation time
    tau1 [s] (amplitudes relax with 2*tau1), bath temperature [K], and the
    bath model ("classical" flat equipartition or "quantum" coth floor).
    """

    mass: float
    omega1: float
    tau1: float
    temperature: float
    bath_model: str = "classical"

    def __post_init__(self) -> None:
        for name in ("mass", "omega1", "tau1", "temperature"):
            require_positive(name, getattr(self, name))
        if self.bath_model not in BATH_MODELS:
            raise ParameterError(f"unknown bath_model {self.bath_model!r}")

    @property
    def stiffness(self) -> float:
        """m w1^2, in N/m.  A w1^2 past the double range raises
        NumericalFailureError, where a float's power raises OverflowError, and
        so does an m w1^2 that underflows to 0, which would divide unnamed."""
        try:
            stiffness = self.mass * self.omega1**2
        except OverflowError:
            raise NumericalFailureError(f"the stiffness m omega1^2 is not finite at omega1={self.omega1!r}") from None
        return require_nonzero("the stiffness m omega1^2", stiffness, mass=self.mass, omega1=self.omega1)


@dataclass(frozen=True)
class MeterSpec:
    """What is measured and how well: meter kind and readout noise sigma_m [m]."""

    kind: str
    sigma_m: float

    def __post_init__(self) -> None:
        if self.kind not in METER_KINDS:
            raise ParameterError(f"unknown meter kind {self.kind!r}; expected one of {METER_KINDS}")
        require_positive("sigma_m", self.sigma_m)


@dataclass(frozen=True)
class LinearObservable:
    """Phase-space observable c_x * x + c_p * p, valued in meters.

    c_x is dimensionless, c_p carries s/kg.
    """

    c_x: float
    c_p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_x) and math.isfinite(self.c_p)):
            raise ParameterError("observable coefficients must be finite")
        if self.c_x == 0.0 and self.c_p == 0.0:
            raise ParameterError("observable coefficients must not both vanish")


def quadrature_observable(kind: str, t: float, params: OscillatorParams) -> LinearObservable:
    """Time-t representation of the co-rotating amplitude X1 or X2."""
    w = params.omega1
    c = math.cos(w * t)
    s = math.sin(w * t)
    inv = 1.0 / (params.mass * w)
    if kind == "x1":
        return LinearObservable(c, -s * inv)
    if kind == "x2":
        return LinearObservable(s, c * inv)
    raise ParameterError(f"unknown quadrature kind {kind!r}")


def resolve_observable(obs: LinearObservable | str, t: float, params: OscillatorParams) -> LinearObservable:
    """Concrete observable measured at lab time t.

    A LinearObservable is a fixed lab-frame observable: the same coefficient
    pair at every time.  The names "x1"/"x2" denote the co-rotating amplitude
    families whose representation depends on the measurement time; "x" and "p"
    are the fixed position and (meters-valued) momentum quadrature.
    """
    if isinstance(obs, LinearObservable):
        return obs
    if obs == "x":
        return LinearObservable(1.0, 0.0)
    if obs == "p":  # p / (m w1), valued in meters like everything else
        return LinearObservable(0.0, 1.0 / (params.mass * params.omega1))
    if obs in ("x1", "x2"):
        return quadrature_observable(obs, t, params)
    raise ParameterError(f"unknown observable {obs!r}; expected one of {OBSERVABLE_KINDS}")


def heisenberg_evolve(obs: LinearObservable, t: float, params: OscillatorParams) -> LinearObservable:
    """Re-express c_x x + c_p p after free evolution by t in initial-time operators."""
    if not math.isfinite(t):
        raise ParameterError(f"evolution time must be finite, got {t!r}")
    w = params.omega1
    c = math.cos(w * t)
    s = math.sin(w * t)
    mw = params.mass * w
    return LinearObservable(obs.c_x * c - obs.c_p * mw * s, obs.c_x * s / mw + obs.c_p * c)


def commutator_symplectic(a: LinearObservable, b: LinearObservable) -> float:
    """Symplectic form of the coefficient vectors; [A, B] = i hbar * this value.

    Antisymmetric and bilinear; units s/kg, so hbar times it is an area (m^2).
    """
    return a.c_x * b.c_p - a.c_p * b.c_x


@dataclass(frozen=True)
class QndVerdict:
    """Outcome of a QND self-commutation check over a measurement schedule."""

    is_qnd: bool
    max_violation: float  # |symplectic commutator|, s/kg


def is_qnd_sequence(
    obs: LinearObservable | str,
    times: list[float] | tuple[float, ...],
    params: OscillatorParams,
    tol: float = QND_TOL,
) -> QndVerdict:
    """Check self-commutation of an observable across all measurement-time pairs.

    The observable measured at t_i is resolved at t_i and pulled back to
    initial time with the Heisenberg evolution; the schedule is QND when every
    pairwise symplectic commutator stays below tol/(m w1) in magnitude.
    """
    if len(times) < 2:
        raise ParameterError("a QND sequence needs at least 2 measurement times")
    # checked here, before any time reaches math.cos: omega1 * t must be finite too
    for t in times:
        if not math.isfinite(params.omega1 * t):
            raise ParameterError(f"measurement times must be finite, with omega1 * t finite, got {t!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be finite and >= 0, got {tol!r}")
    # the quadratures, their evolution and the bound all divide by it
    m_omega1 = require_nonzero("m omega1", params.mass * params.omega1, mass=params.mass, omega1=params.omega1)
    evolved = [heisenberg_evolve(resolve_observable(obs, t, params), t, params) for t in times]
    worst = 0.0
    for i in range(len(evolved)):
        for j in range(i + 1, len(evolved)):
            worst = max(worst, abs(commutator_symplectic(evolved[i], evolved[j])))
    return QndVerdict(worst <= tol / m_omega1, worst)
