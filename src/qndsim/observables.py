"""The oscillator's reads, and the run's vocabularies and parameter records.

The stroboscopically monitored quadratures are the rotating-frame amplitudes

    X1 + i X2 = (x + i p / m w1) exp(i w1 t),

constants of the free motion, with [X1, X2] = i hbar / (m w1).  Every read is
a projection u . (X1, X2) onto a unit direction u = (cos a, sin a), turned a
quarter for some: the amplitudes X1 and X2 at the angle a = 0, and position
x = X1 cos w1 t + X2 sin w1 t and momentum p / m w1, valued in meters like
everything else, at a = w1 t.  ``READS`` gives each read's two flags and
``measurement_direction`` its u: the one read direction of the engine's
meters and of the QND check.  Two reads commute up to

    [u . X, v . X] = (i hbar / m w1) (u1 v2 - u2 v1),

so a schedule is QND exactly when its read directions agree up to sign
(Thorne et al. 1978): X1 read at any times is, position only at times a
multiple of pi / w1 apart.

The module also declares the run's vocabularies, the bath models, meter
kinds and collapse policies, and its parameter records, ``OscillatorParams``
and ``MeterSpec``.  It imports no numpy, so the run config, which is checked
against them, loads without the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailureError, ParameterError, require_finite, require_nonzero, require_positive

#: Bath models of OscillatorParams and the run config.
BATH_MODELS = ("classical", "quantum")

#: Meter kinds of MeterSpec and the run config.
METER_KINDS = ("qnd_x1", "qnd_x2", "position")

#: Collapse policies of ``measurement`` and the run config: the orthodox
#: Kalman update, and the no-collapse foil.
COLLAPSE_POLICIES = ("orthodox", "no_conditioning")

#: Default QND tolerance, relative to the natural commutator scale 1/(m w1).
QND_TOL = 1e-9

#: Reads checked by ``is_qnd_sequence``: the amplitudes, position, and p / m w1.
OBSERVABLE_KINDS = ("x1", "x2", "x", "p")

#: Each read, a meter kind or a QND-check name, by its two flags: whether its
#: direction is turned a quarter, and whether it turns with w1 t.
READS = {
    "qnd_x1": (False, False),
    "qnd_x2": (True, False),
    "position": (False, True),
    "x1": (False, False),
    "x2": (True, False),
    "x": (False, True),
    "p": (True, True),
}


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
        so does an m w1^2 that overflows, or underflows to 0, which would
        divide unnamed."""
        try:
            stiffness = self.mass * self.omega1**2
        except OverflowError:
            raise NumericalFailureError(f"the stiffness m omega1^2 is not finite at omega1={self.omega1!r}") from None
        name = "the stiffness m omega1^2"
        return require_finite(name, require_nonzero(name, stiffness, mass=self.mass, omega1=self.omega1))


@dataclass(frozen=True)
class MeterSpec:
    """What is measured and how well: meter kind and readout noise sigma_m [m]."""

    kind: str
    sigma_m: float

    def __post_init__(self) -> None:
        if self.kind not in METER_KINDS:
            raise ParameterError(f"unknown meter kind {self.kind!r}; expected one of {METER_KINDS}")
        require_positive("sigma_m", self.sigma_m)


def measurement_direction(kind: str, t: float, params: OscillatorParams) -> tuple[float, float]:
    """Unit read direction in the (X1, X2) plane of the read ``kind`` at time
    t, by its flags in ``READS``: (cos, sin) of its angle, turned a quarter to
    (-sin, cos) for qnd_x2, x2 and p.  The angle is w1 t for a read that turns
    and 0 t for one that does not; one that is not finite (t, or w1 t, past
    the double range) raises NumericalFailureError."""
    if kind not in READS:
        raise ParameterError(f"unknown meter kind {kind!r}")
    quarter, turns = READS[kind]
    angle = (params.omega1 if turns else 0.0) * t
    if not math.isfinite(angle):
        raise NumericalFailureError(f"the read angle is not finite at t={t!r}")
    c, s = math.cos(angle), math.sin(angle)
    return (-s, c) if quarter else (c, s)


@dataclass(frozen=True)
class QndVerdict:
    """Outcome of a QND self-commutation check over a measurement schedule."""

    is_qnd: bool
    max_violation: float  # largest |u_j x u_k| / (m w1), s/kg


def is_qnd_sequence(
    obs: str,
    times: list[float] | tuple[float, ...],
    params: OscillatorParams,
    tol: float = QND_TOL,
) -> QndVerdict:
    """Check self-commutation of the read ``obs`` across all measurement-time
    pairs: the largest |u_j x u_k| over the pairs of its read directions, the
    commutator in units of i hbar / (m w1), must stay within tol.  The
    verdict reports it times 1 / (m w1), the commutator over i hbar.
    """
    if len(times) < 2:
        raise ParameterError("a QND sequence needs at least 2 measurement times")
    # checked here, before any time reaches math.cos: omega1 * t must be finite too
    for t in times:
        if not math.isfinite(params.omega1 * t):
            raise ParameterError(f"measurement times must be finite, with omega1 * t finite, got {t!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be finite and >= 0, got {tol!r}")
    # the reported violation divides by it
    m_omega1 = require_nonzero("m omega1", params.mass * params.omega1, mass=params.mass, omega1=params.omega1)
    if not math.isfinite(m_omega1):
        raise ParameterError(f"m omega1 must be finite, got {m_omega1!r}")
    reads = [measurement_direction(obs, t, params) for t in times]
    worst = max(abs(u1 * v2 - u2 * v1) for j, (u1, u2) in enumerate(reads) for v1, v2 in reads[j + 1:])
    return QndVerdict(worst <= tol, worst / m_omega1)
