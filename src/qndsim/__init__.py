"""Stroboscopic back-action-evading measurement of a thermally coupled
oscillator: quadrature algebra, exact thermal dynamics, Gaussian meters,
noise budgets, and Boltzmann-deviation statistics."""

from .budget import (
    BudgetInputs,
    BudgetReport,
    budget_report,
    budget_sweep,
    eta1,
    eta2,
    zero_point_displacement,
)
from .config import RunConfig, default_config, format_config, load_config, parse_config
from .constants import HBAR, KB
from .dynamics import (
    EnergyReport,
    GaussianQuadState,
    energy_of,
    free_evolve,
    stationary_variance,
    thermal_step,
    zero_point_variance,
)
from .ensemble import RunSummary, run_ensemble, trajectory_rng
from .errors import (
    ConfigError,
    DegenerateSeriesError,
    InsufficientDataError,
    NumericalFailureError,
    ParameterError,
    StateDomainError,
)
from .measurement import (
    CollapsePolicy,
    MeasurementRecord,
    MeterSpec,
    backaction_sigma,
    measure,
    measurement_direction,
    run_schedule,
)
from .observables import (
    LinearObservable,
    OscillatorParams,
    QndVerdict,
    commutator_symplectic,
    heisenberg_evolve,
    is_interaction_qnd,
    is_qnd_sequence,
    phase_point_of,
    quadrature_observable,
    quadratures_of,
    resolve_observable,
)
from .stats import (
    BoltzmannFit,
    EnergyHistogram,
    GofReport,
    SampleSeries,
    boltzmann_verdict,
    energy_histogram,
    estimate_t1,
    gof_boltzmann,
    heating_slope,
)

__version__ = "0.1.0"
