"""Stroboscopic back-action-evading measurement of a thermally coupled
oscillator: quadrature algebra, exact thermal dynamics, Gaussian meters,
noise budgets, and Boltzmann-deviation statistics.

The public names below are imported from their modules on first use
(PEP 562), so that ``import qndsim`` costs nothing a caller does not use.
"""

from importlib import import_module

# module -> the public names it provides
_EXPORTS = {
    "budget": ("BudgetInputs", "budget_figures", "eta1", "eta2"),
    "config": ("RunConfig", "default_config", "format_config", "load_config", "parse_config"),
    "constants": ("HBAR", "KB"),
    "dynamics": (
        "GaussianQuadState",
        "stationary_variance",
        "thermal_step",
        "zero_point_variance",
    ),
    "ensemble": ("RunSummary", "run_ensemble", "run_ensembles", "trajectory_rng"),
    "errors": (
        "ConfigError",
        "DegenerateSeriesError",
        "InsufficientDataError",
        "NumericalFailureError",
        "ParameterError",
        "StateDomainError",
    ),
    "measurement": (
        "MeasurementRecord",
        "backaction_sigma",
        "measure",
        "run_schedule",
    ),
    "observables": ("MeterSpec", "OscillatorParams", "QndVerdict", "is_qnd_sequence", "measurement_direction"),
    "stats": (
        "BoltzmannFit",
        "EnergyHistogram",
        "SampleSeries",
        "boltzmann_verdict",
        "energy_histogram",
        "estimate_t1",
        "gof_boltzmann",
        "heating_slope",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
