import math

import pytest

from qndsim import HBAR, KB, BudgetInputs, ParameterError, budget_figures, eta1, eta2
from qndsim.cli import main


def paper_point(**overrides):
    base = dict(
        temperature=0.05, omega1=1e4, tau1=1e4, omega2=1e8, tau2=1.0,
        dt=1e-2, amplifier_quanta=1.0, mass=1e-3,
    )
    base.update(overrides)
    return BudgetInputs(**base)


def test_eta1_reference_point():
    value = eta1(paper_point())
    assert math.isclose(value, 0.654601696036032, rel_tol=1e-12)
    assert abs(value - 0.6546) <= 0.001 * 0.6546


def test_eta1_upper_corner():
    assert math.isclose(eta1(paper_point(temperature=0.1, tau1=1e3)), 13.092033920720642, rel_tol=1e-12)


def test_eta1_vanishes_with_dt():
    assert eta1(paper_point(dt=1e-30)) < 1e-25


def test_eta2_reference_point():
    value = eta2(paper_point())
    assert math.isclose(value, 0.654601696036032, rel_tol=1e-12)


def test_eta2_other_corner():
    assert math.isclose(eta2(paper_point(temperature=0.1, omega2=1e7)), 13.092033920720642, rel_tol=1e-12)


def test_eta2_lossless_limit():
    assert eta2(paper_point(tau2=1e30)) < 1e-25


def x_zp(mass):
    return budget_figures(paper_point(mass=mass))["x_zp_m"]


def test_zero_point_displacement_values():
    assert math.isclose(x_zp(1e-3), 3.247417153677673e-18, rel_tol=1e-12)
    assert math.isclose(x_zp(1e-6), 1.026923471832249e-16, rel_tol=1e-12)


def test_zero_point_quadrupled_mass_halves():
    assert math.isclose(x_zp(4e-3), 0.5 * x_zp(1e-3), rel_tol=1e-15)


@pytest.mark.parametrize("mass, omega1", [(1e300, 1e4), (1e305, 1e4), (1e-300, 1e-30)])
def test_zero_point_displacement_where_its_quotient_leaves_the_double_range(mass, omega1):
    # hbar / (mass omega1) underflows (about 1e-338 and 1e-343) or overflows (1e296)
    expected = math.sqrt(HBAR / omega1) / math.sqrt(mass)
    assert math.isclose(budget_figures(paper_point(mass=mass, omega1=omega1))["x_zp_m"], expected, rel_tol=1e-15)


def test_thermal_energy_drift_does_not_depend_on_omega1():
    # eta1 hbar omega1 = kB T dt / tau1; eta1 hbar underflows at omega1 = 1e300
    for omega1 in (1e4, 1e300):
        figures = budget_figures(paper_point(omega1=omega1))
        assert math.isclose(figures["delta_e_br_J"], 6.903245e-31, rel_tol=1e-15)


def test_eta1_linear_in_temperature_exactly():
    assert eta1(paper_point(temperature=0.1)) == 2.0 * eta1(paper_point(temperature=0.05))


def test_eta1_inverse_linear_in_tau():
    assert math.isclose(eta1(paper_point(tau1=2e4)), 0.5 * eta1(paper_point()), rel_tol=1e-15)


def test_report_consistency():
    figures = budget_figures(paper_point())
    assert list(figures) == ["eta1", "eta2", "eta_a", "delta_e_br_J", "x_zp_m"]
    assert figures["delta_e_br_J"] == KB * 0.05 * (1e-2 / 1e4)
    assert math.isclose(figures["delta_e_br_J"], KB * 0.05 * 1e-2 / 1e4, rel_tol=1e-12)
    assert figures["eta_a"] == 1.0
    assert budget_figures(paper_point()) == figures  # pure function, identical bits


def test_csv_rows_shape(tmp_path):
    path = tmp_path / "budget.csv"
    assert main(["budget", "--T", "0.05,0.1", "--out", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    assert header == "T_K,omega1,tau1,omega2,tau2,dt_s,mass_kg,eta1,eta2,eta_a,delta_e_br_J,x_zp_m"
    assert len(rows) == 2
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)


def test_inputs_validation():
    with pytest.raises(ParameterError):
        paper_point(temperature=0.0)
    with pytest.raises(ParameterError):
        paper_point(tau2=-1.0)
    with pytest.raises(ParameterError):
        paper_point(dt=math.inf)
    with pytest.raises(ParameterError):
        paper_point(mass=0.0)
