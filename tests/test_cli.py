import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import budget_figures, default_config, format_config, records, run_ensemble
from qndsim.budget import operating_point
from qndsim.cli import main
from qndsim.errors import ConfigError, ParameterError
from qndsim.records import RECORD_CSV_HEADER

SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, **overrides):
    config = replace(default_config(), **overrides)
    path = tmp_path / "run.cfg"
    path.write_text(format_config(config))
    return path, config


def test_budget_prints_reference_eta1(capsys):
    assert main(["budget", "--T", "0.05", "--omega1", "1e4", "--dt", "1e-2", "--tau1", "1e4"]) == 0
    out = capsys.readouterr().out
    assert "eta1=0.6546" in out
    assert "eta2=" in out and "x_zp_m=" in out


def test_budget_grid_csv(capsys, tmp_path):
    out_path = tmp_path / "budget.csv"
    code = main(["budget", "--T", "0.05,0.1", "--tau1", "1e3,1e4", "--omega2", "1e7,1e8", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "T_K,omega1,tau1,omega2,tau2,dt_s,mass_kg,eta1,eta2,eta_a,delta_e_br_J,x_zp_m"
    assert len(lines) == 9
    # row-major in flag order: T, then tau1, then omega2
    grid = [tuple(float(cell) for cell in (row[0], row[2], row[3])) for row in (line.split(",") for line in lines[1:])]
    assert grid == [(t, tau1, omega2) for t in (0.05, 0.1) for tau1 in (1e3, 1e4) for omega2 in (1e7, 1e8)]


def test_budget_mass_sweep_rows_name_their_mass(capsys):
    # the rows of a --mass sweep differ in the mass, which its column names,
    # and every figure of the single-point print has a column
    assert main(["budget", "--mass", "1e-6,1e-3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    rows = [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]
    assert [row["mass_kg"] for row in rows] == [1e-6, 1e-3]
    for row in rows:
        figures = budget_figures(replace(operating_point(default_config()), mass=row["mass_kg"]))
        assert {name: row[name] for name in figures} == figures


def test_budget_defaults_match_the_run_summary(tmp_path, capsys):
    # the budget command's default point and a default run's eta figures
    # come from one operating point; n_traj and n_meas do not enter them
    out_path = tmp_path / "budget.csv"
    assert main(["budget", "--out", str(out_path)]) == 0
    header, row = out_path.read_text().splitlines()
    point = dict(zip(header.split(","), map(float, row.split(","))))
    summary = run_ensemble(replace(default_config(), n_traj=2, n_meas=1))
    assert (summary.eta1, summary.eta2) == (point["eta1"], point["eta2"])


def test_budget_eta_overflow_is_a_numerical_failure(tmp_path, capsys):
    out_path = tmp_path / "budget.csv"
    assert main(["budget", "--dt", "1e308", "--tau1", "1e-308", "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: eta1 is not finite")
    assert not out_path.exists()


def test_budget_figure_that_is_not_finite_is_a_numerical_failure(capsys):
    # eta1 is about 1.3e301, so delta_e_br_J = eta1 hbar omega1 overflows
    argv = ["budget", "--T", "1e300", "--omega1", "1e300", "--dt", "1e290", "--tau1", "1", "--omega2", "1e300"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: delta_e_br_J is not finite")


@pytest.mark.parametrize("argv, line", [
    (["--omega1", "1e300"], "delta_e_br_J=6.903e-31"),
    (["--mass", "1e300"], "x_zp_m=1.027e-169"),
    (["--mass", "1e305"], "x_zp_m=3.247e-172"),
    (["--mass", "1e-300", "--omega1", "1e-30"], "x_zp_m=1.027e+148"),
], ids=["omega1_1e300", "mass_1e300", "mass_1e305", "mass_1e-300"])
def test_budget_figure_with_an_intermediate_out_of_range(argv, line, capsys):
    # eta1 hbar, hbar / (mass omega1) or mass omega1 is out of the double range; the figure is not
    assert main(["budget", *argv]) == 0
    assert line in capsys.readouterr().out.splitlines()


# a product of parameters that underflows to 0 and then divides: (arguments, the quantity named)
UNDERFLOWED_DIVISORS = {
    "budget_eta1": (["budget", "--omega1", "1e-300"], "hbar omega1 underflows to 0 at omega1=1e-300"),
    "budget_eta2": (["budget", "--omega2", "1e-300"], "hbar omega2 underflows to 0 at omega2=1e-300"),
    "qnd_check": (
        ["qnd-check", "--observable", "x1", "--times", "0,1", "--mass", "1e-300", "--omega1", "1e-30"],
        "m omega1 underflows to 0 at mass=1e-300, omega1=1e-30",
    ),
}


@pytest.mark.parametrize("case", list(UNDERFLOWED_DIVISORS))
def test_underflowed_divisor_is_a_numerical_failure(case, capsys):
    argv, message = UNDERFLOWED_DIVISORS[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_underflowed_divisor_is_a_numerical_failure(workers, tmp_path, capsys, pooled):
    # mass * omega1**2 underflows to 0 in the stationary variance
    cfg_path, _ = write_config(tmp_path, n_traj=1100, n_meas=3, omega1_rad_s=1e-300)
    records_path = tmp_path / "records.csv"
    argv = ["simulate", "--config", str(cfg_path), "--records", str(records_path), "--workers", str(workers)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    expected = "the stiffness m omega1^2 underflows to 0 at mass=0.001, omega1=1e-300"
    assert out == "" and err == f"numerical failure: {expected}\n"
    assert not records_path.exists()
    assert pooled == ([2] if workers == 2 else [])


@pytest.mark.parametrize("overrides, message", [
    ({"mass_kg": 1e-300, "omega1_rad_s": 1e-30}, "2 m omega1 underflows to 0 at mass=1e-300, omega1=1e-30"),
    ({"omega1_rad_s": 1e-300}, "hbar omega1 / 2 kB T underflows to 0 at omega1=1e-300, temperature=0.05"),
], ids=["zero_point", "coth_argument"])
def test_simulate_quantum_underflowed_divisor_is_a_numerical_failure(overrides, message, tmp_path, capsys):
    # the quantum bath's variance divides by 2 m omega1 and by tanh(hbar omega1 / 2 kB T)
    cfg_path, _ = write_config(tmp_path, n_traj=40, n_meas=3, bath_model="quantum", **overrides)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"numerical failure: {message}\n"


def test_simulate_overflowing_stiffness_is_a_numerical_failure(tmp_path, capsys):
    # omega1**2 leaves the double range in the stationary variance: the
    # failure names the quantity, not errno 34
    cfg_path, _ = write_config(tmp_path, n_traj=40, n_meas=3, omega1_rad_s=1e160)
    records_path = tmp_path / "records.csv"
    assert main(["simulate", "--config", str(cfg_path), "--records", str(records_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: the stiffness m omega1^2 is not finite at omega1=1e+160\n"
    assert not records_path.exists()


def test_simulate_overflowing_stiffness_product_is_a_numerical_failure(tmp_path, capsys):
    # omega1**2 is finite, but mass * omega1**2 is not: the stationary
    # variance would be 0 and every figure null
    cfg_path, _ = write_config(tmp_path, n_traj=40, n_meas=3, mass_kg=1e300, omega1_rad_s=1e10)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: the stiffness m omega1^2 is not finite: inf\n"


@pytest.mark.parametrize("meter_kind", ["position", "qnd_x1"])
def test_simulate_clock_overflow_is_a_numerical_failure(meter_kind, tmp_path, capsys):
    # 2 000 steps of 1e305 s take the clock to inf, and w1 t there already at
    # the first step: a read angle that is not finite exits 2, not with a
    # traceback nor with rows at t = inf
    cfg_path, _ = write_config(tmp_path, n_traj=20, n_meas=2000, dt_s=1e305, tau1_s=1e300, meter_kind=meter_kind)
    records_path = tmp_path / "records.csv"
    assert main(["simulate", "--config", str(cfg_path), "--records", str(records_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: the read angle is not finite at t=")
    assert err.endswith("=1e+305\n" if meter_kind == "position" else "=inf\n")
    assert not records_path.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_out_of_memory_is_a_config_error(workers, tmp_path, capsys, monkeypatch, pooled):
    # as when a long schedule's plan cannot be allocated; no test allocates that much
    def setup(config):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    monkeypatch.setattr("qndsim.ensemble._setup", setup)
    cfg_path, _ = write_config(tmp_path, n_traj=1100, n_meas=3)
    records_path = tmp_path / "records.csv"
    argv = ["simulate", "--config", str(cfg_path), "--records", str(records_path), "--workers", str(workers)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory: Unable to allocate 14.9 GiB for an array\n"
    assert "Traceback" not in err
    assert not records_path.exists()
    assert pooled == ([2] if workers == 2 else [])


def test_budget_grid_stdout(capsys):
    assert main(["budget", "--T", "0.05,0.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("T_K,")
    assert len(out) == 3


def test_no_command_loads_scipy(tmp_path):
    # the statistics need numpy only; scipy is a test dependency
    cfg_path, _ = write_config(tmp_path, n_traj=200, n_meas=2)
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None  # every import of scipy or a submodule now fails",
        "cfg, records, histogram = sys.argv[1:]",
        "import qndsim",
        "qndsim.load_config(cfg)",
        "from qndsim.cli import main",
        "assert main(['budget']) == 0",
        "assert main(['qnd-check', '--observable', 'x1', '--times', '0,0.01']) == 0",
        "assert main(['simulate', '--config', cfg]) == 0",
        "assert main(['sweep', '--config', cfg, '--vary', 'collapse_policy=orthodox,no_conditioning']) == 0",
        "assert main(['simulate', '--config', cfg, '--records', records]) == 0",
        "assert main(['analyze', '--config', cfg, '--records', records, '--histogram', histogram]) == 0",
        "assert sys.modules.pop('scipy') is None",
        "assert 'scipy' not in sys.modules and not any(m.startswith('scipy.') for m in sys.modules)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(tmp_path / "records.csv"),
                           str(tmp_path / "histogram.csv")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_runs_as_a_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "qndsim", "budget"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "eta1=" in done.stdout


def test_every_public_name_imports():
    import qndsim

    for name in qndsim.__all__:
        exec(f"from qndsim import {name}", {})
        assert name in dir(qndsim)
    with pytest.raises(AttributeError, match="no attribute 'run_ensemblez'"):
        qndsim.run_ensemblez


def test_qnd_check_yes_and_no(capsys):
    assert main(["qnd-check", "--observable", "x1", "--times", "0,0.3,0.7"]) == 0
    assert "QND: yes" in capsys.readouterr().out
    assert main(["qnd-check", "--observable", "x", "--times", "0,0.00015707963267948966"]) == 0
    out = capsys.readouterr().out
    assert "QND: no" in out and "max violation" in out


def test_qnd_check_momentum(capsys):
    # p / m w1 turns with w1 t, as position does: QND at half periods, not at a quarter
    assert main(["qnd-check", "--observable", "p", "--times", f"0,{math.pi / 1e4!r}"]) == 0
    assert "QND: yes" in capsys.readouterr().out
    assert main(["qnd-check", "--observable", "p", "--times", f"0,{math.pi / 2e4!r}"]) == 0
    assert capsys.readouterr().out == "QND: no, max violation 1.000e-01\n"


def test_qnd_check_bad_times(capsys):
    assert main(["qnd-check", "--observable", "x1", "--times", "asdf"]) == 1


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--times", "0,inf"], "finite"),
        (["--times", "nan,1"], "finite"),
        (["--times", "0,1e305"], "omega1 * t"),  # finite, but omega1 * t is not
        (["--times", "0,1", "--tol", "nan"], "tol"),
        (["--times", "0,1", "--tol", "inf"], "tol"),
        (["--times", "0,1", "--tol=-1e-9"], "tol"),
        (["--times", "0,1", "--mass", "1e300", "--omega1", "1e10"], "m omega1"),  # finite, but m omega1 is not
    ],
)
def test_qnd_check_rejects_non_finite_input(flags, word, capsys):
    assert main(["qnd-check", "--observable", "x1", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and word in err
    assert "Traceback" not in err


def test_simulate_missing_config(capsys, tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, line, words",
    [
        (b"seed = 3\nn_traj = abc\n", 2, "cannot parse value for n_traj: 'abc'"),
        (b"# comment\n\nn_traj = 0\n", 3, "n_traj must be an integer >= 1, got 0"),
        (b"bogus = 1\n", 1, "unknown key 'bogus'"),
        (b"seed = 3\nseed 4\n", 2, "expected 'key = value'"),
        (b"seed = 3\nn_meas = 2\nseed = 4\n", 3, "duplicate key 'seed'"),
        (b"seed = 3\n# \xff\n", 2, "not UTF-8 text"),
        (b"n_traj = 40\nn_meas = 0\n", 2, "n_meas must be an integer >= 1, got 0"),
        (b"bath_model = hot\n", 1, "bath_model must be classical or quantum, got 'hot'"),
    ],
    ids=["bad_type", "bad_domain", "unknown_key", "malformed_line", "duplicate_key", "not_utf8", "zero_n_meas",
         "unknown_bath_model"],
)
def test_config_errors_name_the_file_and_line(content, line, words, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(content)
    assert main(["simulate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}:{line}: {words}")
    assert "Traceback" not in err


def test_unknown_flag_exits_one(capsys):
    assert main(["budget", "--banana", "1"]) == 1
    assert main(["frobnicate"]) == 1


def test_simulate_writes_summary_and_records(capsys, tmp_path):
    cfg_path, config = write_config(tmp_path, n_traj=48, n_meas=5, seed=2024)
    summary_path = tmp_path / "summary.json"
    records_path = tmp_path / "records.csv"
    code = main([
        "simulate", "--config", str(cfg_path),
        "--out", str(summary_path), "--records", str(records_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    data = json.loads(summary_path.read_text())
    assert json.loads(captured.out) == data
    assert "wall_time_s=" in captured.err
    assert data["n_traj"] == 48
    assert data["records_csv"] == str(records_path)
    lines = records_path.read_text().splitlines()
    assert lines[0] == RECORD_CSV_HEADER
    assert len(lines) == 1 + 48 * 5


def test_simulate_seed_override_changes_output(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, n_traj=32, n_meas=3)
    assert main(["simulate", "--config", str(cfg_path), "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--config", str(cfg_path), "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert json.loads(first)["seed"] == 1
    assert first != second


def test_summary_echo_reproduces_run(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, n_traj=40, n_meas=4, seed=99)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    first = json.loads(capsys.readouterr().out)
    echoed = "\n".join(f"{k} = {first[k]}" for k in list(first)[:13])
    echo_path = tmp_path / "echo.cfg"
    echo_path.write_text(echoed + "\n")
    assert main(["simulate", "--config", str(echo_path)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_simulate_numerical_failure_exit_code(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, n_traj=2, n_meas=1, sigma_m_m=1e-300)
    summary_path = tmp_path / "summary.json"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(summary_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not summary_path.exists()  # opened before the run, removed after it failed
    # sigma_m_m**2 overflows, so the outcome's predictive variance is inf
    cfg_path, _ = write_config(tmp_path, n_traj=4, n_meas=2, sigma_m_m=1e160, collapse_policy="no_conditioning")
    records_path = tmp_path / "records.csv"
    assert main(["simulate", "--config", str(cfg_path), "--records", str(records_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not records_path.exists()
    # v22 grows by sigma_ba**2, about 2.8e229, per step, so from step 2 the
    # covariance cannot be scaled as a whole, and sigma_m**2 * v11, about
    # 7e-336, would flush var_x1 to 0, below the uncertainty floor
    cfg_path, _ = write_config(tmp_path, n_traj=200, n_meas=6, bath_model="quantum", sigma_m_m=1e-150)
    assert main(["simulate", "--config", str(cfg_path), "--records", str(records_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: covariance product underflow")
    assert not records_path.exists()
    # the run itself is finite; its budget figure eta1 = (kB T / hbar w1)(dt / tau1) is not
    cfg_path, _ = write_config(tmp_path, n_traj=40, n_meas=2, tau1_s=1e-300, dt_s=1e10)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(summary_path),
                 "--records", str(records_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: eta1 is not finite")
    assert not summary_path.exists() and not records_path.exists()


def test_sweep_rows_in_flag_order(tmp_path):
    cfg_path, _ = write_config(tmp_path, n_traj=16, n_meas=2, seed=5)
    out_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(cfg_path),
        "--vary", "sigma_m_m=1e-18,1e-17",
        "--vary", "collapse_policy=orthodox,no_conditioning",
        "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "sigma_m_m,collapse_policy,t1_hat_K,t1_stderr_K,gof_p_value,v22_slope_m2,eta1,eta2"
    assert len(lines) == 5
    first_cells = lines[1].split(",")
    assert float(first_cells[0]) == 1e-18 and first_cells[1] == "orthodox"
    last_cells = lines[4].split(",")
    assert float(last_cells[0]) == 1e-17 and last_cells[1] == "no_conditioning"


SWEEP_VARY = ["--vary", "collapse_policy=orthodox,no_conditioning", "--vary", "n_traj=33,40"]


def run_sweep(tmp_path, name, *flags):
    cfg_path, _ = write_config(tmp_path, n_meas=3, seed=11)
    out_path = tmp_path / name
    assert main(["sweep", "--config", str(cfg_path), *SWEEP_VARY, *flags, "--out", str(out_path)]) == 0
    return out_path.read_bytes()


def test_sweep_bytes_do_not_depend_on_workers_or_chunks(tmp_path, monkeypatch, pooled):
    serial = run_sweep(tmp_path, "serial.csv", "--workers", "1")
    assert run_sweep(tmp_path, "pooled.csv", "--workers", "2") == serial
    # chunks of 7 split every point into several chunks, the last one partial
    monkeypatch.setattr("qndsim.ensemble.CHUNK_SIZE", 7)
    assert run_sweep(tmp_path, "narrow.csv", "--workers", "2") == serial
    assert run_sweep(tmp_path, "narrow_serial.csv", "--workers", "1") == serial
    assert pooled == [2, 2]
    # one run_ensemble per point gives the same rows
    base = replace(default_config(), n_meas=3, seed=11)
    lines = ["collapse_policy,n_traj,t1_hat_K,t1_stderr_K,gof_p_value,v22_slope_m2,eta1,eta2"]
    for policy in ("orthodox", "no_conditioning"):
        for n_traj in (33, 40):
            stats = run_ensemble(replace(base, collapse_policy=policy, n_traj=n_traj)).to_dict()
            lines.append(",".join([policy, str(n_traj)] + [
                "nan" if stats[key] is None else f"{stats[key]:.17g}"
                for key in ("t1_hat_K", "t1_stderr_K", "gof_p_value", "v22_slope_m2", "eta1", "eta2")
            ]))
    assert serial == ("\n".join(lines) + "\n").encode()


def test_sweep_starts_one_pool(tmp_path, monkeypatch, pooled):
    monkeypatch.setattr("qndsim.ensemble.CHUNK_SIZE", 16)
    run_sweep(tmp_path, "sweep.csv", "--workers", "4")
    assert pooled == [2]


def test_simulate_below_the_floor_starts_no_pool(tmp_path, pool_starts):
    # 1 100 x 3 traj-steps in nine chunks of rows, at two workers on two
    # cores: too little work for a second process, so the run stays in
    # process, with the bytes of one worker
    cfg_path, _ = write_config(tmp_path, n_traj=1100, n_meas=3)
    outputs = []
    for workers in ("1", "2"):
        run_dir = tmp_path / workers
        run_dir.mkdir()
        argv = ["simulate", "--config", str(cfg_path), "--records", str(run_dir / "records.csv"), "--workers", workers]
        assert main([*argv, "--out", str(run_dir / "summary.json")]) == 0
        summary = (run_dir / "summary.json").read_bytes().replace(str(run_dir).encode(), b"")
        outputs.append((summary, (run_dir / "records.csv").read_bytes()))
    assert outputs[1] == outputs[0]
    assert pool_starts == []
    assert multiprocessing.active_children() == []


def test_simulate_below_the_floor_loads_no_pool_code(tmp_path):
    # a fresh process, so that no earlier test has imported them, with two
    # usable cores and three chunks, which two workers share at no floor
    cfg_path, _ = write_config(tmp_path, n_traj=1100, n_meas=6)
    code = "\n".join([
        "import os, sys",
        "os.sched_getaffinity, os.cpu_count = (lambda pid: {0, 1}), (lambda: 2)",
        "from qndsim.cli import main",
        "assert main(['simulate', '--config', sys.argv[1], '--workers', '2']) == 0",
        "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules]",
        "assert not loaded, loaded",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(cfg_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_sweep_rejects_unknown_key(tmp_path, capsys):
    assert main(["sweep", "--vary", "voltage=1,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_repeated_key(capsys, monkeypatch):
    # the second n_traj would silently win while the rows echo the first
    monkeypatch.setattr("qndsim.cli.run_ensemble", None)
    monkeypatch.setattr("qndsim.cli.run_ensembles", None)
    assert main(["sweep", "--vary", "n_traj=150", "--vary", "n_traj=200,300"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--vary n_traj" in err


def test_analyze_matches_simulate(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, n_traj=150, n_meas=6, seed=31)
    records_path = tmp_path / "records.csv"
    assert main(["simulate", "--config", str(cfg_path), "--records", str(records_path)]) == 0
    simulated = json.loads(capsys.readouterr().out)
    hist_path = tmp_path / "hist.csv"
    code = main([
        "analyze", "--records", str(records_path), "--config", str(cfg_path),
        "--alpha", "0.01", "--histogram", str(hist_path), "--bins", "8",
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    analyzed = json.loads(out[0])
    assert list(analyzed) == [
        "n_traj", "n_meas", "t1_hat_K", "t1_stderr_K", "gof_p_value", "v22_slope_m2", "alpha",
    ]
    # .17g serialization round-trips the series, so the refit is bit-identical
    assert analyzed["t1_hat_K"] == simulated["t1_hat_K"]
    assert analyzed["gof_p_value"] == simulated["gof_p_value"]
    # both report the one v22 trace that every trajectory shares
    assert analyzed["v22_slope_m2"] == simulated["v22_slope_m2"]
    assert analyzed["n_traj"] == 150 and analyzed["n_meas"] == 6
    assert any(line.startswith("boltzmann:") for line in out[1:])
    hist_lines = hist_path.read_text().splitlines()
    assert hist_lines[0] == "e_lo_J,e_hi_J,count,model_density_per_J"
    assert len(hist_lines) == 9


@pytest.mark.parametrize(
    "command, flag",
    [
        ("simulate", "--out"),
        ("simulate", "--records"),
        ("sweep", "--out"),
        ("budget", "--out"),
        ("analyze", "--out"),
        ("analyze", "--histogram"),
    ],
)
def test_unwritable_output_path_exits_one(command, flag, tmp_path, capsys, monkeypatch):
    cfg_path, config = write_config(tmp_path, n_traj=150, n_meas=5, seed=3)
    records_path = tmp_path / "records.csv"
    run_ensemble(config, record_path=str(records_path))

    def work(*args, **kwargs):
        raise AssertionError("the work started before the output paths were opened")

    # simulate --records fails when run_ensemble opens the record file, before any chunk
    if flag == "--records":
        monkeypatch.setattr("qndsim.ensemble._run_chunk", work)
    else:
        monkeypatch.setattr("qndsim.cli.run_ensemble", work)
        monkeypatch.setattr("qndsim.cli.run_ensembles", work)
    monkeypatch.setattr("qndsim.records.read_records", work)
    inputs = {
        "simulate": ["--config", str(cfg_path)],
        "sweep": ["--config", str(cfg_path), "--vary", "seed=1"],
        "budget": [],
        "analyze": ["--records", str(records_path), "--config", str(cfg_path)],
    }
    target = tmp_path / "missing" / "output"
    assert main([command, *inputs[command], flag, str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert str(target) in err
    assert "Traceback" not in err


# sigma_m_m = 1e130 leaves sigma_ba**2 below the smallest double; the
# heating slope is fitted to the trace alone, so the run is reported as any other
def test_backaction_variance_underflow_completes(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, n_traj=20, n_meas=5, sigma_m_m=1e130)
    records_path = tmp_path / "records.csv"
    assert main(["simulate", "--config", str(cfg_path), "--records", str(records_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--records", str(records_path), "--config", str(cfg_path)]) == 0
    analysis = json.loads(capsys.readouterr().out.splitlines()[0])
    assert math.isfinite(summary["v22_slope_m2"])
    assert analysis["v22_slope_m2"] == summary["v22_slope_m2"]


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "5", "-0.01"])
def test_analyze_rejects_alpha_outside_unit_interval(alpha, tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    run_ensemble(replace(default_config(), n_traj=40, n_meas=5), record_path=str(records_path))
    assert main(["analyze", "--records", str(records_path), "--alpha", alpha]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--alpha" in err


def records_with_scaled_means(tmp_path, factor):
    """A 120 x 5 record file whose X1 means, about 1e-15, are scaled by
    ``factor``."""
    path = tmp_path / "records.csv"
    run_ensemble(replace(default_config(), n_traj=120, n_meas=5), record_path=str(path))
    header, *rows = path.read_text().splitlines()
    rows = [_with_field(row, 4, repr(float(row.split(",")[4]) * factor)) for row in rows]
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_analyze_overflowing_t1_is_a_numerical_failure(tmp_path, capsys):
    # a well-formed file whose final means are about 1e150: their variance is
    # finite, the temperature it implies is not, and inf is not JSON
    path = records_with_scaled_means(tmp_path, 1e165)
    out_path = tmp_path / "analysis.json"
    assert main(["analyze", "--records", str(path), "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: the T1 estimate is not finite")
    assert not out_path.exists()


def test_analyze_overflowing_variance_is_a_numerical_failure(tmp_path, capsys, recwarn):
    # final means of about 1e170: their variance overflows, which the
    # failure names, and numpy warns of nothing
    path = records_with_scaled_means(tmp_path, 1e185)
    out_path = tmp_path / "analysis.json"
    assert main(["analyze", "--records", str(path), "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: the sample variance is not finite: inf\n"
    assert not recwarn.list and not out_path.exists()


def test_analyze_with_an_overflowing_stiffness_is_a_numerical_failure(tmp_path, capsys):
    # well-formed records, analysed under a config whose omega1**2 leaves
    # the double range in the T1 estimate
    path = records_with_scaled_means(tmp_path, 1.0)
    cfg_path, _ = write_config(tmp_path, omega1_rad_s=1e160)
    assert main(["analyze", "--records", str(path), "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: the stiffness m omega1^2 is not finite at omega1=1e+160\n"


def test_analyze_rejects_overflowing_v22_trace(tmp_path, capsys):
    # every trajectory agrees at every step and every value is finite, but
    # the least-squares fit through 1.7e308 at the last two steps overflows:
    # no run writes such a file, and NaN is not JSON
    path = tmp_path / "records.csv"
    run_ensemble(replace(default_config(), n_traj=3, n_meas=5), record_path=str(path))
    header, *rows = path.read_text().splitlines()
    rows = [_with_field(row, 7, "1.7e308") if row.split(",")[1] in ("4", "5") else row for row in rows]
    path.write_text("\n".join([header] + rows) + "\n")
    assert main(["analyze", "--records", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: the v22 heating slope is not finite")


@pytest.mark.parametrize(
    "overrides, verdict",
    [
        ({}, "boltzmann: consistent"),
        # Gaussian, so the fit test passes, but about 15 standard errors too hot
        ({"meter_kind": "position", "sigma_m_m": 1e-20}, "boltzmann: deviation detected"),
        # enough trajectories for T1, too few for the fit test
        ({"n_traj": 50}, "boltzmann: undetermined"),
    ],
    ids=["orthodox", "position_foil", "too_few_for_the_fit_test"],
)
def test_analyze_verdict_weighs_the_temperature(overrides, verdict, tmp_path, capsys):
    cfg_path, config = write_config(tmp_path, **{"n_traj": 4000, "n_meas": 25, **overrides})
    records_path = tmp_path / "records.csv"
    summary = run_ensemble(config, record_path=str(records_path))
    assert main(["analyze", "--records", str(records_path), "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith(verdict)
    analysis = json.loads(out[0])
    assert (analysis["t1_hat_K"], analysis["gof_p_value"]) == (summary.t1_hat_K, summary.gof_p_value)
    if verdict.endswith("undetermined"):
        assert summary.gof_p_value is None and summary.t1_hat_K is not None
    else:
        pull = (summary.t1_hat_K - config.temperature_K) / summary.t1_stderr_K
        assert f"T1 pull={pull:.3g} se" in out[1]
        assert summary.gof_p_value >= 0.01  # the fit test alone passes both


def test_analyze_missing_records(tmp_path, capsys):
    assert main(["analyze", "--records", str(tmp_path / "nope.csv")]) == 1
    out_path, hist_path = tmp_path / "analysis.json", tmp_path / "hist.csv"
    code = main(["analyze", "--records", str(tmp_path / "nope.csv"),
                 "--out", str(out_path), "--histogram", str(hist_path)])
    assert code == 1
    assert not out_path.exists() and not hist_path.exists()


def test_analyze_rejects_more_bins_than_trajectories(tmp_path, capsys):
    # the histogram's size is bounded by the records', not by --bins
    cfg_path, config = write_config(tmp_path, n_traj=200, n_meas=5)
    records_path = tmp_path / "records.csv"
    run_ensemble(config, record_path=str(records_path))
    out_path, hist_path = tmp_path / "analysis.json", tmp_path / "hist.csv"
    command = ["analyze", "--records", str(records_path), "--config", str(cfg_path),
               "--out", str(out_path), "--histogram", str(hist_path), "--bins"]
    assert main([*command, "10000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "one bin per sample (200), got 10000000" in err
    assert not out_path.exists() and not hist_path.exists()
    assert main([*command, "200"]) == 0
    assert len(hist_path.read_text().splitlines()) == 1 + 200


def test_failed_command_leaves_existing_paths_alone(tmp_path, capsys, monkeypatch):
    # outputs that existed before a failed command, a device among them,
    # are neither removed nor truncated
    removed = []
    monkeypatch.setattr("os.remove", removed.append)
    keep = tmp_path / "keep.json"
    keep.write_text("earlier result\n")
    code = main(["analyze", "--records", str(tmp_path / "nope.csv"),
                 "--out", str(keep), "--histogram", os.devnull])
    assert code == 1
    # the statistics fail after every chunk was written to the device
    def failing_stats(*args):
        raise ParameterError("the statistics failed")

    monkeypatch.setattr("qndsim.ensemble.ensemble_stats", failing_stats)
    cfg_path, _ = write_config(tmp_path, n_traj=20, n_meas=5)
    code = main(["simulate", "--config", str(cfg_path), "--records", os.devnull, "--out", str(keep)])
    assert code == 1
    assert removed == []
    assert keep.read_text() == "earlier result\n"


# each case: the command, two flags given the same path, and how the second
# spells it ("same" path, or a symlink to the first)
PATHS_NAMED_TWICE = {
    "simulate_records_out": ("simulate", "--records", "--out", "same"),
    "simulate_config_out": ("simulate", "--config", "--out", "same"),
    "simulate_config_records": ("simulate", "--config", "--records", "symlink"),
    "sweep_config_out": ("sweep", "--config", "--out", "same"),
    "analyze_records_out": ("analyze", "--records", "--out", "same"),
    "analyze_records_histogram_symlink": ("analyze", "--records", "--histogram", "symlink"),
    "analyze_config_out": ("analyze", "--config", "--out", "same"),
    "analyze_out_histogram": ("analyze", "--out", "--histogram", "same"),
}


@pytest.mark.parametrize("case", list(PATHS_NAMED_TWICE))
def test_path_named_twice_exits_one(case, tmp_path, capsys, monkeypatch):
    command, first, second, spelling = PATHS_NAMED_TWICE[case]
    cfg_path, config = write_config(tmp_path, n_traj=150, n_meas=5, seed=3)
    records_path = tmp_path / "records.csv"
    run_ensemble(config, record_path=str(records_path))
    monkeypatch.setattr("qndsim.cli.run_ensemble", None)  # no work may start
    monkeypatch.setattr("qndsim.cli.run_ensembles", None)
    monkeypatch.setattr("qndsim.records.read_records", None)
    before = {path: path.read_bytes() for path in (cfg_path, records_path)}
    paths = {"--config": str(cfg_path)}
    if command == "analyze":
        paths["--records"] = str(records_path)
    # an input names an existing file; two outputs name one that does not exist yet
    shared = paths.get(first, str(tmp_path / "new"))
    paths[first] = shared
    if spelling == "symlink":
        (tmp_path / "link").symlink_to(shared)
        shared = str(tmp_path / "link")
    paths[second] = shared
    assert main([command, *(part for flag_path in paths.items() for part in flag_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and first in err and second in err and "same file" in err
    assert {path: path.read_bytes() for path in before} == before
    assert not (tmp_path / "new").exists()


def test_devices_may_be_named_twice(tmp_path, capsys):
    cfg_path, config = write_config(tmp_path, n_traj=150, n_meas=5, seed=3)
    assert main(["simulate", "--config", str(cfg_path), "--records", os.devnull, "--out", os.devnull]) == 0
    records_path = tmp_path / "records.csv"
    run_ensemble(config, record_path=str(records_path))
    assert main(["analyze", "--records", str(records_path), "--config", str(cfg_path),
                 "--out", os.devnull, "--histogram", os.devnull]) == 0


def test_simulate_and_sweep_reject_nonpositive_workers(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, n_traj=4, n_meas=2)
    assert main(["simulate", "--config", str(cfg_path), "--workers", "0"]) == 1
    assert "workers" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg_path), "--vary", "seed=1,2", "--workers", "-1"]) == 1
    assert "workers" in capsys.readouterr().err


def _with_field(row, column, value):
    parts = row.split(",")
    parts[column] = value
    return ",".join(parts)


# rows of a 3 x 3 run (line 1 is the header, trajectory 0 is on lines 2-4);
# each case: how to spoil the rows, the line at fault, a word of the message
MALFORMED_RECORDS = {
    "non_integer_id": (lambda r: ["abc" + r[0][1:]] + r[1:], 2, "traj_id"),
    "non_numeric_mean": (lambda r: r[:1] + [_with_field(r[1], 4, "x")] + r[2:], 3, "mean_x1_m"),
    "non_numeric_var": (lambda r: r[:4] + [_with_field(r[4], 7, "1e-3x")] + r[5:], 6, "var_x2_m2"),
    "wrong_field_count": (lambda r: r[:2] + [r[2].rsplit(",", 1)[0]] + r[3:], 4, "fields"),
    "duplicate_row": (lambda r: r[:1] + r, 3, "follows trajectory 0 step 1"),
    "missing_step": (lambda r: r[:1] + r[2:], 3, "follows trajectory 0 step 1"),
    "ragged_trajectories": (lambda r: r[:2] + r[3:], 6, "more than 2 steps"),
    "out_of_order_ids": (lambda r: r[:3] + r[6:] + r[3:6], 5, "follows trajectory 0 step 3"),
    "missing_first_trajectory": (lambda r: r[3:], 2, "follows the header"),
    "var_differs_from_trajectory_0": (lambda r: r[:3] + [_with_field(r[3], 7, "1e-3")] + r[4:], 5, "var_x2_m2"),
    "nan_var": (lambda r: r[:1] + [_with_field(r[1], 7, "nan")] + r[2:], 3, "var_x2_m2 is not finite"),
    "inf_var_later_trajectory": (lambda r: r[:7] + [_with_field(r[7], 7, "inf")] + r[8:], 9, "var_x2_m2"),
    "huge_var_in_trajectory_0": (lambda r: r[:1] + [_with_field(r[1], 7, "1e308")] + r[2:], 6, "var_x2_m2"),
    "nan_mean": (lambda r: r[:5] + [_with_field(r[5], 4, "nan")] + r[6:], 7, "mean_x1_m is not finite"),
    "inf_mean": (lambda r: r[:2] + [_with_field(r[2], 4, "-inf")] + r[3:], 4, "mean_x1_m is not finite"),
    "header_only": (lambda r: [], 2, "no record rows"),
}


@pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
def test_analyze_rejects_malformed_records(case, tmp_path, capsys):
    spoil, line, word = MALFORMED_RECORDS[case]
    path = tmp_path / "records.csv"
    run_ensemble(replace(default_config(), n_traj=3, n_meas=3), record_path=str(path))
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + spoil(rows)) + "\n")
    assert main(["analyze", "--records", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err
    assert word in err


@pytest.mark.parametrize(
    "text",
    ["", "\n", RECORD_CSV_HEADER.replace("var_x2_m2", "var_x2") + "\n", "0,1,0.01,0,0,0,0,0\n"],
    ids=["empty", "blank_line", "renamed_column", "row_first"],
)
def test_analyze_rejects_a_bad_header(text, tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text(text)
    assert main(["analyze", "--records", str(path)]) == 1
    assert f"{path}:1: not a record CSV (bad header)" in capsys.readouterr().err


# The block reader against the per-line loop alone: a 30 x 3 run, read in
# blocks of a few rows so that the numpy checks run on a test-sized file.
LATE_TRAJECTORY = 20


@pytest.fixture(scope="module")
def late_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("late") / "records.csv"
    run_ensemble(replace(default_config(), n_traj=30, n_meas=3), record_path=str(path))
    header, *rows = path.read_text().splitlines()
    return header, rows


def read_outcome(path):
    """read_records' arrays as bytes, or its error message."""
    try:
        x1, trace = records.read_records(str(path))
    except ConfigError as exc:
        return str(exc)
    return x1.tobytes(), trace.tobytes()


def block_and_loop_outcomes(path, read_block=1000):
    """(outcome with READ_BLOCK = read_block, outcome of the loop alone,
    whether any block was vouched for)."""
    vouched = []
    rows = records._BlockCheck.rows

    def counting_rows(self, block, first_row):
        result = rows(self, block, first_row)
        vouched.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "READ_BLOCK", read_block)
        patch.setattr(records._BlockCheck, "rows", counting_rows)
        blocks = read_outcome(path)
        patch.setattr(records._BlockCheck, "rows", lambda self, block, first_row: None)
        alone = read_outcome(path)
    return blocks, alone, any(vouched)


# READ_BLOCK one byte short of k whole rows after the rows the loop reads
# first, exactly k rows, and one byte more, so that the first block ends just
# before, on and just after a newline, and later ones near one
ROW_EDGES = {"rows-1": -1, "rows": 0, "rows+1": 1}


def edge_block(rows, n_meas, edge, k=5):
    """READ_BLOCK for ``edge`` of ``ROW_EDGES`` over ``rows``, the lines of
    a record file after its header (without their newlines): the loop reads
    trajectory 0 and the first row of trajectory 1 before any block."""
    return sum(len(row) + 1 for row in rows[n_meas + 1 : n_meas + 1 + k]) + ROW_EDGES[edge]


@pytest.mark.parametrize("read_block", [1, 1000, *ROW_EDGES])
@pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
def test_late_malformed_records_raise_what_the_loop_raises(case, read_block, late_rows, tmp_path):
    spoil = MALFORMED_RECORDS[case][0]
    header, rows = late_rows
    first = 3 * LATE_TRAJECTORY  # the spoiled rows are those of trajectories 20 to 22
    path = tmp_path / "records.csv"
    path.write_text("\n".join([header] + rows[:first] + spoil(rows[first : first + 9]) + rows[first + 9 :]) + "\n")
    if read_block in ROW_EDGES:
        read_block = edge_block(rows, 3, read_block)
    blocks, alone, vouched = block_and_loop_outcomes(path, read_block)
    assert isinstance(alone, str) and alone.startswith(f"{path}:")
    assert blocks == alone
    assert vouched


def _keep(text):
    return lambda original: text


# spellings of a field that a run never writes, most of them rejected by the
# loop; "1" * 400 and "1e999" read as inf, "1e-999" as 0.0
ODD_SPELLINGS = [
    "+5", "05", " 1", "1_0", "1E-17", "1e999", "-1e999", "-1e308", "1" * 400, "1e-999", "nan", "inf", "1.",
    ".5", "-.5", "", "-", "--5", "5-", "1..5", "1.5.5", "1e", "1e-", "e-5", "1e--5", "1e-5e-5", "1e-5.5",
    "-0", "1e+17", "1e17", "0x10", "\u0663",
]
FIELD_EDITS = [pytest.param(_keep(text), id=repr(text)[:12]) for text in ODD_SPELLINGS] + [
    pytest.param(edit, id=name)
    for name, edit in {
        "same": lambda f: f,
        "plus": lambda f: "+" + f,
        "leading_zero": lambda f: "0" + f,
        "leading_space": lambda f: " " + f,
        "trailing_space": lambda f: f + " ",
        "trailing_cr": lambda f: f + "\r",
        "trailing_zero": lambda f: f + "0",
        "upper": lambda f: f.upper(),
        "underscore": lambda f: f[:1] + "_" + f[1:],
        "sign_flip": lambda f: f[1:] if f.startswith("-") else "-" + f,
        "exponent_zero": lambda f: f.replace("e-", "e-0"),
        "positive_exponent": lambda f: f.replace("e-", "e+"),
    }.items()
]
FIELD_COLUMNS = [0, 1, 4, 7]  # traj_id, step, mean_x1_m, var_x2_m2


def one_late_field_outcomes(rows, header, path, row, column, edit, read_block=1000):
    spoiled = list(rows)
    spoiled[row] = _with_field(rows[row], column, edit(rows[row].split(",")[column]))
    path.write_text("\n".join([header] + spoiled) + "\n")
    return block_and_loop_outcomes(path, read_block)


@pytest.mark.parametrize("edit", FIELD_EDITS)
@pytest.mark.parametrize("column", FIELD_COLUMNS)
def test_one_late_field_reads_as_the_loop_reads_it(column, edit, late_rows, tmp_path):
    header, rows = late_rows
    # a row within trajectory 20, and its last row, whose mean_x1_m is kept
    for row in (3 * LATE_TRAJECTORY + 1, 3 * LATE_TRAJECTORY + 2):
        blocks, alone, vouched = one_late_field_outcomes(rows, header, tmp_path / "records.csv", row, column, edit)
        assert blocks == alone
        assert vouched


@settings(max_examples=100, deadline=None)
@given(
    row=st.integers(min_value=3 * 10, max_value=3 * 30 - 1),
    column=st.sampled_from(FIELD_COLUMNS),
    edit=st.one_of(
        st.sampled_from([param.values[0] for param in FIELD_EDITS]),
        st.text(alphabet="0123456789+-.eE_ nfi", max_size=12).map(_keep),
    ),
    read_block=st.sampled_from([1, 300, 1000]),
)
def test_any_late_field_reads_as_the_loop_reads_it(late_rows, tmp_path_factory, row, column, edit, read_block):
    header, rows = late_rows
    path = tmp_path_factory.mktemp("field") / "records.csv"
    blocks, alone, vouched = one_late_field_outcomes(rows, header, path, row, column, edit, read_block)
    assert blocks == alone
    assert vouched


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("edge", list(ROW_EDGES))
def test_blocks_that_end_next_to_a_newline_read_as_the_loop(edge, k, tmp_path):
    # every row is 26 bytes, so that every block ends on the same side of a
    # newline: the mean_x1_m of trajectories 0 to 9 takes up the id's second digit
    rows = [f"{traj},{step},0.5,1,{'1.25' if traj < 10 else '1.5'},1,1,2.5e-3" for traj in range(40) for step in (1, 2, 3)]
    assert {len(row) + 1 for row in rows} == {26}
    path = tmp_path / "records.csv"
    path.write_text("\n".join([RECORD_CSV_HEADER] + rows) + "\n")
    blocks, alone, vouched = block_and_loop_outcomes(path, edge_block(rows, 3, edge, k))
    assert blocks == alone == (np.array([1.25] * 10 + [1.5] * 30).tobytes(), np.array([2.5e-3] * 3).tobytes())
    assert vouched


@pytest.mark.parametrize("layout", ["lf", "crlf", "no_final_newline", "long_trajectory_0"])
def test_block_reader_equals_the_loop(layout, late_rows, tmp_path):
    header, rows = late_rows
    path = tmp_path / "records.csv"
    if layout == "long_trajectory_0":  # trajectory 0 spans several blocks
        run_ensemble(replace(default_config(), n_traj=12, n_meas=40), record_path=str(path))
    else:
        ending = "\r\n" if layout == "crlf" else "\n"
        text = ending.join([header] + rows)
        path.write_bytes((text if layout == "no_final_newline" else text + ending).encode())
    blocks, alone, vouched = block_and_loop_outcomes(path)
    assert blocks == alone
    assert not isinstance(alone, str)
    assert vouched or layout == "crlf"  # carriage returns go to the loop
    if layout != "long_trajectory_0":
        path.write_text("\n".join([header] + rows) + "\n")
        assert read_outcome(path) == alone
