#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qndsim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from ``src/``, nothing
is installed or built.  Each workload is a closed loop: one client runs the
workload's ``qndsim`` commands one at a time, each in a fresh interpreter,
and every output is checked (see the ``check_*`` functions).

Workloads (the config seed is ``--seed``):

* ``simulate-default``: ``simulate --workers 1`` on the default config,
  10 000 trajectories x 100 measurements, orthodox ``qnd_x1`` meter,
  classical bath, no records.  Dominated by the per-step kernel
  (``measure`` and ``thermal_step``); the Philox stream set-up and the KS
  table for n = 10 000 are smaller fixed costs that only this workload shows
  at that size.
* ``records-roundtrip``: ``simulate --records`` then ``analyze --records
  --histogram`` on 1 000 x 500 with a quantum bath and ``burn_in_s = 1``
  (500 000 rows, about 71 MB of CSV).  Dominated by writing and reading the
  records; ten times fewer streams and a ten times smaller KS table than
  ``simulate-default``.
* ``sweep-foils``: ``sweep`` over collapse policy x meter kind x n_traj in
  {2000, 4000}, ``n_meas = 25``, ``sigma_m_m = 1e-20`` and ``--workers
  min(2, nproc)``: eight short runs, one process pool and one KS table per
  point.  The only workload with the foils and with pool workers.

``--trace 0`` repeats the workload's commands, untraced, until ``--seconds``
have passed (at least twice, so that repeated outputs can be compared byte
for byte) and reports the end-to-end metrics, medians over the repeats:

* ``wall_s``: all of the workload's commands;
* ``simulate_s``: the command that simulates (``simulate`` or ``sweep``);
* ``traj_steps_per_s``: sum of n_traj * n_meas over its ensembles, divided
  by ``simulate_s``;
* ``peak_rss_mb``: the largest peak RSS of any process the workload started
  (a maximum, not a median);
* ``setup_s``: a fresh interpreter importing ``qndsim`` and loading the
  workload's config, sampled before every repeat.

``--trace 1`` runs the commands once untraced and once through
``perfbench/traced.py`` and reports per-layer self times and counts from the
spans, the tracing overhead (traced minus untraced wall time) and exact
work counts.  Both repeats must produce the same bytes.

Every metric is printed as ``name value unit``; run facts (versions, core
count, sizes, output digests) follow as one ``facts`` line; the last line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``, where a
failed command is one that exits non-zero, whose outputs differ between
repeats, or whose workload check fails.  ``perfbench/baseline.jsonl`` keeps
reference runs, one per line as ``{"facts": <facts line>, "result": <last
line>}``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"

#: A command still running this long after the benchmark started is killed
#: and counted as failed, so that a run ends within three minutes.
DEADLINE_S = 170.0
STARTED = time.perf_counter()
#: Fresh-interpreter imports timed for ``setup_s`` before each repeat (after
#: one untimed warm-up), so that the samples are spread over the run.
SETUP_PER_REPEAT = 2
SETUP_ARGV = ("-c", "import sys, qndsim; qndsim.load_config(sys.argv[1])", "run.cfg")
#: The central-prediction verdict (scripts/central_prediction.py): a run is
#: flagged when p < FLAG_ALPHA or its temperature pull exceeds FLAG_PULL.
FLAG_ALPHA = 0.01
FLAG_PULL = 5.0
#: Orthodox runs must not be flagged.  Under a correct program their p-value
#: is uniform on {1, ..., n_mc + 1} / (n_mc + 1), so p < 0.01 would fail one
#: seed in a hundred per verdict; only the floor 1 / (n_mc + 1) (the observed
#: distance beyond every null replica) counts as a failure.
ORTHODOX_MIN_P = 0.0005
#: simulate-default: the effective temperature must be within this share of
#: the bath (3.5 standard errors at n_traj = 10 000).
T1_RTOL = 0.05
#: analyze refolds v22 in another order than simulate, so the heating slope
#: agrees only to rounding.
SLOPE_RTOL = 1e-9
#: Tolerance of the draw-order reference, relative to the thermal amplitude.
REFERENCE_RTOL = 1e-9
#: Trajectories replayed through the scalar oracle, besides the first and last.
REPLAYED_EXTRA = 2
#: The record CSV schema as documented in README.md.
RECORD_HEADER = "traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2"


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files it writes, relative to the work directory


@dataclass
class Workload:
    name: str
    config_text: str
    configs: list  # one RunConfig per ensemble the commands run
    commands: list[Command]
    workers: int
    main_label: str  # the command that simulates (simulate or sweep)


@dataclass
class Result:
    command: Command
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    digests: dict[str, str]
    failures: list[str] = field(default_factory=list)


def make_workload(name: str, seed: int, qndsim) -> Workload:
    if name == "simulate-default":
        text = "# qndsim defaults\n"
        configs = [replace(qndsim.parse_config(text), seed=seed)]
        commands = [
            Command("simulate",
                    ("simulate", "--config", "run.cfg", "--seed", str(seed), "--workers", "1",
                     "--out", "summary.json"),
                    ("summary.json",)),
        ]
        return Workload(name, text, configs, commands, 1, "simulate")
    if name == "records-roundtrip":
        text = "n_traj = 1000\nn_meas = 500\nbath_model = quantum\nburn_in_s = 1.0\n"
        configs = [replace(qndsim.parse_config(text), seed=seed)]
        commands = [
            Command("simulate",
                    ("simulate", "--config", "run.cfg", "--seed", str(seed), "--workers", "1",
                     "--records", "records.csv", "--out", "summary.json"),
                    ("summary.json", "records.csv")),
            Command("analyze",
                    ("analyze", "--records", "records.csv", "--config", "run.cfg",
                     "--out", "analysis.json", "--histogram", "hist.csv"),
                    ("analysis.json", "hist.csv")),
        ]
        return Workload(name, text, configs, commands, 1, "simulate")
    if name == "sweep-foils":
        text = "n_meas = 25\nsigma_m_m = 1e-20\n"
        grid = (("collapse_policy", ("orthodox", "no_conditioning")),
                ("meter_kind", ("qnd_x1", "position")),
                ("n_traj", (2000, 4000)))
        base = replace(qndsim.parse_config(text), seed=seed)
        configs = [replace(base, **dict(zip([k for k, _ in grid], combo)))
                   for combo in product(*[values for _, values in grid])]
        workers = min(2, os.cpu_count() or 1)
        vary = []
        for key, values in grid:
            vary += ["--vary", f"{key}={','.join(str(v) for v in values)}"]
        commands = [
            Command("sweep",
                    ("sweep", "--config", "run.cfg", "--seed", str(seed), *vary,
                     "--workers", str(workers), "--out", "sweep.csv"),
                    ("sweep.csv",)),
        ]
        return Workload(name, text, configs, commands, workers, "sweep")
    raise SystemExit(f"error: unknown workload {name!r}")


# --------------------------------------------------------------------------
# running commands


def sha256_file(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def run_process(argv: list[str], work: Path, env: dict) -> tuple[float, float, int, bytes]:
    """(wall s, peak RSS MB, exit code, stdout) of one child process."""
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        # its own process group, so that a kill also reaches its pool workers
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err, start_new_session=True)
        kill = functools.partial(os.killpg, proc.pid, signal.SIGKILL)
        killer = threading.Timer(max(0.0, STARTED + DEADLINE_S - time.perf_counter()), kill)
        killer.start()
        try:
            # wait4 gives the child's peak RSS, including pool workers it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind, then re-raise
            kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, (work / "stdout.txt").read_bytes()


def run_command(cmd: Command, work: Path, env: dict, spans: Path | None = None) -> Result:
    for name in cmd.outputs:
        (work / name).unlink(missing_ok=True)
    if spans is None:
        argv = [sys.executable, "-m", "qndsim", *cmd.args]
    else:
        argv = [sys.executable, str(TRACED), str(spans), *cmd.args]
    wall, rss, code, stdout = run_process(argv, work, env)
    result = Result(cmd, wall, rss, code, stdout, {"stdout": hashlib.sha256(stdout).hexdigest()})
    if code != 0:
        stderr = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
        result.failures.append(f"exit {code}: {stderr[-1] if stderr else ''}")
    for name in cmd.outputs:
        if (work / name).is_file():
            result.digests[name] = sha256_file(work / name)
        elif code == 0:
            result.failures.append(f"missing output {name}")
    return result


def run_repeat(workload: Workload, work: Path, env: dict, qndsim, traced: bool = False) -> dict[str, Result]:
    results = {}
    for cmd in workload.commands:
        spans = work / f"spans-{cmd.label}.npz" if traced else None
        results[cmd.label] = run_command(cmd, work, env, spans)
    if all(r.returncode == 0 for r in results.values()):
        try:
            CHECKS[workload.name](workload, results, work, qndsim)
        except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            results[workload.main_label].failures.append(f"unreadable output: {exc!r}")
    return results


def compare_bytes(first: dict[str, Result], later: dict[str, Result]) -> None:
    for label, result in later.items():
        if result.digests != first[label].digests:
            result.failures.append("output bytes differ from the first repeat")


def measure_setup(work: Path, env: dict, count: int, into: list[tuple[float, int]]) -> None:
    """(wall s, exit code) of fresh interpreters that import qndsim and load
    the workload's config."""
    for _ in range(count):
        wall, _, code, _ = run_process([sys.executable, *SETUP_ARGV], work, env)
        into.append((wall, code))


# --------------------------------------------------------------------------
# correctness checks (each appends failures to the command at fault)


def stdout_json(result: Result) -> dict:
    return json.loads(result.stdout.decode().splitlines()[0])


def check_simulate_default(workload, results, work, qndsim) -> None:
    result = results["simulate"]
    config = workload.configs[0]
    summary = stdout_json(result)
    if (work / "summary.json").read_bytes() != result.stdout:
        result.failures.append("summary file differs from stdout")
    echo = {key: summary[key] for key in qndsim.config.CONFIG_KEYS}
    if echo != {key: getattr(config, key) for key in qndsim.config.CONFIG_KEYS}:
        result.failures.append("summary does not echo the config")
    t1, p = summary["t1_hat_K"], summary["gof_p_value"]
    if t1 is None or abs(t1 / config.temperature_K - 1.0) > T1_RTOL:
        result.failures.append(f"t1_hat_K {t1} not within {T1_RTOL:.0%} of the bath")
    if p is None or p < ORTHODOX_MIN_P:
        result.failures.append(f"gof_p_value {p} below {ORTHODOX_MIN_P}")


def check_records_roundtrip(workload, results, work, qndsim) -> None:
    simulate, analyze = results["simulate"], results["analyze"]
    config = workload.configs[0]
    summary, analysis = stdout_json(simulate), stdout_json(analyze)

    n_rows, rows = read_records(work / "records.csv", replayed_indices(config))
    if n_rows != config.n_traj * config.n_meas:
        simulate.failures.append(f"{n_rows} record rows, expected {config.n_traj * config.n_meas}")
    for index, traj_rows in rows.items():
        for problem in replay_problems(config, index, traj_rows, qndsim):
            simulate.failures.append(f"trajectory {index}: {problem}")

    if (analysis["n_traj"], analysis["n_meas"]) != (config.n_traj, config.n_meas):
        analyze.failures.append(f"analyze saw {analysis['n_traj']} x {analysis['n_meas']}")
    for key in ("t1_hat_K", "gof_p_value"):
        if analysis[key] != summary[key]:
            analyze.failures.append(f"{key} {analysis[key]!r} != simulate's {summary[key]!r}")
    a, s = analysis["v22_slope_m2"], summary["v22_slope_m2"]
    if a is None or s is None or abs(a - s) > SLOPE_RTOL * abs(s):
        analyze.failures.append(f"v22_slope_m2 {a!r} differs from simulate's {s!r}")
    hist = (work / "hist.csv").read_text().splitlines()[1:]
    if sum(int(line.split(",")[2]) for line in hist) != config.n_traj:
        analyze.failures.append("histogram counts do not add up to n_traj")


def check_sweep_foils(workload, results, work, qndsim) -> None:
    result = results["sweep"]
    lines = (work / "sweep.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    if len(rows) != len(workload.configs) or header[:3] != ["collapse_policy", "meter_kind", "n_traj"]:
        result.failures.append(f"{len(rows)} sweep rows, expected {len(workload.configs)}")
        return
    for row, config in zip(rows, workload.configs):
        point = f"{row['collapse_policy']}/{row['meter_kind']}/{row['n_traj']}"
        if (row["collapse_policy"], row["meter_kind"], int(row["n_traj"])) != (
                config.collapse_policy, config.meter_kind, config.n_traj):
            result.failures.append(f"row {point} out of grid order")
            continue
        t1, stderr, p = (float(row[k]) for k in ("t1_hat_K", "t1_stderr_K", "gof_p_value"))
        if not all(map(math.isfinite, (t1, stderr, p))):
            result.failures.append(f"{point} has no statistics")
            continue
        pull = (t1 - config.temperature_K) / stderr
        if config.collapse_policy == "orthodox" and config.meter_kind == "qnd_x1":
            if pull > FLAG_PULL or p < ORTHODOX_MIN_P:
                result.failures.append(f"{point} flagged (pull {pull:.2f}, p {p:.4g})")
        elif not (p < FLAG_ALPHA or pull > FLAG_PULL):
            result.failures.append(f"foil {point} not flagged (pull {pull:.2f}, p {p:.4g})")


CHECKS = {
    "simulate-default": check_simulate_default,
    "records-roundtrip": check_records_roundtrip,
    "sweep-foils": check_sweep_foils,
}


def replayed_indices(config) -> list[int]:
    import numpy as np

    picks = np.random.default_rng(config.seed).integers(0, config.n_traj, REPLAYED_EXTRA)
    return sorted({0, config.n_traj - 1, *map(int, picks)})


def read_records(path: Path, indices: list[int]) -> tuple[int, dict[int, list[list[float]]]]:
    """Row count and the rows (as floats) of the given trajectories."""
    prefixes = tuple(f"{i},".encode() for i in indices)
    rows: dict[int, list[list[float]]] = {i: [] for i in indices}
    n_rows = 0
    with open(path, "rb") as handle:
        if handle.readline().decode().rstrip("\n") != RECORD_HEADER:
            raise ValueError("bad record header")
        for line in handle:
            n_rows += 1
            if line.startswith(prefixes):
                parts = line.split(b",")
                rows[int(parts[0])].append([float(x) for x in parts[1:]])
    return n_rows, rows


def replay_problems(config, index: int, rows: list[list[float]], qndsim) -> list[str]:
    """Compare one trajectory's rows with the public scalar oracle (bit for
    bit) and with the documented draw order (to a tolerance)."""
    if len(rows) != config.n_meas or [int(r[0]) for r in rows] != list(range(1, config.n_meas + 1)):
        return [f"{len(rows)} rows or steps out of order"]
    params = config.oscillator()
    vinf = qndsim.stationary_variance(params)
    floor = 0.0 if config.bath_model == "classical" else qndsim.zero_point_variance(params)
    mean_sd = math.sqrt(max(vinf - floor, 0.0))

    rng = qndsim.trajectory_rng(config.seed, index)
    state = qndsim.GaussianQuadState(
        mean1=rng.normal(0.0, mean_sd), mean2=rng.normal(0.0, mean_sd), v11=floor, v22=floor)
    if config.burn_in_s > 0.0:
        state = qndsim.thermal_step(state, config.burn_in_s, params, rng)
    records, final = qndsim.run_schedule(
        state, config.meter(), config.collapse_policy, params, config.dt_s, config.n_meas, rng)
    oracle = [[r.time, r.outcome, r.post_v11, r.post_v22] for r in records]
    recorded = [[r[1], r[2], r[5], r[6]] for r in rows]
    problems = []
    if oracle != recorded or [final.mean1, final.mean2] != rows[-1][3:5]:
        problems.append("rows differ from the scalar oracle replay")

    reference = reference_trajectory(config, index, vinf, floor, mean_sd)
    scale = REFERENCE_RTOL * math.sqrt(vinf)
    if any(abs(a - b) > scale for ref, row in zip(reference, rows) for a, b in zip(ref, row[2:5])):
        problems.append("outcomes or means differ from the documented draw order")
    return problems


def reference_trajectory(config, index: int, vinf: float, floor: float, mean_sd: float) -> list[tuple]:
    """(outcome, mean1, mean2) per step for an orthodox qnd_x1 run, from raw
    Philox normals in the documented order: mean1 then mean2 at start, the
    same for the burn-in and every thermal step, then the outcome."""
    import numpy as np

    if (config.meter_kind, config.collapse_policy) != ("qnd_x1", "orthodox"):
        raise ValueError("the draw-order reference covers orthodox qnd_x1 runs only")
    params = config.oscillator()
    draws = np.random.Generator(np.random.Philox(key=np.array([config.seed, index], dtype=np.uint64)))
    z = iter(draws.standard_normal(2 + 2 * (config.burn_in_s > 0.0) + 3 * config.n_meas).tolist())
    s2 = config.sigma_m_m ** 2
    m1, m2, v11 = mean_sd * next(z), mean_sd * next(z), floor

    def thermal(m1, m2, v11, dt):
        d = math.exp(-dt / (2.0 * params.tau1))
        sd = math.sqrt(vinf * (1.0 - d * d))
        return d * m1 + sd * next(z), d * m2 + sd * next(z), d * d * v11 + vinf * (1.0 - d * d)

    if config.burn_in_s > 0.0:
        m1, m2, v11 = thermal(m1, m2, v11, config.burn_in_s)
    out = []
    for _ in range(config.n_meas):
        m1, m2, v11 = thermal(m1, m2, v11, config.dt_s)
        sigma_y2 = v11 + s2
        outcome = m1 + math.sqrt(sigma_y2) * next(z)
        m1 += v11 / sigma_y2 * (outcome - m1)
        v11 = s2 * v11 / sigma_y2
        out.append((outcome, m1, m2))
    return out


# --------------------------------------------------------------------------
# metrics


def traj_steps(workload: Workload) -> int:
    return sum(c.n_traj * c.n_meas for c in workload.configs)


def normal_draws(workload: Workload) -> int:
    """2 per trajectory, 2 more for a burn-in, then 3 per step (5 under
    no_conditioning)."""
    total = 0
    for c in workload.configs:
        per_step = 5 if c.collapse_policy == "no_conditioning" else 3
        total += c.n_traj * (2 + 2 * (c.burn_in_s > 0.0) + per_step * c.n_meas)
    return total


def end_to_end(workload: Workload, repeats: list[dict[str, Result]], setup: list[float]) -> dict:
    walls = [sum(r.wall_s for r in rep.values()) for rep in repeats]
    mains = [rep[workload.main_label].wall_s for rep in repeats]
    steps = traj_steps(workload)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "simulate_s": (statistics.median(mains), "s"),
        "traj_steps_per_s": (statistics.median(steps / t for t in mains), "1/s"),
        "peak_rss_mb": (max(r.peak_rss_mb for rep in repeats for r in rep.values()), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


#: Per-layer self-time metrics and the span names they sum.
SELF_TIMES = {
    "process.import_s": ("process.import",),
    "process.other_s": ("process",),
    "cli.self_s": ("cli.main", "cli.simulate", "cli.sweep"),
    "cli.analyze_self_s": ("cli.analyze",),
    "config.load_config_s": ("config.load_config",),
    "ensemble.self_s": ("ensemble.run_ensemble", "ensemble.run_chunk", "ensemble.ensemble_stats",
                        "ensemble.pool"),
    "ensemble.rng_setup_s": ("ensemble.trajectory_rng",),
    "dynamics.thermal_step_s": ("dynamics.thermal_step",),
    "measurement.measure_s": ("measurement.measure",),
    "stats.calibration_table_s": ("stats.calibration_table",),
    "stats.gof_boltzmann_s": ("stats.gof_boltzmann",),
    "stats.estimate_t1_s": ("stats.estimate_t1",),
    "stats.heating_slope_s": ("stats.heating_slope",),
    "stats.energy_histogram_s": ("stats.energy_histogram",),
}
CALLS = {
    "ensemble.rng_setup_calls": "ensemble.trajectory_rng",
    "dynamics.thermal_step_calls": "dynamics.thermal_step",
    "measurement.measure_calls": "measurement.measure",
    "stats.calibration_table_calls": "stats.calibration_table",
}


def span_profile(path: Path) -> dict:
    """Self time, calls and total time per span name, the overlap of
    parallel children (pool workers) and the root span's duration."""
    import numpy as np

    with np.load(path) as data:
        name, parent, start, end = data["name"], data["parent"], data["start"], data["end"]
        names = [str(n) for n in data["names"]]
        facts = json.loads(str(data["facts"]))
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
    # children of a pool span run in parallel workers: the pool's self time is
    # what their union leaves uncovered, and the rest is counted as overlap
    overlap = 0.0
    if "ensemble.pool" in names:
        for pool in np.flatnonzero(name == names.index("ensemble.pool")):
            kids = np.flatnonzero(parent == pool)
            order = np.argsort(start[kids])
            union, reach = 0.0, -math.inf
            for lo, hi in zip(start[kids][order], end[kids][order]):
                union += max(0.0, hi - max(lo, reach))
                reach = max(reach, hi)
            overlap += covered[pool] - union
            covered[pool] = union
    self_time = duration - covered
    by_name = {n: (float(self_time[name == i].sum()), int((name == i).sum()), float(duration[name == i].sum()))
               for i, n in enumerate(names)}
    return {"by_name": by_name, "overlap": overlap, "root": float(duration[parent == -1].sum()),
            "spans": len(name), "facts": facts}


def per_layer(workload: Workload, untraced: dict[str, Result], traced: dict[str, Result], work: Path) -> dict:
    totals: dict[str, list] = {}
    overlap = outside = 0.0
    spans = pool_starts = table_misses = table_draws = read_bytes = 0
    for label, result in traced.items():
        path = work / f"spans-{label}.npz"
        if not path.is_file():
            result.failures.append("no spans written")
            continue
        profile = span_profile(path)
        for span, (self_s, calls, total) in profile["by_name"].items():
            acc = totals.setdefault(span, [0.0, 0, 0.0])
            acc[0] += self_s
            acc[1] += calls
            acc[2] += total
        overlap += profile["overlap"]
        outside += result.wall_s - profile["root"]
        spans += profile["spans"]
        pool_starts += profile["facts"]["pool_starts"]
        read_bytes += profile["facts"]["analyze_read_bytes"]
        # every process starts with an empty table cache, so each one's builds count
        tables = profile["facts"]["calibration_tables"]
        table_misses += len(tables)
        table_draws += sum(n * n_mc for n, n_mc in tables)

    metrics = {}
    for metric, span_names in SELF_TIMES.items():
        metrics[metric] = (sum(totals.get(n, [0.0])[0] for n in span_names), "s")
    # interpreter start and exit and writing the spans happen outside the root span
    metrics["process.other_s"] = (metrics["process.other_s"][0] + outside, "s")
    for metric, span in CALLS.items():
        metrics[metric] = (totals.get(span, [0, 0])[1], "count")
    rows = read_records(work / "records.csv", [])[0] if (work / "records.csv").is_file() else 0
    metrics.update({
        "ensemble.pool_s": (totals.get("ensemble.pool", [0, 0, 0.0])[2], "s"),
        "ensemble.pool_starts": (pool_starts, "count"),
        "ensemble.traj_steps": (traj_steps(workload), "count"),
        "ensemble.normal_draws": (normal_draws(workload), "count"),
        "ensemble.records_rows": (rows, "count"),
        "ensemble.records_bytes": ((work / "records.csv").stat().st_size if rows else 0, "bytes"),
        "cli.records_bytes_read": (read_bytes, "bytes"),
        "stats.calibration_table_misses": (table_misses, "count"),
        "stats.calibration_table_draws": (table_draws, "count"),
    })
    traced_wall = sum(r.wall_s for r in traced.values())
    untraced_wall = sum(r.wall_s for r in untraced.values())
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_sum_s": (sum(v for k, (v, u) in metrics.items() if k in SELF_TIMES), "s"),
        "trace.parallel_s": (overlap, "s"),
        "trace.spans": (spans, "count"),
    })
    return metrics


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "qndsim" / "__init__.py").is_file():
        print(f"error: no qndsim sources under {SRC}; run from a qndsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import qndsim
    import qndsim.config

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    workload = make_workload(args.workload, args.seed, qndsim)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        (work / "run.cfg").write_text(workload.config_text)
        setup_runs: list[tuple[float, int]] = []
        started = time.perf_counter()
        if args.trace:
            repeats = [run_repeat(workload, work, env, qndsim),
                       run_repeat(workload, work, env, qndsim, traced=True)]
            metrics = per_layer(workload, repeats[0], repeats[1], work)
        else:
            # the first interpreter compiles bytecode; users do not pay that again
            measure_setup(work, env, 1, setup_runs)
            repeats = []
            while len(repeats) < 2 or (
                    time.perf_counter() < STARTED + DEADLINE_S
                    and time.perf_counter() - started + statistics.mean(
                        sum(r.wall_s for r in rep.values()) for rep in repeats) <= args.seconds):
                measure_setup(work, env, SETUP_PER_REPEAT, setup_runs)
                repeats.append(run_repeat(workload, work, env, qndsim))
            metrics = end_to_end(workload, repeats, [wall for wall, _ in setup_runs[1:]])
        for later in repeats[1:]:
            compare_bytes(repeats[0], later)
        outputs = {name: digest for r in repeats[0].values() for name, digest in r.digests.items()
                   if name != "stdout"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for rep in repeats for r in rep.values()]
    attempted = len(results) + len(setup_runs)
    failed = sum(bool(r.failures) for r in results) + sum(code != 0 for _, code in setup_runs)
    for r in results:
        for failure in r.failures:
            print(f"FAILED {r.command.label}: {failure}", file=sys.stderr)

    untraced = repeats[:1] if args.trace else repeats
    info = {f"{label}_s": statistics.median(rep[label].wall_s for rep in untraced) for label in repeats[0]}
    facts = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "repeats": len(repeats),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "n_traj": [c.n_traj for c in workload.configs], "n_meas": [c.n_meas for c in workload.configs],
        "workers": workload.workers, "outputs_sha256": outputs,
        "repeat_s": {label: [rep[label].wall_s for rep in untraced] for label in repeats[0]},
        "setup_samples_s": [wall for wall, _ in setup_runs[1:]],
    }
    print(f"{workload.name} seed {args.seed} trace {args.trace}: {len(repeats)} repeats, "
          f"{attempted} processes, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in info.items():
        print(f"info {name} {value:.6g} s")
    print(f"info error_rate {failed / attempted:.6g} 1")
    print("facts " + json.dumps(facts))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
