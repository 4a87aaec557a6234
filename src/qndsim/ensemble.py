"""Deterministic ensemble execution and aggregation.

Stream derivation is counter-based: trajectory i of a run with master seed s
draws from Philox keyed by the pair (s, i).  The key alone identifies the
stream; nothing is spawned or shared, so any worker may own any trajectory
and the statistics cannot depend on scheduling.  Trajectories are grouped
into chunks, ``CHUNK_SIZE`` wide without record rows and at most
``ROWS_CHUNK_SIZE`` wide with them, and the chunks' final X1 means and
record CSV rows are concatenated in trajectory-index order whatever the
worker count or chunk size.  Identical config implies byte-identical outputs.

The covariance, gains, read directions and clock need no outcome (the
Riccati recursion of Kalman 1960 is data-free), so every trajectory of a run
shares them.  The parent sets each config up once, when the config's chunks
are queued: it makes the ``measurement.SchedulePlan``, whose lead steps are
the start and the burn-in, and the summary's budget figures eta1 and eta2,
so a covariance or figure that fails raises before any of its chunks runs,
after the summaries of the configs before it.  A chunk job carries only the
master seed, the plan, its trajectory range and whether to keep rows; it
reads no config.  The plan is dropped after the config's summary, which
reports the plan's v22 trace; ``analyze`` reads the same trace from the
record CSV, so both report the same slope.

A chunk steps only means: ``measurement.step_means``, the one step loop,
steps a (2, n) array of the chunk's means in place, asking for their
standard normals a block at a time, in the order its docstring declares.
``_ChunkDraws`` fills each block, the plan's ``draws`` a stream in all, by
one Philox that is given each stream's state in turn (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11: a counter-based stream
is its key and counter), so each trajectory gets the values that the scalar
reference ``measurement.run_schedule`` gives it when stepped alone through
``thermal_step`` and ``measure``, bit for bit.  ``_run_chunk`` is the
kernel's one driver.  The start steps zero means by a decay of 0.0, so a
start mean is 0.0 + (sd * z), as a Generator draws it.  Finiteness is checked
once per chunk, before any of its rows is rendered.  The chunk keeps each
step's outcomes and means only when record rows are asked for, so that
without them its memory does not grow with n_meas.  With them, a chunk run
in process hands back its rows unrendered, as ``format_rows``' blocks, which
are rendered as they are written; so the run holds one chunk's values and
one block's text, never a chunk's text.  A pool worker renders its chunk's
blocks before it sends them, so that rendering stays parallel.

``records`` is imported only by a run that keeps rows, and
``concurrent.futures`` only when a pool starts, so a rowless run in process
loads neither.

``run_ensembles`` runs a list of configs, as ``sweep`` does, through one
process pool at most: every config's chunks go to the same pool in order,
and each config's summary is yielded as soon as its last chunk is in.
``run_ensemble`` is the one-config case.  A run is given one process per
whole ``PROCESS_TRAJ_STEPS`` of its work, the n_traj x n_meas of all its
configs together, and starts a pool only when that, the workers asked for,
its chunks and the usable cores all reach two; a smaller run is stepped in
process, with the same bytes, whatever ``workers`` is.

Trajectories start at thermal stationarity in realization form: the thermal
spread of the ensemble is carried by the sampled means, N(0, V_inf - V_floor)
per quadrature from the plan's first lead step, while the conditional
covariance starts at the bath floor (zero for a classical bath, the
zero-point variance for a quantum one).  The ensemble marginal then starts
exactly at the stationary law.  Conditioning should only move uncertainty
between the covariance and the mean spread, but today it inflates the
marginal: ``thermal_step`` gives the bath's kick both to the sampled means
and to the covariance, and each orthodox update moves the covariance's share
into the means.  So the variance of the X1 means tends to
V_inf (2 - exp(-t / tau1)), and the fitted temperature drifts from T towards
2 T: T1/T = 1.62 was measured at t = tau1 on 4 000 trajectories.  The excess
is about t / tau1, 1e-4 on the default run.  This is the first open item of
ROADMAP.md.
"""

from __future__ import annotations

import json
import os
import stat
import time as _time
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field, replace
from itertools import islice, starmap

import numpy as np

from .budget import eta1 as _eta1, eta2 as _eta2, operating_point
from .config import CONFIG_KEYS, RunConfig
from .dynamics import GaussianQuadState, stationary_variance, thermal_relax, zero_point_variance
from .errors import DegenerateSeriesError, InsufficientDataError, ParameterError
from .measurement import SchedulePlan, plan_schedule, step_means
from .observables import OscillatorParams
from .stats import SampleSeries, estimate_t1, gof_boltzmann, heating_slope

#: Trajectories stepped as one batch when no record rows are kept.  An
#: execution choice only: no output depends on it.  Each of its trajectories
#: holds a draw block of at most ``measurement.DRAW_BLOCK`` normals and a
#: generator state, about 4 KB, while it runs.
CHUNK_SIZE = 512

#: Most trajectories stepped as one batch when record rows are kept; no
#: output depends on it either.
ROWS_CHUNK_SIZE = 128

#: Traj-steps (n_traj x n_meas, summed over a run's configs) that earn a run
#: one process, so a run gets a pool only when it has two such shares or more.
#: An execution choice only: no output depends on it.  In paired fresh runs
#: on 2 cores at ``--workers`` 1 and 2, every run below 1M traj-steps was as
#: fast or faster in process, with or without rows; at 1M the two were even,
#: and above it a pool gained as the work grew (10 000 x 1 000: 1.50 s in
#: process, 1.03 s pooled).  A fresh pool costs about 30 ms to import, start
#: and shut down.
PROCESS_TRAJ_STEPS = 500_000

#: Most rows a chunk holds until they are written: 24 bytes each of values
#: in process, where each block is rendered as it is written, and about 166
#: in a pool worker, which sends its rows as text (142 bytes of it a row).
#: Past n_meas = 500 chunks narrow, and a step of a narrow chunk costs as
#: many numpy calls of the step kernel as one of a wide chunk.
ROWS_STEP_BUDGET = 64000

#: The statistics a summary reports after its config echo, in the order of
#: its JSON keys and of the ``sweep`` CSV columns; each is a RunSummary field.
SUMMARY_STATS = ("t1_hat_K", "t1_stderr_K", "gof_p_value", "v22_slope_m2", "eta1", "eta2")


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream keyed by (master seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


class _ChunkDraws:
    """The standard normals of trajectories [start, stop), ``n_draws`` per
    stream, handed out by calls: ``draws(k)`` returns a (k, stop - start)
    view whose column i holds the next k normals of trajectory start + i's
    own stream.  One buffer, as wide as the widest call so far, is refilled
    for each call, so a view is valid only until the next call.  Asking for
    more than ``n_draws`` in all raises RuntimeError.

    One Philox serves every stream.  Before it fills a stream's row of the
    buffer it is given that stream's state: at first the state
    ``trajectory_rng`` starts from (key (seed, index), counter 0, empty
    buffer), afterwards the state the last fill left.  A counter-based stream
    is its key and counter, so each stream yields exactly the normals of its
    own ``trajectory_rng``, without a Philox built per stream.  The first
    states are one dict whose key is rewritten for each stream: the state
    setter copies its values.  A stream's state is saved only when another
    fill will follow.
    """

    def __init__(self, seed: int, start: int, stop: int, n_draws: int) -> None:
        self._bits = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
        fresh = self._bits.state
        # plain lists, which the state setter reads faster than arrays
        fresh["state"] = {"counter": fresh["state"]["counter"].tolist(), "key": [seed, start]}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._fresh = fresh
        self._indices = range(start, stop)
        self._unfilled = n_draws
        self._buffer = np.empty((stop - start, 0))
        self._saved = []

    def _fresh_states(self) -> Iterator[dict]:
        """Each stream's first state, as one dict re-keyed in turn."""
        key = self._fresh["state"]["key"]
        for index in self._indices:
            key[1] = index
            yield self._fresh

    def __call__(self, k: int) -> np.ndarray:
        if k > self._unfilled:
            raise RuntimeError("a run asked for more normals than it declared")
        self._unfilled -= k
        if k > self._buffer.shape[1]:
            self._buffer = np.empty((len(self._indices), k))
        bits, normals = self._bits, np.random.Generator(self._bits).standard_normal
        states, saved = self._saved or self._fresh_states(), []
        for row, state in zip(self._buffer, states):
            bits.state = state
            normals(out=row[:k])
            if self._unfilled:
                saved.append(bits.state)
        self._saved = saved
        return self._buffer[:, :k].T


def _setup(config: RunConfig) -> SchedulePlan:
    """The plan of a config, in realization form (see the module docstring):
    its lead steps are the start, a decay of 0 and a kick of sd
    sqrt(V_inf - floor), and the burn-in, if any; the schedule runs from the
    bath floor relaxed through the burn-in."""
    params = config.oscillator()
    floor = 0.0 if config.bath_model == "classical" else zero_point_variance(params)
    lead = [(0.0, float(np.sqrt(max(stationary_variance(params) - floor, 0.0))))]
    state = GaussianQuadState(mean1=0.0, mean2=0.0, v11=floor, v22=floor)
    if config.burn_in_s > 0.0:
        decay, kick_sd, state = thermal_relax(state, config.burn_in_s, params)
        lead.append((decay, kick_sd))
    plan = plan_schedule(state, config.meter(), config.collapse_policy, params, config.dt_s, config.n_meas)
    return replace(plan, lead=tuple(lead))


def _run_chunk(
    seed: int, plan: SchedulePlan, start: int, stop: int, collect_rows: bool
) -> tuple[np.ndarray, Iterable[bytes] | None]:
    """Step the means of trajectories [start, stop) of the run with master
    seed ``seed`` as one batch, from zeros, through ``plan``.  Return (final
    X1 means, rows): the rows, if collected, are left unrendered, each block
    of ``format_rows`` rendered when it is taken; None without them."""
    normals = _ChunkDraws(seed, start, stop, plan.draws)
    means = np.zeros((2, stop - start))
    if not collect_rows:
        step_means(plan, means, normals)
        return means[0], None
    from .records import format_rows

    # every step's (outcome, mean1, mean2), written in place by the kernel
    values = np.empty((len(plan.steps), 3, stop - start))
    step_means(plan, means, normals, values)
    # x1 is a copy, so that the summary keeps no chunk's values alive
    return values[-1, 1].copy(), format_rows(start, plan, values)


def _run_pooled_chunk(*job) -> tuple[np.ndarray, list[bytes] | None]:
    """``_run_chunk`` in a pool worker, with its rows rendered to a list,
    since a generator cannot be sent back to the parent."""
    x1, rows = _run_chunk(*job)
    return x1, None if rows is None else list(rows)


def _pool_size(workers: int, n_chunks: int, traj_steps: int) -> int:
    """Processes worth starting for a run of ``n_chunks`` chunks and
    ``traj_steps`` traj-steps in all: never more than the chunks, the cores
    this process may run on (its CPU affinity where the platform reports it)
    or the whole shares of ``PROCESS_TRAJ_STEPS`` in the run, and at least
    one, the parent."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(1, min(workers, n_chunks, cores, traj_steps // PROCESS_TRAJ_STEPS))


@dataclass(eq=False)
class RunSummary:
    """Aggregated result of one ensemble run.

    The serialized form holds the config echo and the derived statistics;
    wall_time_s and the raw series are in-memory extras (timing would break
    byte-identical outputs).
    """

    config: RunConfig
    t1_hat_K: float | None
    t1_stderr_K: float | None
    gof_p_value: float | None
    v22_slope_m2: float | None
    eta1: float
    eta2: float
    wall_time_s: float
    records_csv: str
    series_x1: np.ndarray = field(repr=False, default=None)
    v22_trace: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        out = {key: getattr(self.config, key) for key in CONFIG_KEYS}
        out.update((name, getattr(self, name)) for name in SUMMARY_STATS)
        out["records_csv"] = self.records_csv
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def ensemble_stats(x1_values, v22_trace, params: OscillatorParams) -> dict:
    """The first four of ``SUMMARY_STATS`` for an ensemble of the oscillator
    ``params``, by name and in that order; None where the run is too small
    for the corresponding inference."""
    stats = dict.fromkeys(SUMMARY_STATS[:4])
    series = SampleSeries(np.asarray(x1_values, dtype=np.float64))
    try:
        fit = estimate_t1(series, params)
        stats["t1_hat_K"], stats["t1_stderr_K"] = fit.t1_hat, fit.stderr
    except (InsufficientDataError, DegenerateSeriesError):
        pass
    try:
        stats["gof_p_value"] = gof_boltzmann(series)
    except (InsufficientDataError, DegenerateSeriesError):
        pass
    try:
        stats["v22_slope_m2"] = heating_slope(v22_trace)
    except InsufficientDataError:
        pass
    return stats


def _in_order(pool, jobs, ahead: int) -> Iterator[tuple[np.ndarray, list[bytes] | None]]:
    """``_run_pooled_chunk`` over ``jobs`` in ``pool``, a process pool,
    yielded in job order, with at most ``ahead`` chunks submitted and not yet
    yielded."""
    pending: deque = deque()
    try:
        for job in jobs:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(pool.submit(_run_pooled_chunk, *job))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_ensembles(
    configs: Sequence[RunConfig], workers: int = 1, record_path: str | None = None
) -> Iterator[RunSummary]:
    """Run each config's ensemble and yield its summary, in order, as soon as
    its last chunk is in.

    Trajectories 0..n_traj-1 of each config are simulated in chunks of
    ``CHUNK_SIZE``; with ``record_path``, which takes one config, in chunks
    of ``ROWS_CHUNK_SIZE``, or fewer when n_meas is large, so that a chunk
    holds at most ``ROWS_STEP_BUDGET`` rows; the rows are written chunk by
    chunk as they arrive, and in process block by block as they are
    rendered.  A config is set up when its first chunk is queued, and its
    plan is dropped after its summary.  Every config's chunks go through one
    pool, started only when ``_pool_size`` gives more than one process,
    which keeps at most two chunks per process in flight; so memory holds
    one config's series, the chunks in flight (one chunk's values in
    process) and their configs' plans.
    A run that fails anywhere, statistics included, removes the record file
    if it is a regular file: a streamed file cut short would otherwise be
    well-formed.  ``wall_time_s`` is the time since the call or the previous
    summary.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ParameterError(f"workers must be an integer >= 1, got {workers!r}")
    if record_path is not None and len(configs) != 1:
        raise ParameterError(f"a record file holds one run, got {len(configs)} configs")
    started = _time.perf_counter()
    collect_rows = record_path is not None
    size = min(ROWS_CHUNK_SIZE, max(1, ROWS_STEP_BUDGET // configs[0].n_meas)) if collect_rows else CHUNK_SIZE
    starts = [range(0, config.n_traj, size) for config in configs]
    # (plan, eta1, eta2) of the configs whose chunks are queued, until their
    # summaries; or the error of a set-up that failed, after which no job is made
    plans: deque = deque()

    def jobs():
        for config, point_starts in zip(configs, starts):
            try:
                plan = _setup(config)
                budget_point = operating_point(config)
                plans.append((plan, _eta1(budget_point), _eta2(budget_point)))
            except (ValueError, ArithmeticError) as error:
                plans.append(error)
                return
            for lo in point_starts:
                yield config.seed, plan, lo, min(lo + size, config.n_traj), collect_rows

    handle = None
    try:
        with ExitStack() as stack:
            if collect_rows:
                from .records import RECORD_CSV_HEADER

                handle = stack.enter_context(open(record_path, "wb"))
                handle.write(RECORD_CSV_HEADER.encode() + b"\n")
            traj_steps = sum(config.n_traj * config.n_meas for config in configs)
            n_procs = _pool_size(workers, sum(map(len, starts)), traj_steps)
            if n_procs > 1:
                from concurrent.futures import ProcessPoolExecutor

                pool = stack.enter_context(ProcessPoolExecutor(max_workers=n_procs))
                parts = _in_order(pool, jobs(), 2 * n_procs)
                stack.callback(parts.close)  # cancel what is queued before the pool waits for it
            else:
                parts = starmap(_run_chunk, jobs())
            for config, point_starts in zip(configs, starts):
                x1_parts: list[np.ndarray] = []
                # parts yields in job order, so each point's chunks arrive in trajectory order
                for x1, rows in islice(parts, len(point_starts)):
                    x1_parts.append(x1)
                    if handle is not None:
                        handle.writelines(rows)
                    del rows  # not alive while the next chunk runs or arrives
                if isinstance(plans[0], Exception):
                    raise plans[0]
                plan, eta1, eta2 = plans.popleft()
                v22_trace = plan.steps["post_v22"].copy()
                x1s = np.concatenate(x1_parts)
                yield RunSummary(
                    config=config,
                    **ensemble_stats(x1s, v22_trace, config.oscillator()),
                    eta1=eta1,
                    eta2=eta2,
                    wall_time_s=_time.perf_counter() - started,
                    records_csv=record_path or "",
                    series_x1=x1s,
                    v22_trace=v22_trace,
                )
                started = _time.perf_counter()
    except GeneratorExit:
        raise  # the caller stopped after a summary: every row it covers was written
    except BaseException:
        # a failed run leaves no record file; a path that names no regular
        # file (a device such as /dev/null, a symlink) is left alone
        with suppress(FileNotFoundError):  # e.g. removed meanwhile by another process
            if handle is not None and stat.S_ISREG(os.lstat(record_path).st_mode):
                os.remove(record_path)
        raise


def run_ensemble(config: RunConfig, workers: int = 1, record_path: str | None = None) -> RunSummary:
    """Run the configured ensemble and aggregate in trajectory-index order;
    see ``run_ensembles``."""
    (summary,) = run_ensembles([config], workers, record_path)
    return summary

