import json
import math
import multiprocessing
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qndsim import (
    GaussianQuadState,
    NumericalFailureError,
    ParameterError,
    default_config,
    run_ensemble,
    run_schedule,
    thermal_step,
    trajectory_rng,
)
from qndsim.dynamics import stationary_variance, zero_point_variance
from qndsim.ensemble import (
    CHUNK_SIZE,
    PROCESS_TRAJ_STEPS,
    ROWS_CHUNK_SIZE,
    _ChunkDraws,
    _pool_size,
    _run_chunk,
    _setup,
    run_ensembles,
)
from qndsim.measurement import DRAW_BLOCK
from qndsim.records import FORMAT_BLOCK_ROWS, RECORD_CSV_HEADER


def small_config(**overrides):
    base = dict(n_traj=96, n_meas=6, seed=314159)
    base.update(overrides)
    return replace(default_config(), **base)


def test_trajectory_streams_are_deterministic_and_distinct():
    a = trajectory_rng(123, 0).normal(size=4)
    b = trajectory_rng(123, 0).normal(size=4)
    c = trajectory_rng(123, 1).normal(size=4)
    d = trajectory_rng(124, 0).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_single_trajectory_single_measurement(tmp_path):
    path = tmp_path / "records.csv"
    summary = run_ensemble(small_config(n_traj=1, n_meas=1), record_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == RECORD_CSV_HEADER
    assert len(lines) == 2  # exactly one record row
    assert lines[1].startswith("0,1,")
    # too small for any inference: stats fields are null, budget figures are not
    data = json.loads(summary.to_json())
    assert data["t1_hat_K"] is None
    assert data["gof_p_value"] is None
    assert data["v22_slope_m2"] is None
    assert math.isfinite(data["eta1"]) and math.isfinite(data["eta2"])


def test_identical_runs_are_byte_identical(tmp_path):
    config = small_config()
    path = tmp_path / "records.csv"
    snapshots = []
    for _ in range(2):
        summary = run_ensemble(config, record_path=str(path))
        snapshots.append((summary.to_json(), path.read_bytes()))
    assert snapshots[0] == snapshots[1]


def test_worker_count_does_not_change_bytes(tmp_path, pooled):
    config = small_config(n_traj=2 * CHUNK_SIZE + 37, n_meas=4)
    path = tmp_path / "records.csv"
    serial = run_ensemble(config, workers=1, record_path=str(path))
    serial_bytes = path.read_bytes()
    parallel = run_ensemble(config, workers=4, record_path=str(path))
    assert serial.to_json() == parallel.to_json()
    assert serial_bytes == path.read_bytes()
    assert pooled == [2]


# every draw pattern of the chunk kernel: 3 or 5 draws per step, burn-in,
# the quantum floor, each meter direction, and a long schedule whose 3 draws
# per step fill more than six draw blocks per stream
REPLAY_BRANCHES = {
    "orthodox": {},
    "long_schedule": {"n_meas": 2 * DRAW_BLOCK + 3},
    "no_conditioning": {"collapse_policy": "no_conditioning"},
    "burn_in": {"burn_in_s": 5.0},
    "quantum_floor": {"bath_model": "quantum"},
    "position": {"meter_kind": "position"},
    "qnd_x2": {"meter_kind": "qnd_x2"},
}


def replay_start(config, index):
    """Trajectory ``index``'s own stream and its state after the start draws
    and the burn-in, from the public functions alone."""
    params = config.oscillator()
    floor = 0.0 if config.bath_model == "classical" else zero_point_variance(params)
    sd = math.sqrt(max(stationary_variance(params) - floor, 0.0))
    rng = trajectory_rng(config.seed, index)
    start = GaussianQuadState(rng.normal(0.0, sd), rng.normal(0.0, sd), floor, floor, 0.0, 0.0)
    if config.burn_in_s > 0.0:
        start = thermal_step(start, config.burn_in_s, params, rng)
    return rng, start


@pytest.mark.parametrize("branch", list(REPLAY_BRANCHES))
def test_trajectory_replays_through_public_schedule(branch, tmp_path):
    # each trajectory of a batched chunk gets exactly the draws of its own
    # stream, in the order the scalar reference run_schedule consumes them,
    # replayed one step at a time so that each row meets the means after it
    config = small_config(**{"n_traj": 3, "n_meas": 5, **REPLAY_BRANCHES[branch]})
    path = tmp_path / "records.csv"
    summary = run_ensemble(config, record_path=str(path))
    rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    params, meter, policy = config.oscillator(), config.meter(), config.collapse_policy
    for index in range(config.n_traj):
        rng, state = replay_start(config, index)
        expected = []
        for step in range(1, config.n_meas + 1):
            (record,), state = run_schedule(state, meter, policy, params, config.dt_s, 1, rng)
            expected.append([index, step, record.time, record.outcome, state.mean1, state.mean2, record.post_v11,
                             record.post_v22])
        assert rows[index * config.n_meas:(index + 1) * config.n_meas] == expected
        assert state.mean1 == summary.series_x1[index]
        # the summary reports the trace that every trajectory shares, as is
        assert summary.v22_trace.tobytes() == np.array([row[7] for row in expected]).tobytes()


@pytest.mark.parametrize("branch", ["long_schedule", "no_conditioning", "burn_in"])
def test_trajectory_replays_without_rows(branch, monkeypatch):
    # the path without rows steps wider chunks from one re-keyed bit
    # generator; chunks of 2 make the second start at trajectory 2, and the
    # long schedule draws more than six blocks per stream
    monkeypatch.setattr("qndsim.ensemble.CHUNK_SIZE", 2)
    config = small_config(**{"n_traj": 3, "n_meas": 5, **REPLAY_BRANCHES[branch]})
    summary = run_ensemble(config)
    params, meter, policy = config.oscillator(), config.meter(), config.collapse_policy
    for index in range(config.n_traj):
        rng, start = replay_start(config, index)
        scheduled, final = run_schedule(start, meter, policy, params, config.dt_s, config.n_meas, rng)
        assert final.mean1 == summary.series_x1[index]
        assert summary.v22_trace.tobytes() == np.array([r.post_v22 for r in scheduled]).tobytes()


def count_chunk_draws(monkeypatch):
    """Make ``_run_chunk`` draw from a ``_ChunkDraws`` that records the count
    it is made with and each request, with the shape of what it returns;
    return the two lists they are recorded in."""
    made, asked = [], []

    class CountingDraws(_ChunkDraws):
        def __init__(self, seed, start, stop, n_draws):
            made.append(n_draws)
            super().__init__(seed, start, stop, n_draws)

        def __call__(self, k):
            block = super().__call__(k)
            asked.append((k, block.shape))
            return block

    monkeypatch.setattr("qndsim.ensemble._ChunkDraws", CountingDraws)
    return made, asked


@pytest.mark.parametrize("burn_in_s", [0.0, 5.0])
@pytest.mark.parametrize("meter_kind", ["qnd_x1", "qnd_x2", "position"])
@pytest.mark.parametrize("policy", ["orthodox", "no_conditioning"])
def test_chunk_declares_the_draws_it_uses(policy, meter_kind, burn_in_s, monkeypatch):
    # each stream's source is made for exactly the plan's draws, start and
    # burn-in included, and the kernel takes every one of them, one (k, 3)
    # block per request, with blocks that hold the whole run and with
    # blocks of 4, which the lead and one step exceed
    made, asked = count_chunk_draws(monkeypatch)
    config = small_config(collapse_policy=policy, meter_kind=meter_kind, burn_in_s=burn_in_s, n_meas=7)
    plan = _setup(config)
    for draw_block in (DRAW_BLOCK, 4):
        monkeypatch.setattr("qndsim.measurement.DRAW_BLOCK", draw_block)
        made.clear()
        asked.clear()
        _run_chunk(config.seed, plan, 0, 3, False)
        assert made == [plan.draws]
        assert sum(k for k, _ in asked) == plan.draws
        assert [shape for _, shape in asked] == [(k, 3) for k, _ in asked]
        assert len(asked) == (1 if draw_block == DRAW_BLOCK else config.n_meas)


@pytest.mark.parametrize("draw_block", [DRAW_BLOCK, 10, 4])
@pytest.mark.parametrize("burn_in_s", [0.0, 5.0])
@pytest.mark.parametrize("meter_kind", ["qnd_x1", "qnd_x2", "position"])
@pytest.mark.parametrize("policy", ["orthodox", "no_conditioning"])
def test_kernel_asks_for_the_lead_and_whole_steps(policy, meter_kind, burn_in_s, draw_block, monkeypatch):
    # step_means owns the draw order: its first request is the lead's two
    # kicks a step plus whole steps, every later one whole steps, 3 draws a
    # step or 5 under no_conditioning; none is wider than DRAW_BLOCK unless
    # it holds the lead and one step, or one step, that already exceed it;
    # 200 steps take more than one block at every DRAW_BLOCK
    _, asked = count_chunk_draws(monkeypatch)
    monkeypatch.setattr("qndsim.measurement.DRAW_BLOCK", draw_block)
    config = small_config(collapse_policy=policy, meter_kind=meter_kind, burn_in_s=burn_in_s, n_meas=200)
    plan = _setup(config)
    _run_chunk(config.seed, plan, 0, 3, False)
    (first, _), *rest = asked
    lead, width = 2 * len(plan.lead), 3 if policy == "orthodox" else 5
    assert lead == 2 + 2 * (burn_in_s > 0.0)
    assert first > lead and (first - lead) % width == 0
    assert all(k % width == 0 for k, _ in rest)
    assert first <= max(draw_block, lead + width)
    assert all(k <= max(draw_block, width) for k, _ in rest)
    assert first + sum(k for k, _ in rest) == plan.draws and rest


@pytest.mark.parametrize("burn_in_s", [0.0, 5.0])
@pytest.mark.parametrize("bath_model", ["classical", "quantum"])
@pytest.mark.parametrize("meter_kind", ["qnd_x1", "qnd_x2", "position"])
@pytest.mark.parametrize("policy", ["orthodox", "no_conditioning"])
def test_plan_draws_follow_the_documented_layout(policy, meter_kind, bath_model, burn_in_s):
    # two start kicks, two for a burn-in, then 3 normals a step, or 5 under
    # no_conditioning, as perfbench/run.py's normal_draws counts them; the
    # start is the first lead step, from zero means to the stationary spread
    config = small_config(collapse_policy=policy, meter_kind=meter_kind, bath_model=bath_model,
                          burn_in_s=burn_in_s, n_meas=7)
    plan = _setup(config)
    assert plan.draws == 2 + 2 * (burn_in_s > 0.0) + (3 if policy == "orthodox" else 5) * config.n_meas
    params = config.oscillator()
    floor = 0.0 if bath_model == "classical" else zero_point_variance(params)
    assert plan.lead[0] == (0.0, math.sqrt(stationary_variance(params) - floor))


def chunk_normals(draws, widths):
    """The normals of ``draws``, a ``_ChunkDraws``, asked for ``widths`` at a
    time, copied out of its buffer, as one (sum(widths), n) array."""
    return np.concatenate([draws(width).copy() for width in widths])


@pytest.mark.parametrize("n_draws", [5, DRAW_BLOCK, 2 * DRAW_BLOCK + 5])
def test_chunk_draws_are_each_streams_own_and_end_at_the_declared_count(n_draws):
    # one request, or several: each after the first starts from the saved
    # states, and a request wider than any before it widens the buffer
    widths = [n_draws] if n_draws <= DRAW_BLOCK else [3, DRAW_BLOCK, 1, DRAW_BLOCK + 1]
    z = chunk_normals(_ChunkDraws(2024, 4, 7, n_draws), widths)
    assert z.shape == (n_draws, 3)
    for column, index in enumerate(range(4, 7)):
        assert z[:, column].tobytes() == trajectory_rng(2024, index).standard_normal(n_draws).tobytes()
    # asked for a few at a time, they are the same normals
    draws = _ChunkDraws(2024, 4, 7, n_draws)
    taken = chunk_normals(draws, [min(5, n_draws - k) for k in range(0, n_draws, 5)])
    assert taken.tobytes() == z.tobytes()
    with pytest.raises(RuntimeError, match="more normals than it declared"):
        draws(1)


@pytest.mark.parametrize(
    "seed, start, n_draws",
    [
        (2**64 - 1, 0, 7),  # the largest key word
        (11, 2**32 - 1, 7),  # indices past 32 bits
        (2**64 - 1, 2**32 + 5, DRAW_BLOCK + 9),  # a second fill starts from saved states
    ],
)
def test_rekeyed_chunk_draws_equal_each_trajectory_rng(seed, start, n_draws):
    widths = [min(DRAW_BLOCK, n_draws - lo) for lo in range(0, n_draws, DRAW_BLOCK)]
    z = chunk_normals(_ChunkDraws(seed, start, start + 3, n_draws), widths)
    for column in range(3):
        expected = trajectory_rng(seed, start + column).standard_normal(n_draws)
        assert z[:, column].tobytes() == expected.tobytes()


def plan_with(config, column, step):
    """``_setup`` for ``config`` whose plan has ``inf`` at ``column`` of
    ``step``, in a copy of its steps."""
    plan = _setup(config)
    steps = plan.steps.copy()
    steps[column][step] = np.inf
    return replace(plan, steps=steps)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [False, True], ids=["rowless", "rows"])
@pytest.mark.parametrize(
    "policy, column", [("orthodox", "k1"), ("no_conditioning", "outcome_sd")], ids=["gain", "foil_outcome_sd"]
)
def test_a_non_finite_value_mid_run_is_a_numerical_failure(
    policy, column, rows, workers, tmp_path, monkeypatch, pooled
):
    # finiteness is checked once per chunk: an infinite gain makes the means
    # non-finite from step 3 on; under no_conditioning an infinite outcome
    # sd makes only that step's outcomes non-finite, since no outcome feeds
    # a mean; either fails, in process and in a pool, and leaves no record file
    config = small_config(n_traj=CHUNK_SIZE + 100, collapse_policy=policy)
    monkeypatch.setattr("qndsim.ensemble._setup", lambda config: plan_with(config, column, 3))
    path = tmp_path / "records.csv"
    with pytest.raises(NumericalFailureError, match="^measurement produced a non-finite outcome or state$"):
        run_ensemble(config, workers=workers, record_path=str(path) if rows else None)
    assert not path.exists()
    assert pooled == ([2] if workers == 2 else [])


def test_chunk_memory_does_not_grow_with_n_meas_without_rows():
    def peak_bytes(n_meas):
        config = small_config(n_meas=n_meas)
        plan = _setup(config)  # once per config, in the parent
        # untraced, so that what a first chunk allocates once in a process
        # (numpy.random's import, on the first Philox) is not counted
        _run_chunk(config.seed, plan, 0, 1, False)
        tracemalloc.start()
        try:
            _run_chunk(config.seed, plan, 0, 16, False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one step's outcomes and means are alive at a time; keeping every
    # step's would add about 0.6 MB here
    assert peak_bytes(8 * DRAW_BLOCK) - peak_bytes(2 * DRAW_BLOCK) < 50_000


@pytest.mark.parametrize("overrides", [{}, {"mass_kg": 1e-24}], ids=["default", "fixed_notation"])
def test_rows_chunk_memory_stays_under_its_values_and_a_few_blocks(overrides):
    # a chunk keeps its outcomes and means, 24 bytes a row, and its rows are
    # rendered a block at a time as they are taken; only values that CPython
    # writes (about a quarter of the means when mass_kg = 1e-24, in fixed
    # notation) are boxed as Python floats, and boxing the whole chunk's
    # values would add about 2.4 MB here, the chunk's text 3.6 MB
    config = small_config(n_traj=128, n_meas=200, **overrides)
    plan = _setup(config)
    b"".join(_run_chunk(config.seed, plan, 0, 1, True)[1])  # one-time allocations, untraced
    tracemalloc.start()
    try:
        _, rows = _run_chunk(config.seed, plan, 0, 128, True)
        text = 0
        for block in rows:
            text += len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = 24 * 128 * 200
    block = 850 * FORMAT_BLOCK_ROWS  # a block being rendered takes about 850 bytes a row
    assert text > 3 * 1024 * 1024 and peak < values + 3 * block


def test_in_process_rows_run_memory_stays_under_half_a_chunks_text(tmp_path):
    # each block is written as it is rendered, so no chunk's text is ever
    # held whole; rendering each chunk whole before writing it, which held
    # two chunks' text at once, peaked at 4.8 times this bound
    config = small_config(n_traj=3 * ROWS_CHUNK_SIZE, n_meas=200)
    path = tmp_path / "records.csv"
    run_ensemble(config, record_path=str(path))  # one-time allocations, untraced
    tracemalloc.start()
    try:
        run_ensemble(config, record_path=str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = path.read_bytes().splitlines(keepends=True)[1:]
    assert len(rows) == 3 * ROWS_CHUNK_SIZE * config.n_meas
    assert peak < sum(map(len, rows[: ROWS_CHUNK_SIZE * config.n_meas])) / 2


def test_rows_chunk_width_is_bounded_by_the_step_budget(tmp_path, monkeypatch):
    # with rows, a chunk holds at most ROWS_STEP_BUDGET trajectory-steps, and
    # at least one trajectory; the width changes no output byte
    widths = []

    def spy(seed, plan, start, stop, collect_rows):
        widths.append(stop - start)
        return _run_chunk(seed, plan, start, stop, collect_rows)

    monkeypatch.setattr("qndsim.ensemble._run_chunk", spy)
    config = small_config(n_traj=11, n_meas=40)
    outputs = []
    for budget, expected in ((64000, [11]), (130, [3, 3, 3, 2]), (10, [1] * 11)):
        monkeypatch.setattr("qndsim.ensemble.ROWS_STEP_BUDGET", budget)
        widths.clear()
        path = tmp_path / f"records-{budget}.csv"
        summary = run_ensemble(config, record_path=str(path))
        assert widths == expected
        outputs.append((summary.to_json().replace(path.name, ""), path.read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    widths.clear()
    run_ensemble(config)  # without rows, the budget does not apply
    assert widths == [11]


def test_record_file_takes_one_config(tmp_path):
    path = tmp_path / "records.csv"
    with pytest.raises(ParameterError, match="one run"):
        next(run_ensembles([small_config(), small_config()], record_path=str(path)))
    assert not path.exists()


def test_record_file_outlives_a_caller_that_stops_at_the_summary(tmp_path):
    path = tmp_path / "records.csv"
    summaries = run_ensembles([small_config(n_traj=5, n_meas=3)], record_path=str(path))
    next(summaries)
    summaries.close()
    assert len(path.read_text().splitlines()) == 1 + 5 * 3


def test_failed_run_leaves_no_record_file(tmp_path, monkeypatch, pooled):
    # each way a run fails after its record file is open: a non-finite
    # covariance, a non-finite outcome, and statistics that fail after every
    # chunk was written; in-process, and in a pool of two (whatever the
    # machine has) that still holds queued chunks, one trajectory wide, when
    # the first one fails
    def failing_stats(*args):
        raise ParameterError("the statistics failed")

    monkeypatch.setattr("qndsim.ensemble.ROWS_CHUNK_SIZE", 1)
    failed_runs = [
        (dict(n_traj=8, n_meas=1, sigma_m_m=1e-300), None, NumericalFailureError),
        (dict(n_traj=8, n_meas=1, sigma_m_m=1e160, collapse_policy="no_conditioning"), None, NumericalFailureError),
        (dict(n_traj=20, n_meas=5), failing_stats, ParameterError),
    ]
    path = tmp_path / "records.csv"
    messages = {}
    for workers in (1, 2):
        for overrides, stats, error in failed_runs:
            with monkeypatch.context() as patch, pytest.raises(error) as failure:
                if stats is not None:
                    patch.setattr("qndsim.ensemble.ensemble_stats", stats)
                run_ensemble(small_config(**overrides), workers=workers, record_path=str(path))
            assert not path.exists()
            messages.setdefault(workers, []).append(str(failure.value))
    assert messages[2] == messages[1]
    assert pooled == [2] * len(failed_runs)


def test_failed_run_whose_record_file_vanished_raises_its_own_error(tmp_path, monkeypatch, pooled):
    # the record file is gone when the failed run cleans up: the run's own
    # error surfaces, not the cleanup's, in process and pooled
    path = tmp_path / "records.csv"

    def spy(*args):
        path.unlink(missing_ok=True)
        raise NumericalFailureError("the chunk failed")

    monkeypatch.setattr("qndsim.ensemble.ROWS_CHUNK_SIZE", 1)
    monkeypatch.setattr("qndsim.ensemble._run_chunk", spy)
    for workers in (1, 2):
        with pytest.raises(NumericalFailureError, match="the chunk failed"):
            run_ensemble(small_config(n_traj=4, n_meas=3), workers=workers, record_path=str(path))
        assert not path.exists()
    assert pooled == [2]


def test_covariance_failure_is_raised_by_the_plan_before_any_chunk(tmp_path, monkeypatch, pooled):
    # the config's plan is made once, in the parent, so a covariance that
    # fails stops the run before any chunk is stepped, in process or pooled
    def spy(*args):
        raise AssertionError("a chunk ran although the config's plan failed")

    monkeypatch.setattr("qndsim.ensemble._run_chunk", spy)
    failing = [
        # v22 grows by sigma_ba**2 per step, so sigma_m**2 * v11 underflows
        (dict(bath_model="quantum", sigma_m_m=1e-150), "covariance product underflow"),
        # sigma_m**2 overflows: the covariance stays finite, the outcome's sd does not
        (dict(sigma_m_m=1e160, collapse_policy="no_conditioning"), "measurement produced a non-finite outcome"),
        # the summary's budget figure overflows; it is made with the plan
        (dict(tau1_s=1e-300, dt_s=1e10), "eta1 is not finite"),
    ]
    path = tmp_path / "records.csv"
    for overrides, message in failing:
        config = small_config(n_traj=CHUNK_SIZE + 100, n_meas=6, **overrides)
        for workers in (1, 2):
            with pytest.raises(NumericalFailureError) as failure:
                run_ensemble(config, workers=workers, record_path=str(path))
            assert str(failure.value).startswith(message)
            assert not path.exists()
    assert pooled == [2] * len(failing)


def test_sweep_raises_a_failed_plan_after_the_summaries_before_it(monkeypatch, pooled):
    # a later config's plan is made while earlier chunks are queued; its
    # error comes after the summaries before it, at any worker count
    monkeypatch.setattr("qndsim.ensemble.CHUNK_SIZE", 7)
    failing = dict(n_meas=6, bath_model="quantum", sigma_m_m=1e-150)
    configs = [small_config(n_traj=20, n_meas=3), small_config(n_traj=20, **failing)]
    for workers in (1, 2):
        summaries = run_ensembles(configs, workers=workers)
        assert next(summaries).config == configs[0]
        with pytest.raises(NumericalFailureError, match="covariance product underflow"):
            next(summaries)
    assert pooled == [2]


def test_pooled_sweep_closed_after_its_first_summary_leaves_no_process(monkeypatch, pooled):
    # later configs' chunks are queued in the pool when the caller stops;
    # closing the sweep cancels them and shuts the pool down
    monkeypatch.setattr("qndsim.ensemble.CHUNK_SIZE", 7)
    configs = [small_config(n_traj=20, seed=seed) for seed in range(4)]
    summaries = run_ensembles(configs, workers=2)
    assert next(summaries).config == configs[0]
    assert pooled == [2]
    assert multiprocessing.active_children()
    summaries.close()
    assert multiprocessing.active_children() == []


def test_workers_must_be_positive():
    for workers in (0, -3):
        with pytest.raises(ParameterError):
            run_ensemble(small_config(n_traj=2, n_meas=1), workers=workers)


def test_pool_size_is_bounded_by_chunks_and_cores(monkeypatch):
    # work for every process asked for, so that only the chunks and cores bound it
    plenty = 10**6 * PROCESS_TRAJ_STEPS
    # where the platform reports no CPU affinity, the core count bounds it
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_size(100_000, 3, plenty) == 3
    assert _pool_size(100_000, 10**6, plenty) == 4
    assert _pool_size(2, 10**6, plenty) == 2
    assert _pool_size(8, 1, plenty) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(100_000, 10**6, plenty) == 1
    # an affinity mask narrower than the machine bounds it instead
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert _pool_size(64, 10**6, plenty) == 2
    assert _pool_size(64, 1, plenty) == 1
    assert _pool_size(1, 10**6, plenty) == 1


def test_pool_size_gives_a_process_only_for_each_whole_share_of_the_work(monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    floor = PROCESS_TRAJ_STEPS
    for traj_steps in (0, 1, floor - 1, floor, 2 * floor - 1):
        assert _pool_size(8, 10**6, traj_steps) == 1
    assert _pool_size(8, 10**6, 2 * floor) == 2
    assert _pool_size(8, 10**6, 3 * floor - 1) == 2
    assert _pool_size(8, 10**6, 3 * floor) == 3
    for traj_steps in (4 * floor, 5 * floor, 10**6 * floor):
        assert _pool_size(8, 10**6, traj_steps) == 4


def test_a_sweep_of_small_points_gets_a_pool_for_their_work_together(pool_starts):
    # each point is below the floor, their sum is two shares of it
    floor = PROCESS_TRAJ_STEPS
    points = [small_config(n_traj=CHUNK_SIZE, n_meas=floor // (2 * CHUNK_SIZE) + 1, seed=seed) for seed in range(4)]
    assert all(config.n_traj * config.n_meas < floor for config in points)
    summaries = run_ensembles(points[:2], workers=2)
    next(summaries)
    summaries.close()
    assert pool_starts == []
    summaries = run_ensembles(points, workers=2)
    next(summaries)
    summaries.close()
    assert pool_starts == [2]


def test_burn_in_changes_the_stream_but_stays_deterministic():
    with_burn = run_ensemble(small_config(burn_in_s=5.0))
    again = run_ensemble(small_config(burn_in_s=5.0))
    without = run_ensemble(small_config())
    assert np.array_equal(with_burn.series_x1, again.series_x1)
    assert not np.array_equal(with_burn.series_x1, without.series_x1)


def test_record_rows_parse_back(tmp_path):
    path = tmp_path / "records.csv"
    config = small_config(n_traj=5, n_meas=3)
    run_ensemble(config, record_path=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + config.n_traj * config.n_meas
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 8
        int(parts[0]), int(parts[1])
        values = [float(p) for p in parts[2:]]
        assert all(math.isfinite(v) for v in values)
    # trajectory-index-major ordering
    ids = [int(line.split(",", 1)[0]) for line in lines[1:]]
    assert ids == sorted(ids)


def test_quantum_bath_initializes_at_zero_point_floor():
    config = small_config(bath_model="quantum", n_traj=2, n_meas=1)
    summary = run_ensemble(config)
    assert summary.to_dict()["bath_model"] == "quantum"
    assert np.all(np.isfinite(summary.v22_trace))


def test_summary_field_order_is_fixed():
    summary = run_ensemble(small_config(n_traj=2, n_meas=1))
    data = json.loads(summary.to_json())
    assert list(data)[:13] == [
        "mass_kg", "omega1_rad_s", "tau1_s", "temperature_K", "bath_model", "meter_kind",
        "sigma_m_m", "collapse_policy", "dt_s", "n_meas", "n_traj", "burn_in_s", "seed",
    ]
    assert list(data)[13:] == [
        "t1_hat_K", "t1_stderr_K", "gof_p_value", "v22_slope_m2", "eta1", "eta2", "records_csv",
    ]


def test_small_central_run_recovers_temperature():
    config = small_config(n_traj=600, n_meas=12, seed=777)
    summary = run_ensemble(config)
    assert abs(summary.t1_hat_K - config.temperature_K) <= 4 * summary.t1_stderr_K
    assert summary.gof_p_value > 1e-3
