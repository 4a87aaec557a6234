"""Golden digests: the summary JSON and record CSV bytes of small runs.

The record CSV digests were produced by the engine before the batched chunk
kernel replaced the per-trajectory loop, and the summary digests when the
shared v22 trace replaced the mean of its per-trajectory copies; any change
to them is a change of output bytes and must be named in CHANGES.md.  300
trajectories give three chunks of rows, the last one partial, so chunk
boundaries and the pool are both exercised: the ``pooled`` fixture lets
these small runs start a pool of two at two workers, which each such case
checks.  A run without rows steps wider chunks and must write the same
summary, and the bytes must not depend on the chunk sizes or the draw block
either.  The command digests pin what ``budget`` prints and writes, a small
pooled ``sweep`` CSV, and the JSON and histogram CSV that ``analyze`` makes
of a golden record CSV.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from qndsim import (
    default_config,
    ensemble,
    format_config,
    is_qnd_sequence,
    measurement,
    measurement_direction,
    run_ensemble,
)
from qndsim.cli import main

# variant: (config overrides, sha256 of summary JSON, sha256 of record CSV)
GOLDEN = {
    "orthodox_qnd_x1": (
        {},
        "0f89c3ebbd516779261e551551461daa7a61b12ed171ce02a0b965430ee8757a",
        "38e2005d9d4a5e24bbeb889de6f8744b3da435d3b81d3855ad0fec454a175462",
    ),
    "no_conditioning": (
        {"collapse_policy": "no_conditioning"},
        "3c9313dab02ad0b28a19b1a7bfa95645d8275060c366a4d4bd565dcd0b3910a3",
        "86ae2880dace8b11f2cabb88e46f145f40a7bf63f7386a475e7a66ca4c8e9804",
    ),
    "position": (
        {"meter_kind": "position"},
        "141dc89ede1fc4f752b07c3df32b499525a90871993029f39b16e82a74669491",
        "a3d42e70e4eda5eeed3b3b4cf4cb2515b3b53edbf645add23d0cd84e84d3dddc",
    ),
    "position_no_conditioning": (
        {"meter_kind": "position", "collapse_policy": "no_conditioning"},
        "213da8b12109dc7d9842b0a29e04813ec6d5a8fbbc293aa2f36e475e411cce50",
        "173ccc5a76a8e820000be3787d77e59045910011583e227accf13676e7fda07c",
    ),
    "quantum_burn_in": (
        {"bath_model": "quantum", "burn_in_s": 1.0},
        "265c2577b3505697aa775b2e3e0e6a20aaf39ed4f9295abc870c5798ec889dbd",
        "7cda7b66260be366a1316d5aa5571d8f38efcc6e6dcd76099794cb1ce01e1f38",
    ),
    "qnd_x2": (
        {"meter_kind": "qnd_x2"},
        "ab6e3210cf39db1645f2ac7c614f31cabbf4fe565d8233ae2b7de64de9870106",
        "019cde6b96ff83cf86df73271edb786153b3218a5d53d45ef779cba1cfb27285",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_config(variant):
    return replace(default_config(), n_traj=300, n_meas=12, seed=271828, **GOLDEN[variant][0])


def summary_digest(summary):
    # the summary echoes the records path; pin the bytes, not the temp dir
    return sha256(replace(summary, records_csv="records.csv").to_json().encode())


def run_digests(variant, workers, tmp_path):
    """(summary digest, record CSV digest) of one golden run."""
    path = tmp_path / "records.csv"
    summary = run_ensemble(golden_config(variant), workers=workers, record_path=str(path))
    return summary_digest(summary), sha256(path.read_bytes())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", list(GOLDEN))
def test_outputs_match_golden_digests(variant, workers, tmp_path, pooled):
    assert run_digests(variant, workers, tmp_path) == GOLDEN[variant][1:]
    assert pooled == ([2] if workers == 2 else [])


@pytest.mark.parametrize("width", [None, 7, 1], ids=["default", "7", "1"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", list(GOLDEN))
def test_summary_without_rows_matches_golden_digest(variant, workers, width, monkeypatch, pooled):
    if width is not None:
        monkeypatch.setattr(ensemble, "CHUNK_SIZE", width)
    summary = run_ensemble(golden_config(variant), workers=workers)
    assert summary.records_csv == ""
    assert summary_digest(summary) == GOLDEN[variant][1]
    # at the default width the 300 trajectories are one chunk, which no pool runs
    assert pooled == ([2] if workers == 2 and width is not None else [])


@pytest.mark.parametrize("variant", list(GOLDEN))
def test_plan_reads_are_the_read_direction(variant):
    # one owner: the engine's plan reads along measurement_direction, bit for bit
    config = golden_config(variant)
    steps = ensemble._setup(config).steps
    reads = [measurement_direction(config.meter_kind, t, config.oscillator()) for t in steps["time"].tolist()]
    assert np.array(reads).tobytes() == np.stack([steps["u1"], steps["u2"]], axis=1).tobytes()


def test_qnd_check_reads_the_position_plan():
    # qnd-check's x over a position run's plan times reports the largest
    # cross product of the plan's own reads, over m omega1
    config = golden_config("position")
    params = config.oscillator()
    steps = ensemble._setup(config).steps
    u1, u2 = steps["u1"], steps["u2"]
    cross = np.abs(u1[:, None] * u2[None, :] - u2[:, None] * u1[None, :])
    expected = float(cross.max()) / (params.mass * params.omega1)
    assert is_qnd_sequence("x", steps["time"].tolist(), params).max_violation == expected > 0.0


# (chunk size with and without rows, the DRAW_BLOCK that step_means reads):
# the old chunk size and draw block, a chunk size that divides nothing, a
# single chunk asking for one step at a time, one trajectory per chunk asking
# for one step per fill, a block of 4, which the lead and one step exceed,
# and a block of 10, which holds one or two whole steps
EXECUTION_CHOICES = [
    pytest.param(chunk_size, draw_block, id=f"{chunk_size}-{draw_block}")
    for chunk_size, draw_block in [(128, 128), (7, 128), (300, 5), (1, 1), (128, 4), (7, 10)]
]


@pytest.mark.parametrize("chunk_size, draw_block", EXECUTION_CHOICES)
@pytest.mark.parametrize("variant", list(GOLDEN))
def test_outputs_do_not_depend_on_chunk_size(variant, chunk_size, draw_block, tmp_path, monkeypatch):
    monkeypatch.setattr(ensemble, "CHUNK_SIZE", chunk_size)
    monkeypatch.setattr(ensemble, "ROWS_CHUNK_SIZE", chunk_size)
    monkeypatch.setattr(measurement, "DRAW_BLOCK", draw_block)
    assert run_digests(variant, 1, tmp_path) == GOLDEN[variant][1:]
    assert summary_digest(run_ensemble(golden_config(variant))) == GOLDEN[variant][1]


# command: (arguments, the file it writes or None for stdout, sha256 of those bytes)
COMMAND_DIGESTS = {
    "budget_default": (["budget"], None, "43bad69ad59134db4260bca93e9f45d699f2bdf92c9f457405c00d8c559c65e0"),
    "budget_corners": (
        ["budget", "--T", "0.05,0.1", "--tau1", "1e3,1e4", "--omega2", "1e7,1e8"],
        "budget.csv",
        "2aac2f76efd8d20b529c6478336e9636d76a1649ce0fddb1f464e2f96986c403",
    ),
    "budget_mass_grid": (
        ["budget", "--eta-a", "2,3", "--mass", "1e-6"],
        None,
        "3212be2ac9ff78210195fa9de5f9c67b06039fc1bd44048d6d0dbb2a728d6a9a",
    ),
    "sweep_policy_n_traj": (
        ["sweep", "--vary", "collapse_policy=orthodox,no_conditioning", "--vary", "n_traj=150,200",
         "--workers", "2"],
        "sweep.csv",
        "d0be7dace3660083c3717c4c14ff0e6fb419d93a4c8645fd548dc824ce99fdda",
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_DIGESTS))
def test_command_outputs_match_digests(command, tmp_path, capsys, pooled):
    argv, out_name, digest = COMMAND_DIGESTS[command]
    if argv[0] == "sweep":
        config = replace(default_config(), n_traj=200, n_meas=6, seed=7)
        (tmp_path / "run.cfg").write_text(format_config(config))
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    if out_name is not None:
        argv = [*argv, "--out", str(tmp_path / out_name)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    data = out.encode() if out_name is None else (tmp_path / out_name).read_bytes()
    assert sha256(data) == digest
    assert pooled == ([2] if argv[0] == "sweep" else [])


# sha256 of analyze's --out JSON and --histogram CSV, read from the record CSV
# of the orthodox_qnd_x1 golden run
ANALYZE_DIGESTS = (
    "0611a487ab898b9d08eb09425dd6509e092a2b91b8640d8ea173a510e17cd217",
    "9b8c64086dd5d75b460d058c2080f51dfe2a2f1bcf06ef2630adcfa30b1203cb",
)


def test_analyze_outputs_match_digests(tmp_path):
    (tmp_path / "run.cfg").write_text(format_config(golden_config("orthodox_qnd_x1")))
    config, records = str(tmp_path / "run.cfg"), str(tmp_path / "records.csv")
    assert main(["simulate", "--config", config, "--records", records]) == 0
    assert sha256((tmp_path / "records.csv").read_bytes()) == GOLDEN["orthodox_qnd_x1"][2]
    assert main(["analyze", "--records", records, "--config", config, "--out", str(tmp_path / "analysis.json"),
                 "--histogram", str(tmp_path / "hist.csv")]) == 0
    assert (sha256((tmp_path / "analysis.json").read_bytes()), sha256((tmp_path / "hist.csv").read_bytes())) \
        == ANALYZE_DIGESTS
