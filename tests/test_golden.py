"""Golden digests: the summary JSON and record CSV bytes of small runs.

The digests were produced by the engine before the batched chunk kernel
replaced the per-trajectory loop; any change to them is a change of output
bytes and must be named in CHANGES.md.  300 trajectories give three chunks,
the last one partial, so the chunk fold and the pool are both exercised.
"""

import hashlib
from dataclasses import replace

import pytest

from qndsim import default_config, run_ensemble

# variant: (config overrides, sha256 of summary JSON, sha256 of record CSV)
GOLDEN = {
    "orthodox_qnd_x1": (
        {},
        "67ce345f7e82b0becb43185cb14360827dd27b9ad5f85825c2c154e48cef6ffe",
        "38e2005d9d4a5e24bbeb889de6f8744b3da435d3b81d3855ad0fec454a175462",
    ),
    "no_conditioning": (
        {"collapse_policy": "no_conditioning"},
        "945debbb62f0db8b77c5c89aa043eeec09056d6dbc9908b9a3218093564c7201",
        "86ae2880dace8b11f2cabb88e46f145f40a7bf63f7386a475e7a66ca4c8e9804",
    ),
    "position": (
        {"meter_kind": "position"},
        "425c56e1d9d46e3f2ee97134fa9e54d662e53bc0a03fe80a51980a5c96b27ddc",
        "a3d42e70e4eda5eeed3b3b4cf4cb2515b3b53edbf645add23d0cd84e84d3dddc",
    ),
    "position_no_conditioning": (
        {"meter_kind": "position", "collapse_policy": "no_conditioning"},
        "5c89742fa5900945108e2bd9c3e37946fcb9d315588c22bfa8c1c04f14a78727",
        "173ccc5a76a8e820000be3787d77e59045910011583e227accf13676e7fda07c",
    ),
    "quantum_burn_in": (
        {"bath_model": "quantum", "burn_in_s": 1.0},
        "49b007b501e9da7bbafdeac7a72780a9ced2e4a29c9638cfe67530dd13e8c82a",
        "7cda7b66260be366a1316d5aa5571d8f38efcc6e6dcd76099794cb1ce01e1f38",
    ),
    "qnd_x2": (
        {"meter_kind": "qnd_x2"},
        "a5df4a867c7dcf35b89ce9829db72231d835bf29469e443f4da9e302a1a454b7",
        "019cde6b96ff83cf86df73271edb786153b3218a5d53d45ef779cba1cfb27285",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", list(GOLDEN))
def test_outputs_match_golden_digests(variant, workers, tmp_path):
    overrides, summary_digest, records_digest = GOLDEN[variant]
    config = replace(default_config(), n_traj=300, n_meas=12, seed=271828, **overrides)
    path = tmp_path / "records.csv"
    summary = run_ensemble(config, workers=workers, record_path=str(path))
    # the summary echoes the records path; pin the bytes, not the temp dir
    summary_json = replace(summary, records_csv="records.csv").to_json()
    assert sha256(summary_json.encode()) == summary_digest
    assert sha256(path.read_bytes()) == records_digest
