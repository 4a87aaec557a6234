"""Each script under scripts/ runs to completion at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "backaction_heating": ["scripts/backaction_heating.py", "--n-meas", "10"],
    "central_prediction": ["scripts/central_prediction.py", "--n-traj", "300", "--n-meas", "5"],
    # too few trajectories for the fit test: every verdict is undetermined
    "central_prediction_undetermined": ["scripts/central_prediction.py", "--n-traj", "50", "--n-meas", "3"],
}


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *SCRIPTS[name]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
