import numpy as np
import pytest

from qndsim import OscillatorParams


@pytest.fixture(scope="session", autouse=True)
def _table_cache_home(tmp_path_factory):
    """Keep the on-disk KS table cache out of the user's home directory;
    CLI subprocesses inherit the variable."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def params():
    """Default millikelvin operating point used across the suite."""
    return OscillatorParams(mass=1e-3, omega1=1e4, tau1=1e4, temperature=0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def pool_starts(monkeypatch):
    """Two usable cores whatever the machine has; returns the ``max_workers``
    of each process pool a run starts, in order."""
    from concurrent.futures import ProcessPoolExecutor

    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    return started


@pytest.fixture
def pooled(pool_starts, monkeypatch):
    """``pool_starts`` with a floor of one traj-step per process, so that a
    run of two chunks or more at two workers or more starts a pool of two,
    however small it is."""
    monkeypatch.setattr("qndsim.ensemble.PROCESS_TRAJ_STEPS", 1)
    return pool_starts
