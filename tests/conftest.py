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
