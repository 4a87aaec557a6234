import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qndsim import ConfigError, default_config, format_config, load_config, parse_config
from qndsim.config import CONFIG_KEYS, convert_config_value

SRC = Path(__file__).resolve().parent.parent / "src"


def test_loading_a_config_imports_neither_numpy_nor_the_engine(tmp_path):
    # the schema checks names against the vocabularies in observables, which
    # a fresh interpreter loads without numpy, measurement or dynamics
    path = tmp_path / "run.cfg"
    path.write_text("n_traj = 200\nn_meas = 6\nmeter_kind = position\ncollapse_policy = no_conditioning\n")
    code = "import sys, qndsim; qndsim.load_config(sys.argv[1]); print(*sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "qndsim.config" in loaded
    assert not loaded & {"numpy", "qndsim.measurement", "qndsim.dynamics"}


def test_round_trip_is_identity():
    config = default_config()
    assert parse_config(format_config(config)) == config
    tweaked = replace(config, sigma_m_m=3.7e-17, n_traj=123, seed=987654321, bath_model="quantum")
    assert parse_config(format_config(tweaked)) == tweaked


def test_format_contains_every_key_once():
    text = format_config(default_config())
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == len(CONFIG_KEYS)
    assert [line.split("=")[0].strip() for line in lines] == list(CONFIG_KEYS)


def test_parse_accepts_comments_and_blanks():
    config = parse_config(
        """
        # run point
        temperature_K = 0.1   # doubled bath
        n_traj = 1e3

        seed = 42
        """
    )
    assert config.temperature_K == 0.1
    assert config.n_traj == 1000
    assert config.seed == 42
    assert config.mass_kg == default_config().mass_kg


def test_parse_rejects_unknown_duplicate_and_malformed():
    with pytest.raises(ConfigError):
        parse_config("voltage = 1.0")
    with pytest.raises(ConfigError, match="^line 2: duplicate key 'seed'$"):
        parse_config("seed = 1\nseed = 2")
    with pytest.raises(ConfigError):
        parse_config("seed 1")
    with pytest.raises(ConfigError):
        parse_config("n_traj = 10.5")
    with pytest.raises(ConfigError):
        parse_config("n_traj = inf")
    with pytest.raises(ConfigError):
        parse_config("dt_s = fast")


def test_validation_bounds():
    with pytest.raises(ConfigError, match="^line 2: n_traj must be an integer >= 1, got 0$"):
        parse_config("seed = 1\nn_traj = 0")
    with pytest.raises(ConfigError):
        parse_config("dt_s = 0.0")
    with pytest.raises(ConfigError):
        parse_config("burn_in_s = -1.0")
    with pytest.raises(ConfigError):
        parse_config("seed = -1")
    with pytest.raises(ConfigError):
        parse_config("meter_kind = microphone")
    with pytest.raises(ConfigError):
        parse_config("collapse_policy = maybe")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    config = replace(default_config(), n_traj=7, n_meas=3)
    path.write_text(format_config(config))
    assert load_config(str(path)) == config


def test_convert_config_value():
    assert convert_config_value("n_meas", "250") == 250
    assert convert_config_value("sigma_m_m", "1e-17") == 1e-17
    assert convert_config_value("meter_kind", "position") == "position"
    with pytest.raises(ConfigError):
        convert_config_value("frequency", "1.0")


def test_derived_views():
    config = default_config()
    params = config.oscillator()
    assert params.mass == config.mass_kg
    assert params.bath_model == config.bath_model
    meter = config.meter()
    assert meter.kind == config.meter_kind


def test_readme_config_block_shows_every_key_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file\n", 1)[1]
    block = section.split("```\n", 2)[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
    assert keys == list(CONFIG_KEYS)
    assert parse_config(block) == default_config()
