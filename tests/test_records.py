"""The record CSV writer against CPython's ``%`` formatting.

``records._render17`` must write the bytes of ``b"%.17g" % v`` for every
double, and ``records.format_rows`` the bytes of the per-value ``%``
template that wrote record rows before it, which is kept here as the
reference.
"""

import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qndsim import default_config, records, run_ensemble
from qndsim.ensemble import _run_chunk, _setup
from qndsim.records import RECORD_CSV_HEADER

#: A config whose means straddle 1e-4, so that about a quarter of them are
#: written in fixed notation by CPython and the rest by the fast path.
FIXED_NOTATION = {"mass_kg": 1e-24}


def rendered(values) -> list[bytes]:
    """``_render17``'s text of each value, without the leading comma."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((values.size, records._SLOT_WORDS), dtype=np.uint32)
    slots = records._render17(values, out, np.empty((14, values.size))).view(np.uint8)
    return [bytes(slot[slot != 0])[1:] for slot in slots]


def cpython(values) -> list[bytes]:
    return [b"%.17g" % value for value in np.asarray(values, dtype=np.float64).tolist()]


@pytest.fixture
def fallbacks(monkeypatch):
    """The values ``_render17`` hands to CPython, in the order it does."""
    seen = []
    original = records._fallback

    def spy(values):
        seen.extend(values.tolist())
        return original(values)

    monkeypatch.setattr(records, "_fallback", spy)
    return seen


def powers_of_ten_neighbours() -> list[float]:
    """The double nearest 10**-e and its two neighbours, for e in 5..300."""
    out = []
    for e in range(5, 301):
        power = 10.0**-e
        out += [power, math.nextafter(power, -math.inf), math.nextafter(power, math.inf)]
    return out


def decade_carries() -> list[float]:
    """Doubles below a power of ten whose 17 significant digits round up to
    it, so that %.17g writes the next decade's exponent."""
    out = []
    for e in range(5, 301):
        for value in (10.0**-e, math.nextafter(10.0**-e, 0.0)):
            if Fraction(value) < Fraction(1, 10**e) and (b"%.17g" % value).startswith(b"1e-"):
                out.append(value)
    return out


NAMED = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
    -sys.float_info.min, sys.float_info.max, -sys.float_info.max, 1e-4, math.nextafter(1e-4, 0.0),
    1.2345678901234567e-123, -9.8765432109876543e-250, 1e-292, math.nextafter(1e-292, 0.0), 1e-293,
]


def test_named_values_render_as_cpython(fallbacks):
    values = NAMED + [sign * v for v in powers_of_ten_neighbours() for sign in (1.0, -1.0)]
    assert rendered(values) == cpython(values)
    # the fast path wrote every value just above a power of ten in its
    # range; one just below falls back when log10 rounds it up to the power
    above = [math.nextafter(10.0**-e, math.inf) for e in range(5, 293)]
    assert not set(above) & set(map(abs, fallbacks))


def test_decade_carries_render_as_cpython(fallbacks):
    carries = decade_carries()
    assert len(carries) >= 5  # 1e-14, 1e-70, 1e-73, ...
    texts = rendered(carries)
    assert texts == cpython(carries)
    assert all(text.startswith(b"1e-") for text in texts)
    # whether log10 puts them in the next decade or the carry does, CPython writes them
    assert fallbacks == carries


def exact_ties() -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals: m 2**-(k + 1)
    with m odd and k = 16 - floor(log10 x), so that x 10**k = m 5**k / 2."""
    out = []
    for k in range(21, 25):
        for m in range(1, 420, 2):
            value = m * 2.0 ** -(k + 1)
            if 10.0 ** (16 - k) <= value < 10.0 ** (17 - k):
                out.append(value)
    return out


def test_exact_ties_round_half_to_even(fallbacks):
    ties = exact_ties()
    assert len(ties) > 200
    assert all(Fraction(x) * 10 ** (16 - math.floor(math.log10(x))) % 1 == Fraction(1, 2) for x in ties)
    assert rendered(ties) == cpython(ties)
    assert fallbacks == ties  # a tie is never decided by the fast path


@pytest.mark.parametrize("direction", [-math.inf, math.inf], ids=["down", "up"])
def test_rendering_does_not_rest_on_how_log10_rounds(direction, monkeypatch):
    # a log10 one ulp off puts values next to a power of ten in the other
    # decade, and the carries in the lower one: the digit checks must send
    # them to CPython
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    values = decade_carries() + powers_of_ten_neighbours() + exact_ties()
    assert rendered(values) == cpython(values)


def test_the_doubles_next_to_1e_4_straddle_fixed_notation():
    # the double nearest 1e-4 is above it and %.17g writes it in fixed
    # notation; its predecessor is far enough below not to round up to it
    below = math.nextafter(1e-4, 0.0)
    assert rendered([1e-4, below, -1e-4, -below]) == [b"0.0001", b"9.9999999999999991e-05",
                                                      b"-0.0001", b"-9.9999999999999991e-05"]


def test_three_digit_exponents_render_as_cpython(fallbacks):
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 10.0, 4000) * 10.0 ** -rng.integers(100, 293, 4000) * rng.choice([-1.0, 1.0], 4000)
    assert rendered(values) == cpython(values)
    assert len(fallbacks) < 10


def test_magnitudes_and_bit_patterns_render_as_cpython(fallbacks):
    rng = np.random.default_rng(20260811)
    scales = [rng.normal(size=20000) * scale for scale in (3e-5, 2.6e-15, 1e-30, 1e-100, 1e-290)]
    bits = np.frombuffer(rng.bytes(8 * 100000), dtype=np.float64)
    values = np.concatenate(scales + [bits[np.isfinite(bits)]])
    assert rendered(values) == cpython(values)
    # the fast path wrote every value of the three middle ranges
    middle = np.concatenate(scales[1:4])
    assert not set(middle.tolist()) & set(fallbacks)


def test_fast_and_fallback_values_interleave():
    values = [2.5e-17, 0.5, -3e-7, 0.0, 1e-310, -2e-5, 1e300, -1e-100, float("nan"), float("inf"),
              -float("inf"), 7e-5, 1.5e-4, -0.0, 123.0, 4e-299]
    assert rendered(values) == cpython(values)
    assert rendered(values[::-1]) == cpython(values[::-1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
def test_any_finite_bit_pattern_renders_as_cpython(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assume(values.size)
    assert rendered(values) == cpython(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_float_renders_as_cpython(values):
    assert rendered(values) == cpython(values)


def reference_rows(first_id: int, plan, values: np.ndarray) -> bytes:
    """Rows as the per-value ``%`` template writes them: one format string
    per trajectory, with time and variances written in once per step."""
    shared = plan.steps[["time", "post_v11", "post_v22"]].tolist()
    trajectory_format = "".join(
        f"%d,{step},{time:.17g},%.17g,%.17g,%.17g,{v11:.17g},{v22:.17g}\n"
        for step, (time, v11, v22) in enumerate(shared, start=1)
    )
    n_meas, _, n_traj = values.shape
    table = np.empty((n_traj, n_meas, 4))
    table[:, :, 0] = np.arange(first_id, first_id + n_traj)[:, None]  # exact; written by %d
    table[:, :, 1:] = np.transpose(values, (2, 0, 1))
    return "".join(trajectory_format % tuple(row.ravel().tolist()) for row in table).encode()


def chunk_rows(config, start, stop, monkeypatch) -> tuple[bytes, bytes]:
    """(rows ``_run_chunk`` writes for trajectories [start, stop), the
    reference template's rows for the same values)."""
    calls, format_rows = [], records.format_rows

    def spy(first_id, plan, values):
        calls.append((first_id, plan, values.copy()))
        return format_rows(first_id, plan, values)

    monkeypatch.setattr("qndsim.records.format_rows", spy)
    _, rows = _run_chunk(config.seed, _setup(config), start, stop, True)
    (call,) = calls
    return b"".join(rows), reference_rows(*call)


METERS_AND_POLICIES = [
    pytest.param(meter, policy, id=f"{meter}-{policy}")
    for meter in ("qnd_x1", "qnd_x2", "position")
    for policy in ("orthodox", "no_conditioning")
]

# (first id, chunk width): one trajectory, and ids crossing 9 -> 10,
# 99 -> 100 and 999 -> 1000 in chunks of 7 and of 128
CHUNKS = [(9, 1), (4, 7), (95, 7), (996, 7), (4, 128), (996, 128)]


@pytest.mark.parametrize("start, width", CHUNKS)
@pytest.mark.parametrize("meter, policy", METERS_AND_POLICIES)
def test_format_rows_equals_the_template(meter, policy, start, width, monkeypatch):
    config = replace(default_config(), n_meas=6, meter_kind=meter, collapse_policy=policy,
                     bath_model="quantum", burn_in_s=0.5)
    rows, reference = chunk_rows(config, start, start + width, monkeypatch)
    assert rows == reference


@pytest.mark.parametrize("block_rows", [1, 5, 13, records.FORMAT_BLOCK_ROWS])
@pytest.mark.parametrize("overrides", [{}, FIXED_NOTATION], ids=["default", "fixed_notation"])
def test_format_rows_does_not_depend_on_its_block(overrides, block_rows, monkeypatch):
    # blocks of whole trajectories, and runs of steps of one trajectory
    monkeypatch.setattr(records, "FORMAT_BLOCK_ROWS", block_rows)
    config = replace(default_config(), n_meas=6, **overrides)
    rows, reference = chunk_rows(config, 7, 12, monkeypatch)
    assert rows == reference


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_notation_means_are_written_as_cpython_writes_them(workers, tmp_path, pooled):
    # three chunks of rows, with the fast path and CPython in every block
    config = replace(default_config(), n_traj=300, n_meas=12, **FIXED_NOTATION)
    path = tmp_path / "records.csv"
    run_ensemble(config, workers=workers, record_path=str(path))
    header, *lines = path.read_bytes().splitlines(keepends=True)
    assert header == RECORD_CSV_HEADER.encode() + b"\n"
    assert len(lines) == config.n_traj * config.n_meas
    fields = [field for line in lines for field in line.rstrip(b"\n").split(b",")[2:]]
    assert fields == [b"%.17g" % float(field) for field in fields]
    means = [field for line in lines for field in line.split(b",")[3:6]]
    fixed = sum(b"e" not in field for field in means)
    assert 0.1 * len(means) < fixed < 0.5 * len(means)
    if workers == 2:
        assert pooled == [2]
        run_ensemble(config, workers=1, record_path=str(tmp_path / "in_process.csv"))
        assert (tmp_path / "in_process.csv").read_bytes() == path.read_bytes()


def test_read_records_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # the reader reads every block into one buffer and checks it with masks
    # it keeps; reading a block, a copy of it with its last line, a padded
    # copy and fresh masks peaked at about 5 blocks
    monkeypatch.setattr(records, "READ_BLOCK", 1 << 16)  # files of 4 and 9 blocks
    peaks = []
    for n_traj in (10, 20):  # 2 000 and 4 000 rows
        path = tmp_path / f"records{n_traj}.csv"
        run_ensemble(replace(default_config(), n_traj=n_traj, n_meas=200), record_path=str(path))
        assert path.stat().st_size > 4 * records.READ_BLOCK
        records.read_records(str(path))  # one-time allocations, untraced
        tracemalloc.start()
        try:
            records.read_records(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4.5 * records.READ_BLOCK
    assert abs(peaks[1] - peaks[0]) < records.READ_BLOCK / 16
