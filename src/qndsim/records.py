"""The per-measurement record CSV: header, chunk writer and strict reader.

One row per measurement, trajectory-major with ids 0, 1, 2, ..., steps
1..n_meas within each trajectory, floats with 17 significant digits so that
every value reads back bit for bit:

    traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2

``format_rows`` renders one chunk of trajectories at a time: time_s,
var_x1_m2 and var_x2_m2 come from the run's ``SchedulePlan``, which the
ensemble makes once per config, and the outcomes and means from the chunk.
A run writes the chunks in trajectory order, whatever their size.
``read_records`` streams a file and keeps only what ``analyze`` needs: the
final mean_x1 of every trajectory and the var_x2 trace of trajectory 0.
Every trajectory of a run has the plan's var_x2 trace, since the covariance
recursion needs no outcomes, so the reader requires each row's var_x2 to
equal trajectory 0's at that step; that trace is the one ``simulate``
reports.  The reader rejects any file that a run could not have written,
naming the path and line.

The reader has one per-line loop, ``_scan_lines``, which is the only code
that accepts a row numpy did not vouch for and the only code that raises.
It reads trajectory 0, which fixes n_meas and the var_x2 bytes of each step.
The rest of the file is read in blocks of whole lines, and ``_BlockCheck``
vouches for a block with numpy only when every row is spelt as a run spells
it there: the ids of that row, a plain finite decimal for mean_x1 and
trajectory 0's var_x2 bytes at that step.  Those checks are a strict subset
of what the loop accepts, so a block they pass reads the same either way,
and only the last row of each trajectory is parsed with ``float``.  A block
that fails goes through the loop from the state before it, which raises the
same ``path:line`` error a loop over the whole file would, or accepts a
spelling that a run never writes.
"""

from __future__ import annotations

import io
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

#: Exact header of the per-measurement record CSV.
RECORD_CSV_HEADER = "traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2"

_FIELDS = tuple(RECORD_CSV_HEADER.split(","))

#: Bytes ``read_records`` reads at a time once n_meas is known, extended to
#: the end of the last line.  An execution choice only: no result depends on it.
READ_BLOCK = 1 << 20


def format_rows(first_id: int, plan, steps) -> list[str]:
    """Rows of one chunk of trajectories, one string per trajectory, in
    trajectory order.

    ``plan`` is the run's ``SchedulePlan``: time and variances are shared by
    every trajectory, so they are rendered once per step, not once per row.
    ``steps`` holds the chunk's (outcome, mean1, mean2) of each step, as the
    plan's ``means`` yields them: arrays over trajectories first_id,
    first_id + 1, ...  Formatting one trajectory at a time keeps only its own
    values boxed as Python floats, not the whole chunk's.
    """
    shared = plan.steps[["time", "post_v11", "post_v22"]].tolist()
    trajectory_format = "".join(
        f"%d,{step},{time:.17g},%.17g,%.17g,%.17g,{v11:.17g},{v22:.17g}\n"
        for step, (time, v11, v22) in enumerate(shared, start=1)
    )
    n_traj = len(steps[0][0])
    table = np.empty((n_traj, len(steps), 4))
    table[:, :, 0] = np.arange(first_id, first_id + n_traj)[:, None]  # exact; rendered by %d
    table[:, :, 1:] = np.transpose(steps, (2, 0, 1))
    return [trajectory_format % tuple(row.ravel().tolist()) for row in table]


def read_records(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(final mean_x1 per trajectory, var_x2 per step of trajectory 0).

    Trajectory ids must run 0, 1, 2, ... as a run writes them, every
    trajectory must hold steps 1..n_meas in order, n_meas must be the same
    for all of them, mean_x1 and var_x2 must be finite, and each var_x2 must
    equal trajectory 0's at that step; any other content raises ConfigError
    with ``path:line``.

    ``_scan_lines`` reads trajectory 0 and the first row of trajectory 1,
    which fixes n_meas and the trace; then the file is read in blocks of
    about ``READ_BLOCK`` bytes of whole lines.  Each block that
    ``_BlockCheck.rows`` does not vouch for goes through ``_scan_lines`` from
    the same state, which accepts it or names the line at fault.
    """
    x1: list[float] = []
    trace: list[float] = []  # var_x2 of trajectory 0, per step
    trace_fields: list[bytes] = []  # the same, as written
    traj = step = 0
    lineno = 1
    try:
        with open(path, "rb") as handle:
            if handle.readline().rstrip(b"\r\n") != RECORD_CSV_HEADER.encode():
                raise ConfigError(f"{path}:1: not a record CSV (bad header)")
            while len(x1) < 2 and (line := handle.readline()):
                lineno, traj, step = _scan_lines(path, (line,), lineno, x1, trace, traj, step)
                if len(x1) == 1:
                    trace_fields.append(line.split(b",")[7].removesuffix(b"\n"))
            check = _BlockCheck(trace_fields) if len(x1) == 2 else None
            while check is not None and (block := handle.read(READ_BLOCK)):
                block += handle.readline()  # to the end of the last line
                vouched = check.rows(block, lineno - 1)
                if vouched is None:
                    lineno, traj, step = _scan_lines(path, io.BytesIO(block), lineno, x1, trace, traj, step)
                    continue
                n_rows, means = vouched
                del x1[(lineno - 1) // check.n_meas :]  # the trajectory in progress, if any
                x1 += means
                lineno += n_rows
                traj, step = divmod(lineno - 2, check.n_meas)
                step += 1
    except OSError as exc:
        raise ConfigError(f"cannot read records {path!r}: {exc}") from None
    if not x1:
        raise ConfigError(f"{path}:2: no record rows after the header")
    _require_complete(path, lineno, traj, step, len(trace))
    return np.array(x1), np.array(trace)


def _scan_lines(path, lines, lineno, x1, trace, traj, step) -> tuple[int, int, int]:
    """Check and read record rows one line at a time, after line ``lineno``.

    Appends to ``x1`` and ``trace`` in place and returns the new (lineno,
    traj, step); raises ConfigError with ``path:line`` at the first row that
    a run could not have written there.
    """
    isfinite = math.isfinite  # once per row: a local name is looked up faster
    for lineno, line in enumerate(lines, start=lineno + 1):
        parts = line.split(b",")
        if len(parts) != len(_FIELDS):
            raise ConfigError(f"{path}:{lineno}: expected {len(_FIELDS)} fields, got {len(parts)}")
        try:
            row_traj, row_step = int(parts[0]), int(parts[1])
            mean1, v22 = float(parts[4]), float(parts[7])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {_bad_field(parts)}") from None
        if not isfinite(mean1):
            raise ConfigError(f"{path}:{lineno}: mean_x1_m is not finite: {mean1!r}")
        if row_step == 1 and row_traj == len(x1):  # next trajectory
            if x1:
                _require_complete(path, lineno, traj, step, len(trace))
            x1.append(0.0)
        elif not (x1 and row_traj == traj and row_step == step + 1):  # not the next step
            after = f"trajectory {traj} step {step}" if x1 else "the header"
            raise ConfigError(f"{path}:{lineno}: trajectory {row_traj} step {row_step} follows {after}")
        if not row_traj:  # trajectory 0 fixes n_meas and the trace
            if not isfinite(v22):
                raise ConfigError(f"{path}:{lineno}: var_x2_m2 is not finite: {v22!r}")
            trace.append(v22)
        elif row_step > len(trace):
            raise ConfigError(f"{path}:{lineno}: trajectory {row_traj} has more than {len(trace)} steps")
        elif v22 != trace[row_step - 1]:
            raise ConfigError(
                f"{path}:{lineno}: var_x2_m2 {v22!r} differs from trajectory 0's "
                f"{trace[row_step - 1]!r} at step {row_step}"
            )
        traj, step = row_traj, row_step
        x1[-1] = mean1
    return lineno, traj, step


# mean_x1_m spellings a block check vouches for: -?D+(.D+)?(e-D+)? and the
# comma after it, in at most _MEAN_WIDTH bytes before the comma.  Such a number
# has at most _MEAN_WIDTH digits before any point and no positive exponent,
# so it is finite; %.17g writes every finite mean below 1e17 in magnitude
# that way, in at most 24 bytes.
_MEAN_WIDTH = 24


def _mean_automaton() -> tuple[np.ndarray, np.ndarray, int]:
    """(class of each byte, next state at ``state | class``, accepting state)
    of the mean_x1_m spellings a block check vouches for.

    States are multiples of 8 and classes are below 8, so one ``take`` steps
    the automaton over one byte of every row.
    """
    other, digit, minus, point, e, comma = range(6)
    classes = np.full(256, other, dtype=np.uint8)
    classes[np.frombuffer(b"0123456789", dtype=np.uint8)] = digit
    for byte, byte_class in ((b"-", minus), (b".", point), (b"e", e), (b",", comma)):
        classes[ord(byte)] = byte_class
    start, sign, whole, dot, fraction, exp, exp_sign, exp_digits, done, dead = range(0, 80, 8)
    moves = {
        start: {digit: whole, minus: sign},
        sign: {digit: whole},
        whole: {digit: whole, point: dot, e: exp, comma: done},
        dot: {digit: fraction},
        fraction: {digit: fraction, e: exp, comma: done},
        exp: {minus: exp_sign},
        exp_sign: {digit: exp_digits},
        exp_digits: {digit: exp_digits, comma: done},
    }
    table = np.full(80, dead, dtype=np.uint8)
    table[done : done + 8] = done  # what follows the comma is the next field's
    for state, out in moves.items():
        for byte_class, target in out.items():
            table[state | byte_class] = target
    return classes, table, done


_MEAN_CLASSES, _MEAN_NEXT, _MEAN_DONE = _mean_automaton()

#: The bytes of a row a run writes that are no higher than ",": seven
#: commas, then the newline.
_ROW_SEPARATORS = np.frombuffer(b",,,,,,,\n", dtype=np.uint8)


def _spelled(fields: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(fields, masks of their bytes), each row zero-padded to whole uint64s."""
    width = -(-max(map(len, fields)) // 8) * 8
    spelt = np.zeros((len(fields), width), dtype=np.uint8)
    mask = np.zeros_like(spelt)
    for row, field in enumerate(fields):
        spelt[row, : len(field)] = np.frombuffer(field, dtype=np.uint8)
        mask[row, : len(field)] = 0xFF
    return spelt.view(np.uint64), mask.view(np.uint64)


def _all_spelt(
    windows: np.ndarray, offsets: np.ndarray, spelled: tuple[np.ndarray, np.ndarray], index: np.ndarray
) -> bool:
    """Whether the bytes at each offset begin with field ``index[row]`` of
    ``spelled``."""
    spelt, mask = spelled
    text = windows[offsets, : 8 * spelt.shape[1]].view(np.uint64)
    return bool(((text & mask[index]) == spelt[index]).all())


class _BlockCheck:
    """Vouches with numpy for blocks of rows once trajectory 0 is read.

    Built from trajectory 0's var_x2_m2 fields as written, one per step.
    ``rows(block, first_row)`` returns (rows, mean_x1 of the last row of each
    trajectory in the block and of the block's last row) when every row is
    the one a run writes at that place: seven commas and nothing else below
    ``","`` before the newline, ``traj_id`` and ``step`` spelt as a run
    spells row ``first_row + i``, a finite mean_x1_m (see ``_MEAN_WIDTH``)
    and trajectory 0's var_x2_m2 bytes at that step.  ``_scan_lines``
    accepts each such row, so it is the only code that needs to raise;
    ``rows`` returns None for any other block and never raises.
    """

    def __init__(self, trace_fields: list[bytes]) -> None:
        self.n_meas = len(trace_fields)
        self.steps = _spelled([b"%d," % step for step in range(1, self.n_meas + 1)])
        self.trace = _spelled([field + b"\n" for field in trace_fields])
        # the widest window the step, var_x2_m2 and mean_x1_m checks read
        self.width = max(8 * self.steps[0].shape[1], 8 * self.trace[0].shape[1], _MEAN_WIDTH + 1)

    def rows(self, block: bytes, first_row: int) -> tuple[int, list[float]] | None:
        if not block.endswith(b"\n"):
            return None
        data = np.frombuffer(block, dtype=np.uint8)
        separators = np.flatnonzero(data <= ord(","))
        if separators.size % 8:
            return None
        separators = separators.reshape(-1, 8)
        if not (data[separators] == _ROW_SEPARATORS).all():
            return None
        n_rows = len(separators)
        starts = np.concatenate(([0], separators[:-1, 7] + 1))
        traj, step_index = np.divmod(first_row + np.arange(n_rows), self.n_meas)
        ids = _spelled([b"%d," % t for t in range(traj[0], traj[-1] + 1)])

        # the bytes at every offset, and zeros past the block's end
        width = max(self.width, 8 * ids[0].shape[1])
        windows = sliding_window_view(np.frombuffer(block + bytes(width), dtype=np.uint8), width)
        if not (
            _all_spelt(windows, starts, ids, traj - traj[0])
            and _all_spelt(windows, separators[:, 0] + 1, self.steps, step_index)
            and _all_spelt(windows, separators[:, 6] + 1, self.trace, step_index)
        ):
            return None

        # one byte of every row's mean_x1_m at a time, through the comma
        text = _MEAN_CLASSES.take(windows[separators[:, 3] + 1, : _MEAN_WIDTH + 1].T)
        state = np.zeros(n_rows, dtype=np.uint8)
        for column in text:
            state = _MEAN_NEXT.take(state | column)
        if not (state == _MEAN_DONE).all():
            return None

        last = np.flatnonzero(step_index == self.n_meas - 1)
        if last.size == 0 or last[-1] != n_rows - 1:
            last = np.append(last, n_rows - 1)
        bounds = zip((separators[last, 3] + 1).tolist(), separators[last, 4].tolist())
        return n_rows, [float(block[lo:hi]) for lo, hi in bounds]


def _require_complete(path: str, lineno: int, traj: int, step: int, n_meas: int) -> None:
    if step != n_meas:
        raise ConfigError(f"{path}:{lineno}: trajectory {traj} ends at step {step}, expected {n_meas}")


def _bad_field(parts: list[bytes]) -> str:
    """Name the first field of a row that read_records cannot parse: it
    retries the conversions that just raised, so one of them raises again."""
    for index, convert in ((0, int), (1, int), (4, float), (7, float)):
        try:
            convert(parts[index])
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            return f"{_FIELDS[index]} is not {kind}: {parts[index].decode(errors='replace').strip()!r}"
