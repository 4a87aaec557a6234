"""The per-measurement record CSV: header, chunk writer and strict reader.

One row per measurement, trajectory-major with ids 0, 1, 2, ..., steps
1..n_meas within each trajectory, floats with 17 significant digits so that
every value reads back bit for bit:

    traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2

``format_rows`` renders one chunk of trajectories at a time: time_s,
var_x1_m2 and var_x2_m2 come from the run's ``SchedulePlan``, which the
ensemble makes once per config, and the outcomes and means from the chunk.
It yields the chunk's text one block at a time, as it is asked for, so a
writer that takes each block as it comes never holds the chunk's text.
A run writes the chunks in trajectory order, whatever their size.

Every float is written as CPython writes ``b"%.17g" % v``.  The shared
fields are rendered so, once per step.  The outcomes and means, three per
row, go through ``_render17``, which writes the same bytes with numpy for
the values that ``%.17g`` puts in e-notation with an exponent from -5 to
-292, and asks CPython for every other value.  With q = -floor(log10|x|),
the 17 significant digits are |x| 10**(16 + q) rounded to a whole number,
half to even.  That product is formed as a double-double, p + c: p is the
rounded product of |x| and hi, the double nearest 10**(16 + q), and c is
its exact rounding error (Dekker 1971: both factors split into 26-bit
halves by Veltkamp's method) plus |x| times lo, the double nearest
10**(16 + q) - hi; hi and lo are computed from Python ints.  For a value
whose product is below 10**17 < 2**57, each of the three roundings in c
(lo itself, |x| lo, and the sum) is below 2**-49, so the fraction of
p + c is within 2**-47 of the exact one.  A value takes the fast path only
when that fraction is more than ``_MARGIN`` = 2**-30 from 0, 1/2 and 1, so
its whole part and its rounding are both certain and it is never a tie.
CPython writes the value instead when
- its fraction is within the margin (1 value in about 2**28 of random ones);
- the log10 estimate missed the decade (the digits are not 17);
- the rounding carries into the next decade, 1e-4 and fixed notation
  among them (np.log10 already puts the doubles where this happens in the
  next decade, but a log10 one ulp lower would not);
- it is zero, subnormal, non-finite, or outside the table: |x| >= 1e-4
  or below 1e-292.
At the default operating point, quantum bath or classical, every outcome
and mean takes the fast path.

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

import functools
import io
import math
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

#: Exact header of the per-measurement record CSV.
RECORD_CSV_HEADER = "traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2"

_FIELDS = tuple(RECORD_CSV_HEADER.split(","))

#: Bytes ``read_records`` reads at a time once n_meas is known, extended to
#: the end of the last line.  An execution choice only: no result depends on it.
READ_BLOCK = 1 << 20


#: Rows ``format_rows`` renders as one block.  While a block is rendered,
#: its words, their bytes and the renderer's temporaries take about 900
#: bytes a row beside the chunk's values, so 512 rows take under 0.5 MB.  On
#: 1 000 x 500 with rows, 2 048-row blocks made format_rows about 15 %
#: faster but raised the peak RSS of ``simulate`` by 1.7 MB (59.5 -> 61.2).
#: An execution choice only: no byte depends on it.
FORMAT_BLOCK_ROWS = 512


def format_rows(first_id: int, plan, values: np.ndarray) -> Iterator[bytes]:
    """Rows of one chunk of trajectories, in trajectory order, as the text
    of consecutive blocks of at most ``FORMAT_BLOCK_ROWS`` rows, each
    rendered when it is asked for.

    ``plan`` is the run's ``SchedulePlan``: time and variances are shared by
    every trajectory, so they are rendered once per step, not once per row.
    ``values[step]`` holds the chunk's (outcome, mean1, mean2) at that step,
    as the plan's ``means`` yields them: shape (n_meas, 3, n_traj), over
    trajectories first_id, first_id + 1, ...

    A block is a few whole trajectories, or a run of steps of one trajectory
    when n_meas exceeds the block.  It is laid out as a matrix of NUL-padded
    uint32 words, one row per record row: id | ``,step,time`` | ``,outcome``
    | ``,mean1`` | ``,mean2`` | ``,v11,v22\\n``, with the outcomes and means
    from ``_render17``.  Deleting the NULs from its bytes leaves the text.
    """
    shared = plan.steps[["time", "post_v11", "post_v22"]].tolist()
    heads = _words([b",%d,%.17g" % (step, time) for step, (time, _, _) in enumerate(shared, start=1)])
    tails = _words([b",%.17g,%.17g\n" % (v11, v22) for _, v11, v22 in shared])
    n_meas, _, n_traj = values.shape
    ids = _words([b"%d" % index for index in range(first_id, first_id + n_traj)])
    head_at = ids.shape[1]
    values_at = head_at + heads.shape[1]
    tail_at = values_at + 3 * _SLOT_WORDS
    width = tail_at + tails.shape[1]
    per_block = max(1, FORMAT_BLOCK_ROWS // n_meas)  # trajectories
    span = min(n_meas, FORMAT_BLOCK_ROWS)  # steps
    for lo in range(0, n_traj, per_block):
        hi = min(lo + per_block, n_traj)
        for first in range(0, n_meas, span):
            last = min(first + span, n_meas)
            block = np.empty((hi - lo, last - first, width), dtype=np.uint32)
            block[:, :, :head_at] = ids[lo:hi, None]
            block[:, :, head_at:values_at] = heads[first:last]
            rendered = _render17(values[first:last, :, lo:hi].transpose(2, 0, 1))
            block[:, :, values_at:tail_at] = rendered.reshape(hi - lo, last - first, -1)
            block[:, :, tail_at:] = tails[first:last]
            yield block.tobytes().translate(None, b"\0")


def _words(texts: list[bytes], width: int = 0) -> np.ndarray:
    """The texts as rows of uint32 words, NUL-padded to ``width`` bytes or
    to the widest text, whichever is more, rounded up to whole words."""
    width = -(-max(width, *map(len, texts)) // 4) * 4
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), dtype=np.uint32).reshape(len(texts), -1)


# _render17 writes each value as "," and its %.17g text in _SLOT_WORDS words:
# comma, sign, leading digit and point | four groups of four digits | "e-"
# and the exponent, with NULs for an absent sign, point, trailing zeros and
# the third exponent digit.  The fast path takes the decades 10**-_Q_MAX
# to 10**-_Q_MIN of e-notation, q = -floor(log10|x|) in [_Q_MIN, _Q_MAX].
_SLOT_WORDS = 7
_Q_MIN, _Q_MAX = 5, 292
#: Least distance of a fast value's fraction from 0, 1/2 and 1, far above
#: the error bound 2**-47 of the double-double product (module docstring).
_MARGIN = 2.0**-30
#: Veltkamp's constant 2**27 + 1: splits a double into two 26-bit halves.
_SPLIT = 134217729.0


def _power_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hi, head, tail, lo) at each q of the fast path: hi is the double
    nearest 10**(16 + q), head + tail == hi with 26 significant bits each,
    and lo is the double nearest 10**(16 + q) - hi."""
    hi, lo = [1.0] * _Q_MIN, [0.0] * _Q_MIN
    power = 10 ** (16 + _Q_MIN)
    for _ in range(_Q_MIN, _Q_MAX + 1):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))  # exact ints, then one rounding
        power *= 10
    hi = np.array(hi)
    fraction, exponent = np.frexp(hi)
    mantissa = fraction * 2.0**53  # a whole number: every step below is exact
    upper = np.floor((mantissa + 2.0**26) / 2.0**27) * 2.0**27
    return hi, np.ldexp(upper, exponent - 53), np.ldexp(mantissa - upper, exponent - 53), np.array(lo)


def _group_table() -> np.ndarray:
    """The word of each four digits 0000..9999, then the same with trailing
    zeros as NULs."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = digits + np.uint8(ord("0"))
    return np.concatenate([text, np.where(trailing, np.uint8(0), text)]).view(np.uint32)[:, 0]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """``_render17``'s tables, built on its first call, since every command
    imports this module and most write no rows: the four of
    ``_power_table``, ``_group_table``'s, the words of ",", sign, leading
    digit and point at lead + 10 * point + 20 * negative, and the two words
    of "e-" and the exponent at each q."""
    leads = _words([b"," + sign + b"%d" % lead + point for sign in (b"\0", b"-") for point in (b"\0", b".")
                    for lead in range(10)])[:, 0]
    exponents = _words([b"e-%02d" % q for q in range(_Q_MAX + 1)], 8)
    return (*_power_table(), _group_table(), leads, exponents)


def _render17(values: np.ndarray) -> np.ndarray:
    """The bytes of ``b",%.17g" % v`` for each value, in order, as rows of
    ``_SLOT_WORDS`` NUL-padded uint32 words; see the module docstring."""
    power_hi, power_head, power_tail, power_lo, groups, leads, exponents = _tables()
    x = np.ravel(values)
    slots = np.empty((x.size, _SLOT_WORDS), dtype=np.uint32)
    with np.errstate(all="ignore"):  # zero, subnormal and non-finite values go to CPython
        a = np.abs(x)
        q = np.log10(a)
        np.floor(q, out=q)
        np.negative(q, out=q)
        fast = (q >= _Q_MIN) & (q <= _Q_MAX)
        q = q.astype(np.intp)
        q[~fast] = _Q_MIN
        # a * 10**(16 + q) as p + c: p = fl(a * hi) and c the rest, exact up to 2**-47
        p = a * power_hi[q]
        split = a * _SPLIT
        a_head = split - (split - a)
        a_tail = a - a_head
        head, tail = power_head[q], power_tail[q]
        c = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
        c += a * power_lo[q]
        whole = np.floor(c)
        c -= whole  # the fraction, exactly
        fast &= (c > _MARGIN) & (c < 1.0 - _MARGIN) & (np.abs(c - 0.5) > _MARGIN) & (p >= 1e16) & (p <= 1e17)
        # p >= 1e16 > 2**53 is a whole number, so digits = p + whole exactly
        digits = np.where(fast, p, 1e16).astype(np.int64)
        digits += np.where(fast, whole, 0.0).astype(np.int64)
    fast &= (digits >= 10**16) & (digits < 10**17)  # log10 found the decade
    digits += c > 0.5  # never a tie: c is at least _MARGIN from 1/2
    fast &= digits < 10**17  # a carry into the next decade goes to CPython
    digits[~fast] = 10**16  # in range for the tables; CPython writes these slots
    lead = digits // 10**16  # floor division by a constant is much faster than divmod
    rest = digits - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    group0 = upper // 10**4
    group1 = upper - group0 * 10**4
    group2 = lower // 10**4
    group3 = lower - group2 * 10**4
    # a group's trailing zeros are NULs when every later group is zero
    zero3 = group3 == 0
    zero2 = zero3 & (group2 == 0)
    zero1 = zero2 & (group1 == 0)
    slots[:, 0] = leads.take(lead + 10 * ~(zero1 & (group0 == 0)) + 20 * (x < 0.0))
    slots[:, 1] = groups.take(group0 + 10000 * zero1)
    slots[:, 2] = groups.take(group1 + 10000 * zero2)
    slots[:, 3] = groups.take(group2 + 10000 * zero3)
    slots[:, 4] = groups.take(group3 + 10000)
    slots[:, 5] = exponents[:, 0].take(q)
    slots[:, 6] = exponents[:, 1].take(q)
    slow = np.flatnonzero(~fast)
    if slow.size:
        slots[slow] = _fallback(x[slow])
    return slots


def _fallback(values: np.ndarray) -> np.ndarray:
    """CPython's ``b",%.17g" % v`` for each value, as ``_render17``'s slots."""
    return _words([b",%.17g" % value for value in values.tolist()], 4 * _SLOT_WORDS)


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
    masks = [b"\xff" * len(field) for field in fields]
    return _words(fields, width).view(np.uint64), _words(masks, width).view(np.uint64)


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
