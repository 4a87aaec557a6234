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
reports.  The reader checks the layout and the fields ``analyze`` uses, and
names the path and line of the first row that fails: eight fields a row,
integer ids and steps in the order above, the same n_meas for every
trajectory, a finite mean_x1_m and var_x2_m2, and each var_x2_m2 equal to
trajectory 0's at that step.  It does not parse time_s, outcome_m,
mean_x2_m or var_x1_m2, so a value there that no run writes (text, nan, a
negative variance) goes unnoticed.

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

#: Bytes ``read_records`` reads at a time into its buffer once n_meas is
#: known; a block is the whole lines among them.  On the 71 MB file of
#: 1 000 x 500, ``analyze`` took 5.8 k minor page faults at 256 KiB and 22 k
#: at 1 MiB, and ran slower at 64 and 128 KiB.  An execution choice only: no
#: result depends on it.
READ_BLOCK = 1 << 18


#: Rows ``format_rows`` renders as one block.  A block's words and text and
#: the renderer's scratch, made once per chunk, take about 850 bytes a row
#: beside the chunk's values: under 0.9 MB.  On 1 000 x 500 with rows,
#: format_rows took 0.20 s in all, against 0.29 s for 512-row blocks of fresh
#: arrays.  1 536-row blocks rendered about 10 % faster but left 11 % of
#: the in-process memory bound in ``test_ensemble``, against 25 % here.  An
#: execution choice only: no byte depends on it.
FORMAT_BLOCK_ROWS = 1024


def format_rows(first_id: int, plan, values: np.ndarray) -> Iterator[bytearray]:
    """Rows of one chunk of trajectories, in trajectory order, as the text
    of consecutive blocks of at most ``FORMAT_BLOCK_ROWS`` rows, each
    rendered when it is asked for.

    ``plan`` is the run's ``SchedulePlan``: time and variances are shared by
    every trajectory, so they are rendered once per step, not once per row.
    ``values[step]`` holds the chunk's (outcome, mean1, mean2) at that step,
    as ``step_means`` writes them: shape (n_meas, 3, n_traj), over
    trajectories first_id, first_id + 1, ...

    A block is a few whole trajectories, or a run of steps of one trajectory
    when n_meas exceeds the block.  It is laid out as a matrix of NUL-padded
    uint32 words, one row per record row: id | ``,step,time`` | ``,outcome``
    | ``,mean1`` | ``,mean2`` | ``,v11,v22\\n``, with the outcomes and means
    from ``_render17``.  Deleting the NULs from its bytes leaves the text.
    Every block is laid out in one buffer, whose step and variance words are
    written once per run of steps, and rendered with one scratch array.
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
    text = bytearray(4 * min(per_block, n_traj) * span * width)
    words = np.frombuffer(text, dtype=np.uint32).reshape(-1, span, width)
    scratch = np.empty((14, 3 * words.shape[0] * span))
    shared_from = None  # the first step whose shared words the buffer holds
    for lo in range(0, n_traj, per_block):
        hi = min(lo + per_block, n_traj)
        for first in range(0, n_meas, span):
            last = min(first + span, n_meas)
            if first != shared_from:  # once per chunk when a block holds whole trajectories
                words[:, : last - first, head_at:values_at] = heads[first:last]
                words[:, : last - first, tail_at:] = tails[first:last]
                shared_from = first
            if hi - lo < len(words) or last - first < span:  # the rest of a short block's buffer is NULs
                words[hi - lo :] = 0
                words[:, last - first :] = 0
                shared_from = None
            block = words[: hi - lo, : last - first]
            block[:, :, :head_at] = ids[lo:hi, None]
            # value-major, so that each word of a slot is written along the rows
            slots = block[:, :, values_at:tail_at].reshape(hi - lo, last - first, 3, _SLOT_WORDS)
            _render17(values[first:last, :, lo:hi].transpose(1, 2, 0), slots.transpose(2, 0, 1, 3), scratch)
            yield text.translate(None, b"\0")


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
    digit and point at lead + 10 * (no point) + 20 * negative, and the
    first and the second word of "e-" and the exponent at each q."""
    leads = _words([b"," + sign + b"%d" % lead + point for sign in (b"\0", b"-") for point in (b".", b"\0")
                    for lead in range(10)])[:, 0]
    exponents = _words([b"e-%02d" % q for q in range(_Q_MAX + 1)], 8).T.copy()
    return (*_power_table(), _group_table(), leads, *exponents)


#: ``np.take`` whose out= is written in place: every index is in range, or
#: belongs to a value that CPython writes.
_take = functools.partial(np.take, mode="clip")


def _render17(values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The bytes of ``b",%.17g" % v`` for each value, as ``_SLOT_WORDS``
    NUL-padded uint32 words per value, written to ``out`` (shape
    ``values.shape + (_SLOT_WORDS,)``) and returned; see the module
    docstring.  ``scratch`` is an array of 14 rows of at least
    ``values.size`` doubles, which ``format_rows`` makes once per chunk: six
    rows of floats, whose memory then takes the words, and eight of ints."""
    power_hi, power_head, power_tail, power_lo, groups, leads, exponent0, exponent1 = _tables()
    n = values.size
    a, p, head, tail, c, t = scratch[:6, :n]
    ints = scratch[6:, :n].view(np.int64)
    qi, lead, digits, spare = ints[:4]
    halves, groups02 = ints[4:6], ints[6:]  # (upper, lower), (group0, group2)
    a.reshape(values.shape)[...] = values  # values may be a strided view of the chunk
    negative = a < 0.0
    with np.errstate(all="ignore"):  # zero, subnormal and non-finite values go to CPython
        np.abs(a, out=a)
        q = np.log10(a)
        np.floor(q, out=q)
        q *= -1.0
        fast = (q >= _Q_MIN) & (q <= _Q_MAX)
        qi[...] = q
        # a * 10**(16 + q) as p + c: p = fl(a * hi) and c the rest, exact up to 2**-47
        _take(power_hi, qi, out=p)
        p *= a
        np.multiply(a, _SPLIT, out=t)  # Veltkamp: q becomes a's head, t its tail
        np.subtract(t, np.subtract(t, a, out=q), out=q)
        np.subtract(a, q, out=t)
        np.multiply(q, _take(power_head, qi, out=head), out=c)
        c -= p
        c += np.multiply(q, _take(power_tail, qi, out=tail), out=q)
        c += np.multiply(t, head, out=head)
        c += np.multiply(t, tail, out=tail)
        c += np.multiply(_take(power_lo, qi, out=head), a, out=head)
        np.floor(c, out=t)  # the whole part
        c -= t  # the fraction, exactly
        fast &= (c > _MARGIN) & (c < 1.0 - _MARGIN) & (np.abs(c - 0.5) > _MARGIN) & (p >= 1e16) & (p <= 1e17)
        # p >= 1e16 > 2**53 is a whole number, so digits = p + whole exactly
        digits[...] = p
        spare[...] = t
        digits += spare
    fast &= digits >= 10**16  # log10 found the decade
    digits += c > 0.5  # never a tie: c is at least _MARGIN from 1/2
    fast &= digits < 10**17  # a carry into the next decade goes to CPython
    digits[~fast] = 10**16  # in range for the tables; CPython writes these slots
    # the lead digit, the 8-digit halves upper and lower, then all four
    # groups of 4 at once: (group0, group2) in groups02, (group1, group3) in halves
    upper, lower = halves
    np.floor_divide(digits, 10**16, out=lead)  # floor division by a constant is much faster than divmod
    digits -= np.multiply(lead, 10**16, out=spare)
    np.floor_divide(digits, 10**8, out=upper)
    np.subtract(digits, np.multiply(upper, 10**8, out=spare), out=lower)
    np.floor_divide(halves, 10**4, out=groups02)
    halves -= np.multiply(groups02, 10**4, out=ints[2:4])
    group0, group2 = groups02
    group1, group3 = halves
    lead += 20 * negative
    # a group's trailing zeros are NULs, and the point too, when every later
    # group is zero: only where group3 is, so those few are done one by one
    at = np.flatnonzero(group3 == 0)
    if at.size:
        zero = np.ones(at.size, dtype=np.bool_)  # every later group is zero
        for index in (group2, group1, group0):
            group = index[at]
            index[at] = group + 10000 * zero
            zero &= group == 0
        lead[at] += 10 * zero
    # word k of the slot of values[j, ...] goes to slots[j, k, ...]: copied
    # into out at once, that is much faster than writing each word into out
    words = scratch[:6].reshape(-1).view(np.uint32)
    slots = words[: _SLOT_WORDS * n].reshape(values.shape[0], _SLOT_WORDS, *values.shape[1:])
    word = words[_SLOT_WORDS * n : (_SLOT_WORDS + 1) * n]
    for k, (table, index) in enumerate(((leads, lead), (groups, group0), (groups, group1), (groups, group2),
                                        (groups[10000:], group3), (exponent0, qi), (exponent1, qi))):
        slots[:, k] = _take(table, index, out=word).reshape(values.shape)
    out[...] = np.moveaxis(slots, 1, -1)
    slow = np.flatnonzero(~fast)
    if slow.size:
        slow = np.unravel_index(slow, values.shape)
        out[slow] = _fallback(values[slow])
    return out


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
    which fixes n_meas and the trace; then the file is read ``READ_BLOCK``
    bytes at a time into one buffer, and each block is the whole lines in
    it: the part of a line that a read cuts off starts the next.  Each block that
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
            held = 0  # bytes of a line that the last block did not end, at the front of the buffer
            while check is not None:
                got = handle.readinto(check.room[held:])
                size = held + got
                end = check.buffer.rfind(b"\n", 0, size) + 1 if got else size  # the file's end ends its last line
                if not end:  # no whole line yet
                    if not got:
                        break
                    if size == len(check.room):  # a line longer than the room
                        check.grow(2 * size)
                    held = size
                    continue
                vouched = check.rows(end, lineno - 1)
                if vouched is None:
                    lineno, traj, step = _scan_lines(path, io.BytesIO(check.buffer[:end]), lineno, x1, trace, traj,
                                                     step)
                else:
                    n_rows, means = vouched
                    del x1[(lineno - 1) // check.n_meas :]  # the trajectory in progress, if any
                    x1 += means
                    lineno += n_rows
                    traj, step = divmod(lineno - 2, check.n_meas)
                    step += 1
                held = size - end
                check.buffer[:held] = check.buffer[end:size]
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
    fails the checks of the module docstring.
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


def _mean_automaton() -> tuple[np.ndarray, int]:
    """(next state at ``state | byte``, accepting state) of the mean_x1_m
    spellings a block check vouches for.

    States are multiples of 256, so one ``take`` steps the automaton over one
    byte of every row.
    """
    start, sign, whole, dot, fraction, exp, exp_sign, exp_digits, done, dead = range(0, 2560, 256)
    digit = b"0123456789"
    moves = {
        start: {digit: whole, b"-": sign},
        sign: {digit: whole},
        whole: {digit: whole, b".": dot, b"e": exp, b",": done},
        dot: {digit: fraction},
        fraction: {digit: fraction, b"e": exp, b",": done},
        exp: {b"-": exp_sign},
        exp_sign: {digit: exp_digits},
        exp_digits: {digit: exp_digits, b",": done},
    }
    table = np.full(dead + 256, dead, dtype=np.intp)
    table[done : done + 256] = done  # what follows the comma is the next field's
    for state, out in moves.items():
        for spelling, target in out.items():
            table[[state + byte for byte in spelling]] = target
    return table, done


_MEAN_NEXT, _MEAN_DONE = _mean_automaton()

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
    It owns the reader's buffer: the reader reads into ``room``, moves the
    part of a line that a read cut off to the front, and has ``grow`` the
    room for a line longer than it.  ``rows(end, first_row)``
    returns, for the block ``buffer[:end]``, (rows, mean_x1 of the last row
    of each trajectory in the block and of the block's last row) when every row is
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
        # the widest window the checks read: step, var_x2_m2, mean_x1_m, and
        # traj_id (a row number below 2**63 has at most 19 digits, then ",")
        self.width = max(8 * self.steps[0].shape[1], 8 * self.trace[0].shape[1], _MEAN_WIDTH + 1, 24)
        self.buffer = bytearray()
        self.grow(READ_BLOCK)

    def grow(self, size: int) -> None:
        """Give the buffer ``room`` for ``size`` bytes of lines, keeping its
        bytes, and past the room the bytes that the windows of a block's
        last row read past its end."""
        held = self.buffer
        self.buffer = bytearray(size + self.width)
        self.buffer[: len(held)] = held
        self.room = memoryview(self.buffer)[:size]
        data = np.frombuffer(self.buffer, dtype=np.uint8)
        self.data = data[:size]
        self.windows = sliding_window_view(data, self.width)  # the bytes at every offset
        self.below = np.empty(size, dtype=np.bool_)

    def rows(self, end: int, first_row: int) -> tuple[int, list[float]] | None:
        if self.data[end - 1] != ord("\n"):
            return None
        data = self.data[:end]
        separators = np.flatnonzero(np.less_equal(data, ord(","), out=self.below[:end]))
        if separators.size % 8:
            return None
        separators = separators.reshape(-1, 8)
        if not (data[separators] == _ROW_SEPARATORS).all():
            return None
        n_rows = len(separators)
        starts = np.concatenate(([0], separators[:-1, 7] + 1))
        traj, step_index = np.divmod(first_row + np.arange(n_rows), self.n_meas)
        ids = _spelled([b"%d," % t for t in range(traj[0], traj[-1] + 1)])
        # the bytes past the block's end never decide a check: each field it
        # compares ends before the block's last newline, and the mean_x1_m
        # automaton is done or dead by then
        windows = self.windows
        if not (
            _all_spelt(windows, starts, ids, traj - traj[0])
            and _all_spelt(windows, separators[:, 0] + 1, self.steps, step_index)
            and _all_spelt(windows, separators[:, 6] + 1, self.trace, step_index)
        ):
            return None

        # one byte of every row's mean_x1_m at a time, through the comma
        state = np.zeros(n_rows, dtype=np.intp)
        index = np.empty_like(state)
        for column in windows[separators[:, 3] + 1, : _MEAN_WIDTH + 1].T:
            np.take(_MEAN_NEXT, np.bitwise_or(state, column, out=index), out=state, mode="clip")
        if not (state == _MEAN_DONE).all():
            return None

        last = np.flatnonzero(step_index == self.n_meas - 1)
        if last.size == 0 or last[-1] != n_rows - 1:
            last = np.append(last, n_rows - 1)
        bounds = zip((separators[last, 3] + 1).tolist(), separators[last, 4].tolist())
        return n_rows, [float(self.buffer[lo:hi]) for lo, hi in bounds]


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
