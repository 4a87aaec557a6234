"""The per-measurement record CSV: header, chunk writer and strict reader.

One row per measurement, trajectory-major with ids 0, 1, 2, ..., steps
1..n_meas within each trajectory, floats with 17 significant digits so that
every value reads back bit for bit:

    traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2

``format_rows`` renders one chunk of trajectories at a time from the
``MeasurementRecord`` list that ``run_schedule`` returns for it; a run writes
the chunks in trajectory order, whatever their size.  ``read_records``
streams a file and keeps only what ``analyze`` needs: the final mean_x1 of
every trajectory and the var_x2 trace of trajectory 0.  Every trajectory of
a run has the same var_x2 trace, since the covariance recursion needs no
outcomes, so the reader requires each row's var_x2 to equal trajectory 0's
at that step; that trace is the one ``simulate`` reports.  The reader
rejects any file that a run could not have written, naming the path and line.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

#: Exact header of the per-measurement record CSV.
RECORD_CSV_HEADER = "traj_id,step,time_s,outcome_m,mean_x1_m,mean_x2_m,var_x1_m2,var_x2_m2"

_FIELDS = tuple(RECORD_CSV_HEADER.split(","))


def format_rows(first_id: int, records) -> list[str]:
    """Rows of one chunk of trajectories, one string per trajectory, in
    trajectory order.

    ``records`` holds the chunk's ``MeasurementRecord`` of each step, as
    ``run_schedule`` returns them for a batch state: outcome and means are
    arrays over trajectories first_id, first_id + 1, ...; time and variances
    are scalars shared by the chunk, so they are rendered once per step, not
    once per row.  Formatting one trajectory at a time keeps only its own
    values boxed as Python floats, not the whole chunk's.
    """
    trajectory_format = "".join(
        f"%d,{step},{r.time:.17g},%.17g,%.17g,%.17g,{r.post_v11:.17g},{r.post_v22:.17g}\n"
        for step, r in enumerate(records, start=1)
    )
    n_traj = len(records[0].outcome)
    table = np.empty((n_traj, len(records), 4))
    table[:, :, 0] = np.arange(first_id, first_id + n_traj)[:, None]  # exact; rendered by %d
    table[:, :, 1] = np.transpose([r.outcome for r in records])
    table[:, :, 2] = np.transpose([r.post_mean1 for r in records])
    table[:, :, 3] = np.transpose([r.post_mean2 for r in records])
    return [trajectory_format % tuple(row.ravel().tolist()) for row in table]


def read_records(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(final mean_x1 per trajectory, var_x2 per step of trajectory 0).

    Trajectory ids must run 0, 1, 2, ... as a run writes them, every
    trajectory must hold steps 1..n_meas in order, n_meas must be the same
    for all of them, mean_x1 and var_x2 must be finite, and each var_x2 must
    equal trajectory 0's at that step; any other content raises ConfigError
    with ``path:line``.
    """
    x1: list[float] = []
    trace: list[float] = []  # var_x2 of trajectory 0, per step
    traj = step = lineno = 0
    isfinite = math.isfinite  # once per row: a local name is looked up faster
    try:
        with open(path, "rb") as handle:
            if handle.readline().rstrip(b"\r\n") != RECORD_CSV_HEADER.encode():
                raise ConfigError(f"{path}:1: not a record CSV (bad header)")
            for lineno, line in enumerate(handle, start=2):
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
    except OSError as exc:
        raise ConfigError(f"cannot read records {path!r}: {exc}") from None
    if not x1:
        raise ConfigError(f"{path!r} contains no record rows")
    _require_complete(path, lineno, traj, step, len(trace))
    return np.array(x1), np.array(trace)


def _require_complete(path: str, lineno: int, traj: int, step: int, n_meas: int) -> None:
    if step != n_meas:
        raise ConfigError(f"{path}:{lineno}: trajectory {traj} ends at step {step}, expected {n_meas}")


def _bad_field(parts: list[bytes]) -> str:
    """Name the first field of a row that read_records cannot parse."""
    for index, convert in ((0, int), (1, int), (4, float), (7, float)):
        try:
            convert(parts[index])
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            return f"{_FIELDS[index]} is not {kind}: {parts[index].decode(errors='replace').strip()!r}"
    return "unparsable row"
