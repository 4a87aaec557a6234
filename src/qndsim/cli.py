"""Command-line harness.

Subcommands: ``budget`` (noise-quanta tables), ``qnd-check`` (self-commutation
verdicts), ``simulate`` (ensemble run from a config file), ``sweep`` (grid of
runs), ``analyze`` (re-run statistics on an existing record CSV).  The CSVs of
``budget``, ``sweep`` and ``analyze --histogram`` spell a float as %.17g and a
missing figure as nan.  Exit codes: 0 success, 1 configuration/usage errors,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from itertools import product

from .budget import budget_figures, operating_point
from .config import CONFIG_KEYS, convert_config_value, default_config, load_config
from .ensemble import SUMMARY_STATS, ensemble_stats, run_ensemble, run_ensembles
from .errors import (
    ConfigError,
    DegenerateSeriesError,
    InsufficientDataError,
    ParameterError,
    StateDomainError,
)
from .observables import OBSERVABLE_KINDS, QND_TOL, OscillatorParams, is_qnd_sequence
from .stats import SampleSeries, boltzmann_verdict, energy_histogram

# budget flag -> BudgetInputs field; unset flags take the default config's
# operating point
_BUDGET_FLAGS = (
    ("T", "temperature"),
    ("omega1", "omega1"),
    ("tau1", "tau1"),
    ("omega2", "omega2"),
    ("tau2", "tau2"),
    ("dt", "dt"),
    ("eta_a", "amplifier_quanta"),
    ("mass", "mass"),
)
# the budget CSV's point columns, BudgetInputs field -> header name; the
# figure columns follow under budget_figures' names (eta_a among them)
_BUDGET_POINT_COLUMNS = {"temperature": "T_K", "omega1": "omega1", "tau1": "tau1", "omega2": "omega2", "tau2": "tau2",
                         "dt": "dt_s", "mass": "mass_kg"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextmanager
def _outputs(*paths):
    """Check before the work that each output path given (None skips one) can
    be written, so that a bad path fails fast.  The check opens the path for
    appending, which creates a missing file and leaves an existing one as it
    is; the command writes its outputs with ``_write`` once the work is done.
    If the command fails, the files the check created are removed, and a path
    that existed before is left as it was."""
    created = []
    try:
        for path in paths:
            if path is not None:
                existed = os.path.lexists(path)
                with open(path, "a", encoding="utf-8"):
                    pass
                if not existed:
                    created.append(path)
        yield
    except BaseException:
        for path in created:
            with suppress(FileNotFoundError):  # e.g. removed meanwhile by another process
                os.remove(path)
        raise


def _require_distinct(args, *names) -> None:
    """Refuse, before any work, two of the path flags ``names`` (attributes of
    ``args``) that name the same file: an output written over an input or
    another output would destroy it.  Regular files compare by device and
    inode, missing ones by resolved path; a device such as /dev/null may repeat."""
    seen = {}
    for name in names:
        path = getattr(args, name)
        if path is None:
            continue
        try:
            info = os.stat(path)
            key = (info.st_dev, info.st_ino) if stat.S_ISREG(info.st_mode) else None
        except FileNotFoundError:
            key = os.path.realpath(path)
        if key is not None and key in seen:
            raise _UsageError(f"--{seen[key]} and --{name} name the same file {path!r}")
        seen[key] = name


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _float_list(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {raw!r}") from None
    if not values:
        raise _UsageError(f"expected at least one number, got {raw!r}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="qndsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    defaults = default_config()
    base = operating_point(defaults)

    p = sub.add_parser("budget", help="noise-quanta budget figures")
    for flag, fieldname in _BUDGET_FLAGS:
        p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None,
                       help=f"value or comma-separated sweep values (default {getattr(base, fieldname):g})")
    p.add_argument("--out", default=None, help="write the budget CSV here")
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("qnd-check", help="self-commutation verdict for a schedule")
    p.add_argument("--observable", required=True, choices=OBSERVABLE_KINDS)
    p.add_argument("--times", required=True, help="comma-separated measurement times [s]")
    p.add_argument("--mass", type=float, default=defaults.mass_kg)
    p.add_argument("--omega1", type=float, default=defaults.omega1_rad_s)
    p.add_argument("--tol", type=float, default=QND_TOL)
    p.set_defaults(func=_cmd_qnd_check)

    p = sub.add_parser("simulate", help="run an ensemble from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--records", default=None, help="write the per-measurement record CSV here")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="grid of runs over config fields")
    p.add_argument("--config", default=None, help="base config (defaults when omitted)")
    p.add_argument("--vary", action="append", default=[], metavar="KEY=V1,V2,...",
                   help="config key and values; repeatable, row-major in flag order")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the sweep CSV here (stdout otherwise)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analyze", help="re-run statistics on a record CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--config", default=None, help="config the records came from (defaults when omitted)")
    p.add_argument("--alpha", type=float, default=0.01, help="significance threshold for the verdict")
    p.add_argument("--out", default=None, help="write the analysis JSON here")
    p.add_argument("--histogram", default=None, help="write the energy histogram CSV here")
    p.add_argument("--bins", type=int, default=20, help="histogram bins, 5 to one per trajectory")
    p.set_defaults(func=_cmd_analyze)
    return parser


def _cmd_budget(args) -> int:
    axes = {fieldname: _float_list(getattr(args, flag)) for flag, fieldname in _BUDGET_FLAGS
            if getattr(args, flag) is not None}
    base = operating_point(default_config())
    with _outputs(args.out):
        # _grid is lazy: a point is checked after the figures of the points before it
        rows = [(point, budget_figures(point)) for point in _grid(base, axes)]
        cells = ([getattr(point, field) for field in _BUDGET_POINT_COLUMNS] + list(figures.values())
                 for point, figures in rows)
        lines = _csv_lines([*_BUDGET_POINT_COLUMNS.values(), *rows[0][1]], cells)
        if args.out is not None:
            _write(args.out, lines)
    if len(rows) == 1:
        for name, value in rows[0][1].items():
            print(f"{name}={value:.4g}")
    elif args.out is None:
        for line in lines:
            print(line)
    return 0


def _cmd_qnd_check(args) -> int:
    times = _float_list(args.times)
    params = OscillatorParams(mass=args.mass, omega1=args.omega1, tau1=1.0, temperature=1.0)
    verdict = is_qnd_sequence(args.observable, times, params, tol=args.tol)
    print(f"QND: {'yes' if verdict.is_qnd else 'no'}, max violation {verdict.max_violation:.3e}")
    return 0


def _cmd_simulate(args) -> int:
    _require_distinct(args, "config", "records", "out")
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    with _outputs(args.out):
        summary = run_ensemble(config, workers=args.workers, record_path=args.records)
        text = summary.to_json()
        if args.out is not None:
            _write(args.out, [text])
    print(text)
    print(f"wall_time_s={summary.wall_time_s:.3f}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    _require_distinct(args, "config", "out")
    base = load_config(args.config) if args.config is not None else default_config()
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    axes = {}
    for item in args.vary:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in CONFIG_KEYS:
            raise ConfigError(f"--vary expects KEY=V1,V2 with a config key, got {item!r}")
        if key in axes:
            raise ConfigError(f"--vary {key} is given more than once")
        values = [convert_config_value(key, part.strip()) for part in raw.split(",") if part.strip()]
        if not values:
            raise ConfigError(f"--vary {key} needs at least one value")
        axes[key] = values
    points = list(_grid(base, axes))  # the base alone when nothing varies
    with _outputs(args.out):
        rows = ([getattr(summary.config, key) for key in axes] + [getattr(summary, name) for name in SUMMARY_STATS]
                for summary in run_ensembles(points, workers=args.workers))
        lines = _csv_lines([*axes, *SUMMARY_STATS], rows)
        if args.out is not None:
            _write(args.out, lines)
    if args.out is None:
        for line in lines:
            print(line)
    return 0


def _grid(base, axes: dict):
    """``base`` with each combination of the values of ``axes`` (field ->
    values) put in, row-major in axis order, made one point at a time."""
    return (replace(base, **dict(zip(axes, combo))) for combo in product(*axes.values()))


def _format_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_lines(header, rows) -> list[str]:
    """The header line, then one line per row of cells, each spelled by
    ``_format_cell``: every CSV that a command writes."""
    return [",".join(header), *(",".join(map(_format_cell, row)) for row in rows)]


def _cmd_analyze(args) -> int:
    if not (0.0 < args.alpha < 1.0):
        raise _UsageError(f"--alpha must lie in (0, 1), got {args.alpha!r}")
    _require_distinct(args, "config", "records", "out", "histogram")
    config = load_config(args.config) if args.config is not None else default_config()
    with _outputs(args.out, args.histogram):
        from .records import read_records  # only the command that reads records loads the reader

        x1, v22_trace = read_records(args.records)
        stats = ensemble_stats(x1, v22_trace, config.oscillator())
        text = json.dumps({"n_traj": len(x1), "n_meas": len(v22_trace), **stats, "alpha": args.alpha})
        if args.histogram is not None:
            hist = energy_histogram(SampleSeries(x1), config.oscillator(), args.bins)
            _write(args.histogram, _csv_lines(["e_lo_J", "e_hi_J", "count", "model_density_per_J"],
                                              zip(hist.bin_edges, hist.bin_edges[1:], hist.counts, hist.model_density)))
        if args.out is not None:
            _write(args.out, [text])
    print(text)
    gof_p = stats["gof_p_value"]
    if gof_p is None:
        print("boltzmann: undetermined (too few trajectories)")
    else:
        deviation, pull = boltzmann_verdict(gof_p, stats["t1_hat_K"], stats["t1_stderr_K"], config.temperature_K,
                                            args.alpha)
        verdict = "deviation detected" if deviation else "consistent"
        print(f"boltzmann: {verdict} (p={gof_p:.6g}, alpha={args.alpha:g}, T1 pull={pull:.3g} se)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    try:
        return args.func(args)
    # OSError: e.g. an output path that cannot be opened; its message names the path
    except (_UsageError, ConfigError, ParameterError, StateDomainError, InsufficientDataError,
            DegenerateSeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # MemoryError: e.g. a schedule too long for its plan's arrays
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    # ArithmeticError: NumericalFailureError, or e.g. a product of parameters that underflows to a 0 divisor
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
