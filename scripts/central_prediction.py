#!/usr/bin/env python3
"""Run the central experiment in silico and print the verdict table.

Three ensembles over the same thermal oscillator: the orthodox
back-action-evading X1 meter (should look Boltzmann at the bath
temperature), the no-collapse foil, and a naive position meter at a
generic stroboscopic phase (both should be flagged by the detector).
"""

import argparse
import math
import sys
from dataclasses import replace

from qndsim import boltzmann_verdict, default_config, run_ensembles


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-traj", type=int, default=10000)
    parser.add_argument("--n-meas", type=int, default=100)
    parser.add_argument("--sigma-m-foil", type=float, default=1e-20,
                        help="meter resolution for the two foil runs")
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--alpha", type=float, default=0.01)
    args = parser.parse_args()

    base = replace(default_config(), n_traj=args.n_traj, n_meas=args.n_meas, seed=args.seed)
    runs = (
        ("qnd_x1 orthodox", base),
        ("no_conditioning", replace(base, collapse_policy="no_conditioning", sigma_m_m=args.sigma_m_foil)),
        ("position meter", replace(base, meter_kind="position", sigma_m_m=args.sigma_m_foil)),
    )

    bath_t = base.temperature_K
    print(f"bath T = {bath_t} K, n_traj = {args.n_traj}, n_meas = {args.n_meas}")
    print(f"{'run':<18} {'t1_hat [K]':>12} {'pull [se]':>10} {'gof p':>10} verdict")
    # one process pool for the three runs; the summaries come first, so that
    # their generator runs to its end
    summaries = run_ensembles([config for _, config in runs], workers=args.workers)
    for summary, (name, _) in zip(summaries, runs):
        # a run too small for a statistic reports None: it is shown as nan,
        # and without the fit test's p the verdict is undetermined
        t1_hat, t1_stderr, gof_p = (math.nan if value is None else value
                                    for value in (summary.t1_hat_K, summary.t1_stderr_K, summary.gof_p_value))
        flagged, pull = boltzmann_verdict(gof_p, t1_hat, t1_stderr, bath_t, args.alpha)
        if summary.gof_p_value is None:
            verdict = "undetermined"
        else:
            verdict = "DEVIATION" if flagged else "boltzmann-consistent"
        print(f"{name:<18} {t1_hat:>12.5g} {pull:>10.1f} {gof_p:>10.3g} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
