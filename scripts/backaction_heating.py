#!/usr/bin/env python3
"""Back-action heating of the demolished quadrature, bath switched off.

With the thermal coupling negligible, repeated X1 measurements contract
v11 along the Kalman recursion while v22 climbs by sigma_ba^2 per
measurement.  The covariance recursion needs no outcomes, so its plan gives
the variance traces of every trajectory without stepping one.  Prints the
fitted slope against the ideal injection and, optionally, the full variance
traces as CSV.
"""

import argparse
import sys

from qndsim import GaussianQuadState, MeterSpec, OscillatorParams, backaction_sigma, heating_slope
from qndsim.measurement import plan_schedule


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma-m", type=float, default=1e-18)
    parser.add_argument("--n-meas", type=int, default=100)
    parser.add_argument("--v0", type=float, default=6.903245e-30, help="initial variance per quadrature")
    parser.add_argument("--trace-out", default=None, help="write step,v11,v22 CSV here")
    args = parser.parse_args()

    params = OscillatorParams(mass=1e-3, omega1=1e4, tau1=1e12, temperature=1e-12)
    meter = MeterSpec("qnd_x1", args.sigma_m)
    sba = backaction_sigma(meter, params)

    state = GaussianQuadState(0.0, 0.0, args.v0, args.v0, 0.0)
    plan = plan_schedule(state, meter, "orthodox", params, 1e-2, args.n_meas)
    v11s, v22s = plan.steps["post_v11"].tolist(), plan.steps["post_v22"].tolist()
    slope = heating_slope(v22s)
    rel_err = abs(slope - sba**2) / sba**2
    print(f"sigma_ba^2 = {sba**2:.6e} m^2 per measurement")
    print(f"fitted v22 slope = {slope:.6e} m^2 per measurement (rel err {rel_err:.2e})")
    print(f"v11: {args.v0:.3e} -> {v11s[-1]:.3e} m^2 after {args.n_meas} measurements")

    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write("step,v11_m2,v22_m2\n")
            for step, (v11, v22) in enumerate(zip(v11s, v22s), start=1):
                handle.write(f"{step},{v11:.17g},{v22:.17g}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
