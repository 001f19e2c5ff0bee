#!/usr/bin/env python3
"""Sweep the pump coherence length and watch the momentum correlations die.

For each ell_c the script evaluates the rotated momentum grid, reports both
widths and the witness products, and marks where the correlation sense
flips.  The anti-diagonal column barely moves across the entire sweep:
that width belongs to phase matching, not to the pump.
"""

import argparse
import csv
import math
import sys
from dataclasses import replace

from spdc_coherence import (
    EXACT_SINC,
    CrystalParams,
    NonPositiveParameter,
    PumpParams,
    classify,
    evaluate_grid,
    widths_from_grid,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--w", type=float, default=100.0, help="pump width, um (default 100)")
    ap.add_argument("--L", type=float, default=1000.0, help="crystal length, um (default 1000)")
    ap.add_argument("--k-p", type=float, default=10.0, help="pump wave number, rad/um (default 10)")
    ap.add_argument("--points", type=int, default=9, help="ell_c values per decade sweep (default 9)")
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args()
    if args.points < 2:
        ap.error("--points must be at least 2")
    try:
        coherent = PumpParams(w=args.w, k_p=args.k_p)
        c = CrystalParams(L=args.L, k_p=args.k_p)
    except NonPositiveParameter as exc:
        ap.error(str(exc))

    # log-spaced from deeply incoherent (w/100) to w, plus the coherent limit
    ells = [args.w * 10 ** (-2.0 + 2.0 * i / (args.points - 1)) for i in range(args.points)]
    ells.append(math.inf)

    rows = []
    print(f"{'ell_c':>12}  {'diag width':>12}  {'anti width':>12}  {'prod_pm':>9}  {'prod_mp':>9}  sense")
    for ell in ells:
        p = replace(coherent, ell_c=ell)
        grid = evaluate_grid(p, c, EXACT_SINC, "momentum", "rotated")
        dp, dm = widths_from_grid(grid)
        rep = classify(p, c)
        print(
            f"{ell:>12.4g}  {dp:>12.6g}  {dm:>12.6g}  {rep.product_pm:>9.4f}  "
            f"{rep.product_mp:>9.4f}  {rep.correlation_momentum}"
        )
        rows.append((ell, dp, dm, rep.product_pm, rep.product_mp, rep.correlation_momentum))

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ell_c", "diag_width", "anti_width", "product_pm", "product_mp", "sense"])
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
