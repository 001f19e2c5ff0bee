#!/usr/bin/env python3
"""Map both entanglement witnesses over the (coherence, crystal-length)
plane and print an ASCII rendering of the two regions.

x = w/ell_c grows to the right (less coherent), y = sqrt(L/(k_p w^2))
grows upward.  '#' marks the coherence-immune witness (position-diagonal
times momentum-anti-diagonal below 1/2), 'o' the fragile one, '.'
neither.  A CSV of all cells can be kept for proper plotting.
"""

import argparse
import sys

import numpy as np

from spdc_coherence import DEFAULT_ALPHA, NonPositiveParameter, sweep_phase_diagram
from spdc_coherence.entanglement import sweep_to_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x-max", type=float, default=3.0)
    ap.add_argument("--y-max", type=float, default=4.0)
    ap.add_argument("--nx", type=int, default=72)
    ap.add_argument("--ny", type=int, default=36)
    ap.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args()
    try:
        diagram = sweep_phase_diagram((0.0, args.x_max), (0.0, args.y_max), args.nx, args.ny, args.alpha)
    except NonPositiveParameter as exc:
        ap.error(str(exc))

    # glyphs indexed by type1 + 2 type2; the masks are (nx, ny), so
    # transpose and print the largest y first
    rows = np.array([".", "#", "o"])[(diagram.type1 + 2 * diagram.type2).T[::-1]]
    for row in rows.tolist():
        print("".join(row))
    print(f"alpha={args.alpha}: '#' immune witness, 'o' coherence-fragile witness, '.' neither")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(sweep_to_csv(diagram))
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
