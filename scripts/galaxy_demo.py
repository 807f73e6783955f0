#!/usr/bin/env python3
"""Walk through the galaxy of an elliptic degeneration tower.

Sets up the tower over the circle skeleton of an I_m model with doubling
base-change degrees (held by its cycle sizes; no level complex is
built), classifies a few sample angles on the limit circle (rational
angles become vertices at a finite level and stay open; irrational
angles stay interior to a shrinking edge forever and are closed points),
and prints the level decomposition into open slots plus the leftover
cells.

Usage:
    python3 scripts/galaxy_demo.py [--m 3] [--levels 6] [--decompose-at 4]
"""

import argparse
from fractions import Fraction

from troplim.errors import IncompleteTower, UndecidableSign
from troplim.galaxy import EllipticTower, classify_point, decomposition
from troplim.towers import Symbol

SAMPLE_RATIONALS = [Fraction(0), Fraction(1, 2), Fraction(1, 6),
                    Fraction(5, 12), Fraction(7, 48), Fraction(1, 5)]
SAMPLE_SYMBOLS = [
    Symbol("sqrt2-1", Fraction(414213, 10 ** 6), Fraction(414214, 10 ** 6)),
    Symbol("golden-1", Fraction(618033, 10 ** 6), Fraction(618035, 10 ** 6)),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=3,
                        help="number of components of the base cycle")
    parser.add_argument("--levels", type=int, default=6,
                        help="tower levels; level i has degree 2^i")
    parser.add_argument("--decompose-at", type=int, default=4,
                        help="subdivision level for the slot decomposition")
    args = parser.parse_args(argv)

    degrees = [2 ** i for i in range(args.levels)]
    tower = EllipticTower(args.m, degrees)
    print(f"tower over I_{args.m}, degrees {degrees}")
    print(f"cycle sizes per level: {list(tower.cycle_sizes)}\n")

    print("rational angles (open points):")
    for theta in SAMPLE_RATIONALS:
        try:
            res = classify_point(tower, theta)
        except IncompleteTower as exc:  # a too-short tower cannot certify
            print(f"  {str(theta):>6}: {type(exc).__name__}: {exc}")
            continue
        print(f"  {str(theta):>6}: open from level {res.level} "
              f"at vertex {res.vertex}")

    print("\nirrational angles (closed points):")
    for sym in SAMPLE_SYMBOLS:
        try:
            res = classify_point(tower, sym)
        except UndecidableSign as exc:  # edges narrower than the enclosure
            print(f"  {sym.name:>9}: {type(exc).__name__}: {exc}")
            continue
        widths = ", ".join(str(c.width) for c in res.carriers)
        print(f"  {sym.name:>9}: carrier edge widths {widths}")

    level = args.decompose_at
    record = decomposition(tower.circle, level)
    print(f"\ndecomposition of I_{args.m} at level {level}: "
          f"{record.slot_count} open slots, "
          f"{record.non_klt_cells} remaining positive-dimensional cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
