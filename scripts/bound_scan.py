#!/usr/bin/env python3
"""Stress-test the plane-germ point-count bound g = (1,1,2,2,3,3,3).

Two staircase germs are known to exceed the bound, so `count_ptrop_points`
can raise `BoundViolation` on honest input:

    degree 4:  y^4 + x y^2 + x^2 y + x^4          -> 3 points, bound 2
    degree 7:  y^7 + x y^4 + x^2 y^2 + x^3 y + x^5 -> 4 points, bound 3

This script first prints those witnesses, then measures how often random
degree-d germs trip the bound.  Every germ is drawn from the frozen
generator also used by the acceptance suite (each exponent of total
degree <= d kept with probability 0.3, at least two terms, top degree
exactly d, valuations in -3..3).  Each `BoundViolation` is caught and
read for its count and bound, so a violation is a data point here, not a
crash.

Typical output: seed 0 produces no violations in 700 germs; seed 2
produces a single degree-4 violation, a rate of about 0.05%.

Usage:
    python3 scripts/bound_scan.py [--seeds 0 1 2] [--per-degree 100]
"""

import argparse
import random
from fractions import Fraction

from troplim.errors import BoundViolation
from troplim.tropical import PTROP_ORDER_BOUND, count_ptrop_points, trop_poly


WITNESSES = [
    ("y^4 + x*y^2 + x^2*y + x^4",
     {(0, 4): 0, (1, 2): 0, (2, 1): 0, (4, 0): 0}),
    ("y^7 + x*y^4 + x^2*y^2 + x^3*y + x^5",
     {(0, 7): 0, (1, 4): 0, (2, 2): 0, (3, 1): 0, (5, 0): 0}),
]


def random_degree_d_germ(rng, d):
    pool = [(i, j) for i in range(d + 1) for j in range(d + 1)
            if 0 < i + j <= d]
    while True:
        exps = [e for e in pool if rng.random() < 0.3]
        if len(exps) >= 2 and max(i + j for i, j in exps) == d:
            return trop_poly({e: Fraction(rng.randint(-3, 3)) for e in exps})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--per-degree", type=int, default=100,
                        help="random germs per degree and seed")
    args = parser.parse_args(argv)

    print("explicit witnesses exceeding the bound:")
    for label, coeffs in WITNESSES:
        f = trop_poly(coeffs)
        d = f.degree
        try:
            count = count_ptrop_points(f)
        except BoundViolation as exc:
            count = exc.count
        print(f"  degree {d}: {label}: {count} points "
              f"(bound claims {PTROP_ORDER_BOUND[d - 1]})")
    print()

    total = 0
    violations = []
    for seed in args.seeds:
        rng = random.Random(seed)
        per_seed = 0
        for d in range(1, 8):
            for _ in range(args.per_degree):
                f = random_degree_d_germ(rng, d)
                total += 1
                try:
                    count_ptrop_points(f)
                except BoundViolation as exc:
                    per_seed += 1
                    violations.append((seed, d, exc, f))
        print(f"seed {seed}: {per_seed} violation(s) in "
              f"{7 * args.per_degree} germs")

    print(f"\noverall: {len(violations)} violation(s) in {total} germs "
          f"({len(violations) / total:.2%})")
    for seed, d, exc, f in violations:
        terms = ", ".join(f"x^{i}*y^{j}" for (i, j), _ in f.terms)
        print(f"  seed {seed}, degree {d}: {exc.count} points "
              f"(bound {exc.bound}) from [{terms}]")
    if violations:
        print("\nthe bound is a strong empirical tendency, not a theorem: "
              "staircase-shaped supports break it")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
