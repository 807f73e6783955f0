#!/usr/bin/env python3
"""Survey PTrop computation routes and the numeric sampling oracle.

For a corpus of random germs this script checks that the two exact
routes agree (normal cones of the bounded positive-dimensional faces
of the local Newton polyhedron vs recession cones of the tropical
hypersurface's cells cut to the orthant), then runs the
complex-analytic sampling oracle on the two- and three-variable germs
and reports how far the sampled direction clusters land from the exact
answer.  The exact routes are integer/rational arithmetic end to end;
the oracle is floating point, so its error column is the interesting
one.

Usage:
    python3 scripts/ptrop_survey.py [--germs 30] [--seed 0] [--with-oracle]
"""

import argparse
import random
import time
from fractions import Fraction
from itertools import product

from troplim.errors import NoBranchFound
from troplim.sampling import (
    distance_to_ptrop,
    lift_coefficients,
    ptrop_sample_oracle,
)
from troplim.tropical import (
    ptrop_normal_fan,
    ptrop_recession,
    trop_poly,
)


def random_germ(rng, n, max_deg=4):
    pool = [e for e in product(range(max_deg + 1), repeat=n)
            if 0 < sum(e) <= max_deg]
    exps = rng.sample(pool, rng.randint(2, 8))
    return trop_poly({e: Fraction(rng.randint(-3, 3)) for e in exps})


def describe(f):
    names = "xyzw"
    parts = []
    for exp, val in f.terms:
        mono = "*".join(f"{names[i]}^{e}" for i, e in enumerate(exp) if e)
        parts.append(f"({val}) {mono}" if val else mono)
    return " + ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--germs", type=int, default=30,
                        help="random germs per variable count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--with-oracle", action="store_true",
                        help="also run the numeric sampler on n <= 3 germs")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    germs = [random_germ(rng, n) for n in (2, 3, 4)
             for _ in range(args.germs)]

    start = time.monotonic()
    disagreements = 0
    for f in germs:
        if ptrop_normal_fan(f) != ptrop_recession(f):
            disagreements += 1
            print(f"ROUTE MISMATCH: {describe(f)}")
    exact_elapsed = time.monotonic() - start
    print(f"exact routes: {len(germs)} germs, {disagreements} disagreements, "
          f"{exact_elapsed:.2f}s")

    if not args.with_oracle:
        return 1 if disagreements else 0

    print("\nsampling oracle (n <= 3, nonempty exact PTrop only):")
    print(f"{'germ':<44} {'clusters':>8} {'exact':>6} {'worst dist':>11}")
    start = time.monotonic()
    for idx, f in enumerate(g for g in germs if g.n <= 3):
        exact = ptrop_normal_fan(f)
        if not exact.cones:
            continue
        try:
            clusters = ptrop_sample_oracle(lift_coefficients(f, seed=idx))
        except NoBranchFound:
            print(f"{describe(f):<44} {'-':>8} {len(exact.cones):>6} "
                  f"{'no branches':>11}")
            continue
        worst = max(distance_to_ptrop(exact, [c.direction for c in clusters]))
        exact_count = len(exact.points) if f.n == 2 else len(exact.cones)
        flag = "" if worst < 1e-2 else "  <-- off"
        print(f"{describe(f):<44} {len(clusters):>8} {exact_count:>6} "
              f"{worst:>11.2e}{flag}")
    print(f"oracle pass: {time.monotonic() - start:.2f}s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
