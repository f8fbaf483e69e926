#!/usr/bin/env python3
"""Randomized survey of the middle-group torsion order.

Draws random family members with finite m, computes the torsion order by
the closed form 2^v2(m-1) * gcd(M, N), and checks it against the
truncation oracle (the Smith form of the truncated presentation at the
stable depth) and the admissible range.  Prints a sample of rows and a
summary line.
"""

import argparse
import random

from oneideal import (
    FamilyValidationError,
    odd_part,
    stable_oracle_depth,
    torsion_order,
    torsion_range,
    truncated_k0,
    validate_family,
    weight_of,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-m", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show", type=int, default=15, help="rows to print")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'m':>4} {'prefix':>18} {'N':>6} {'M':>4} {'x':>6} {'oracle':>9} ok")
    checked = 0
    while checked < args.count:
        m = rng.randint(2, args.max_m)
        prefix = [rng.randint(0, 50) for _ in range(rng.randint(1, 6))]
        try:
            spec = validate_family(m, prefix)
        except FamilyValidationError:
            continue
        _, n_weight = weight_of(spec)
        x = torsion_order(spec)
        oracle = truncated_k0(spec, stable_oracle_depth(spec))
        in_range = x in torsion_range(m)
        assert oracle == (1, [x] if x > 1 else []) and in_range, (spec, x, oracle)
        if checked < args.show:
            print(
                f"{m:>4} {str(list(spec.prefix)):>18} {n_weight:>6} "
                f"{odd_part(m - 1):>4} {x:>6} {str(oracle[1]):>9} {in_range}"
            )
        checked += 1
    print(f"\n{args.count} specs checked: closed form == truncation oracle, all in range")


if __name__ == "__main__":
    main()
