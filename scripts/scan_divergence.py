#!/usr/bin/env python3
"""Tabulate exact vs stable class counts per loop count m.

Prints one row per m with the number of exact and stable isomorphism classes
of weights N in [0, m-2], marks where the two classifications diverge, and
reports the smallest divergent m.
"""

import argparse

from oneideal import ScanResult, divergence_table
from oneideal.report import MAX_SCAN_M


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=40)
    args = parser.parse_args()
    if args.max_m < 2:
        parser.error("--max-m must be at least 2")
    if args.max_m > MAX_SCAN_M:
        parser.error(f"--max-m must be at most {MAX_SCAN_M}")

    scan = ScanResult(tuple(divergence_table(args.max_m)))
    print(f"{'m':>4}  {'exact':>6}  {'stable':>6}")
    for m, exact, stable in scan.table:
        mark = "  <-- diverges" if exact != stable else ""
        print(f"{m:>4}  {exact:>6}  {stable:>6}{mark}")
    print(f"\nsmallest divergent m: {scan.smallest_divergent_m}")


if __name__ == "__main__":
    main()
