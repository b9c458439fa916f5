#!/usr/bin/env python3
"""Print the 2x2 block structure of the partially transposed density
matrices: per excitation level, the binomial multiplicity formula next to
the count of blocks literally extracted from the matrix sparsity pattern,
plus the per-block negative eigenvalue that drives the negativity.

Usage:
    python scripts/block_census.py
    python scripts/block_census.py --r 0.4 --dirac-n 1,2,3 --spinless-n 2,5
"""

from __future__ import annotations

import argparse
import sys

from rindler_ferm.density import (
    bell_dirac,
    build_joint_state,
    trace_out_region_iv,
    vac_one_dirac,
    vac_one_spinless,
)
from rindler_ferm.entanglement import (
    block_census,
    block_spectrum,
    negativity_blocks,
    partial_transpose_alice,
)
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import SqueezeParam
from rindler_ferm.verify import bruteforce_feasible


def parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=0.6, help="squeezing angle")
    parser.add_argument("--dirac-n", default="1,2,3")
    parser.add_argument("--spinless-n", default="2,4,6")
    args = parser.parse_args(argv)

    r = SqueezeParam(args.r)
    combos = []
    for n in parse_ints(args.dirac_n):
        combos.append((vac_one_dirac(), dirac(n)))
        combos.append((bell_dirac(), dirac(n)))
    for n in parse_ints(args.spinless_n):
        combos.append((vac_one_spinless(), spinless(n)))

    clean = True
    for scenario, field in combos:
        value = negativity_blocks(scenario, field, r)
        counts = None
        if bruteforce_feasible(field):
            pt = partial_transpose_alice(
                trace_out_region_iv(build_joint_state(scenario, field, r))
            )
            counts = block_census(scenario, field, pt)
        print(f"\n{scenario.kind.value}, n={field.mode_count}, r={r.r}")
        print(f"{'m':>3} {'mult':>6} {'extracted':>9} {'|lambda-|':>12}")
        for record in block_spectrum(scenario, field, r):
            found = "-" if counts is None else str(counts.get(record.m, 0))
            flag = ""
            if counts is not None and counts.get(record.m, 0) != record.multiplicity:
                flag = "  <- MISMATCH"
                clean = False
            print(
                f"{record.m:>3} {record.multiplicity:>6} {found:>9} "
                f"{record.neg_eigenvalue:>12.6e}{flag}"
            )
        print(f"negativity = sum(mult * |lambda-|) = {value!r}")
    print("\nall censuses match" if clean else "\nMISMATCH FOUND")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
