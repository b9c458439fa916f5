#!/usr/bin/env python3
"""Sweep entanglement negativity against acceleration for all three
entangled-state scenarios and a range of mode counts, writing one combined
CSV and printing a per-scenario summary.

Every scenario must land on the same curve 0.5 cos(r)^2 whatever the mode
count; the summary column shows the worst deviation actually observed.

Usage:
    python scripts/negativity_sweep.py --points 33 --out sweep.csv
    python scripts/negativity_sweep.py --dirac-n 1,2,3 --spinless-n 1,8,64
"""

from __future__ import annotations

import argparse
import math
import sys

from rindler_ferm.density import bell_dirac, vac_one_dirac, vac_one_spinless
from rindler_ferm.entanglement import negativity_blocks
from rindler_ferm.modes import dirac, spinless
from rindler_ferm.rindler import SqueezeParam


def parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=33, help="r grid size")
    parser.add_argument("--dirac-n", default="1,2,4,8,12", help="Dirac mode counts")
    parser.add_argument("--spinless-n", default="1,4,16,64", help="spinless mode counts")
    parser.add_argument("--out", default="negativity_sweep.csv")
    args = parser.parse_args(argv)

    grid = [SqueezeParam(math.pi / 4 * i / (args.points - 1)) for i in range(args.points)]
    combos = []
    for n in parse_ints(args.dirac_n):
        combos.append((vac_one_dirac(), dirac(n)))
        combos.append((bell_dirac(), dirac(n)))
    for n in parse_ints(args.spinless_n):
        combos.append((vac_one_spinless(), spinless(n)))

    lines = ["scenario,n,r,negativity,closed_form,deviation"]
    summary: dict[str, float] = {}
    for scenario, field in combos:
        worst = 0.0
        for r in grid:
            value = negativity_blocks(scenario, field, r)
            closed = 0.5 * math.cos(r.r) ** 2
            worst = max(worst, abs(value - closed))
            lines.append(
                f"{scenario.kind.value},{field.mode_count},{r.r!r},"
                f"{value!r},{closed!r},{abs(value - closed)!r}"
            )
        key = f"{scenario.kind.value} n={field.mode_count}"
        summary[key] = worst

    with open(args.out, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")

    print(f"wrote {len(lines) - 1} rows to {args.out}")
    print(f"{'configuration':<28} worst |N - cos^2(r)/2|")
    for key, worst in summary.items():
        print(f"{key:<28} {worst:.3e}")
    endpoint = 0.5 * math.cos(math.pi / 4) ** 2
    print(f"infinite-acceleration limit on every curve: {endpoint!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
