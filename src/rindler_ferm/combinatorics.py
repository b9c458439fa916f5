"""Exact counting of Pauli-admissible mode configurations and of the 2x2
block multiplicities in the partially transposed density matrices.

Everything here is integer arithmetic; the test suite checks each closed
form against explicit enumeration, so the formulas never stand alone. The
block multiplicities of a scenario form one binomial row C(top, 0..top),
``top`` being the slots its excited Rob modes leave free
(:func:`~rindler_ferm.entanglement.block_row`); :func:`block_multiplicities`
builds the row, and :func:`blocks_via_exclusion` counts the same entries
for any field and any number of excited (reserved) modes from the
admissible counts, without the row.
"""

from __future__ import annotations

import math

from .modes import FieldFamily, FieldKind


def _comb0(a: int, b: int) -> int:
    """Binomial that is 0 (not an error) outside 0 <= b <= a."""
    return math.comb(a, b) if 0 <= b <= a else 0


def upsilon(n: int, m: int) -> int:
    """Admissible m-mode configurations of a Dirac field with n momenta,
    counted through the number p of fully paired momenta:

        sum_p  C(n-p, m-2p) * C(n, p) * 2^(m-2p)

    where C(n, p) places the p spin-paired momenta, C(n-p, m-2p) places the
    remaining singly occupied momenta and 2^(m-2p) chooses their spins.
    Collapses to C(2n, m).
    """
    if not 0 <= m <= 2 * n:
        raise ValueError(f"m={m} outside 0..{2 * n}")
    return sum(
        math.comb(n - p, m - 2 * p) * math.comb(n, p) * 2 ** (m - 2 * p)
        for p in range(m // 2 + 1)
    )


def chi(n: int, m: int) -> int:
    """Admissible m-mode configurations of a spinless field: C(n, m)."""
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside 0..{n}")
    return math.comb(n, m)


def block_multiplicities(top: int) -> list[int]:
    """How many identical 2x2 blocks the partial transpose carries at each
    excitation level m = 0..top: C(top, m), from the exact recurrence
    C(top, m+1) = C(top, m) * (top - m) // (m + 1) up to the middle and
    the symmetry C(top, m) = C(top, top - m) beyond it: top/2 big-integer
    steps instead of one binomial per level. The row has top + 1 entries,
    so callers bound ``top`` first.
    """
    row = [1]
    for m in range(top // 2):
        row.append(row[-1] * (top - m) // (m + 1))
    return row + row[: top + 1 - len(row)][::-1]


def blocks_via_exclusion(field: FieldKind, reserved: int, m: int) -> int:
    """The m-mode configurations of ``field`` that hold none of ``reserved``
    excited modes: the admissible count (:func:`upsilon` or :func:`chi`)
    less those holding a reserved mode, by inclusion-exclusion,

        sum_{j=1..reserved}  (-1)^j C(reserved, j) C(slots - j, m - j)

    where C(slots - j, m - j) counts the configurations that hold j given
    reserved modes. Equal to the block multiplicity C(slots - reserved, m)."""
    admissible = upsilon if field.family is FieldFamily.DIRAC else chi
    return admissible(field.mode_count, m) + sum(
        (-1) ** j * math.comb(reserved, j) * _comb0(field.slots - j, m - j)
        for j in range(1, reserved + 1)
    )
