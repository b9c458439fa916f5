"""Fields and their single-particle slots.

Momenta are abstract 1-based integer indices with no dispersion relation
attached. A Dirac field with n momenta has 2n single-particle states per
Rindler sector (spin up/down for every momentum); a spinless fermion field
has n. Below the command line a mode is named by its slot, its bit position
in one sector's occupation bitset: slot 2(k - 1) + s is momentum k with
spin up (s = 0) or down (s = 1) on a Dirac field, slot k - 1 momentum k on
a spinless one. Bitsets read out in ascending bit position are then
canonically sorted occupation lists, and a bitset holds each mode at most
once, which is Pauli exclusion. Region-IV antiparticle modes mirror the
region-I slots one to one. Every computation reads only
:attr:`FieldKind.slots`, so Dirac n and spinless 2n are one computation;
the family and n name the output and choose the paper's counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class FieldFamily(Enum):
    DIRAC = "dirac"
    SPINLESS = "spinless"


@dataclass(frozen=True, slots=True)
class FieldKind:
    """Field family plus the number of distinct momenta n."""

    family: FieldFamily
    mode_count: int

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise ValueError(f"mode_count must be >= 1, got {self.mode_count}")

    @property
    def slots(self) -> int:
        """Single-particle states per Rindler sector: 2n Dirac, n spinless."""
        if self.family is FieldFamily.DIRAC:
            return 2 * self.mode_count
        return self.mode_count


def dirac(n: int) -> FieldKind:
    return FieldKind(FieldFamily.DIRAC, n)


def spinless(n: int) -> FieldKind:
    return FieldKind(FieldFamily.SPINLESS, n)
