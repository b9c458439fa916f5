"""Mode labels, fields and the slot of every label in an occupation bitset.

Momenta are abstract 1-based integer indices with no dispersion relation
attached. A Dirac field with n momenta has 2n single-particle states per
Rindler sector (spin up/down for every momentum); a spinless fermion field
has n. Region-IV antiparticle modes mirror the region-I labels one to one,
so both sectors share the same label set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Spin(Enum):
    UP = "up"
    DOWN = "down"


class FieldFamily(Enum):
    DIRAC = "dirac"
    SPINLESS = "spinless"


@dataclass(frozen=True, slots=True)
class ModeLabel:
    """One single-particle mode: (momentum index, spin).

    ``spin`` is None exactly for spinless-fermion fields.
    """

    momentum: int
    spin: Spin | None = None


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

    def labels(self) -> tuple[ModeLabel, ...]:
        """All single-particle labels of one sector, in slot order."""
        return tuple(label_at(self, s) for s in range(self.slots))

    def validate_label(self, label: ModeLabel) -> None:
        if not 1 <= label.momentum <= self.mode_count:
            raise ValueError(
                f"momentum {label.momentum} outside 1..{self.mode_count}"
            )
        if self.family is FieldFamily.DIRAC:
            if label.spin is None:
                raise ValueError("Dirac labels need a spin")
        elif label.spin is not None:
            raise ValueError("spinless labels must not carry a spin")


def dirac(n: int) -> FieldKind:
    return FieldKind(FieldFamily.DIRAC, n)


def spinless(n: int) -> FieldKind:
    return FieldKind(FieldFamily.SPINLESS, n)


def slot_index(field: FieldKind, label: ModeLabel) -> int:
    """Bit position of a label inside one sector's occupation bitset.

    Slots follow the canonical order of labels, momentum ascending and spin
    up before down, so bitsets read out in ascending bit position are
    canonically sorted occupation lists; a bitset holds each mode at most
    once, which is Pauli exclusion.
    """
    field.validate_label(label)
    if field.family is FieldFamily.DIRAC:
        return 2 * (label.momentum - 1) + (label.spin is Spin.DOWN)
    return label.momentum - 1


def label_at(field: FieldKind, slot: int) -> ModeLabel:
    """Inverse of :func:`slot_index`."""
    if not 0 <= slot < field.slots:
        raise ValueError(f"slot {slot} outside 0..{field.slots - 1}")
    if field.family is FieldFamily.DIRAC:
        return ModeLabel(slot // 2 + 1, Spin.UP if slot % 2 == 0 else Spin.DOWN)
    return ModeLabel(slot + 1)
