"""Sign-exact ladder-operator algebra on sparse fermionic occupation states.

States live on a bipartite Fock space: region-I particles and region-IV
antiparticles, each sector a bitset over the field's single-particle slots
(bit j is the slot-j mode of :func:`rindler_ferm.modes.slot_index`). A basis
key is the pair ``(region_I_bits, region_IV_bits)``.

The reference operator ordering behind the signs: every basis state is the
ordered product of creation operators with all region-I slots first
(ascending slot index) and all region-IV slots after them. A ladder operator
acting on a slot therefore acquires

    (-1) ** (number of occupied slots preceding the target slot globally)

which is a popcount over the masked bits below the slot, plus the full
region-I popcount when the target sits in region IV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .modes import FieldKind, ModeLabel, label_at, slot_index

#: Amplitudes below this magnitude are dropped whenever a StateVector is
#: (re)built. Keeps sparse maps tight without touching 1e-10-level checks.
PRUNE_THRESHOLD = 1e-14


class Sector(Enum):
    PARTICLE_I = "I"
    ANTIPARTICLE_IV = "IV"


@dataclass(frozen=True, slots=True)
class LadderOp:
    """One creation (dagger=True) or annihilation operator."""

    sector: Sector
    mode: ModeLabel
    dagger: bool

    @property
    def adjoint(self) -> "LadderOp":
        return LadderOp(self.sector, self.mode, not self.dagger)


def particle_creator(mode: ModeLabel) -> LadderOp:
    return LadderOp(Sector.PARTICLE_I, mode, True)


def particle_annihilator(mode: ModeLabel) -> LadderOp:
    return LadderOp(Sector.PARTICLE_I, mode, False)


def antiparticle_creator(mode: ModeLabel) -> LadderOp:
    return LadderOp(Sector.ANTIPARTICLE_IV, mode, True)


def antiparticle_annihilator(mode: ModeLabel) -> LadderOp:
    return LadderOp(Sector.ANTIPARTICLE_IV, mode, False)


def pack_occupation(field: FieldKind, labels: Iterable[ModeLabel]) -> int:
    """Bitset for a set of occupied modes; duplicates violate Pauli exclusion."""
    bits = 0
    for lab in labels:
        b = 1 << slot_index(field, lab)
        if bits & b:
            raise ValueError(f"mode {lab} occupied twice (Pauli exclusion)")
        bits |= b
    return bits


def unpack_occupation(field: FieldKind, bits: int) -> tuple[ModeLabel, ...]:
    """Occupied modes of a bitset, in canonical order."""
    if bits < 0 or bits >> field.slots:
        raise ValueError(f"bitset {bits:#x} outside the {field.slots}-slot sector")
    return tuple(label_at(field, s) for s in range(field.slots) if bits >> s & 1)


def insertion_sign(bits: int, slot: int) -> int:
    """Sign picked up by a creator targeting ``slot`` over occupation ``bits``."""
    return -1 if (bits & ((1 << slot) - 1)).bit_count() & 1 else 1


def insertion_signs(bits: np.ndarray, slot: int) -> np.ndarray:
    """:func:`insertion_sign` over an array of occupations, as +-1.0."""
    return np.where(np.bitwise_count(bits & ((1 << slot) - 1)) & 1, -1.0, 1.0)


class StateVector:
    """Sparse complex amplitude map over bipartite Fock basis keys.

    Treat instances as immutable: all operations return new vectors.
    Construction prunes amplitudes below :data:`PRUNE_THRESHOLD`.
    """

    __slots__ = ("field", "amps")

    def __init__(self, field: FieldKind, amps: Mapping[tuple, complex] | None = None):
        self.field = field
        self.amps: dict[tuple, complex] = (
            {} if amps is None
            else {k: v for k, v in amps.items() if abs(v) >= PRUNE_THRESHOLD}
        )

    @classmethod
    def zero(cls, field: FieldKind) -> "StateVector":
        return cls(field)

    @classmethod
    def basis_state(
        cls, field: FieldKind, i_bits: int = 0, iv_bits: int = 0
    ) -> "StateVector":
        for bits in (i_bits, iv_bits):
            if bits < 0 or bits >> field.slots:
                raise ValueError(f"bitset {bits:#x} outside the sector")
        return cls(field, {(i_bits, iv_bits): 1.0})

    def __len__(self) -> int:
        return len(self.amps)

    def __rmul__(self, factor: complex) -> "StateVector":
        return StateVector(self.field, {k: factor * v for k, v in self.amps.items()})

    def __add__(self, other: "StateVector") -> "StateVector":
        _require_same_field(self, other)
        out = dict(self.amps)
        for k, v in other.amps.items():
            out[k] = out.get(k, 0.0) + v
        return StateVector(self.field, out)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector({self.field}, {len(self.amps)} amplitudes)"


def _require_same_field(a: StateVector, b: StateVector) -> None:
    if a.field != b.field:
        raise ValueError("state vectors belong to different fields")


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Sesquilinear ``<a|b>``, conjugate-linear in the first argument."""
    _require_same_field(a, b)
    if len(a.amps) <= len(b.amps):
        total = sum(
            amp.conjugate() * b.amps[k] for k, amp in a.amps.items() if k in b.amps
        )
    else:
        total = sum(
            a.amps[k].conjugate() * amp for k, amp in b.amps.items() if k in a.amps
        )
    return complex(total)


def norm(a: StateVector) -> float:
    return math.sqrt(max(inner_product(a, a).real, 0.0))


def apply_ladder(op: LadderOp, state: StateVector) -> StateVector:
    """Linear action of one ladder operator; the zero vector is a valid result.

    Creation on an occupied slot and annihilation on an empty slot drop the
    term; surviving terms flip the slot bit and carry the fermionic sign of
    the global slot ordering described in the module docstring.
    """
    field = state.field
    slot = slot_index(field, op.mode)
    in_iv = op.sector is Sector.ANTIPARTICLE_IV
    bit = 1 << slot
    below = bit - 1
    out: dict[tuple, complex] = {}
    for (i_bits, iv_bits), amp in state.amps.items():
        bits = iv_bits if in_iv else i_bits
        if bool(bits & bit) == op.dagger:
            continue
        preceding = (bits & below).bit_count()
        if in_iv:
            preceding += i_bits.bit_count()
        flipped = bits ^ bit
        new_key = (i_bits, flipped) if in_iv else (flipped, iv_bits)
        out[new_key] = out.get(new_key, 0.0) + (-amp if preceding & 1 else amp)
    return StateVector(field, out)
