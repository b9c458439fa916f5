"""Sign-exact ladder-operator algebra on sparse fermionic occupation states.

States live on a bipartite Fock space: region-I particles and region-IV
antiparticles, each sector a bitset over the field's single-particle slots
(bit j is the slot-j mode of :func:`rindler_ferm.modes.slot_index`). A state
is held as :data:`Terms`, three parallel numpy arrays: the region-I bits,
the region-IV bits and the amplitude of every stored term.

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
from typing import Iterable

import numpy as np

from .modes import FieldKind, ModeLabel, label_at, slot_index

#: Amplitudes below this magnitude are dropped whenever terms are built or
#: summed. Keeps the term arrays tight without touching 1e-10-level checks.
PRUNE_THRESHOLD = 1e-14

#: Terms of a state as parallel arrays: region-I bits, region-IV bits and
#: amplitude of every stored term.
Terms = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def insertion_signs(bits: np.ndarray, slot: int) -> np.ndarray:
    """Sign picked up by a creator targeting ``slot`` over each occupation
    in ``bits``: -1.0 where an odd number of the slots below it is occupied,
    else 1.0."""
    return np.where(np.bitwise_count(bits & ((1 << slot) - 1)) & 1, -1.0, 1.0)


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every run of equal values in a sorted array."""
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    at = edge.nonzero()[0]
    return at[:-1], at[1:] - at[:-1]


def coalesce(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` ascending, each with the sum of its values; a stable
    sort, so repeated keys are summed in input order."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts, _ = runs(keys)
    if len(starts) < len(keys):
        values = np.add.reduceat(values, starts)
        keys = keys[starts]
    return keys, values


def prune(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of parallel ``columns`` whose last column, the amplitude, is
    at least :data:`PRUNE_THRESHOLD` in magnitude."""
    keep = np.abs(columns[-1]) >= PRUNE_THRESHOLD
    return tuple(column[keep] for column in columns)


def superpose(field: FieldKind, *scaled: tuple[complex, Terms]) -> Terms:
    """Sum of ``coefficient * terms`` over the pairs given, in ascending
    basis order. Each scaled operand is pruned and the operands are
    coalesced (a repeated basis state sums in operand order); the sum is
    not pruned, so a near-cancellation stays visible in its norm."""
    parts = [prune(i_bits, iv_bits, c * amps) for c, (i_bits, iv_bits, amps) in scaled]
    i_bits, iv_bits, amps = (np.concatenate(column) for column in zip(*parts))
    keys, amps = coalesce(i_bits << field.slots | iv_bits, amps)
    return keys >> field.slots, keys & ((1 << field.slots) - 1), amps


def norm(terms: Terms) -> float:
    """Euclidean norm of a state with distinct terms, summed by the builtin
    ``sum`` in term order."""
    amps = terms[2]
    return math.sqrt(sum((amps.real**2 + amps.imag**2).tolist()))


def apply_ladder(op: LadderOp, field: FieldKind, terms: Terms) -> Terms:
    """Linear action of one ladder operator; no terms is a valid result.

    Creation on an occupied slot and annihilation on an empty slot drop the
    term; surviving terms flip the slot bit and carry the fermionic sign of
    the global slot ordering described in the module docstring. Distinct
    terms stay distinct, in their input order.
    """
    i_bits, iv_bits, amps = terms
    slot = slot_index(field, op.mode)
    bit = 1 << slot
    in_iv = op.sector is Sector.ANTIPARTICLE_IV
    keep = ((iv_bits if in_iv else i_bits) & bit == 0) == op.dagger
    i_bits, iv_bits, amps = i_bits[keep], iv_bits[keep], amps[keep]
    if not in_iv:
        return i_bits ^ bit, iv_bits, insertion_signs(i_bits, slot) * amps
    signs = insertion_signs(iv_bits, slot)
    signs[np.bitwise_count(i_bits) & 1 == 1] *= -1.0
    return i_bits, iv_bits ^ bit, signs * amps
