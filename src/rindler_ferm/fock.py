"""Sparse fermionic occupation states as term arrays, and the sign rule.

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

which is a popcount over the masked bits below the slot
(:func:`insertion_signs`), plus the full region-I popcount when the target
sits in region IV. The state builders and the inertial annihilator of
:mod:`rindler_ferm.rindler` apply it directly; the test suite keeps a
one-operator-at-a-time ladder as their reference.
"""

from __future__ import annotations

import math

import numpy as np

#: Amplitudes below this magnitude are dropped whenever terms are built or
#: summed. Keeps the term arrays tight without touching 1e-10-level checks.
PRUNE_THRESHOLD = 1e-14

#: Terms of a state as parallel arrays: region-I bits, region-IV bits and
#: amplitude of every stored term.
Terms = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def norm(terms: Terms) -> float:
    """Euclidean norm of a state with distinct terms, summed by the builtin
    ``sum`` in term order."""
    amps = terms[2]
    return math.sqrt(sum((amps.real**2 + amps.imag**2).tolist()))
