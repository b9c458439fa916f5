"""Closed-form Rindler-frame expansions of the inertial vacuum and
one-particle states, plus the Bogoliubov-transformed ladder operators
that validate them.

A uniformly accelerated observer sees the inertial vacuum as a two-mode
squeezed state pairing each region-I particle mode with its mirrored
region-IV antiparticle mode. With the squeezing angle r (tan r =
exp(-pi k0 c / a), phase fixed to zero) the normalized vacuum is

    |0> = sum_m C^m sum_{|S|=m} sigma_m |S>_I |S>_IV,
    C^m = C^0 tan^m r,   C^0 = cos(r)^S_tot,

where S runs over all occupation subsets of the sector slots (the bitset
representation enforces Pauli exclusion for free), S_tot is the sector
slot count (2n Dirac, n spinless) and sigma_m is the reordering sign of
interleaved pair creators under the global I-then-IV slot ordering,
sigma_m = (-1)^(m(m-1)/2). The sign law is not taken on faith: the
inertial annihilator built from the Bogoliubov relation

    a_mode = cos(r) c_{I,mode} - sin(r) d+_{IV,mode}

must kill the constructed vacuum for every mode, and that check is run
over full (field, r) grids in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    PRUNE_THRESHOLD,
    StateVector,
    antiparticle_annihilator,
    antiparticle_creator,
    apply_ladder,
    insertion_signs,
    particle_annihilator,
    particle_creator,
)
from .modes import FieldKind, ModeLabel, slot_index

_R_MAX = math.pi / 4


@dataclass(frozen=True, slots=True)
class SqueezeParam:
    """Acceleration parameter r in [0, pi/4]; pi/4 is the infinite-
    acceleration endpoint."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= _R_MAX:
            raise ValueError(f"r={self.r} outside [0, pi/4]")

    @property
    def cos(self) -> float:
        return math.cos(self.r)

    @property
    def sin(self) -> float:
        return math.sin(self.r)

    @property
    def tan(self) -> float:
        return math.tan(self.r)


def from_acceleration(a: float, k0: float, c: float) -> SqueezeParam:
    """Squeezing angle for proper acceleration ``a``, mode frequency ``k0``
    and speed of light ``c``: r = arctan(exp(-pi k0 c / a)).

    Monotonically increasing in ``a``; a -> 0+ gives r -> 0 and a -> inf
    (math.inf is accepted) gives exactly r = pi/4.
    """
    for name, value in (("a", a), ("k0", k0), ("c", c)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    return SqueezeParam(math.atan(math.exp(-math.pi * k0 * c / a)))


def pair_ordering_sign(m: int) -> int:
    """Sign moving m interleaved pair creators (c+ d+)^m into the global
    I-then-IV slot ordering: (-1)^(m(m-1)/2)."""
    return -1 if (m * (m - 1) // 2) & 1 else 1


@dataclass(frozen=True, slots=True)
class VacuumCoefficients:
    """Squeezed-vacuum amplitude ladder C^m and the one-particle ladder A^m.

    c0 defaults to the normalizing value cos(r)^slots; passing c0=1.0 yields
    the raw ansatz whose norm must come out as 1/cos(r)^slots.
    """

    c0: float
    cos_r: float
    sin_r: float
    tan_r: float

    @classmethod
    def for_field(
        cls, field: FieldKind, r: SqueezeParam, c0: float | None = None
    ) -> "VacuumCoefficients":
        cos_r = r.cos
        if c0 is None:
            c0 = cos_r ** field.slots
        return cls(c0=c0, cos_r=cos_r, sin_r=r.sin, tan_r=r.tan)

    def cm(self, m: int) -> float:
        return self.c0 * self.tan_r**m

    def am(self, m: int) -> float:
        # equal to cm(m)/cos_r, kept in the defining ladder combination
        return self.cm(m) * self.cos_r + self.cm(m + 1) * self.sin_r


#: Terms of a state as parallel arrays: region-I bits, region-IV bits and
#: amplitude of every stored term.
Terms = tuple[np.ndarray, np.ndarray, np.ndarray]


def _pruned(i_bits: np.ndarray, iv_bits: np.ndarray, amps: np.ndarray) -> Terms:
    keep = np.abs(amps) >= PRUNE_THRESHOLD
    return i_bits[keep], iv_bits[keep], amps[keep]


def vacuum_amplitudes(
    field: FieldKind, r: SqueezeParam, c0: float | None = None
) -> Terms:
    """Terms of the inertial vacuum: paired occupations (S, S) over all
    subsets S in ascending order, amplitude C^(|S|) sigma_(|S|), pruned at
    :data:`~rindler_ferm.fock.PRUNE_THRESHOLD`.

    The per-level amplitudes come from the scalar ladder and are gathered by
    popcount, so every amplitude equals the scalar formula bit for bit.
    """
    coeffs = VacuumCoefficients.for_field(field, r, c0)
    level = np.array(
        [coeffs.cm(m) * pair_ordering_sign(m) for m in range(field.slots + 1)]
    )
    bits = np.arange(1 << field.slots, dtype=np.int64)
    return _pruned(bits, bits, level[np.bitwise_count(bits)])


def one_particle_amplitudes(
    field: FieldKind, r: SqueezeParam, excited: ModeLabel
) -> Terms:
    """Terms of the inertial one-particle state of ``excited``.

    Every term adds the excited mode on top of a paired background T that
    excludes it: amplitude A^(|T|) sigma_(|T|) times the sign of inserting
    the excited slot into T; backgrounds in ascending order, pruned as in
    :func:`vacuum_amplitudes`.
    """
    coeffs = VacuumCoefficients.for_field(field, r)
    slot = slot_index(field, excited)
    bit = 1 << slot
    level = np.array([coeffs.am(m) * pair_ordering_sign(m) for m in range(field.slots)])
    bits = np.arange(1 << field.slots, dtype=np.int64)
    bits = bits[bits & bit == 0]
    amps = level[np.bitwise_count(bits)] * insertion_signs(bits, slot)
    return _pruned(bits | bit, bits, amps)


def _state(field: FieldKind, terms: Terms) -> StateVector:
    i_bits, iv_bits, amps = (column.tolist() for column in terms)
    return StateVector(field, dict(zip(zip(i_bits, iv_bits), amps)))


def build_vacuum(
    field: FieldKind, r: SqueezeParam, c0: float | None = None
) -> StateVector:
    """Inertial vacuum in Rindler coordinates (:func:`vacuum_amplitudes`).
    Unit norm for the default c0."""
    return _state(field, vacuum_amplitudes(field, r, c0))


def build_one_particle(
    field: FieldKind, r: SqueezeParam, excited: ModeLabel
) -> StateVector:
    """Inertial one-particle state of ``excited`` in Rindler coordinates
    (:func:`one_particle_amplitudes`). Agrees with applying the
    Bogoliubov-conjugate creator to the vacuum (tested, not assumed)."""
    return _state(field, one_particle_amplitudes(field, r, excited))


def minkowski_annihilation(
    mode: ModeLabel, r: SqueezeParam, state: StateVector
) -> StateVector:
    """Inertial annihilator in Rindler operators:
    cos(r) c_I(mode) - sin(r) d+_IV(mode)."""
    return r.cos * apply_ladder(particle_annihilator(mode), state) - r.sin * apply_ladder(
        antiparticle_creator(mode), state
    )


def minkowski_creation(
    mode: ModeLabel, r: SqueezeParam, state: StateVector
) -> StateVector:
    """Adjoint of :func:`minkowski_annihilation`:
    cos(r) c+_I(mode) - sin(r) d_IV(mode)."""
    return r.cos * apply_ladder(particle_creator(mode), state) - r.sin * apply_ladder(
        antiparticle_annihilator(mode), state
    )
