"""Closed-form Rindler-frame expansions of the inertial vacuum and
one-particle states as term arrays (:data:`~rindler_ferm.fock.Terms`),
plus the Bogoliubov-transformed annihilator that validates them, applied
for every mode of a field in one batched pass.

Both state builders take a whole r-grid. The occupation bits, their
popcounts and the insertion signs depend on the field and the excited mode
only, so they are built once; the amplitudes come as one (points, terms)
table whose row p is gathered from the scalar level ladder at ``rs[p]``.
:func:`point_terms` prunes the rows into each point's own terms.

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
over full (field, r) grids in the test suite. :func:`minkowski_annihilations`
applies it for all modes of one (field, r) at once: the (mode, term) pairs
of both parts are gathered mode-major and summed by one stable coalesce on
(mode, region-I bits, region-IV bits), so each mode's result is a
contiguous run and :func:`annihilation_residuals` reads its norm off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import Terms, coalesce, insertion_signs, prune
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


def _level_table(
    field: FieldKind,
    rs: Sequence[SqueezeParam],
    ladder: Callable[[VacuumCoefficients, int], float],
    count: int,
    c0: float | None = None,
) -> np.ndarray:
    """The (points, ``count``) table whose row p holds ``ladder(m) *
    sigma_m``, m < ``count``, from the scalar coefficients at ``rs[p]``."""
    signs = [pair_ordering_sign(m) for m in range(count)]
    rows = []
    for r in rs:
        coeffs = VacuumCoefficients.for_field(field, r, c0)
        rows.append([ladder(coeffs, m) * sign for m, sign in enumerate(signs)])
    return np.array(rows, dtype=float).reshape(len(rs), count)


def vacuum_amplitudes(
    field: FieldKind, rs: Sequence[SqueezeParam], c0: float | None = None
) -> Terms:
    """The inertial vacuum at every squeezing of ``rs``, in grid form: the
    paired occupations (S, S) over all subsets S in ascending order, shared
    by every point, and a (points, terms) amplitude table whose row p holds
    C^(|S|) sigma_(|S|) at ``rs[p]``. The table is not pruned;
    :func:`point_terms` cuts it into each point's pruned terms.

    The bit table and its popcounts are built once; each point's level row
    comes from the scalar ladder and is gathered by popcount, so every
    amplitude equals the scalar formula bit for bit.
    """
    levels = _level_table(field, rs, VacuumCoefficients.cm, field.slots + 1, c0)
    bits = np.arange(1 << field.slots, dtype=np.int64)
    return bits, bits, levels[:, np.bitwise_count(bits)]


def one_particle_amplitudes(
    field: FieldKind, rs: Sequence[SqueezeParam], excited: ModeLabel
) -> Terms:
    """The inertial one-particle state of ``excited`` at every squeezing of
    ``rs``, in the grid form of :func:`vacuum_amplitudes`.

    Every term adds the excited mode on top of a paired background T that
    excludes it: amplitude A^(|T|) sigma_(|T|) times the sign of inserting
    the excited slot into T, with the backgrounds in ascending order. The
    backgrounds, popcounts and insertion signs are built once. Agrees with
    applying the Bogoliubov-conjugate creator to the vacuum (tested, not
    assumed).
    """
    slot = slot_index(field, excited)
    bit = 1 << slot
    levels = _level_table(field, rs, VacuumCoefficients.am, field.slots)
    bits = np.arange(1 << field.slots, dtype=np.int64)
    bits = bits[bits & bit == 0]
    amps = levels[:, np.bitwise_count(bits)] * insertion_signs(bits, slot)
    return bits | bit, bits, amps


def point_terms(terms: Terms) -> list[Terms]:
    """Every grid point's terms of a grid-form state: the shared bits with
    the point's row of the amplitude table, pruned at
    :data:`~rindler_ferm.fock.PRUNE_THRESHOLD`."""
    i_bits, iv_bits, table = terms
    return [prune(i_bits, iv_bits, row) for row in table]


def minkowski_annihilations(
    field: FieldKind, r: SqueezeParam, terms: Terms
) -> tuple[list[int], Terms]:
    """The inertial annihilator cos(r) c_I(mode) - sin(r) d+_IV(mode) of
    every mode of ``field.labels()`` applied to ``terms``, in one pass.

    Every (mode, term) pair the operator keeps is gathered at once (label k
    acts on slot k). Both parts carry :func:`~rindler_ferm.fock.apply_ladder`'s
    signs, each scaled part is pruned, and the c_I part goes before the d+_IV
    part; one stable coalesce on (mode, region-I bits, region-IV bits) then
    sums each mode's parts as :func:`~rindler_ferm.fock.superpose` does.
    Returns the run bounds, ``len(field.labels()) + 1`` of them, and the
    summed terms: mode k's result is rows ``bounds[k]:bounds[k + 1]``, in
    ascending basis order.
    """
    slots = field.slots
    i_bits, iv_bits, amps = terms
    slot = np.arange(slots, dtype=np.int64)[:, None]
    # (mode, term) pairs, mode-major: c_I(mode) keeps an occupied region-I
    # slot, d+_IV(mode) an empty region-IV slot
    c_mode, c_row = np.nonzero(i_bits >> slot & 1)
    d_mode, d_row = np.nonzero(~iv_bits >> slot & 1)
    c_bit, d_bit = 1 << c_mode, 1 << d_mode
    c_i, d_iv = i_bits[c_row], iv_bits[d_row]
    # the sign counts the occupied slots below the target in its own
    # sector, and for a region-IV target every region-I slot too
    c_odd = np.bitwise_count(c_i & (c_bit - 1)) & 1
    d_odd = (np.bitwise_count(d_iv & (d_bit - 1)) + np.bitwise_count(i_bits)[d_row]) & 1
    c_amps = r.cos * (np.where(c_odd, -1.0, 1.0) * amps[c_row])
    d_amps = -r.sin * (np.where(d_odd, -1.0, 1.0) * amps[d_row])
    c_part = prune(c_mode, c_i ^ c_bit, iv_bits[c_row], c_amps)
    d_part = prune(d_mode, i_bits[d_row], d_iv ^ d_bit, d_amps)
    mode, i_bits, iv_bits, amps = (np.concatenate(pair) for pair in zip(c_part, d_part))
    keys, amps = coalesce(mode << (2 * slots) | i_bits << slots | iv_bits, amps)
    bounds = np.searchsorted(keys, np.arange(slots + 1) << (2 * slots)).tolist()
    sector = (1 << slots) - 1
    return bounds, (keys >> slots & sector, keys & sector, amps)


def annihilation_residuals(
    field: FieldKind, r: SqueezeParam, terms: Terms
) -> list[float]:
    """The norm of every mode's :func:`minkowski_annihilations` result, in
    ``field.labels()`` order; each is summed by the builtin ``sum`` over its
    terms in basis order, as :func:`~rindler_ferm.fock.norm` sums."""
    bounds, (_, _, amps) = minkowski_annihilations(field, r, terms)
    squares = (amps.real**2 + amps.imag**2).tolist()
    return [math.sqrt(sum(squares[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
