"""Closed-form Rindler-frame expansions of the inertial vacuum and
one-particle states as term arrays (:data:`~rindler_ferm.fock.Terms`),
plus the Bogoliubov-transformed annihilator that validates them, applied
for every mode of a field at every point of an r-grid in one batched pass.

Both state builders take a whole r-grid. The occupation bits, their
popcounts and the insertion signs depend on the field and the excited mode
only, so they are built once; the amplitudes come as one (points, terms)
table gathered by popcount from a (points, levels) ladder table, itself
computed as array arithmetic on the powers of tan(r) that
``np.float_power`` gives, each the double of Python's scalar float pow
(see :func:`float_powers`). :func:`point_terms` prunes the rows into each
point's own terms.

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
over full (field, r) grids in the test suite. :func:`annihilation_residuals`
applies it for all modes of a grid-form state at once: the (mode, term)
pairs of both parts are gathered once per field, scaled per point, and
summed by one stable coalesce on (point, mode, region-I bits, region-IV
bits), so each (point, mode) result is a contiguous run whose norm is read
off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fock import PRUNE_THRESHOLD, Terms, coalesce, insertion_signs, prune
from .modes import FieldKind


@dataclass(frozen=True, slots=True)
class SqueezeGrid:
    """The r-grid every layer takes: squeezing angles r in [0, pi/4] (pi/4
    is the infinite-acceleration endpoint) with their cos, sin and tan, as
    float64 arrays of the doubles ``math.cos`` and the others give. Built by
    :func:`squeeze_grid`; a slice of it is a grid too."""

    r: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    tan: np.ndarray

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, points: slice) -> SqueezeGrid:
        return SqueezeGrid(
            self.r[points], self.cos[points], self.sin[points], self.tan[points]
        )


def squeeze_grid(values: Iterable[float]) -> SqueezeGrid:
    """The grid of the r ``values``, each checked to lie in [0, pi/4] (so
    NaN is refused: ValueError naming the first value outside)."""
    r = np.fromiter(values, float)
    outside = ~((0.0 <= r) & (r <= math.pi / 4))
    if outside.any():
        raise ValueError(f"r={r[outside][0].item()} outside [0, pi/4]")
    points = r.tolist()
    trig = (math.cos, math.sin, math.tan)
    return SqueezeGrid(r, *(np.fromiter(map(f, points), float, len(r)) for f in trig))


def linspace(count: int, lo: float, hi: float) -> list[float]:
    """``count`` evenly spaced values from ``lo`` to ``hi``, both exact
    (the ``N@lo:hi`` grid): lo + (hi - lo) i / (count - 1) below the last
    point, which is ``hi`` itself, as in ``numpy.linspace``."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count - 1)] + [hi]


def from_acceleration(a: float, k0: float, c: float) -> float:
    """Squeezing angle for proper acceleration ``a``, mode frequency ``k0``
    and speed of light ``c``: r = arctan(exp(-pi k0 c / a)).

    Monotonically increasing in ``a``; a -> 0+ gives r -> 0 and a -> inf
    (math.inf is accepted) gives exactly r = pi/4.
    """
    for name, value in (("a", a), ("k0", k0), ("c", c)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    return math.atan(math.exp(-math.pi * k0 * c / a))


def pair_ordering_sign(m: int) -> int:
    """Sign moving m interleaved pair creators (c+ d+)^m into the global
    I-then-IV slot ordering: (-1)^(m(m-1)/2)."""
    return -1 if (m * (m - 1) // 2) & 1 else 1


def float_powers(bases: np.ndarray, levels: int) -> np.ndarray:
    """The (len(bases), ``levels``) table of base**m, m < ``levels``, one row
    per base, from ``np.float_power``. Its float64 loop calls C ``pow`` on
    every element, the function Python's float pow calls, so each power is
    the double the scalar ``base**m`` gives for the non-negative bases here
    (``np.power`` may dispatch to a SIMD ``pow`` that differs from it in the
    last bit on some lanes). The tests hold the two equal bit for bit."""
    return np.float_power(bases[:, None], np.arange(levels, dtype=float))


def _level_table(
    field: FieldKind, rs: SqueezeGrid, c0: float | None = None
) -> np.ndarray:
    """The (points, slots + 1) table whose row p holds the vacuum ladder
    C^m = C^0 tan(r)^m, m <= slots, at point p of ``rs``. C^0 defaults to the
    normalizing value cos(r)^slots; c0=1.0 yields the raw ansatz, whose
    norm must come out as 1/cos(r)^slots.

    C^0 and every power are ``np.float_power``'s (:func:`float_powers`) and
    the products are numpy's, so each entry is the double of the scalar
    ``c0 * tan_r**m``.
    """
    c0s = np.float_power(rs.cos, field.slots) if c0 is None else np.full(len(rs), c0)
    return c0s[:, None] * float_powers(rs.tan, field.slots + 1)


def _pair_signs(count: int) -> np.ndarray:
    """sigma_m for m < ``count``, as floats."""
    return np.array([pair_ordering_sign(m) for m in range(count)], dtype=float)


def vacuum_amplitudes(
    field: FieldKind, rs: SqueezeGrid, c0: float | None = None
) -> Terms:
    """The inertial vacuum at every squeezing of ``rs``, in grid form: the
    paired occupations (S, S) over all subsets S in ascending order, shared
    by every point, and a (points, terms) amplitude table whose row p holds
    C^(|S|) sigma_(|S|) at point p of ``rs`` (``c0`` as in :func:`_level_table`).
    The table is not pruned; :func:`point_terms` cuts it into each point's
    pruned terms.

    The bit table and its popcounts are built once, and the signed level
    table is gathered by popcount, so every amplitude equals the scalar
    formula bit for bit.
    """
    levels = _level_table(field, rs, c0) * _pair_signs(field.slots + 1)
    bits = np.arange(1 << field.slots, dtype=np.int64)
    return bits, bits, levels[:, np.bitwise_count(bits)]


def one_particle_amplitudes(field: FieldKind, rs: SqueezeGrid, slot: int) -> Terms:
    """The inertial one-particle state of the mode in ``slot`` at every
    squeezing of ``rs``, in the grid form of :func:`vacuum_amplitudes`.

    Every term adds the excited mode on top of a paired background T that
    excludes it: amplitude A^(|T|) sigma_(|T|) times the sign of inserting
    the excited slot into T, with the backgrounds in ascending order. The
    one-particle ladder A^m = C^m cos(r) + C^(m+1) sin(r) (equal to
    C^m / cos(r)) is kept in that defining combination. The backgrounds,
    popcounts and insertion signs are built once. Agrees with applying the
    Bogoliubov-conjugate creator to the vacuum (tested, not assumed).
    """
    bit = 1 << slot
    cm = _level_table(field, rs)
    cos, sin = rs.cos[:, None], rs.sin[:, None]
    levels = (cm[:, :-1] * cos + cm[:, 1:] * sin) * _pair_signs(field.slots)
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


def annihilation_residuals(
    field: FieldKind, rs: SqueezeGrid, terms: Terms
) -> list[list[float]]:
    """The norm of the inertial annihilator cos(r) c_I(mode) - sin(r)
    d+_IV(mode) applied to every point's state of the grid-form ``terms``,
    for the mode in every slot of ``field``: one list per point of ``rs``,
    in slot order.

    The (mode, term) pairs the operator keeps and their ladder signs (the
    rule of :mod:`~rindler_ferm.fock`) depend on the bits only, so they are
    built once for the grid. Per point, a pair is kept when its scaled part
    survives the prune of each scaled operand, as the tests' reference sum
    of one-operator terms prunes; the c_I parts go before the d+_IV parts.
    That drops every pair whose term the point's own prune
    (:func:`point_terms`) drops, since |cos(r) a| and |sin(r) a| round to at
    most |a|. One stable coalesce on (point, mode, region-I bits, region-IV
    bits) then sums each (point, mode) result as a contiguous run in
    ascending basis order, and its norm (the amplitudes are real) is summed
    by the builtin ``sum``, as :func:`~rindler_ferm.fock.norm` sums.
    """
    slots = field.slots
    i_bits, iv_bits, table = terms
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
    # (point, pair) tables, flattened point-major
    cos, sin = rs.cos[:, None], rs.sin[:, None]
    c_amps = cos * (np.where(c_odd, -1.0, 1.0) * table[:, c_row])
    d_amps = -sin * (np.where(d_odd, -1.0, 1.0) * table[:, d_row])
    c_kept = np.abs(c_amps) >= PRUNE_THRESHOLD
    d_kept = np.abs(d_amps) >= PRUNE_THRESHOLD
    # run index point * slots + mode, above the bits in the key
    first_run = np.arange(len(rs))[:, None] * slots
    c_keys = (first_run + c_mode) << (2 * slots) | (c_i ^ c_bit) << slots | iv_bits[c_row]
    d_keys = (first_run + d_mode) << (2 * slots) | i_bits[d_row] << slots | d_iv ^ d_bit
    keys, amps = coalesce(
        np.concatenate((c_keys[c_kept], d_keys[d_kept])),
        np.concatenate((c_amps[c_kept], d_amps[d_kept])),
    )
    bounds = np.searchsorted(keys, np.arange(len(rs) * slots + 1) << (2 * slots))
    squares = (amps**2).tolist()
    norms = [math.sqrt(sum(squares[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    return [norms[start : start + slots] for start in range(0, len(norms), slots)]
