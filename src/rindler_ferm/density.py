"""Alice-Rob density matrices of an entangled-state scenario.

Two independent construction paths are kept side by side on purpose:

* brute force: expand the joint state over Alice x region-I x region-IV,
  then trace out region IV by grouping the amplitudes on their region-IV
  occupation;
* analytic: place the D_i^m coefficient pattern directly, with the same
  insertion signs the state constructors use.

Both work on numpy arrays end to end: the joint state is a
:class:`JointState` of parallel term arrays, and a :class:`DensityMatrix`
holds coalesced COO arrays (``rows``, ``cols``, ``values``) sorted
row-major. Per-level coefficients are tabulated once per grid, every
power from ``np.float_power`` (the double of Python's scalar float pow;
see :func:`~rindler_ferm.rindler.float_powers`), and gathered by
popcount, so every value equals the scalar formula bit for bit.

The paths must agree entrywise; the test suite enforces that, so neither
can drift silently.

Alice is a two-level abstract system throughout (her inertial mode
structure never matters). A :class:`Scenario` is nothing but the pair of
Rob branches her two levels carry, each named by the Rob modes it excites
(:attr:`Scenario.branches`): any such pair, on a Dirac or a spinless
field, and both paths derive everything from it, its output name included.
The two kinds, :func:`vac_one` and :func:`bell`, each take a field and put
their pair on its first modes.
Rows and columns are ``alice_level * 2**slots + occupation_bits``.

Both paths take a whole r-grid at once: the density matrices of the grid
points form one block-diagonal matrix, their direct sum, with point ``p``
at index ``p * 2**(slots + 1) + alice_level * 2**slots + occupation_bits``.
The joint state tags point ``p``'s terms with the Alice column ``2 p +
alice_level``, so the single-point index formula gives the direct-sum index
unchanged. Each path builds its index arrays once per grid: the joint
state's branches come in the grid form of
:func:`~rindler_ferm.rindler.vacuum_amplitudes`, and the analytic assembly
offsets one :class:`EntryLayout` per point and reads every point's weights
off one :func:`tan_sq_powers` table (:func:`density_weights`). A single
matrix is a one-point stack, and the health figures
(:meth:`DensityMatrix.trace`, :meth:`DensityMatrix.hermiticity_defect`,
:func:`max_entry_difference`) come one per point, split, like the
brute-force spectra, by the one splitter :meth:`DensityMatrix.by_point`.
They read the coalesced arrays, so only the two paths build a matrix.

The analytic entries' structure (positions, ladder and level, sign)
depends on the field only, not on r: :func:`analytic_layout` generates it
once, row by row in basis order, with each entry's ``row,col,`` dump
text, and :func:`analytic_density` and the ``--dump-rho`` dumps both read
it. An entry's sign and weight come as one key into the point's weights
followed by their negatives. A dump builds no matrix:
:meth:`EntryLayout.tables` formats each of the point's signed weights once
with ``repr`` and gathers the texts by key beside the index text,
:data:`DUMP_SLICE` candidates per NUL-padded byte table, so its memory
beyond the layout is bounded by a slice. The writer, :func:`write_rho_csv`,
deletes the NULs of each table and writes its bytes in one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .errors import CapacityError
from .fock import coalesce, prune, runs
from .modes import FieldFamily, FieldKind, ModeLabel, label_at, slot_index
from .rindler import SqueezeGrid, float_powers, one_particle_amplitudes, vacuum_amplitudes

#: Fields with more single-particle slots than this are refused by the
#: brute-force path (Dirac n > 5, spinless n > 11).
MAX_BRUTEFORCE_SLOTS = 11

#: The analytic path refuses fields with more single-particle slots than
#: this: its arrays and dumps grow as 2**slots. At 18 slots (Dirac n=9) one
#: grid point has 655k candidate entries and dumps 26 MB; a ``sweep
#: --dump-rho`` there peaks at 45 MB RSS for three points (136 MB when
#: each point built and sorted its whole matrix).
MAX_DENSITY_SLOTS = 18

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, slots=True)
class Scenario:
    """A maximally entangled state of Alice and Rob, (|0>_A |branch 0> +
    |1>_A |branch 1>) / sqrt(2): ``branches`` holds the Rob modes excited on
    Alice's level-0 branch and on her level-1 branch. Branch 0 excites at
    most one mode and branch 1 exactly one, a different one: ``((), (mode,))``
    is the vacuum/one-particle state and ``((first,), (second,))`` a Bell
    state, on either field family."""

    branches: tuple[tuple[ModeLabel, ...], tuple[ModeLabel, ...]]

    def __post_init__(self) -> None:
        zero, one = self.branches
        if len(zero) > 1 or len(one) != 1:
            raise ValueError("branch 0 excites at most one Rob mode, branch 1 exactly one")
        if zero == one:
            raise ValueError("the two branches must excite different Rob modes")

    @property
    def name(self) -> str:
        """The output label: ``bell`` when branch 0 excites a mode, else
        ``vac-one``, then the field family the labels' spin implies."""
        zero, (mode,) = self.branches
        family = FieldFamily.SPINLESS if mode.spin is None else FieldFamily.DIRAC
        return f"{'bell' if zero else 'vac-one'}-{family.value}"


def vac_one(field: FieldKind) -> Scenario:
    """The vacuum/one-particle state on ``field``: branch 1 excites its first
    mode (momentum 1, spin up on a Dirac field)."""
    return Scenario(((), (label_at(field, 0),)))


def bell(field: FieldKind) -> Scenario:
    """The Bell state on ``field``: its first two modes, one per branch (spin
    up and down of momentum 1 on a Dirac field, momenta 1 and 2 on a
    spinless one). Refuses (ValueError) a field of one mode."""
    if field.slots < 2:
        raise ValueError(
            f"a Bell state needs two Rob modes; the {field.family.value} field "
            f"with n={field.mode_count} has {field.slots}"
        )
    return Scenario(((label_at(field, 0),), (label_at(field, 1),)))


def check_scenario_field(scenario: Scenario, field: FieldKind) -> None:
    """Refuse (ValueError) a scenario whose branch modes are not labels of
    ``field``; a label's spin carries its family."""
    for mode in itertools.chain(*scenario.branches):
        field.validate_label(mode)


def tan_sq_powers(rs: SqueezeGrid, levels: int) -> np.ndarray:
    """The (points, ``levels``) table of (tan(r)^2)^m, m < ``levels``, at
    every squeezing of ``rs``: the :func:`~rindler_ferm.rindler.float_powers`
    of tan(r) * tan(r), so each power is the double the scalar ladder
    ``tan_sq**m`` gives. The table depends on r and m only, so every field
    on the same grid can share it."""
    return float_powers(rs.tan * rs.tan, levels)


def d_ladder(field: FieldKind, rs: SqueezeGrid, powers: np.ndarray, i: int) -> np.ndarray:
    """The coefficient ladder d(i, m), i = 0, 1 or 2, at every squeezing of
    ``rs`` for the levels m of the :func:`tan_sq_powers` table ``powers``:
    a (points, levels) table. The diagonal weights are d(0, m) = |C^0|^2
    tan(r)^2m, with C^0 = cos(r)^slots as in
    :func:`~rindler_ferm.rindler.vacuum_amplitudes`, and the off-diagonal
    ladders d(i, m) = d(0, m) / cos(r)^i divide by the power ``cos**i``
    (1.0 and cos itself for i = 0 and 1, so d(0, m) / 1.0 is d(0, m)
    exactly). C^0 and cos^i come from ``np.float_power``, each the double
    of the scalar Python power, as :func:`~rindler_ferm.rindler.float_powers`
    explains."""
    c0 = np.float_power(rs.cos, field.slots)
    divisor = np.float_power(rs.cos, i)
    return (c0 * c0)[:, None] * powers / divisor[:, None]


def density_weights(field: FieldKind, rs: SqueezeGrid) -> np.ndarray:
    """The analytic density's weights 0.5 d(i, m) for every point of ``rs``,
    ladder i and level m: a (points, 3, levels) table."""
    powers = tan_sq_powers(rs, field.slots + 1)
    return 0.5 * np.stack([d_ladder(field, rs, powers, i) for i in range(3)], axis=1)


class DensityMatrix:
    """Sparse operator on (grid point) x (Alice level) x (region-I occupation).

    Basis order is fixed: grid point major, then Alice level, then the
    occupation bitset ascending, so index = point * 2**(slots + 1) +
    alice * 2**slots + bits; ``points`` is 1 for a single matrix, and a
    stack is the direct sum of its points' matrices. Entries are held as
    coalesced COO arrays: ``rows`` and ``cols`` (int64) and ``values``
    (complex128), sorted row-major, one entry per stored (row, col). The
    constructor takes unsorted COO arrays, every index inside the matrix,
    and sums the values at a repeated (row, col). A stored 0.0 is kept (and
    ignored by the spectrum). Every instance is a stack of density
    matrices: the partial transpose, the adjoint and the entry difference
    are read off these arrays, never built. Treat instances as immutable.
    """

    __slots__ = ("field", "points", "rows", "cols", "values", "_entries")

    def __init__(self, field: FieldKind, rows, cols, values, points: int = 1):
        self.field, self.points = field, points
        # a column index fits in ``width`` bits, so the key sorts row-major
        width = (self.side - 1).bit_length()
        keys, values = coalesce(
            np.asarray(rows, dtype=np.int64) << width | np.asarray(cols, dtype=np.int64),
            np.asarray(values, dtype=complex),
        )
        self.rows, self.cols = keys >> width, keys & ((1 << width) - 1)
        self.values = values
        self._entries: Mapping[tuple[int, int], complex] | None = None

    @property
    def entries(self) -> Mapping[tuple[int, int], complex]:
        """Read-only ``{(row, col): value}`` view of the stored entries."""
        if self._entries is None:
            keys = zip(self.rows.tolist(), self.cols.tolist())
            self._entries = MappingProxyType(dict(zip(keys, self.values.tolist())))
        return self._entries

    @property
    def side(self) -> int:
        return self.points << (self.field.slots + 1)

    def by_point(self, values: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
        """``values`` split by the grid point (``index >> (slots + 1)``) that owns
        each of the parallel ``indices``, one array per point, in arrival order."""
        owners = indices >> (self.field.slots + 1)
        order = np.argsort(owners, kind="stable")
        bounds = np.searchsorted(owners[order], np.arange(self.points + 1)).tolist()
        values = values[order]
        return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def trace(self) -> list[complex]:
        """The trace of every grid point's matrix."""
        diagonal = self.rows == self.cols
        parts = self.by_point(self.values[diagonal], self.rows[diagonal])
        return [complex(part.sum()) for part in parts]

    def hermiticity_defect(self) -> list[float]:
        """The largest |rho[i, j] - conj(rho[j, i])| of every grid point (0.0
        if it has no entry), the mirror (j, i) found by ``searchsorted`` on
        the row-major keys and 0 where it is not stored."""
        keys = self.rows * self.side + self.cols
        mirror_keys = self.cols * self.side + self.rows
        at = np.minimum(np.searchsorted(keys, mirror_keys), len(keys) - 1)
        mirror = np.where(keys[at] == mirror_keys, self.values[at], 0.0)
        parts = self.by_point(np.abs(self.values - mirror.conj()), self.rows)
        return [float(part.max(initial=0.0)) for part in parts]


def max_entry_difference(a: DensityMatrix, b: DensityMatrix) -> list[float]:
    """The largest entrywise |a - b| of every grid point of two stacks of
    the same shape, from one coalesce of both stacks' row-major keys."""
    keys, difference = coalesce(
        np.concatenate((a.rows * a.side + a.cols, b.rows * b.side + b.cols)),
        np.concatenate((a.values, -b.values)),
    )
    parts = a.by_point(np.abs(difference), keys // a.side)
    return [float(part.max(initial=0.0)) for part in parts]


class JointState:
    """Pure state on Alice x region I x region IV, as parallel arrays:
    the Alice column, region-I bits, region-IV bits and amplitude of every
    stored term (keys distinct). A stack of ``points`` grid points holds
    point ``p``'s terms at Alice column ``2 p + alice_level``. Treat
    instances as immutable."""

    __slots__ = ("field", "points", "alice", "i_bits", "iv_bits", "values", "_amps")

    def __init__(self, field: FieldKind, alice, i_bits, iv_bits, values, points: int = 1):
        self.field, self.points = field, points
        self.alice = np.asarray(alice, dtype=np.int64)
        self.i_bits = np.asarray(i_bits, dtype=np.int64)
        self.iv_bits = np.asarray(iv_bits, dtype=np.int64)
        self.values = np.asarray(values)
        self._amps: Mapping[tuple[int, int, int], complex] | None = None

    @property
    def amps(self) -> Mapping[tuple[int, int, int], complex]:
        """Read-only ``{(alice, i_bits, iv_bits): amplitude}`` view."""
        if self._amps is None:
            keys = zip(self.alice.tolist(), self.i_bits.tolist(), self.iv_bits.tolist())
            self._amps = MappingProxyType(dict(zip(keys, self.values.tolist())))
        return self._amps


def bruteforce_feasible(field: FieldKind) -> bool:
    """Whether the brute-force path takes ``field``: at most
    :data:`MAX_BRUTEFORCE_SLOTS` slots."""
    return field.slots <= MAX_BRUTEFORCE_SLOTS


def build_joint_state(
    scenario: Scenario, field: FieldKind, rs: SqueezeGrid
) -> JointState:
    """Equal superposition of the two Alice-tagged Rob branches at every
    squeezing of ``rs``, stacked in grid order (Alice column ``2 p +
    level``); within a point level 0's terms first. Both branches are built
    in grid form (:func:`~rindler_ferm.rindler.vacuum_amplitudes`), so their
    bit tables are made once for the whole grid. The terms are pruned after
    the 1/sqrt(2); that drops every term a prune of the branch alone would
    drop too, since |amp| / sqrt(2) < |amp|."""
    check_scenario_field(scenario, field)
    if not bruteforce_feasible(field):
        raise CapacityError(
            f"joint space of {field.slots} slots (> {MAX_BRUTEFORCE_SLOTS}); "
            "use the analytic density path"
        )
    (i0, iv0, amps0), (i1, iv1, amps1) = (
        one_particle_amplitudes(field, rs, *m) if m else vacuum_amplitudes(field, rs)
        for m in scenario.branches
    )
    # row p of the joined table: point p's level-0 terms, then its level-1
    # terms, so the flattened table is point-major and branch-minor
    level = np.repeat([0, 1], [len(i0), len(i1)])
    alice = (2 * np.arange(len(rs))[:, None] + level).ravel()
    i_bits = np.tile(np.concatenate((i0, i1)), len(rs))
    iv_bits = np.tile(np.concatenate((iv0, iv1)), len(rs))
    amps = np.concatenate((amps0, amps1), axis=1).ravel()
    return JointState(
        field, *prune(alice, i_bits, iv_bits, _INV_SQRT2 * amps), points=len(rs)
    )


def trace_out_region_iv(joint: JointState) -> DensityMatrix:
    """Partial trace over region IV of a pure joint state.

    Region-IV basis states are orthonormal, so grouping the terms by their
    grid point and IV occupation and forming outer products within each
    group is the whole computation; contributions of several groups to one
    entry are summed. A stack gives the direct sum of its points' matrices.
    """
    slots = joint.field.slots
    group = (joint.alice >> 1) << slots | joint.iv_bits
    order = np.argsort(group, kind="stable")
    group = group[order]
    index = (joint.alice * (1 << slots) + joint.i_bits)[order]
    amps = joint.values[order]
    # group g spans [start, start + size); each member pairs with every
    # member of its own group, itself included
    starts, sizes = runs(group)
    pairs = np.repeat(sizes, sizes)
    row_at = np.repeat(np.arange(len(group)), pairs)
    first_pair = np.cumsum(pairs) - pairs
    col_at = np.repeat(np.repeat(starts, sizes) - first_pair, pairs)
    col_at += np.arange(len(row_at))
    return DensityMatrix(
        joint.field,
        index[row_at],
        index[col_at],
        amps[row_at] * amps[col_at].conj(),
        joint.points,
    )


def check_density_capacity(field: FieldKind) -> None:
    """Raise CapacityError when the analytic path would exceed its cap."""
    if field.slots > MAX_DENSITY_SLOTS:
        raise CapacityError(
            f"analytic density for {field.slots} slots (> {MAX_DENSITY_SLOTS}) "
            f"would store about 2**{field.slots} entries"
        )


#: Candidate entries per slice of a streamed dump (:meth:`EntryLayout.tables`)
#: and of the layout's index text, and rows per slice of its positions, so
#: a slice holds a few hundred kB at any size (larger dump slices measured
#: no faster).
DUMP_SLICE = 1 << 12


@dataclass(frozen=True, slots=True)
class EntryLayout:
    """The r-independent structure of one point's analytic density matrix:
    its candidate entries, generated in basis (row-major) order, as parallel
    arrays. ``rows`` and ``cols`` hold each entry's position, in the
    narrowest unsigned dtype. ``key`` (uint8) is the entry's signed weight:
    its index ``ladder * levels + level`` into the flattened (3, levels)
    weight table, plus 3 * levels when the entry is negative, so that it
    indexes the weights followed by their negatives. ``text`` holds each
    entry's ``row,col,`` dump text, one uint8 row per entry, the digits
    right-aligned to the side's width and NUL-padded."""

    rows: np.ndarray
    cols: np.ndarray
    key: np.ndarray
    text: np.ndarray

    def tables(self, weight: np.ndarray) -> Iterator[np.ndarray]:
        """The dump lines of the point whose (3, levels) weight table is
        ``weight``, as :func:`write_rho_csv` takes them: one NUL-padded uint8
        table per :data:`DUMP_SLICE` candidates, a row per stored entry. Each
        signed weight is formatted once, as ``repr(value) + ",0.0\\n"``, and
        gathered by key beside the index text. Entries whose weight is
        exactly 0 are dropped, as :func:`analytic_density` drops them. A
        table may be empty."""
        signed = np.concatenate((weight.ravel(), -weight.ravel()))
        texts = [repr(value) + ",0.0\n" for value in signed.tolist()]
        lines = np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)
        stored = signed != 0.0
        for start in range(0, len(self.key), DUMP_SLICE):
            part = slice(start, start + DUMP_SLICE)
            # take and compress: about 3x faster here than fancy and boolean
            # indexing on these narrow rows
            key = self.key[part]
            kept = stored.take(key)
            text = self.text[part].compress(kept, 0)
            yield np.concatenate((text, lines.take(key.compress(kept), 0)), axis=1)


def analytic_layout(scenario: Scenario, field: FieldKind) -> EntryLayout:
    """The :class:`EntryLayout` of ``scenario`` on ``field``: the positions,
    ladders, levels and signs of the D_i^m coefficient pattern, and the
    positions' dump text. They depend on the field only, not on r.

    Tracing region IV out of the two :attr:`Scenario.branches` leaves one
    entry per Alice block pair (a, b) and region-IV background T that avoids
    both branches' excited slots E_a and E_b: row ``a * 2**slots + (T |
    E_a)``, column ``b * 2**slots + (T | E_b)``, ladder |E_a| + |E_b|, level
    popcount T, and the product of the two branches' insertion signs as its
    sign. A row holds at most two entries, b = 0's first, so a over (0, 1)
    and T over the backgrounds that avoid E_a, ascending, give basis order
    with no sort. Raises CapacityError beyond :data:`MAX_DENSITY_SLOTS`."""
    check_scenario_field(scenario, field)
    check_density_capacity(field)
    half = 1 << field.slots
    levels = field.slots + 1
    excited = [[slot_index(field, m) for m in modes] for modes in scenario.branches]
    masks = [sum(1 << slot for slot in slots) for slots in excited]
    # the slots below each branch's excited slot (a branch excites at most
    # one): T's count in them has the parity of the branch's insertion sign,
    # so a slot excited on both branches cancels out of an entry's sign
    below = [mask - 1 if mask else 0 for mask in masks]
    # every position, and so every background, fits the narrow dtype
    dtype = np.min_scalar_type(2 * half - 1)
    pairs = itertools.product((0, 1), repeat=2)
    entries = sum(half >> len({*excited[a], *excited[b]}) for a, b in pairs)
    rows, cols = np.empty((2, entries), dtype=dtype)
    key = np.empty(entries, dtype=np.uint8)
    end = 0
    for a in (0, 1):
        # the backgrounds that avoid E_a, ascending: the numbers below
        # 2**(slots - |E_a|) with a 0 put in at E_a's slot
        backgrounds = np.arange(half >> len(excited[a]), dtype=dtype)
        for s in excited[a]:
            backgrounds = backgrounds >> s << (s + 1) | backgrounds & ((1 << s) - 1)
        # a slice of rows at a time, so that the candidates stay small
        for start in range(0, len(backgrounds), DUMP_SLICE):
            background = backgrounds[start : start + DUMP_SLICE]
            count = np.bitwise_count(background)
            # candidate 2 t + b, row t's entry at column level b, is kept
            # where T avoids E_b, so | adds E_b and the Alice bit to T
            targets, keys, avoids = [], [], []
            for b in (0, 1):
                signed = below[a] ^ below[b]
                odd = np.bitwise_count(background & signed) & 1 if signed else 0
                ladder = len(excited[a]) + len(excited[b])
                keys.append(count + (ladder + 3 * odd) * levels)
                targets.append(background | (b * half + masks[b]))
                avoids.append((background & masks[b]) == 0)
            kept = np.flatnonzero(np.stack(avoids, axis=1))
            begin, end = end, end + len(kept)
            rows[begin:end] = (background | (a * half + masks[a])).take(kept >> 1)
            cols[begin:end] = np.stack(targets, axis=1).take(kept)
            key[begin:end] = np.stack(keys, axis=1).take(kept)
    # the "row,col," texts, a slice of digits at a time
    width = len(str(2 * half - 1))
    text = np.full((len(rows), 2 * width + 2), ord(","), dtype=np.uint8)
    for start in range(0, len(rows), DUMP_SLICE):
        part = slice(start, start + DUMP_SLICE)
        size = len(rows[part])
        digits = _decimal_digits(np.concatenate((rows[part], cols[part])), width)
        text[part, :width], text[part, width + 1 : -1] = digits[:size], digits[size:]
    return EntryLayout(rows, cols, key, text)


def analytic_density(
    scenario: Scenario, field: FieldKind, rs: SqueezeGrid
) -> DensityMatrix:
    """Direct density-matrix assembly from the D_i^m coefficient ladder, as
    the direct-sum stack of the points of ``rs`` (point ``p`` at index ``p *
    2**(slots + 1) + ...``).

    The entries come from one :func:`analytic_layout`, offset per point;
    every point gathers its values by key from its own weights 0.5 d(i, m)
    (:func:`density_weights`) followed by their negatives, each exact.
    Exact zeros are not stored. Raises CapacityError beyond
    :data:`MAX_DENSITY_SLOTS`.
    """
    layout = analytic_layout(scenario, field)
    weight = density_weights(field, rs).reshape(len(rs), 3 * (field.slots + 1))
    values = np.concatenate((weight, -weight), axis=1)[:, layout.key]
    offset = (np.arange(len(rs), dtype=np.int64) << (field.slots + 1))[:, None]
    rows, cols = offset + layout.rows, offset + layout.cols
    stored = values != 0.0
    return DensityMatrix(field, rows[stored], cols[stored], values[stored], len(rs))


def _decimal_digits(numbers: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of the non-negative ``numbers`` (each below
    10**``width``) as a (len(numbers), width) table, right-aligned: NUL
    where a shorter number has no digit."""
    digits = np.empty((width, len(numbers)), dtype=np.uint8)
    rest = numbers
    for place in range(width - 1, -1, -1):
        quotient = rest // 10
        digits[place] = rest - quotient * 10 + ord("0")
        rest = quotient
    for place in range(width - 1):
        digits[place] *= numbers >= 10 ** (width - 1 - place)
    return digits.T


def write_rho_csv(tables: Iterable[np.ndarray], stream: IO[bytes]) -> None:
    """Sparse dump to the binary ``stream``: the header ``row,col,re,im``,
    then one ASCII line per stored entry in basis order, its floats in
    shortest round-trip form (``repr``) and its imaginary part 0.0. The
    lines come as the NUL-padded uint8 ``tables`` of
    :meth:`EntryLayout.tables`; each table's bytes are written in one call
    with the NULs deleted."""
    stream.write(b"row,col,re,im\n")
    for table in tables:
        stream.write(table.tobytes().translate(None, b"\0"))
