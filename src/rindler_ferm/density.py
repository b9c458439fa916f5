"""Alice-Rob density matrices for the three entangled-state scenarios.

Two independent construction paths are kept side by side on purpose:

* brute force: expand the joint state over Alice x region-I x region-IV,
  then trace out region IV by grouping the amplitudes on their region-IV
  occupation;
* analytic: place the D_i^m coefficient pattern directly, with the same
  insertion signs the state constructors use.

Both work on numpy arrays end to end: the joint state is a
:class:`JointState` of parallel term arrays, and a :class:`DensityMatrix`
holds coalesced COO arrays (``rows``, ``cols``, ``values``) sorted
row-major. Per-level coefficients are tabulated with the scalar ladders
and gathered by popcount, so every value equals the scalar formula bit for
bit.

The paths must agree entrywise; the test suite enforces that, so neither
can drift silently.

Alice is a two-level abstract system throughout (her inertial mode
structure never matters): level 0 is the vacuum / first Bell branch,
level 1 the one-particle / second Bell branch. Density-matrix rows and
columns are indexed by ``alice_level * 2**slots + occupation_bits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import IO, Mapping

import numpy as np

from .errors import CapacityError
from .fock import PRUNE_THRESHOLD, insertion_signs
from .modes import FieldFamily, FieldKind, ModeLabel, Spin, slot_index
from .rindler import (
    SqueezeParam,
    VacuumCoefficients,
    one_particle_amplitudes,
    vacuum_amplitudes,
)

#: Joint Alice x I x IV spaces with more basis states than this are refused
#: by the brute-force path.
MAX_JOINT_DIM = 1 << 24

#: The analytic path refuses fields with more single-particle slots than
#: this: its arrays and dumps grow as 2**slots (at 18 slots, Dirac n=9, one
#: grid point stores 655k entries, dumps 26 MB and peaks near 150 MB).
MAX_DENSITY_SLOTS = 18

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ScenarioKind(Enum):
    VAC_ONE_DIRAC = "vac-one-dirac"
    BELL_DIRAC = "bell-dirac"
    VAC_ONE_SPINLESS = "vac-one-spinless"

    @property
    def family(self) -> FieldFamily:
        if self is ScenarioKind.VAC_ONE_SPINLESS:
            return FieldFamily.SPINLESS
        return FieldFamily.DIRAC


@dataclass(frozen=True, slots=True)
class Scenario:
    """Entangled-state scenario: which maximally entangled state Rob shares.

    ``rob_modes`` holds the Rob-side excited mode (vacuum/one-particle
    scenarios) or the two distinct Rob modes of the Bell branches.
    """

    kind: ScenarioKind
    rob_modes: tuple[ModeLabel, ...]

    def __post_init__(self) -> None:
        want = 2 if self.kind is ScenarioKind.BELL_DIRAC else 1
        if len(self.rob_modes) != want:
            raise ValueError(f"{self.kind.value} needs {want} Rob mode(s)")
        if want == 2 and self.rob_modes[0] == self.rob_modes[1]:
            raise ValueError("Bell branches need two distinct Rob modes")


def vac_one_dirac(mode: ModeLabel = ModeLabel(1, Spin.UP)) -> Scenario:
    return Scenario(ScenarioKind.VAC_ONE_DIRAC, (mode,))


def bell_dirac(
    first: ModeLabel = ModeLabel(1, Spin.UP), second: ModeLabel = ModeLabel(1, Spin.DOWN)
) -> Scenario:
    return Scenario(ScenarioKind.BELL_DIRAC, (first, second))


def vac_one_spinless(mode: ModeLabel = ModeLabel(1)) -> Scenario:
    return Scenario(ScenarioKind.VAC_ONE_SPINLESS, (mode,))


def check_scenario_field(scenario: Scenario, field: FieldKind) -> None:
    if scenario.kind.family is not field.family:
        raise ValueError(
            f"scenario {scenario.kind.value} needs a {scenario.kind.family.value} field"
        )
    for mode in scenario.rob_modes:
        field.validate_label(mode)


def weight_ladder(field: FieldKind, r: SqueezeParam, levels: int) -> list[float]:
    """The diagonal weights d(0, m) = |C^0|^2 tan(r)^2m for m < ``levels``;
    the off-diagonal ladders are d(i, m) = d(0, m) / cos(r)^i."""
    c0 = VacuumCoefficients.for_field(field, r).c0
    c0_sq, tan_sq = c0 * c0, r.tan * r.tan
    return [c0_sq * tan_sq**m for m in range(levels)]


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every run of equal values in a sorted array."""
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    at = edge.nonzero()[0]
    return at[:-1], at[1:] - at[:-1]


class DensityMatrix:
    """Sparse operator on (Alice level) x (region-I occupation).

    Basis order is fixed: Alice level major, occupation bitset ascending,
    so index = alice * 2**slots + bits. Entries are held as coalesced COO
    arrays: ``rows`` and ``cols`` (int64) and ``values`` (complex128),
    sorted row-major, one entry per stored (row, col). A stored 0.0 is kept
    (and ignored by the spectrum). The container is also reused for the
    (Hermitian, not positive) partial transpose. Treat instances as
    immutable.
    """

    __slots__ = ("field", "rows", "cols", "values", "_entries")

    def __init__(self, field: FieldKind, entries: Mapping[tuple[int, int], complex]):
        side = 2 << field.slots
        keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        if keys.size and not (keys.min() >= 0 and keys.max() < side):
            raise ValueError(f"entry index outside the side-{side} matrix")
        values = np.fromiter(entries.values(), dtype=complex, count=len(keys))
        self._assign(field, keys[:, 0], keys[:, 1], values)

    @classmethod
    def from_coo(
        cls, field: FieldKind, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> "DensityMatrix":
        """Matrix from unsorted COO arrays; values at a repeated key are summed."""
        matrix = cls.__new__(cls)
        matrix._assign(field, rows, cols, values)
        return matrix

    def _assign(self, field: FieldKind, rows, cols, values) -> None:
        side = 2 << field.slots
        keys = np.asarray(rows, dtype=np.int64) * side + np.asarray(cols, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = np.asarray(values, dtype=complex)[order]
        starts, _ = runs(keys)
        if len(starts) < len(keys):
            values = np.add.reduceat(values, starts)
            keys = keys[starts]
        self.field = field
        self.rows, self.cols = keys >> (field.slots + 1), keys & (side - 1)
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
        return 2 << self.field.slots

    def index(self, alice: int, bits: int) -> int:
        return alice * (1 << self.field.slots) + bits

    def lookup(self, rows, cols) -> np.ndarray:
        """Stored values at the (row, col) pairs given; 0 where none is stored."""
        side = self.side
        want = np.asarray(rows, dtype=np.int64) * side + np.asarray(cols, dtype=np.int64)
        if not len(self.values):
            return np.zeros(want.shape, dtype=complex)
        keys = self.rows * side + self.cols
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[at] == want, self.values[at], 0.0)

    def get(self, row: int, col: int) -> complex:
        return complex(self.lookup(row, col))

    def trace(self) -> complex:
        return complex(self.values[self.rows == self.cols].sum())

    def purity(self) -> float:
        # Tr(rho^2) for Hermitian rho is the squared Frobenius norm
        return float(np.sum(self.values.real**2 + self.values.imag**2))

    def hermiticity_defect(self) -> float:
        mirror = self.lookup(self.cols, self.rows)
        return float(np.abs(self.values - mirror.conj()).max(initial=0.0))

    def to_dense(self) -> np.ndarray:
        """Dense side x side copy; the tests' oracle for the sparse spectrum."""
        dense = np.zeros((self.side, self.side), dtype=complex)
        dense[self.rows, self.cols] = self.values
        return dense


def max_entry_difference(a: DensityMatrix, b: DensityMatrix) -> float:
    difference = DensityMatrix.from_coo(
        a.field,
        np.concatenate((a.rows, b.rows)),
        np.concatenate((a.cols, b.cols)),
        np.concatenate((a.values, -b.values)),
    )
    return float(np.abs(difference.values).max(initial=0.0))


class JointState:
    """Pure state on Alice x region I x region IV, as parallel arrays:
    the Alice level, region-I bits, region-IV bits and amplitude of every
    stored term (keys distinct). Treat instances as immutable."""

    __slots__ = ("field", "alice", "i_bits", "iv_bits", "values", "_amps")

    def __init__(self, field: FieldKind, alice, i_bits, iv_bits, values):
        self.field = field
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
    """Whether the brute-force path takes ``field``: its joint space,
    2**(2 slots + 1) basis states, is at most :data:`MAX_JOINT_DIM` (Dirac
    n <= 5, spinless n <= 11)."""
    return (2 << (2 * field.slots)) <= MAX_JOINT_DIM


def build_joint_state(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> JointState:
    """Equal superposition of the two Alice-tagged Rob branches; level 0's
    terms first, each branch pruned before and after the 1/sqrt(2)."""
    check_scenario_field(scenario, field)
    if not bruteforce_feasible(field):
        raise CapacityError(
            f"joint space holds {2 << (2 * field.slots)} basis states "
            f"(> {MAX_JOINT_DIM}); use the analytic density path"
        )
    if scenario.kind is ScenarioKind.BELL_DIRAC:
        branches = (
            one_particle_amplitudes(field, r, scenario.rob_modes[0]),
            one_particle_amplitudes(field, r, scenario.rob_modes[1]),
        )
    else:
        branches = (
            vacuum_amplitudes(field, r),
            one_particle_amplitudes(field, r, scenario.rob_modes[0]),
        )
    alice = np.repeat([0, 1], [len(branches[0][0]), len(branches[1][0])])
    i_bits, iv_bits, amps = (np.concatenate(column) for column in zip(*branches))
    amps = _INV_SQRT2 * amps
    keep = np.abs(amps) >= PRUNE_THRESHOLD
    return JointState(field, alice[keep], i_bits[keep], iv_bits[keep], amps[keep])


def trace_out_region_iv(joint: JointState) -> DensityMatrix:
    """Partial trace over region IV of a pure joint state.

    Region-IV basis states are orthonormal, so grouping the terms by their
    IV occupation and forming outer products within each group is the whole
    computation; contributions of several groups to one entry are summed.
    """
    order = np.argsort(joint.iv_bits, kind="stable")
    iv = joint.iv_bits[order]
    index = (joint.alice * (1 << joint.field.slots) + joint.i_bits)[order]
    amps = joint.values[order]
    # group g spans [start, start + size); each member pairs with every
    # member of its own group, itself included
    starts, sizes = runs(iv)
    pairs = np.repeat(sizes, sizes)
    row_at = np.repeat(np.arange(len(iv)), pairs)
    first_pair = np.cumsum(pairs) - pairs
    col_at = np.repeat(np.repeat(starts, sizes) - first_pair, pairs)
    col_at += np.arange(len(row_at))
    return DensityMatrix.from_coo(
        joint.field, index[row_at], index[col_at], amps[row_at] * amps[col_at].conj()
    )


def check_density_capacity(field: FieldKind) -> None:
    """Raise CapacityError when the analytic path would exceed its cap."""
    if field.slots > MAX_DENSITY_SLOTS:
        raise CapacityError(
            f"analytic density for {field.slots} slots (> {MAX_DENSITY_SLOTS}) "
            f"would store about 2**{field.slots} entries"
        )


def analytic_density(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> DensityMatrix:
    """Direct density-matrix assembly from the D_i^m coefficient ladder.

    Off-diagonal terms are placed once for the upper position and mirrored;
    exact zeros are not stored. Raises CapacityError beyond
    :data:`MAX_DENSITY_SLOTS`.
    """
    check_scenario_field(scenario, field)
    check_density_capacity(field)
    half = 1 << field.slots
    # 0.5 * d(i, m) for every level m, from the scalar ladder
    w = np.array(weight_ladder(field, r, field.slots + 1))
    weight = 0.5 * np.stack((w, w / r.cos, w / r.cos**2))
    bits = np.arange(half, dtype=np.int64)

    def without(*slots: int) -> tuple[np.ndarray, np.ndarray]:
        mask = sum(1 << slot for slot in slots)
        free = bits[bits & mask == 0]
        return free, np.bitwise_count(free)

    if scenario.kind is ScenarioKind.BELL_DIRAC:
        slot1, slot2 = (slot_index(field, m) for m in scenario.rob_modes)
        bit1, bit2 = 1 << slot1, 1 << slot2
        free1, m1 = without(slot1)
        free2, m2 = without(slot2)
        both, m12 = without(slot1, slot2)
        diag_at = np.concatenate((free1 | bit1, half + (free2 | bit2)))
        diag_values = np.concatenate((weight[2, m1], weight[2, m2]))
        up_rows, up_cols = both | bit1, half + (both | bit2)
        sign = insertion_signs(both, slot1) * insertion_signs(both, slot2)
        up_values = sign * weight[2, m12]
    else:
        slot = slot_index(field, scenario.rob_modes[0])
        bit = 1 << slot
        free, m = without(slot)
        diag_at = np.concatenate((bits, half + (free | bit)))
        diag_values = np.concatenate((weight[0, np.bitwise_count(bits)], weight[2, m]))
        up_rows, up_cols = free, half + (free | bit)
        up_values = insertion_signs(free, slot) * weight[1, m]
    rows = np.concatenate((diag_at, up_rows, up_cols))
    cols = np.concatenate((diag_at, up_cols, up_rows))
    values = np.concatenate((diag_values, up_values, up_values))
    stored = values != 0.0
    return DensityMatrix.from_coo(field, rows[stored], cols[stored], values[stored])


def write_rho_csv(rho: DensityMatrix, stream: IO[str]) -> None:
    """Sparse dump: one ``row,col,re,im`` line per stored entry, in basis
    order, floats in shortest round-trip form.

    Each distinct float is formatted once: the real and imaginary parts are
    grouped on their bit pattern (not their value, since 0.0 and -0.0 are
    equal but print differently) and every entry takes its group's text.
    """
    stream.write("row,col,re,im\n")
    parts = np.concatenate((rho.values.real, rho.values.imag))
    bits, group = np.unique(parts.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    re_text, im_text = np.split(text[group], 2)
    stream.writelines(
        f"{row},{col},{re},{im}\n"
        for row, col, re, im in zip(
            rho.rows.tolist(), rho.cols.tolist(), re_text.tolist(), im_text.tolist()
        )
    )
