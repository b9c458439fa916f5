"""Alice-Rob density matrices for the three entangled-state scenarios.

Two independent construction paths are kept side by side on purpose:

* brute force: expand the joint state over Alice x region-I x region-IV,
  then trace out region IV amplitude by amplitude;
* analytic: place the D_i^m coefficient pattern directly, with the same
  insertion signs the state constructors use.

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
from typing import IO, Iterable

import numpy as np

from .errors import CapacityError
from .fock import StateVector, insertion_sign
from .modes import FieldFamily, FieldKind, ModeLabel, Spin, slot_index
from .rindler import SqueezeParam, VacuumCoefficients, build_one_particle, build_vacuum

#: Joint Alice x I x IV spaces with more basis states than this are refused
#: by the brute-force path (the analytic path has no such cap).
MAX_JOINT_DIM = 1 << 24

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


@dataclass(frozen=True, slots=True)
class DCoefficients:
    """Diagonal/off-diagonal weight ladder d(i, m) = |C^0|^2 tan(r)^2m / cos(r)^i."""

    c0_sq: float
    cos_r: float
    tan_sq: float

    @classmethod
    def for_field(cls, field: FieldKind, r: SqueezeParam) -> "DCoefficients":
        coeffs = VacuumCoefficients.for_field(field, r)
        return cls(c0_sq=coeffs.c0 * coeffs.c0, cos_r=r.cos, tan_sq=r.tan * r.tan)

    def d(self, i: int, m: int) -> float:
        if i not in (0, 1, 2):
            raise ValueError(f"i={i} outside 0..2")
        return self.c0_sq * self.tan_sq**m / self.cos_r**i


class DensityMatrix:
    """Sparse Hermitian operator on (Alice level) x (region-I occupation).

    Basis order is fixed: Alice level major, occupation bitset ascending,
    so index = alice * 2**slots + bits. The container is also reused for
    the (Hermitian, not positive) partial transpose.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldKind, entries: dict[tuple[int, int], complex]):
        self.field = field
        self.entries = entries

    @property
    def side(self) -> int:
        return 2 << self.field.slots

    def index(self, alice: int, bits: int) -> int:
        return alice * (1 << self.field.slots) + bits

    def basis_key(self, idx: int) -> tuple[int, int]:
        half = 1 << self.field.slots
        return idx // half, idx % half

    def get(self, row: int, col: int) -> complex:
        return self.entries.get((row, col), 0.0)

    def trace(self) -> complex:
        return complex(sum(v for (r, c), v in self.entries.items() if r == c))

    def purity(self) -> float:
        # Tr(rho^2) for Hermitian rho is the squared Frobenius norm
        return sum(abs(v) ** 2 for v in self.entries.values())

    def hermiticity_defect(self) -> float:
        worst = 0.0
        for (r, c), v in self.entries.items():
            worst = max(worst, abs(v - self.entries.get((c, r), 0.0).conjugate()))
        return worst

    def to_dense(self) -> np.ndarray:
        """Dense side x side copy; the tests' oracle for the sparse spectrum."""
        dense = np.zeros((self.side, self.side), dtype=complex)
        for (r, c), v in self.entries.items():
            dense[r, c] = v
        return dense


def max_entry_difference(a: DensityMatrix, b: DensityMatrix) -> float:
    keys = a.entries.keys() | b.entries.keys()
    return max((abs(a.get(*k) - b.get(*k)) for k in keys), default=0.0)


def build_joint_state(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> StateVector:
    """Equal superposition of the two Alice-tagged Rob branches, as a sparse
    vector over keys (alice, i_bits, iv_bits)."""
    check_scenario_field(scenario, field)
    joint_dim = 2 << (2 * field.slots)
    if joint_dim > MAX_JOINT_DIM:
        raise CapacityError(
            f"joint space holds {joint_dim} basis states (> {MAX_JOINT_DIM}); "
            "use the analytic density path"
        )
    if scenario.kind is ScenarioKind.BELL_DIRAC:
        branches = (
            build_one_particle(field, r, scenario.rob_modes[0]),
            build_one_particle(field, r, scenario.rob_modes[1]),
        )
    else:
        branches = (
            build_vacuum(field, r),
            build_one_particle(field, r, scenario.rob_modes[0]),
        )
    amps: dict[tuple, complex] = {}
    for level, branch in enumerate(branches):
        for key, amp in branch.amps.items():
            amps[(level, *key)] = _INV_SQRT2 * amp
    return StateVector(field, amps)


def trace_out_region_iv(joint: StateVector) -> DensityMatrix:
    """Partial trace over region IV of a pure joint state.

    Region-IV basis states are orthonormal, so grouping amplitudes by their
    IV occupation and forming outer products within each group is the whole
    computation.
    """
    by_iv: dict[int, list[tuple[int, complex]]] = {}
    half = 1 << joint.field.slots
    for key, amp in joint.amps.items():
        alice, i_bits, iv_bits = key
        by_iv.setdefault(iv_bits, []).append((alice * half + i_bits, amp))
    entries: dict[tuple[int, int], complex] = {}
    for group in by_iv.values():
        for row, a_row in group:
            for col, a_col in group:
                k = (row, col)
                entries[k] = entries.get(k, 0.0) + a_row * a_col.conjugate()
    return DensityMatrix(joint.field, entries)


def analytic_density(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> DensityMatrix:
    """Direct density-matrix assembly from the D_i^m coefficient ladder.

    Off-diagonal terms are produced once for the upper position and
    mirrored, never touching the diagonal twice.
    """
    check_scenario_field(scenario, field)
    dc = DCoefficients.for_field(field, r)
    nbits = field.slots
    half = 1 << nbits
    entries: dict[tuple[int, int], complex] = {}

    def put(row: int, col: int, value: float) -> None:
        if value == 0.0:
            return
        entries[(row, col)] = entries.get((row, col), 0.0) + value
        if row != col:
            entries[(col, row)] = entries.get((col, row), 0.0) + value

    if scenario.kind is ScenarioKind.BELL_DIRAC:
        slot1, slot2 = (slot_index(field, m) for m in scenario.rob_modes)
        bit1, bit2 = 1 << slot1, 1 << slot2
        for bits in range(half):
            m = bits.bit_count()
            if not bits & bit1:
                put(bits | bit1, bits | bit1, 0.5 * dc.d(2, m))
            if not bits & bit2:
                put(half + (bits | bit2), half + (bits | bit2), 0.5 * dc.d(2, m))
            if not bits & (bit1 | bit2):
                sign = insertion_sign(bits, slot1) * insertion_sign(bits, slot2)
                put(bits | bit1, half + (bits | bit2), 0.5 * sign * dc.d(2, m))
    else:
        slot = slot_index(field, scenario.rob_modes[0])
        bit = 1 << slot
        for bits in range(half):
            m = bits.bit_count()
            put(bits, bits, 0.5 * dc.d(0, m))
            if not bits & bit:
                put(half + (bits | bit), half + (bits | bit), 0.5 * dc.d(2, m))
                put(bits, half + (bits | bit), 0.5 * insertion_sign(bits, slot) * dc.d(1, m))
    return DensityMatrix(field, entries)


def iter_csv_rows(rho: DensityMatrix) -> Iterable[tuple[int, int, float, float]]:
    for (row, col) in sorted(rho.entries):
        v = complex(rho.entries[(row, col)])
        yield row, col, v.real, v.imag


def write_rho_csv(rho: DensityMatrix, stream: IO[str]) -> None:
    """Sparse dump: one ``row,col,re,im`` line per stored entry, in basis
    order, floats in shortest round-trip form."""
    stream.write("row,col,re,im\n")
    for row, col, re, im in iter_csv_rows(rho):
        stream.write(f"{row},{col},{re!r},{im!r}\n")
