"""Partial transpose and negativity, by brute force and by block algebra.

The brute-force path transposes the Alice indices, splits the sparsity
pattern into connected components, diagonalizes every component on its
own (whatever its size) and sums the negative eigenvalues. It never
assumes the 2x2 structure, so it stays an independent check. The block
path never materializes a matrix: the partial transpose splits into
non-negative 1x1 scalars plus 2x2 blocks repeated with binomial
multiplicities, so the negativity is a short series of per-block negative
eigenvalues. Both paths are kept because their agreement is the whole
point of the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from .combinatorics import block_multiplicity
from .density import DCoefficients, DensityMatrix, Scenario, ScenarioKind, check_scenario_field
from .errors import BlockStructureError, CapacityError
from .modes import FieldKind
from .rindler import SqueezeParam

#: Brute-force negativity is refused above this side length.
EIGENSOLVER_SIDE_CAP = 1 << 13

#: Eigenvalues above this (negative) cutoff count as numerical zeros.
NEGATIVE_EIG_CUTOFF = -1e-12


def partial_transpose_alice(rho: DensityMatrix) -> DensityMatrix:
    """Transpose the Alice indices: PT[(a,o),(a',o')] = rho[(a',o),(a,o')]."""
    half = 1 << rho.field.slots
    entries: dict[tuple[int, int], complex] = {}
    for (row, col), v in rho.entries.items():
        a, bits = divmod(row, half)
        a2, bits2 = divmod(col, half)
        entries[(a2 * half + bits, a * half + bits2)] = v
    return DensityMatrix(rho.field, entries)


def connected_components(matrix: DensityMatrix) -> list[list[int]]:
    """Connected components of the sparsity pattern, each sorted ascending.

    Only indices touched by a non-zero stored entry become nodes; a stored
    0.0 neither adds a node nor links two.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for (row, col), v in matrix.entries.items():
        if v == 0.0:
            continue
        for node in (row, col):
            parent.setdefault(node, node)
        if row != col:
            union(row, col)
    components: dict[int, list[int]] = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)
    for members in components.values():
        members.sort()
    return list(components.values())


def hermitian_spectrum(matrix: DensityMatrix) -> np.ndarray:
    """Ascending eigenvalues of a sparse Hermitian matrix, one per basis index.

    Each connected component is diagonalized on its own, with one batched
    ``eigvalsh`` per distinct component size; indices no non-zero entry
    touches contribute exact zeros. Equal to
    ``np.linalg.eigvalsh(matrix.to_dense())`` up to rounding, without the
    side x side matrix.
    """
    by_size: dict[int, list[list[int]]] = {}
    for members in connected_components(matrix):
        by_size.setdefault(len(members), []).append(members)
    # every node's component size, the component's place in the stack of
    # its size, and the node's row within the component
    size = np.zeros(matrix.side, dtype=np.intp)
    stack_slot = np.zeros(matrix.side, dtype=np.intp)
    row_in = np.zeros(matrix.side, dtype=np.intp)
    for k, groups in by_size.items():
        nodes = np.array(groups, dtype=np.intp)
        size[nodes] = k
        stack_slot[nodes] = np.arange(len(groups))[:, None]
        row_in[nodes] = np.arange(k)
    keys = np.array(list(matrix.entries), dtype=np.intp).reshape(-1, 2)
    values = np.fromiter(matrix.entries.values(), dtype=complex, count=len(keys))
    stored = values != 0.0
    rows, cols, values = keys[stored, 0], keys[stored, 1], values[stored]
    parts = [np.zeros(matrix.side - int(np.count_nonzero(size)))]
    for k, groups in by_size.items():
        mine = size[rows] == k
        r, c = rows[mine], cols[mine]
        stack = np.zeros((len(groups), k, k), dtype=complex)
        stack[stack_slot[r], row_in[r], row_in[c]] = values[mine]
        parts.append(np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(parts))


def negativity_bruteforce(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose, diagonalized
    one connected component at a time (:func:`hermitian_spectrum`), with no
    assumption on component sizes. Raises CapacityError above the side cap;
    callers should then switch to :func:`negativity_blocks`."""
    if rho.side > EIGENSOLVER_SIDE_CAP:
        raise CapacityError(
            f"side {rho.side} exceeds the eigensolver cap "
            f"{EIGENSOLVER_SIDE_CAP}; use negativity_blocks"
        )
    eigenvalues = hermitian_spectrum(partial_transpose_alice(rho))
    return float(-eigenvalues[eigenvalues < NEGATIVE_EIG_CUTOFF].sum())


class BlockForm(Enum):
    #: [[d0(m+1), d1(m)], [d1(m), 0]] / 2 (vacuum/one-particle scenarios)
    DIAG_COUPLED = "diag-coupled"
    #: [[0, d2(m)], [d2(m), 0]] / 2 (Bell scenario)
    OFF_DIAG_ONLY = "off-diag-only"


@dataclass(frozen=True, slots=True)
class BlockSpectrum:
    """Negative-eigenvalue record for the repeated 2x2 block at level m."""

    m: int
    block_form: BlockForm
    neg_eigenvalue: float
    multiplicity: int


def negativity_blocks(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> tuple[float, list[BlockSpectrum]]:
    """Negativity as the multiplicity-weighted sum of per-block negative
    eigenvalues; returns the value and the per-m block records."""
    check_scenario_field(scenario, field)
    dc = DCoefficients.for_field(field, r)
    n = field.mode_count
    blocks: list[BlockSpectrum] = []
    total = 0.0
    if scenario.kind is ScenarioKind.BELL_DIRAC:
        for m in range(2 * n - 1):
            lam = 0.5 * dc.d(2, m)
            mult = block_multiplicity(scenario.kind, n, m)
            blocks.append(BlockSpectrum(m, BlockForm.OFF_DIAG_ONLY, lam, mult))
            total += mult * lam
    else:
        for m in range(field.slots):
            d0 = dc.d(0, m + 1)
            d1 = dc.d(1, m)
            lam = 0.25 * (math.hypot(d0, 2.0 * d1) - d0)
            mult = block_multiplicity(scenario.kind, n, m)
            blocks.append(BlockSpectrum(m, BlockForm.DIAG_COUPLED, lam, mult))
            total += mult * lam
    return total, blocks


@dataclass(frozen=True, slots=True, eq=False)
class TwoByTwoBlock:
    """Connected 2x2 component of a partial transpose's sparsity pattern."""

    indices: tuple[int, int]
    matrix: np.ndarray


@dataclass(frozen=True, slots=True)
class BlockDecomposition:
    blocks: list[TwoByTwoBlock] = dataclass_field(default_factory=list)
    scalars: list[tuple[int, float]] = dataclass_field(default_factory=list)


def extract_blocks(pt: DensityMatrix) -> BlockDecomposition:
    """Decompose the sparsity pattern into connected components.

    Components (see :func:`connected_components`) of size one yield
    (index, diagonal value) scalars; components of size two yield their 2x2
    submatrix; anything larger signals a sign or assembly bug and raises
    BlockStructureError.
    """
    decomposition = BlockDecomposition()
    for members in connected_components(pt):
        if len(members) == 1:
            idx = members[0]
            decomposition.scalars.append((idx, complex(pt.get(idx, idx)).real))
        elif len(members) == 2:
            i, j = members
            mat = np.array(
                [[pt.get(i, i), pt.get(i, j)], [pt.get(j, i), pt.get(j, j)]],
                dtype=complex,
            )
            decomposition.blocks.append(TwoByTwoBlock((i, j), mat))
        else:
            raise BlockStructureError(
                f"connected component of size {len(members)}: {members}"
            )
    return decomposition


def block_census(
    scenario: Scenario, field: FieldKind, pt: DensityMatrix
) -> dict[int, int]:
    """Count extracted 2x2 blocks per excitation level m.

    The member at Alice level 1 determines m: its occupation popcount in the
    vacuum/one-particle scenarios, popcount minus the excited mode in the
    Bell scenario.
    """
    check_scenario_field(scenario, field)
    decomposition = extract_blocks(pt)
    counts: dict[int, int] = {}
    for block in decomposition.blocks:
        keys = [pt.basis_key(i) for i in block.indices]
        level1 = [bits for a, bits in keys if a == 1]
        if len(level1) != 1:
            raise BlockStructureError(
                f"block {block.indices} does not pair the two Alice levels"
            )
        m = level1[0].bit_count()
        if scenario.kind is ScenarioKind.BELL_DIRAC:
            m -= 1
        counts[m] = counts.get(m, 0) + 1
    return counts


def negativity_closed_form(r: SqueezeParam) -> float:
    """The mode-count-independent value every scenario must reproduce."""
    return 0.5 * r.cos * r.cos
