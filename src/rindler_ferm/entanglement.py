"""Partial transpose and negativity, by brute force and by block algebra.

The brute-force path transposes the Alice indices (index arithmetic on the
COO arrays of a :class:`~rindler_ferm.density.DensityMatrix`), labels the
connected components of the sparsity pattern by array min-label
propagation, diagonalizes every component on its own (whatever its size)
and sums the negative eigenvalues. It never assumes the 2x2 structure, so
it stays an independent check. The block
path never materializes a matrix: the partial transpose splits into
non-negative 1x1 scalars plus 2x2 blocks repeated with binomial
multiplicities, so the negativity is a short series of per-block negative
eigenvalues, refused (CapacityError) once a multiplicity would leave float
range. :func:`negativity_blocks` returns the series' value as a float and
:func:`block_spectrum` its per-level :class:`BlockSpectrum` records, both
from one level table. Both paths are kept because their agreement is the
whole point of the verification suite. :func:`block_census` ties them
together structurally: it counts the 2x2 components of a brute-force
partial transpose per level, from the same component labels the
eigensolve uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add, mul

import numpy as np

from .combinatorics import block_multiplicities, block_top
from .density import (
    DensityMatrix,
    Scenario,
    ScenarioKind,
    check_scenario_field,
    runs,
    weight_ladder,
)
from .errors import BlockStructureError, CapacityError
from .modes import FieldKind
from .rindler import SqueezeParam

#: The batched eigensolve is refused when its stacked component matrices
#: would hold more entries than this (sum of k**2 over component sizes k):
#: the dense 8192 x 8192 worst case, 1 GiB of complex128.
EIGENSOLVE_BUDGET = 1 << 26

#: Eigenvalues above this (negative) cutoff count as numerical zeros.
NEGATIVE_EIG_CUTOFF = -1e-12

#: The block series is refused above this binomial-row top: every
#: multiplicity C(top, m) is converted to a float, and 1029 is the largest
#: top whose middle entry C(top, top // 2) fits (spinless n=1030, Dirac n=515).
MAX_BLOCK_TOP = 1029


def partial_transpose_alice(rho: DensityMatrix) -> DensityMatrix:
    """Transpose the Alice indices: PT[(a,o),(a',o')] = rho[(a',o),(a,o')].

    The Alice level is the index bit above the occupation bits, so the
    transpose swaps that bit between row and column."""
    alice = 1 << rho.field.slots
    return DensityMatrix.from_coo(
        rho.field,
        (rho.rows & ~alice) | (rho.cols & alice),
        (rho.cols & ~alice) | (rho.rows & alice),
        rho.values,
    )


def _component_members(
    matrix: DensityMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes grouped by connected component of the sparsity pattern.

    Only indices touched by a non-zero stored entry are nodes; a stored 0.0
    neither adds a node nor links two. Returns the nodes, component after
    component and ascending within each, and the start and size of every
    component in that array.

    Each node's label starts as its own index and takes the least label
    among its neighbours (then its label's label) until nothing changes.
    Labels only fall and stay inside the component, and at the fixed point
    they agree across every link, so each component ends up labelled by
    its least index whatever its shape.
    """
    linked = matrix.values != 0.0
    rows, cols = matrix.rows[linked], matrix.cols[linked]
    off = rows != cols
    ends = np.concatenate((rows[off], cols[off]))
    other_ends = np.concatenate((cols[off], rows[off]))
    label = np.arange(matrix.side)
    while True:
        lower = label.copy()
        np.minimum.at(lower, ends, label[other_ends])
        lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    touched = np.zeros(matrix.side, dtype=bool)
    touched[rows] = True
    touched[cols] = True
    nodes = np.flatnonzero(touched)
    # labels are at most the node index, so this key is unique
    nodes = nodes[np.argsort(label[nodes] * matrix.side + nodes, kind="stable")]
    return (nodes, *runs(label[nodes]))


def hermitian_spectrum(matrix: DensityMatrix) -> np.ndarray:
    """Ascending eigenvalues of a sparse Hermitian matrix, one per basis index.

    Each connected component is diagonalized on its own, with one batched
    ``eigvalsh`` per distinct component size; indices no non-zero entry
    touches contribute exact zeros. Equal to
    ``np.linalg.eigvalsh(matrix.to_dense())`` up to rounding, without the
    side x side matrix. Raises CapacityError when the components exceed
    :data:`EIGENSOLVE_BUDGET`, before any stack is built.
    """
    nodes, starts, sizes = _component_members(matrix)
    held = int((sizes * sizes).sum())
    if held > EIGENSOLVE_BUDGET:
        raise CapacityError(
            f"components of the side-{matrix.side} matrix hold {held} entries "
            f"(> {EIGENSOLVE_BUDGET}); use negativity_blocks"
        )
    # every node's component size, the component's place in the stack of
    # its size, and the node's row within the component
    size = np.zeros(matrix.side, dtype=np.intp)
    stack_slot = np.zeros(matrix.side, dtype=np.intp)
    row_in = np.zeros(matrix.side, dtype=np.intp)
    linked = matrix.values != 0.0
    rows, cols, values = matrix.rows[linked], matrix.cols[linked], matrix.values[linked]
    parts = [np.zeros(matrix.side - len(nodes))]
    for k in sorted(set(sizes.tolist())):
        of_size = starts[sizes == k]
        members = nodes[of_size[:, None] + np.arange(k)]
        size[members] = k
        stack_slot[members] = np.arange(len(of_size))[:, None]
        row_in[members] = np.arange(k)
        mine = size[rows] == k
        r, c = rows[mine], cols[mine]
        stack = np.zeros((len(of_size), k, k), dtype=complex)
        stack[stack_slot[r], row_in[r], row_in[c]] = values[mine]
        parts.append(np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(parts), kind="stable")


def negativity_bruteforce(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose, diagonalized
    one connected component at a time (:func:`hermitian_spectrum`), with no
    assumption on component sizes. Raises CapacityError beyond the
    eigensolve budget; callers should then switch to
    :func:`negativity_blocks`."""
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


def _block_levels(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> tuple[BlockForm, list[float], list[int]]:
    """The block series level by level: the scenario's block form, every
    level's negative eigenvalue |λ_m| and its multiplicity C(top, m), for
    m = 0..top.

    The multiplicities come as one exact binomial row
    (:func:`~rindler_ferm.combinatorics.block_multiplicities`) and the
    coefficients from one ladder w[m] = d(0, m)
    (:func:`~rindler_ferm.density.weight_ladder`), with d(1, m) = w[m]/cos r
    and d(2, m) = w[m]/cos(r)**2. Raises CapacityError when the row's top
    exceeds :data:`MAX_BLOCK_TOP`, before the row is built.
    """
    check_scenario_field(scenario, field)
    n = field.mode_count
    top = block_top(scenario.kind, n)
    if top > MAX_BLOCK_TOP:
        raise CapacityError(
            f"block series at n={n} ({field.family.value}) needs multiplicities "
            f"C({top}, m) beyond float range (top > {MAX_BLOCK_TOP})"
        )
    w = weight_ladder(field, r, top + 2)
    cos_r = r.cos
    multiplicities = block_multiplicities(scenario.kind, n)
    if scenario.kind is ScenarioKind.BELL_DIRAC:
        cos_sq = cos_r**2
        lams = [0.5 * (wm / cos_sq) for wm in w[:-1]]
        return BlockForm.OFF_DIAG_ONLY, lams, multiplicities
    hypot = math.hypot
    lams = [0.25 * (hypot(d0, 2.0 * (wm / cos_r)) - d0) for d0, wm in zip(w[1:], w)]
    return BlockForm.DIAG_COUPLED, lams, multiplicities


def negativity_blocks(scenario: Scenario, field: FieldKind, r: SqueezeParam) -> float:
    """Negativity as the multiplicity-weighted sum of per-block negative
    eigenvalues, sum_m C(top, m) |λ_m| (see :func:`_block_levels`).

    The terms are added one by one in level order, so the value is the
    same double as a sequential ``total += mult * lam`` over
    :func:`block_spectrum`'s records. Raises CapacityError beyond
    :data:`MAX_BLOCK_TOP`.
    """
    _, lams, multiplicities = _block_levels(scenario, field, r)
    # float(mult) * lam is the double int * float gives; reduce keeps the
    # plain left-to-right additions (sum() is compensated from 3.12 on)
    return reduce(add, map(mul, map(float, multiplicities), lams), 0.0)


def block_spectrum(
    scenario: Scenario, field: FieldKind, r: SqueezeParam
) -> list[BlockSpectrum]:
    """One :class:`BlockSpectrum` record per level m = 0..top, the terms
    :func:`negativity_blocks` adds up. Raises CapacityError beyond
    :data:`MAX_BLOCK_TOP`."""
    form, lams, multiplicities = _block_levels(scenario, field, r)
    return [
        BlockSpectrum(m, form, lam, mult)
        for m, (lam, mult) in enumerate(zip(lams, multiplicities))
    ]


def block_census(
    scenario: Scenario, field: FieldKind, pt: DensityMatrix
) -> dict[int, int]:
    """Count the 2x2 components of ``pt``'s sparsity pattern per excitation
    level m (see :func:`_component_members` for what counts as a node or a
    link).

    Every component must be a 1x1 scalar or a pair that links the two
    Alice levels; anything else signals a sign or assembly bug and raises
    BlockStructureError. A pair's member at Alice level 1 determines m: its
    occupation popcount in the vacuum/one-particle scenarios, popcount
    minus the excited mode in the Bell scenario.
    """
    check_scenario_field(scenario, field)
    nodes, starts, sizes = _component_members(pt)
    oversized = np.flatnonzero(sizes > 2)
    if len(oversized):
        first = oversized[0]
        members = nodes[starts[first] : starts[first] + sizes[first]].tolist()
        raise BlockStructureError(
            f"connected component of size {len(members)}: {members}"
        )
    # nodes ascend within a component, so low < high in every pair
    paired = starts[sizes == 2]
    low, high = nodes[paired], nodes[paired + 1]
    half = 1 << pt.field.slots
    straddles = (low < half) & (high >= half)
    if not straddles.all():
        bad = np.argmin(straddles)
        raise BlockStructureError(
            f"block {(int(low[bad]), int(high[bad]))} "
            "does not pair the two Alice levels"
        )
    levels = np.bitwise_count(high - half).astype(np.intp)
    if scenario.kind is ScenarioKind.BELL_DIRAC:
        levels -= 1
    m, count = np.unique(levels, return_counts=True)
    return dict(zip(m.tolist(), count.tolist()))


def negativity_closed_form(r: SqueezeParam) -> float:
    """The mode-count-independent value every scenario must reproduce."""
    return 0.5 * r.cos * r.cos
