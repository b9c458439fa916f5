"""Partial transpose and negativity, by brute force and by block algebra.

The brute-force path transposes the Alice indices (index arithmetic on the
COO arrays of a :class:`~rindler_ferm.density.DensityMatrix`; a coalesced
matrix's transpose is a bijection of its entries, so it is not sorted
again), labels the connected components of the sparsity pattern by array
min-label propagation, orders the nodes once, by component size and then
label, fills every component's matrix into one buffer with one assignment,
diagonalizes every component on its own (whatever its size) and sums the
negative eigenvalues. It never assumes the 2x2 structure, so it stays an
independent check. It takes a whole r-grid as one
matrix, the direct sum of the grid points' density matrices: no component
crosses two points, so every eigenvalue belongs to the point that owns its
component, and :func:`negativity_bruteforce` (like
:func:`lowest_eigenvalues`) returns one value per point, split by
:meth:`~rindler_ferm.density.DensityMatrix.by_point`. The block path never
materializes a matrix: the partial transpose splits into non-negative 1x1
scalars plus 2x2 blocks repeated with binomial multiplicities, so the
negativity is a short series of per-block negative eigenvalues, refused
(CapacityError) once a multiplicity would leave float range. Each level's
negative eigenvalue is half a weight of the analytic density, d(0|2, m) / 2
(:func:`~rindler_ferm.density.d_ladder`). :func:`negativity_blocks` takes
several fields of one scenario and a whole r-grid: it builds each field's
binomial row (:func:`block_row`, which also gives ``blocks`` and the census
check their multiplicities) once, computes the powers (tan r)^2m once per
row block of points for every field, and returns one row of floats per
field.
Both paths are kept because their agreement is the whole point of the
verification suite. :func:`block_census` ties them together structurally:
it reads a brute-force density matrix through the same transpose and the
same component labels the eigensolve uses, and counts the 2x2 components
per level. No partial transpose is ever built as a matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .combinatorics import block_multiplicities
from .density import (
    DensityMatrix,
    Scenario,
    check_scenario_field,
    d_ladder,
    tan_sq_powers,
)
from .errors import BlockStructureError, CapacityError
from .fock import runs
from .modes import FieldKind
from .rindler import SqueezeGrid

#: The component eigensolve is refused when its stacked component matrices
#: would hold more entries than this, the sum of k**2 over the component
#: sizes k (1 GiB of complex128 at the limit). A spinless n=11 partial
#: transpose, the largest point the brute-force guard admits, holds 6,144.
EIGENSOLVE_BUDGET = 1 << 26

#: The block series is refused above this binomial-row top: every
#: multiplicity C(top, m) is converted to a float, and 1029 is the largest
#: top whose middle entry C(top, top // 2) fits (spinless n=1030, Dirac n=515).
MAX_BLOCK_TOP = 1029

#: Entries (points x levels) per row block of :func:`negativity_blocks`: a
#: block holds a few tables of this size whatever the grid, so a
#: million-point grid at the deepest top runs in bounded memory.
SERIES_BLOCK = 1 << 12


def _alice_transposed(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of ``rho``'s entries with the Alice level (the
    index bit above the occupation bits) swapped between row and column,
    PT[(a,o),(a',o')] = rho[(a',o),(a,o')]: a bijection of index pairs, so
    the entries stay distinct, in ``rho``'s order (no longer row-major)."""
    swap = (rho.rows ^ rho.cols) & (1 << rho.field.slots)
    return rho.rows ^ swap, rho.cols ^ swap


def _component_members(
    side: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Nodes grouped by connected component of the sparsity pattern of a
    side-``side`` matrix's distinct entries, in any order.

    Only indices touched by a non-zero stored entry are nodes; a stored 0.0
    neither adds a node nor links two. Returns the nodes, ordered by their
    component's size and then its least node, ascending within it (so a
    component of size k is k consecutive nodes); each node's component
    size; and the linked entries' (rows, cols, values).

    Each node's label starts as its own index and takes the least label
    among its neighbours (then its label's label) until nothing changes.
    Labels only fall and stay inside the component, and at the fixed point
    they agree across every link, so each component ends up labelled by
    its least index whatever its shape.
    """
    linked = values != 0.0
    off = linked & (rows != cols)
    row_ends, col_ends = rows[off], cols[off]
    ends = np.concatenate((row_ends, col_ends))
    other_ends = np.concatenate((col_ends, row_ends))
    label = np.arange(side)
    while True:
        lower = label.copy()
        np.minimum.at(lower, ends, label[other_ends])
        lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    rows, cols = rows[linked], cols[linked]
    touched = np.zeros(side, dtype=bool)
    touched[rows] = True
    touched[cols] = True
    nodes = np.flatnonzero(touched)
    label = label[nodes]
    sizes = np.bincount(label)[label]
    # nodes ascend, so a stable sort keeps them ascending within a label
    order = np.argsort(sizes * side + label, kind="stable")
    return nodes[order], sizes[order], (rows, cols, values[linked])


def _component_spectra(
    side: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every connected component (:func:`_component_members`),
    unsorted, one per node, each beside a node of its component, which
    gives its grid point.

    One buffer holds the components' matrices back to back in node order:
    a node's row starts at the sum of the component sizes of the nodes
    before it, and its column is its place in its component. One
    assignment fills it, and each size is one batched ``eigvalsh`` on its
    view, so the eigenvalues come out beside the nodes. A lone node's
    eigenvalue is its diagonal's real part (what ``eigvalsh`` returns for
    it). Raises CapacityError beyond :data:`EIGENSOLVE_BUDGET`, before the
    buffer is built.
    """
    nodes, sizes, (rows, cols, values) = _component_members(side, rows, cols, values)
    held = int(sizes.sum())
    if held > EIGENSOLVE_BUDGET:
        raise CapacityError(
            f"components of the side-{side} matrix hold {held} entries "
            f"(> {EIGENSOLVE_BUDGET}); use negativity_blocks"
        )
    # the components of one size follow each other from that size's first node
    place = np.arange(len(nodes)) - np.searchsorted(sizes, sizes)
    row_at, col_at = np.empty((2, side), dtype=np.intp)
    row_at[nodes] = np.cumsum(sizes) - sizes
    col_at[nodes] = place % sizes
    buffer = np.zeros(held, dtype=complex)
    buffer[row_at[rows] + col_at[cols]] = values
    eigenvalues, end = [np.zeros(0)], 0
    firsts, counts = runs(sizes)
    for k, count in zip(sizes[firsts].tolist(), counts.tolist()):
        begin, end = end, end + count * k
        stack = buffer[begin:end].reshape(-1, k, k)
        eigenvalues.append((stack.real if k == 1 else np.linalg.eigvalsh(stack)).ravel())
    return np.concatenate(eigenvalues), nodes


def lowest_eigenvalues(matrix: DensityMatrix) -> list[float]:
    """The least eigenvalue of every grid point's matrix, read off the
    stack's components (:func:`_component_spectra`). Every index of a point
    that no component touches is an eigenvalue 0.0, so a point with such an
    index has least eigenvalue 0.0 unless a component's is negative. Raises
    CapacityError beyond :data:`EIGENSOLVE_BUDGET`."""
    point_side = 2 << matrix.field.slots
    lowest = []
    spectra = _component_spectra(matrix.side, matrix.rows, matrix.cols, matrix.values)
    for part in matrix.by_point(*spectra):
        # argmin takes the first of equal minima, and a NaN over any number
        low = float(part[part.argmin()]) if len(part) else 0.0
        lowest.append(low if len(part) == point_side or low < 0.0 else 0.0)
    return lowest


def negativity_bruteforce(rho: DensityMatrix) -> list[float]:
    """Sum of |negative eigenvalues| of the partial transpose, one value per
    grid point of ``rho``, diagonalized one connected component at a time
    (:func:`_component_spectra`), with no assumption on component sizes.

    Each point sums every one of its negative eigenvalues, however small (at
    small r the top levels hold many tiny ones with large multiplicities),
    in ascending order, so a point of a stack gets the same double as the
    point on its own. Only the negative eigenvalues are sorted. Raises
    CapacityError beyond the eigensolve budget; callers should then switch
    to :func:`negativity_blocks`."""
    eigenvalues, owners = _component_spectra(rho.side, *_alice_transposed(rho), rho.values)
    negative = eigenvalues < 0.0
    parts = rho.by_point(eigenvalues[negative], owners[negative])
    return [float(-np.sort(part).sum()) for part in parts]


def block_row(scenario: Scenario, field: FieldKind) -> list[int]:
    """The block multiplicities C(top, m), m = 0..top, of ``scenario`` on
    ``field``, as one exact binomial row
    (:func:`~rindler_ferm.combinatorics.block_multiplicities`). A block's
    background T avoids the Rob modes excited on both branches, so ``top``
    is the field's slots minus those modes. Raises CapacityError when the row's top
    exceeds :data:`MAX_BLOCK_TOP`, before the row is built."""
    check_scenario_field(scenario, field)
    top = field.slots - sum(len(modes) for modes in scenario.branches)
    if top > MAX_BLOCK_TOP:
        raise CapacityError(
            f"block series at n={field.mode_count} ({field.family.value}) needs "
            f"multiplicities C({top}, m) beyond float range (top > {MAX_BLOCK_TOP})"
        )
    return block_multiplicities(top)


def negativity_blocks(
    scenario: Scenario, fields: Sequence[FieldKind], rs: SqueezeGrid
) -> list[list[float]]:
    """Negativity of ``scenario`` on every field of ``fields`` at every
    squeezing of ``rs``: one row per field, in grid order, each value the
    multiplicity-weighted sum of per-block negative eigenvalues,
    sum_m C(top, m) |λ_m|.

    When branch 0 excites a mode (a Bell state) the blocks are [[0, d2(m)],
    [d2(m), 0]] / 2, so |λ_m| = d2(m) / 2. When branch 0 is Rob's vacuum
    the blocks are [[d0(m+1), d1(m)], [d1(m), 0]] / 2 with d0(m+1) = d0(m)
    tan²r and d1(m) = d0(m) / cos r, so sqrt(d0(m+1)² + 4 d1(m)²) = d0(m)
    (tan²r + 2) and |λ_m| = d0(m) / 2.

    Every field's scenario, capacity and binomial row are checked and built
    before any point (an empty grid beyond :data:`MAX_BLOCK_TOP` is refused
    too). The points then run in row blocks of about :data:`SERIES_BLOCK`
    entries, and the powers (tan(r)^2)^m of a block are computed once, up
    to the largest top, for every field of the call. The terms of a
    point are added one by one in level order (a cumulative sum along the
    levels), so each value is the same double as a sequential ``total +=
    mult * lam`` over the levels of that point.
    """
    # float(mult) * lam is the double int * float gives
    mults = [np.array([float(mult) for mult in block_row(scenario, f)]) for f in fields]
    if not mults:
        return []
    ladder = 2 if scenario.branches[0] else 0
    width = max(len(field_mults) for field_mults in mults)
    step = max(1, SERIES_BLOCK // width)
    values: list[list[float]] = [[] for _ in fields]
    for start in range(0, len(rs), step):
        block = rs[start : start + step]
        powers = tan_sq_powers(block, width)
        for field, field_mults, out in zip(fields, mults, values):
            lams = 0.5 * d_ladder(field, block, powers[:, : len(field_mults)], ladder)
            # cumsum adds left to right (sum() is compensated from 3.12 on)
            out += np.cumsum(lams * field_mults, axis=1)[:, -1].tolist()
    return values


def block_census(
    scenario: Scenario, field: FieldKind, rho: DensityMatrix
) -> dict[int, int]:
    """Count the 2x2 components of the sparsity pattern of ``rho``'s partial
    transpose per excitation level m, labelled on :func:`_alice_transposed`
    as :func:`negativity_bruteforce` labels them (see
    :func:`_component_members` for what counts as a node or a link).

    Every component must be a 1x1 scalar or a pair, two consecutive nodes
    of size 2, that links the two Alice levels; anything else signals a
    sign or assembly bug and raises BlockStructureError, which names the
    smallest oversized component. A pair's member at Alice level 1
    determines m: its occupation popcount minus the modes excited on
    Alice's level-0 branch (:attr:`~rindler_ferm.density.Scenario.branches`).
    A stack of several grid points is refused (ValueError): its pairs would
    mix the points' levels.
    """
    check_scenario_field(scenario, field)
    if rho.points != 1:
        raise ValueError(f"block census of a {rho.points}-point stack; pass one point")
    nodes, sizes, _ = _component_members(rho.side, *_alice_transposed(rho), rho.values)
    # the components come smallest first: name the smallest oversized one
    first = np.searchsorted(sizes, 3)
    if first < len(sizes):
        members = nodes[first : first + sizes[first]].tolist()
        raise BlockStructureError(
            f"connected component of size {len(members)}: {members}"
        )
    # each pair is two consecutive nodes, ascending, so low < high
    low, high = nodes[sizes == 2].reshape(-1, 2).T
    half = 1 << rho.field.slots
    straddles = (low < half) & (high >= half)
    if not straddles.all():
        bad = np.argmin(straddles)
        raise BlockStructureError(
            f"block {(int(low[bad]), int(high[bad]))} "
            "does not pair the two Alice levels"
        )
    # high - half is T | E_0, the background with branch 0's excited modes
    levels = np.bitwise_count(high - half).astype(np.intp) - len(scenario.branches[0])
    m, count = np.unique(levels, return_counts=True)
    return dict(zip(m.tolist(), count.tolist()))


def negativity_closed_form(rs: SqueezeGrid) -> np.ndarray:
    """The mode-count-independent value every scenario must reproduce, per point."""
    return 0.5 * rs.cos * rs.cos
