"""References the tests check the program against: the ladder operator and
the sum of scaled states, one operator at a time, behind the batched
inertial annihilator, with the overlap of two term sets and byte equality
of arrays, the dense views of a DensityMatrix behind the sparse
eigensolve, the paper's closed-form tops of the block multiplicity rows,
the block series' exact value in rationals, the component glue of the
sparse eigensolve as it was before the partial transpose went unsorted,
the analytic entry layout as it was packed and sorted before it was
generated in row order, the health figures and the block census as they
were when each built a second matrix (the adjoint, the entry difference,
the partial transpose), and the enumeration of admissible configurations
by their slots; and the scenario tables the tests run on, every kind on
every field given."""

import itertools
from fractions import Fraction
from itertools import combinations

import numpy as np

from rindler_ferm.density import (
    DUMP_SLICE,
    DensityMatrix,
    EntryLayout,
    Scenario,
    _decimal_digits,
    bell,
    check_density_capacity,
    check_scenario_field,
    vac_one,
)
from rindler_ferm.entanglement import _component_members, _component_spectra
from rindler_ferm.errors import BlockStructureError
from rindler_ferm.fock import coalesce, prune, runs
from rindler_ferm.modes import dirac, spinless


#: The scenario kinds, by their ``--scenario`` name.
KINDS = {"vacuum-one": vac_one, "bell": bell}


def every_kind_on(*groups):
    """(scenario, field) pairs: every kind of :data:`KINDS` on every field of
    each group in ``groups`` that has room for it (a Bell state needs two
    modes), group by group, then kind by kind, then field by field."""
    return [
        (kind(field), field)
        for fields in groups
        for kind in KINDS.values()
        for field in fields
        if kind is vac_one or field.slots > 1
    ]


def every_kind_on_top(field):
    """Both kinds moved to the top of ``field``: vacuum/one-particle on its
    last slot, and Bell from its last slot (branch 0) to slot 0 (branch 1),
    the level-0 mode above the level-1 mode."""
    last = field.slots - 1
    return [(Scenario(((), (last,))), field), (Scenario(((last,), (0,))), field)]


#: The small fields of the scenario-parametrised density and negativity
#: tests: every kind on Dirac n = 1, 2 and on spinless n = 1, 3, 5, 6, a
#: field of every slot count up to 6 (Dirac n is spinless 2n, so Dirac n=3
#: would repeat spinless n=6).
ALL_CONFIGS = every_kind_on(
    [dirac(n) for n in (1, 2)], [spinless(n) for n in (1, 3, 5, 6)]
)


def ladder(field, slot, dagger, terms):
    """The creator (``dagger``) or annihilator of one global slot applied to
    ``terms``. Global slots follow the sign rule's ordering: region I's
    ``field.slots`` slots first, then region IV's. A term whose slot already
    holds what the operator would leave drops out; every other term flips
    the slot and takes the sign (-1) ** (occupied global slots below it).
    Terms stay in their input order."""
    i_bits, iv_bits, amps = terms
    joined = i_bits | iv_bits << field.slots
    bit = 1 << slot
    keep = (joined & bit == 0) == dagger
    joined, amps = joined[keep], amps[keep]
    signs = np.where(np.bitwise_count(joined & (bit - 1)) & 1, -1.0, 1.0)
    joined = joined ^ bit
    return joined & ((1 << field.slots) - 1), joined >> field.slots, signs * amps


def superpose(field, *scaled):
    """Sum of ``coefficient * terms`` over the pairs given, in ascending
    basis order. Each scaled operand is pruned and the operands are
    coalesced (a repeated basis state sums in operand order); the sum is
    not pruned, so a near-cancellation stays visible in its norm."""
    parts = [prune(i_bits, iv_bits, c * amps) for c, (i_bits, iv_bits, amps) in scaled]
    i_bits, iv_bits, amps = (np.concatenate(column) for column in zip(*parts))
    keys, amps = coalesce(i_bits << field.slots | iv_bits, amps)
    return keys >> field.slots, keys & ((1 << field.slots) - 1), amps


def amps_of(terms):
    """``{(i_bits, iv_bits): amp}`` of ``terms``."""
    i_bits, iv_bits, amps = terms
    return dict(zip(zip(i_bits.tolist(), iv_bits.tolist()), amps.tolist()))


def overlap(a, b):
    """<a|b>, conjugate-linear in ``a``."""
    b_amps = amps_of(b)
    return sum(
        amp.conjugate() * b_amps[key] for key, amp in amps_of(a).items() if key in b_amps
    )


def same_bytes(a, b):
    """Equal arrays, signed zeros and all."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def density_matrix(field, entries, points=1):
    """The DensityMatrix of a ``{(row, col): value}`` mapping."""
    keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    return DensityMatrix(field, keys[:, 0], keys[:, 1], list(entries.values()), points)


def to_dense(matrix):
    """Dense side x side copy of a DensityMatrix."""
    dense = np.zeros((matrix.side, matrix.side), dtype=complex)
    dense[matrix.rows, matrix.cols] = matrix.values
    return dense


def purity(matrix):
    """Tr(rho^2) of a Hermitian rho: its squared Frobenius norm."""
    return float(np.sum(matrix.values.real**2 + matrix.values.imag**2))


def hermitian_spectrum(matrix):
    """Ascending eigenvalues of a sparse Hermitian matrix, one per index: its
    components' eigenvalues plus a 0.0 for every index no component
    touches. Equal to ``eigvalsh`` of :func:`to_dense` up to rounding."""
    eigenvalues, _ = _component_spectra(matrix.side, matrix.rows, matrix.cols, matrix.values)
    untouched = np.zeros(matrix.side - len(eigenvalues))
    return np.sort(np.concatenate((untouched, eigenvalues)), kind="stable")


#: The top of each scenario's binomial row of block multiplicities at n
#: momenta, keyed by the scenario's output name: the paper's closed forms
#: 2n-1 for vacuum/one-particle Dirac (the excited mode reserves one of the
#: 2n states), 2n-2 for Bell Dirac (two reserved states) and n-1 for
#: vacuum/one-particle spinless, and n-2 for the spinless Bell state.
BLOCK_TOPS = {
    "vac-one-dirac": lambda n: 2 * n - 1,
    "bell-dirac": lambda n: 2 * n - 2,
    "vac-one-spinless": lambda n: n - 1,
    "bell-spinless": lambda n: n - 2,
}


def block_top(name, n):
    """The closed-form top of the scenario named ``name`` at n momenta."""
    return BLOCK_TOPS[name](n)


def exact_block_series(name, field, cos, tan):
    """The exact value, as a Fraction, of the block series of the scenario
    named ``name`` on ``field``, on the series' own doubles ``cos`` and
    ``tan`` (cos r and tan r). By the binomial theorem, sum_m C(top, m)
    * ½ cos^(2 slots) tan^(2m) / cos^i is ½ cos^(2 slots) (1 + tan²)^top
    / cos^i, i = 2 for a Bell state and 0 otherwise. It is grouped as
    (cos² (1 + tan²))^top cos^(2 (slots - top)), so the one big power has a
    small base and no gcd of two big integers is taken."""
    top = block_top(name, field.mode_count)
    c, t = Fraction(cos), Fraction(tan)
    exact = (c * c * (1 + t * t)) ** top * c ** (2 * (field.slots - top)) / 2
    return exact / (c * c) if name.startswith("bell-") else exact


def alice_transposed(rho):
    """The rows and columns of ``rho``'s entries in its partial transpose on
    Alice, PT[(a,o),(a',o')] = rho[(a',o),(a,o')], by masks on the Alice
    bit above the occupation bits; in ``rho``'s entry order."""
    alice = 1 << rho.field.slots
    return (rho.rows & ~alice) | (rho.cols & alice), (rho.cols & ~alice) | (rho.rows & alice)


def partial_transpose_alice(rho):
    """The partial transpose on Alice as a coalesced DensityMatrix."""
    return DensityMatrix(rho.field, *alice_transposed(rho), rho.values, rho.points)


def max_entry_difference(a, b):
    """The largest entrywise |a - b| of every grid point of two stacks of
    the same shape, read off their difference as a coalesced matrix."""
    difference = DensityMatrix(
        a.field,
        np.concatenate((a.rows, b.rows)),
        np.concatenate((a.cols, b.cols)),
        np.concatenate((a.values, -b.values)),
        a.points,
    )
    parts = difference.by_point(np.abs(difference.values), difference.rows)
    return [float(part.max(initial=0.0)) for part in parts]


def hermiticity_defect(rho):
    """The largest |rho[i, j] - conj(rho[j, i])| of every grid point: the
    entry difference with the adjoint, built as a matrix."""
    adjoint = DensityMatrix(rho.field, rho.cols, rho.rows, rho.values.conj(), rho.points)
    return max_entry_difference(rho, adjoint)


def block_census(scenario, field, pt):
    """Count the 2x2 components of ``pt``'s sparsity pattern per excitation
    level m, ``pt`` being a partial transpose already built as a matrix
    (:func:`partial_transpose_alice`); refuses a stack (ValueError), an
    oversized component or a pair within one Alice level
    (BlockStructureError) as the program does."""
    check_scenario_field(scenario, field)
    if pt.points != 1:
        raise ValueError(f"block census of a {pt.points}-point stack; pass one point")
    nodes, sizes, _ = _component_members(pt.side, pt.rows, pt.cols, pt.values)
    # the components come smallest first: name the smallest oversized one
    first = np.searchsorted(sizes, 3)
    if first < len(sizes):
        members = nodes[first : first + sizes[first]].tolist()
        raise BlockStructureError(
            f"connected component of size {len(members)}: {members}"
        )
    # each pair is two consecutive nodes, ascending, so low < high
    low, high = nodes[sizes == 2].reshape(-1, 2).T
    half = 1 << pt.field.slots
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


def count_admissible(field, m):
    """Enumeration oracle: count m-element subsets of the sector slots."""
    return sum(1 for _ in combinations(range(field.slots), m))


def component_groups(matrix):
    """Nodes grouped by connected component of a coalesced matrix's
    sparsity pattern (non-zero entries only): the nodes, component after
    component and ascending within each, each component's start and size
    in that array, and the linked entries' (rows, cols, values), rows
    ascending. Components are labelled by min-label propagation, and come
    in label order."""
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
    nodes = nodes[np.argsort(label[nodes] * matrix.side + nodes, kind="stable")]
    return (nodes, *runs(label[nodes]), (rows, cols, matrix.values[linked]))


def component_members(matrix):
    """:func:`component_groups` in the shape the program's glue returns:
    the nodes ordered by component size, then by component label, each
    node's component size, and the linked entries."""
    nodes, starts, sizes, linked = component_groups(matrix)
    size = np.repeat(sizes, sizes)
    order = np.argsort(size, kind="stable")
    return nodes[order], size[order], linked


def component_spectra(matrix):
    """Eigenvalues of every connected component of a coalesced matrix, one
    per node, and for each a node of its component: the lone nodes'
    diagonals (real part) first, in node order, then one batched
    ``eigvalsh`` per component size, ascending, each stack in component
    order with rows ascending."""
    nodes, starts, sizes, (rows, cols, values) = component_groups(matrix)
    place = np.empty(matrix.side, dtype=np.intp)
    place[nodes] = np.arange(len(nodes))
    start = np.repeat(starts, sizes)[place[rows]]
    size = np.repeat(sizes, sizes)[place[rows]]
    lone = size == 1
    eigenvalues, owners = [values[lone].real], [rows[lone]]
    for k in sorted(set(sizes.tolist()) - {1}):
        of_size = starts[sizes == k]
        mine = size == k
        first = start[mine]
        row_in, col_in = place[rows[mine]] - first, place[cols[mine]] - first
        stack = np.zeros((len(of_size), k, k), dtype=complex)
        stack[np.searchsorted(of_size, first), row_in, col_in] = values[mine]
        eigenvalues.append(np.linalg.eigvalsh(stack).ravel())
        owners.append(np.repeat(nodes[of_size], k))
    return np.concatenate(eigenvalues), np.concatenate(owners)


def packed_analytic_layout(scenario, field):
    """:func:`~rindler_ferm.density.analytic_layout` as it was before it
    generated its entries in row order: every entry packed into one int64
    and the four runs sorted into basis order.

    The :class:`EntryLayout` of ``scenario`` on ``field``: the positions,
    ladders, levels and signs of the D_i^m coefficient pattern, and the
    positions' dump text. They depend on the field only, not on r.

    Tracing region IV out of the two :attr:`Scenario.branches` leaves one
    entry per Alice block pair (a, b) and region-IV background T that avoids
    both branches' excited slots E_a and E_b: row ``a * 2**slots + (T |
    E_a)``, column ``b * 2**slots + (T | E_b)``, ladder |E_a| + |E_b|, level
    popcount T, and the product of the two branches' insertion signs as its
    sign. Raises CapacityError beyond :data:`MAX_DENSITY_SLOTS`."""
    check_scenario_field(scenario, field)
    check_density_capacity(field)
    half = 1 << field.slots
    levels = field.slots + 1
    excited = scenario.branches
    masks = [sum(1 << slot for slot in slots) for slots in excited]
    # the slots below each branch's excited slot (a branch excites at most
    # one): T's count in them has the parity of the branch's insertion sign,
    # so a slot excited on both branches cancels out of an entry's sign
    below = [mask - 1 if mask else 0 for mask in masks]
    # each entry packed as (row, col, key) in 2 (slots + 1) + 8 <= 46 bits,
    # the key (below 6 * levels) in the low byte: one ascending run per pair
    parts = []
    for a, b in itertools.product((0, 1), repeat=2):
        # the backgrounds, ascending: the numbers below 2**(slots - k) with a
        # 0 put in at each of the k reserved (excited) slots, lowest first
        reserved = sorted(set(excited[a] + excited[b]))
        background = np.arange(half >> len(reserved), dtype=np.int64)
        for s in reserved:
            background = background >> s << (s + 1) | background & ((1 << s) - 1)
        signed = below[a] ^ below[b]
        odd = np.bitwise_count(background & signed) & 1 if signed else 0
        ladder = len(excited[a]) + len(excited[b])
        key = np.bitwise_count(background) + (ladder + 3 * odd) * levels
        # T avoids the Alice bit and both masks, so | adds them to it
        entry = background | (a * half + masks[a])
        entry <<= field.slots + 1
        entry |= background | (b * half + masks[b])
        entry <<= 8
        entry |= key
        parts.append(entry)
    entries = np.concatenate(parts)
    del parts  # freed before the sort, whose buffer is half the entries
    # positions are distinct, so any sort gives basis order; the stable one
    # merges the four runs, and costs less than the default on small layouts
    entries.sort(kind="stable")
    # each field cast to a narrow unsigned dtype, which keeps the low bits:
    # the key's byte, then the column's, then the row
    key = entries.astype(np.uint8)
    entries >>= 8
    dtype = np.min_scalar_type(2 * half - 1)
    cols = entries.astype(dtype)
    cols &= 2 * half - 1
    entries >>= field.slots + 1
    rows = entries.astype(dtype)
    del entries  # freed before the text is made
    # the "row,col," texts, a slice of digits at a time
    width = len(str(2 * half - 1))
    text = np.full((len(rows), 2 * width + 2), ord(","), dtype=np.uint8)
    for start in range(0, len(rows), DUMP_SLICE):
        part = slice(start, start + DUMP_SLICE)
        size = len(rows[part])
        digits = _decimal_digits(np.concatenate((rows[part], cols[part])), width)
        text[part, :width], text[part, width + 1 : -1] = digits[:size], digits[size:]
    return EntryLayout(rows, cols, key, text)
