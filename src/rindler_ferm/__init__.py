"""Exact fermionic Fock-space toolkit for Unruh entanglement degradation.

Builds multimode inertial vacuum and one-particle states in Rindler
coordinates, assembles the Alice-Rob density matrices for three maximally
entangled scenarios, and computes entanglement negativity both by
diagonalizing the partial transpose one connected component at a time and
by an analytic 2x2 block decomposition.
"""

from .combinatorics import (
    CountReport,
    block_multiplicity,
    chi,
    count_admissible,
    upsilon,
)
from .density import (
    DCoefficients,
    DensityMatrix,
    Scenario,
    ScenarioKind,
    analytic_density,
    bell_dirac,
    build_joint_state,
    max_entry_difference,
    trace_out_region_iv,
    vac_one_dirac,
    vac_one_spinless,
    write_rho_csv,
)
from .entanglement import (
    BlockForm,
    BlockSpectrum,
    block_census,
    block_spectrum,
    extract_blocks,
    negativity_blocks,
    negativity_bruteforce,
    negativity_closed_form,
    partial_transpose_alice,
)
from .errors import BlockStructureError, CapacityError
from .fock import (
    LadderOp,
    Sector,
    StateVector,
    apply_ladder,
    inner_product,
    norm,
    pack_occupation,
    unpack_occupation,
)
from .modes import (
    FieldFamily,
    FieldKind,
    ModeLabel,
    Spin,
    canonical_order,
    dirac,
    spinless,
    xi_admissible,
)
from .rindler import (
    SqueezeParam,
    VacuumCoefficients,
    build_one_particle,
    build_vacuum,
    from_acceleration,
    minkowski_annihilation,
    minkowski_creation,
)

__version__ = "0.1.0"

__all__ = [
    "BlockForm",
    "BlockSpectrum",
    "BlockStructureError",
    "CapacityError",
    "CountReport",
    "DCoefficients",
    "DensityMatrix",
    "FieldFamily",
    "FieldKind",
    "LadderOp",
    "ModeLabel",
    "Scenario",
    "ScenarioKind",
    "Sector",
    "Spin",
    "SqueezeParam",
    "StateVector",
    "VacuumCoefficients",
    "analytic_density",
    "apply_ladder",
    "bell_dirac",
    "block_census",
    "block_multiplicity",
    "block_spectrum",
    "build_joint_state",
    "build_one_particle",
    "build_vacuum",
    "canonical_order",
    "chi",
    "count_admissible",
    "dirac",
    "extract_blocks",
    "from_acceleration",
    "inner_product",
    "max_entry_difference",
    "minkowski_annihilation",
    "minkowski_creation",
    "negativity_blocks",
    "negativity_bruteforce",
    "negativity_closed_form",
    "norm",
    "pack_occupation",
    "partial_transpose_alice",
    "spinless",
    "trace_out_region_iv",
    "unpack_occupation",
    "upsilon",
    "vac_one_dirac",
    "vac_one_spinless",
    "write_rho_csv",
    "xi_admissible",
]
