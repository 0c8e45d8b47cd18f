"""Exact-arithmetic mirror symmetry for invertible quasi-homogeneous
polynomials carrying a distinguished cyclic automorphism.

The package computes graded, group-labelled state spaces of invertible
polynomials, verifies transpose-duality and the cyclic mirror identities
as exact bigraded-dimension statements, and reproduces the closed-form
sector tables of Calabi-Yau and K3 setups, including fixed-locus and
lattice invariants.
"""

from .errors import BHMirrorError, InputError, InternalError
from .poly import (
    InvertiblePolynomial,
    RestrictedPolynomial,
    classify_atoms,
    direct_sum,
    format_polynomial,
    is_calabi_yau,
    is_fermat_diagonal,
    parse_polynomial,
    restrict,
    solve_weights,
    split_cyclic,
    transpose,
)
from .symmetry import (
    AdmissibleSetup,
    SymmetryGroup,
    admissible_setup,
    aut_group,
    dual_group,
    enumerate_group,
    j_element,
    s_element,
    sl_subgroup,
)
from .milnor import (
    GroupRingSeries,
    equivariant_hilbert,
    fermat_monomial_basis,
)
from .statespace import (
    StateLabel,
    StateTable,
    build_state_space,
    elevator_fixed,
    elevator_moving,
    fjrw_state_space,
    twist,
    unprojected_state_space,
)
from .mirror import (
    FermatState,
    MirrorPair,
    build_mirror_pair,
    fermat_mirror_map,
    fermat_states,
    verify_krawitz,
    verify_lg_mirror,
    verify_order2_exchange,
    verify_pair_duality,
)
from .geometry import (
    K3Invariants,
    K3Report,
    SectorGrid,
    fit_k3_pattern,
    k3_invariants,
    k3_read_off,
    lattice_invariants,
    lattice_mirror_verdict,
    sector_grid,
)

__version__ = "0.1.0"
