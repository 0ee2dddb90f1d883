"""Exact enumeration of lozenge tilings of cored hexagons.

A cored hexagon has side lengths a, b+m, c, a+m, b, c+m with a triangle of
side m removed from its center.  The package carries three independent
routes to every count — a transfer matrix over the perfect matchings of
the region's unit triangles, exact lattice-path determinants, and
hyperfactorial product formulas — and verification suites that check them
against each other.
"""

from .exactnum import (
    CycloElement,
    binomial,
    omega3,
    omega6,
)
from .hypergeom import (
    IDENTITY_IDS,
    identity_pair,
    qbinom_neg1,
)
from .lgv import (
    ExactMatrix,
    build_B,
    build_VW,
    build_Zn,
    build_cored_matrix,
    build_n6_matrix,
    build_omega_shift,
    cored_det_transform,
    det_fraction_free,
    laplace_two_block,
    th10_pair,
    zn_factor_pair,
)
from .formulas import (
    asymptotic_k,
    conjecture_rhs,
    count_cored_factorization,
    count_cored_formula,
    lemma_rhs,
    macmahon_box,
    rhs_case10,
    rhs_omega_det,
    watson_pair,
)
from .tilings import (
    CellCapError,
    CoredHexagon,
    Region,
    Tiling,
    count_weighted,
    enumerate_cyclic_tilings,
    enumerate_tilings,
    is_cyclically_symmetric,
    normalize_sides,
    statistic_n,
    statistic_n6,
    tiling_to_paths,
    tiling_to_plane_partition,
)
from .verify import VerificationReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
