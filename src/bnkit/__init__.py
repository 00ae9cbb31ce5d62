"""bnkit: exact combinatorial invariants of Brill-Noether theory.

A pure-integer library (no floats anywhere) covering the closed-form
rho-calculus, Young tableaux and k-core fillings, splitting types of
pushforward bundles under covers of the line, the lattice of
Brill-Noether loci in moduli, limit line bundles on chains of elliptic
curves with an exact h0 engine, existence certificates from
restricted-tangent-bundle ledgers, and the elementary-modification
ledger for normal bundles of rational space curves.
"""

from .invariants import (
    INTERPOLATION_EXCEPTIONS,
    chi_pullback_tangent,
    count_grd,
    hilbert_function,
    interpolation_points,
    rho,
    rho_k,
    smrc_expected_dim,
)
from .tableaux import (
    core_apply_residue,
    count_k_fillings,
    is_core,
    k_filling_witnesses,
    syt_count,
    syt_count_rect,
)
from .splitting import (
    balanced_type,
    hbn_predicates,
    majorizes,
    maximal_splitting_types,
    rd_from_splitting,
    rho_splitting,
)
from .loci import (
    MAXIMAL_EXCEPTIONS,
    enumerate_expected_maximal,
    expected_maximal,
    serre_dual,
    trivial_containments,
)
from .chain import (
    LimitLineBundle,
    chip_fire,
    h0_chain,
    is_r_positive,
    min_h0,
    prefix_fire,
    restrict,
    search_limit_bundles,
    search_witnesses,
    star_components,
    vanishing_tables,
)
from .lattice import h1_certificate, min_degree, reachable_set
from .normal_bundle import (
    SplitBundle,
    hh_restriction,
    modify,
    odd_degree_certificate,
    pointing_degree,
    projection_ledger,
)

__version__ = "0.1.0"
