"""Exact Fourier coefficients for the degree 2 Eisenstein basis at squarefree
level, applied to representation numbers of even lattices and checked against
brute-force theta enumeration."""

from .classnumbers import cohen_h_level, local_correction
from .eisenstein import (
    EisensteinSpec,
    HalfIntegralMatrix,
    LevelPartition,
    LocalOrders,
    definite_local_factor,
    fourier_coefficient,
    hecke_tp,
    hecke_u1p2,
    hecke_up,
    partitions_of_level,
    raise_level,
    reduced_representatives,
    singular_local_factor,
)
from .exactmath import (
    Factorization,
    FundamentalDecomposition,
    bernoulli,
    clear_caches,
    decompose_discriminant,
    divisors,
    factorize,
    generalized_bernoulli,
    is_squarefree,
    kronecker_symbol,
    l_negative,
    moebius,
    valuation,
    zeta_negative,
)
from .lattice import (
    BUILTIN_NAMES,
    GramMatrix,
    LatticeProfile,
    builtin_lattice,
    format_gram,
    genus_coefficients,
    genus_rep_number,
    hasse_invariant,
    hilbert_symbol,
    load_gram,
    parse_gram,
    profile,
)
from .theta import VectorGuardError, VectorShell, rep_deg1, rep_deg2, shells

__version__ = "0.1.0"
