"""Exact Gaussian binomial arithmetic and q-Kneser graph spectra.

Everything symbolic is an exact Laurent polynomial in q with big-integer
coefficients; everything numeric is an exact integer or rational.  The
spectrum formulas are certified against brute-force graph construction
over actual finite vector spaces.
"""

from .gf import FieldCtx, factor_prime_power, field_of_order, is_prime, make_field
from .identities import (
    IDENTITY_IDS,
    GridBounds,
    IdentityReport,
    check,
    run_grid,
)
from .intmatrix import IntMatrix
from .laurent import ONE, Q, ZERO, InvariantError, LaurentPoly
from .oracle import (
    DEFAULT_VERTEX_BUDGET,
    Automorphism,
    BudgetExceededError,
    CertificationResult,
    Incidence,
    build_adjacency,
    certify_spectrum,
    check_vertex_budget,
    enumerate_subspaces,
    gf_rank,
    intersection_dim,
    predicted_vertex_count,
    vertex_automorphisms,
)
from .qbinom import gauss, gauss_eval_product
from .spectrum import (
    SpectrumEntry,
    SpectrumTable,
    delsarte_eigenvalue,
    delsarte_terms,
    multiplicity,
    simple_eigenvalue,
    spectrum_table,
)

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "BudgetExceededError",
    "CertificationResult",
    "DEFAULT_VERTEX_BUDGET",
    "FieldCtx",
    "GridBounds",
    "IDENTITY_IDS",
    "IdentityReport",
    "Incidence",
    "IntMatrix",
    "InvariantError",
    "LaurentPoly",
    "ONE",
    "Q",
    "SpectrumEntry",
    "SpectrumTable",
    "ZERO",
    "build_adjacency",
    "certify_spectrum",
    "check",
    "check_vertex_budget",
    "delsarte_eigenvalue",
    "delsarte_terms",
    "enumerate_subspaces",
    "factor_prime_power",
    "field_of_order",
    "gauss",
    "gauss_eval_product",
    "gf_rank",
    "intersection_dim",
    "is_prime",
    "make_field",
    "multiplicity",
    "predicted_vertex_count",
    "run_grid",
    "simple_eigenvalue",
    "spectrum_table",
    "vertex_automorphisms",
]
