"""Diagonal tensors, k-ary Rademacher averaging, and orthogonally additive
polynomial norms on finite-dimensional l_p, with exact and numeric
verification of every identity the construction rests on."""

from .numerics import (
    BudgetError,
    LpParams,
    Scalar,
    conjugate_exponent,
    holder_conjugate,
    lq_norm,
    phase,
    phase_root,
)
from .rademacher import (
    GeneralizedRademacher,
    integrate_product,
    integrate_product_bruteforce,
)
from .diagonal import (
    DiagonalTensor,
    averaging_decomposition,
    build_dual_form,
    dense_expansion,
    factored_expansion,
    pair,
    pi_lower_bound,
    pi_norm_closed_form,
    pi_upper_bound,
)
from .oapoly import (
    AdditivityReport,
    MultilinearForm,
    OrthAddPolynomial,
    diagonal_of_multilinear,
    evaluate,
    extend_diagonal_functional,
    is_orthogonally_additive,
    multilinear_norm_ascent,
    multilinear_norm_grid,
    norm_closed_form,
    norm_numeric,
    norm_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "LpParams",
    "Scalar",
    "conjugate_exponent",
    "holder_conjugate",
    "lq_norm",
    "phase",
    "phase_root",
    "GeneralizedRademacher",
    "integrate_product",
    "integrate_product_bruteforce",
    "DiagonalTensor",
    "averaging_decomposition",
    "build_dual_form",
    "dense_expansion",
    "factored_expansion",
    "pair",
    "pi_lower_bound",
    "pi_norm_closed_form",
    "pi_upper_bound",
    "AdditivityReport",
    "MultilinearForm",
    "OrthAddPolynomial",
    "diagonal_of_multilinear",
    "evaluate",
    "extend_diagonal_functional",
    "is_orthogonally_additive",
    "multilinear_norm_ascent",
    "multilinear_norm_grid",
    "norm_closed_form",
    "norm_numeric",
    "norm_witness",
    "__version__",
]
