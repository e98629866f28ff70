"""Exact decomposition of internal tensor products of polynomial functors.

Everything is computed in exact integer arithmetic: contingency-matrix
decompositions of exponential-functor products, Weyl-filtration
multiplicities, symmetric-group Kronecker coefficients (general, one-box,
and hook procedures), and an independent character-theoretic oracle
used to verify all of it.
"""

from .errors import (
    ConsistencyError,
    DegreeMismatchError,
    SizeBoundError,
    UndefinedProductError,
)
from .partitions import (
    Composition,
    ContingencyMatrix,
    Partition,
    SkewShape,
    iter_contingency,
    partitions_of,
)
from .schur import (
    SchurExpansion,
    lr_coeff,
    schur_outer_product,
    skew_schur_expansion,
)
from .characters import (
    centralizer_order,
    class_size,
    dimension,
    internal_h_oracle,
    kronecker_oracle_expansion,
    lr_oracle,
    mn_character,
)
from .internal_product import (
    GAMMA,
    SYM,
    WEDGE,
    CharTwoMode,
    ExpDecomposition,
    ExpFunctor,
    exponential_tensor,
    gamma_tensor_gamma,
    hook_mixed,
    jacobi_trudi,
    kostka,
    kronecker,
    kronecker_general,
    kronecker_hook,
    kronecker_one_box,
    weyl_tensor_gamma,
    weyl_tensor_wedge,
)

__all__ = [
    "ConsistencyError",
    "DegreeMismatchError",
    "SizeBoundError",
    "UndefinedProductError",
    "Composition",
    "ContingencyMatrix",
    "Partition",
    "SkewShape",
    "iter_contingency",
    "partitions_of",
    "SchurExpansion",
    "lr_coeff",
    "schur_outer_product",
    "skew_schur_expansion",
    "centralizer_order",
    "class_size",
    "dimension",
    "internal_h_oracle",
    "kronecker_oracle_expansion",
    "lr_oracle",
    "mn_character",
    "GAMMA",
    "SYM",
    "WEDGE",
    "CharTwoMode",
    "ExpDecomposition",
    "ExpFunctor",
    "exponential_tensor",
    "gamma_tensor_gamma",
    "hook_mixed",
    "jacobi_trudi",
    "kostka",
    "kronecker",
    "kronecker_general",
    "kronecker_hook",
    "kronecker_one_box",
    "weyl_tensor_gamma",
    "weyl_tensor_wedge",
]

__version__ = "0.1.0"
