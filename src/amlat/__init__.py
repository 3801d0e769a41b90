"""Exact modular ideal lattices over definite rational quaternion algebras."""

from .classify import (
    ConstructionPlan,
    LevelFactorization,
    NoPlanFound,
    algebra_for_prime,
    construct,
    exists_arakelov_modular,
    plan_level,
    search_beta,
    split_level,
)
from .lattices import (
    IdealLattice,
    ModularityCertificate,
    gram_of_rows,
    minimum_and_kissing,
    short_vectors,
    verify_arakelov_modular,
)
from .numth import hilbert_symbol, legendre
from .orders import (
    Order,
    TwoSidedIdeal,
    ZLat4,
    codifferent,
    ideal_inverse,
    ideal_mul,
    ideal_pow,
    is_maximal,
    left_order,
    maximalize,
    normalizer_contains,
    order_from_basis,
    preset_order,
    prime_ideal_above,
    right_order,
)
from .quaternion import QElem, QuaternionAlgebra

__version__ = "0.1.0"

__all__ = [
    "ConstructionPlan",
    "IdealLattice",
    "LevelFactorization",
    "ModularityCertificate",
    "NoPlanFound",
    "Order",
    "QElem",
    "QuaternionAlgebra",
    "TwoSidedIdeal",
    "ZLat4",
    "algebra_for_prime",
    "codifferent",
    "construct",
    "exists_arakelov_modular",
    "gram_of_rows",
    "hilbert_symbol",
    "ideal_inverse",
    "ideal_mul",
    "ideal_pow",
    "is_maximal",
    "left_order",
    "legendre",
    "maximalize",
    "minimum_and_kissing",
    "normalizer_contains",
    "order_from_basis",
    "plan_level",
    "preset_order",
    "prime_ideal_above",
    "right_order",
    "search_beta",
    "short_vectors",
    "split_level",
    "verify_arakelov_modular",
]
