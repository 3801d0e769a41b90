"""Level-driven construction of modular ideal lattices.

Given a target level, picks a definite rational quaternion algebra whose
finite ramification matches the odd-exponent part of the level, a
maximal order, a normalizing element of the right reduced norm, and the
ideal and form scaling that realize the level.  Everything is verified
by an explicit certificate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .lattices import (
    IdealLattice,
    ModularityCertificate,
    short_vectors,
    verify_arakelov_modular,
)
from .numth import _jacobi, factorint, is_prime
from .orders import (
    NotTwoSided,
    Order,
    TwoSidedIdeal,
    ZLat4,
    maximalize,
    normalizer_contains,
    order_from_basis,
    preset_order,
)
from .quaternion import QElem, QuaternionAlgebra

SEARCH_BOUND_ENV = "AMLAT_SEARCH_BOUND"
DEFAULT_SEARCH_BOUND = 64

_STANDARD_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class NoPlanFound(Exception):
    """No construction exists (or none was found) for the requested level."""


class RamificationCheckFailed(ArithmeticError):
    """Chosen algebra does not ramify exactly at the target prime (bug guard)."""


class BetaVerificationFailed(ArithmeticError):
    """The case element failed order/normalizer/norm verification (bug guard)."""


def _search_bound() -> int:
    return int(os.environ.get(SEARCH_BOUND_ENV, DEFAULT_SEARCH_BOUND))


@dataclass(frozen=True)
class LevelFactorization:
    """Split of the level into its square part and ramification support."""

    ell: int
    ell1: int
    ell2: int
    exponents: tuple[tuple[int, int], ...]
    odd_support: tuple[int, ...]


def split_level(ell: int) -> LevelFactorization:
    if ell < 1:
        raise ValueError("level must be a positive integer")
    fact = factorint(ell) if ell > 1 else {}
    odd = tuple(p for p, r in fact.items() if r % 2 == 1)
    ell2 = 1
    ell1 = 1
    for p, r in fact.items():
        if p in odd:
            ell2 *= p**r
        else:
            ell1 *= p ** (r // 2)
    return LevelFactorization(ell, ell1, ell2, tuple(fact.items()), odd)


def residue_case(ell: int) -> int:
    """Which of the four construction cases a prime level falls into."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell == 2:
        return 1
    if ell % 4 == 3:
        return 2
    if ell % 8 == 5:
        return 3
    return 4


def pizer_algebra(support: tuple[int, ...]) -> tuple[QuaternionAlgebra, int]:
    """Pizer's algebra (-q, -D), D = prod S, for a support S of odd size.

    q is the least prime q = 3 (mod 4) with (p/q) = -1 for each odd p in
    S, and q = 3 (mod 8) when 2 is in S.  By quadratic reciprocity and
    the product formula this says exactly that (-q, -D) ramifies at S
    alone and that q | c²D + 1 for some c (Pizer, J. Algebra 64 (1980),
    §5).  Returns (algebra, q).
    """
    d = prod(support)
    odd = [p for p in support if p != 2]
    # q runs through 3 (mod 4), or 3 (mod 8) when 2 is in S; the Jacobi
    # symbol equals (p/q) for prime q, and it is cheaper than is_prime.
    step = 4 if d % 2 else 8
    q = 3
    while not (all(_jacobi(p, q) == -1 for p in odd) and is_prime(q)):
        q += step
    algebra = QuaternionAlgebra(-q, -d)
    _check_ramification(algebra, support)
    return algebra, q


def _check_ramification(algebra: QuaternionAlgebra, support: tuple[int, ...]):
    if algebra.ramified_primes != support:
        raise RamificationCheckFailed(
            f"{algebra!r} ramifies at {algebra.ramified_primes}, wanted {support}"
        )


def algebra_for_prime(ell: int) -> tuple[QuaternionAlgebra, int, int | None]:
    """The definite algebra ramified exactly at the prime ell.

    Returns (algebra, case, q) where q is the auxiliary prime of Pizer's
    algebra (-q, -ell) used when ell = 1 mod 8 (smallest q = 3 mod 4 with
    (ell/q) = -1), else None.
    """
    case = residue_case(ell)
    if case == 4:
        algebra, q = pizer_algebra((ell,))
        return algebra, case, q
    if case == 1:
        algebra = QuaternionAlgebra(-1, -1)
    elif case == 2:
        algebra = QuaternionAlgebra(-1, -ell)
    else:
        algebra = QuaternionAlgebra(-2, -ell)
    _check_ramification(algebra, (ell,))
    return algebra, case, None


def _maximal_order(algebra: QuaternionAlgebra, case: int | None) -> Order:
    """The catalog order in cases 1-3; otherwise the maximalization of the
    standard order, which in Pizer's algebras is his closed-form order."""
    if case in (1, 2, 3):
        return preset_order(f"case{case}", algebra)
    return maximalize(order_from_basis(algebra, _STANDARD_BASIS))


def beta_for(algebra: QuaternionAlgebra, order: Order, case: int | None) -> QElem:
    """The normalizing element of the order with reduced norm the product
    of the ramified primes: i - j in case 1, otherwise j (case None is
    Pizer's algebra of a composite support)."""
    if case == 1:
        beta, target = algebra.i - algebra.j, 2
    else:
        beta, target = algebra.j, abs(algebra.b)
    if not order.lattice.contains(beta):
        raise BetaVerificationFailed(f"{beta!r} not in the order")
    if not normalizer_contains(order, beta):
        raise BetaVerificationFailed(f"{beta!r} not in the normalizer")
    if beta.nrd() != target:
        raise BetaVerificationFailed(f"nrd({beta!r}) != {target}")
    return beta


def search_beta(order: Order, m: int) -> QElem | None:
    """Find x in the order with nrd(x) = m normalizing it, by exhaustive
    enumeration of the shell q_1(x) = 2m; None when the shell is empty.

    The shell target m is capped by AMLAT_SEARCH_BOUND (default 64)."""
    bound = _search_bound()
    if m > bound:
        raise NoPlanFound(
            f"norm target {m} exceeds the search bound {bound}; "
            f"raise {SEARCH_BOUND_ENV} to search further"
        )
    unit = IdealLattice(TwoSidedIdeal.unit(order), Fraction(1))
    basis = order.lattice.elements()
    for coords, val in short_vectors(unit.gram, 2 * m):
        if val != 2 * m:
            continue
        x = order.algebra.scalar(0)
        for c, w in zip(coords, basis):
            if c:
                x = x + c * w
        if normalizer_contains(order, x):
            return x
    return None


@dataclass(frozen=True)
class ConstructionPlan:
    """Everything needed to realize a level: algebra, order, witnesses.

    beta is the normalizer from beta_for, with nrd beta = prod S; beta2 is
    beta·prod (-p)^e_p, with nrd beta2 = ell2; ideal_exponents holds the
    pairs (p, e_p), e_p = (r_p - 1)/2, for p in S.  beta and the exponents
    give the ideal in closed form, J = prod p^floor(e_p/2) ·
    (beta·Lambda + d_T·Lambda) with d_T the product of the p with e_p odd
    (ideal_for; derived in ROADMAP.md, item 2).
    """

    ell: int
    ell1: int
    ell2: int
    case: int | None
    q: int | None
    algebra: QuaternionAlgebra
    order: Order
    beta: QElem
    beta2: QElem
    ideal_exponents: tuple[tuple[int, int], ...]


def plan_level(ell: int) -> ConstructionPlan:
    """Resolve the full construction plan for a level, or raise NoPlanFound.

    The odd-exponent primes S of ell must be odd in number.  One prime
    takes its case's algebra and order; three or more take Pizer's
    algebra (-q, -prod S) and closed-form order (case None), which j
    normalizes.  beta_for gives beta with trd 0 and nrd prod S, so
    beta2 = beta·prod (-p)^((r_p - 1)/2) has reduced norm ell2.
    """
    if ell < 2:
        raise NoPlanFound("level must be at least 2")
    split = split_level(ell)
    support = split.odd_support
    if not support:
        raise NoPlanFound(
            "square level: the finite ramification of a definite algebra "
            "is never empty"
        )
    if len(support) % 2 == 0:
        raise NoPlanFound(
            "the primes with odd exponent must be odd in number to form "
            "the finite ramification of a definite algebra"
        )
    exps = dict(split.exponents)
    if len(support) == 1:
        algebra, case, q = algebra_for_prime(support[0])
    else:
        algebra, q = pizer_algebra(support)
        case = None
    order = _maximal_order(algebra, case)
    ideal_exps = tuple((p, (exps[p] - 1) // 2) for p in support)
    beta = beta_for(algebra, order, case)
    beta2 = prod((-p) ** e for p, e in ideal_exps) * beta
    return ConstructionPlan(
        ell=ell,
        ell1=split.ell1,
        ell2=split.ell2,
        case=case,
        q=q,
        algebra=algebra,
        order=order,
        beta=beta,
        beta2=beta2,
        ideal_exponents=ideal_exps,
    )


def ideal_for(
    order: Order, beta: QElem, ideal_exponents: tuple[tuple[int, int], ...]
) -> TwoSidedIdeal:
    """J = prod P_p^e_p in closed form, with no ideal arithmetic.

    beta normalizes the maximal order Lambda with nrd beta = prod S, so
    the two-sided prime over p in S is P_p = beta·Lambda + p·Lambda, and
    P_p^2 = p·Lambda.  Hence J = s·(beta·Lambda + d_T·Lambda), with
    s = prod p^floor(e_p/2) and d_T the product of the p with e_p odd
    (ROADMAP.md, item 2).  When d_T = 1, J is Lambda scaled by s.
    Otherwise the 32 products Lambda·J and J·Lambda must lie in J; Lambda
    is maximal, so this proves that the left and right orders of J are
    both Lambda, and NotTwoSided is raised if they are not.  Any beta in
    Lambda passes, since at a ramified p every right ideal of Lambda_p is
    two-sided; a wrong one of those is caught by the certificate.
    """
    s = prod(p ** (e // 2) for p, e in ideal_exponents)
    d_t = prod(p for p, e in ideal_exponents if e % 2)
    if d_t == 1:
        if s == 1:
            return TwoSidedIdeal.unit(order)
        return TwoSidedIdeal.scalar(order, s)
    elems = order.lattice.elements()
    rows = [(s * beta * w).coords() for w in elems]
    rows += [(s * d_t * w).coords() for w in elems]
    lat = ZLat4.from_rows(order.algebra, rows)
    j_elems = lat.elements()
    for u in elems:
        for v in j_elems:
            if not (lat.contains(u * v) and lat.contains(v * u)):
                raise NotTwoSided(f"{beta!r} does not give a two-sided ideal")
    return TwoSidedIdeal(order, lat, order.algebra.one)


def construct(ell: int) -> tuple[IdealLattice, ModularityCertificate]:
    """Build the level-ell lattice (J·t, q_alpha) with t = 1, alpha = ell1,
    J the product of the ramified primes P_p to the e_p = (r_p - 1)/2,
    and certify it.

    J is built in closed form from the plan's beta (ideal_for):
    J = prod p^floor(e_p/2) · (beta·Lambda + d_T·Lambda), d_T the product
    of the p with e_p odd, by the derivation in ROADMAP.md, item 2.  No
    prime ideal, ideal power or ideal product is computed; the
    certificate proves modularity.
    """
    plan = plan_level(ell)
    ideal = ideal_for(plan.order, plan.beta, plan.ideal_exponents)
    lattice = IdealLattice(ideal, Fraction(plan.ell1))
    beta = plan.ell1 * plan.beta2
    cert = verify_arakelov_modular(lattice, beta, ell)
    if not cert.valid:  # pragma: no cover - bug guard
        raise ArithmeticError(
            f"construction for level {ell} produced an invalid certificate: "
            f"{cert.checks()}"
        )
    return lattice, cert


def exists_arakelov_modular(
    algebra: QuaternionAlgebra, order: Order, ell: int
) -> tuple[bool, str]:
    """Decide whether a level-ell lattice exists over the given maximal order.

    Checks the exponent conditions against the algebra's ramification and
    then searches for a normalizing element of the right reduced norm.
    """
    if ell < 1:
        raise ValueError("level must be positive")
    if not algebra.is_totally_definite:
        raise ValueError("algebra must be totally definite")
    ram = algebra.ramified_primes
    fact = factorint(ell) if ell > 1 else {}
    for p in ram:
        if fact.get(p, 0) % 2 == 0:
            return False, (
                f"ramified prime {p} must divide the level to an odd power"
            )
    ell2 = 1
    for p in ram:
        ell2 *= p ** fact[p]
    rest = ell // ell2
    r = isqrt(rest)
    if r * r != rest:
        bad = next(p for p, e in fact.items() if p not in ram and e % 2)
        return False, (
            f"unramified prime {bad} must divide the level to an even power"
        )
    try:
        beta2 = search_beta(order, ell2)
    except NoPlanFound as exc:
        return False, str(exc)
    if beta2 is None:
        return False, f"no normalizing element of reduced norm {ell2}"
    return True, f"constructible with alpha = {r} and beta2 = {beta2!r}"
