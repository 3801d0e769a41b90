from fractions import Fraction

import pytest

from amlat import orders
from amlat.classify import algebra_for_prime, residue_case
from amlat.linalg import det
from amlat.numth import is_prime
from amlat.orders import (
    NotARing,
    NotFullRank,
    NotIntegral,
    NotRamified,
    NotTwoSided,
    OrderMismatch,
    TwoSidedIdeal,
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
    radical_mod_p,
    right_order,
)
from amlat.quaternion import QuaternionAlgebra

F = Fraction
STD = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@pytest.fixture(scope="module")
def hurwitz():
    return preset_order("hurwitz", QuaternionAlgebra(-1, -1))


@pytest.fixture(scope="module")
def case2():
    return preset_order("case2", QuaternionAlgebra(-1, -3))


@pytest.fixture(scope="module")
def case3():
    return preset_order("case3", QuaternionAlgebra(-2, -5))


@pytest.fixture(scope="module")
def ell17():
    return preset_order("ell17", QuaternionAlgebra(-3, -17))


@pytest.fixture(scope="module")
def catalog(hurwitz, case2, case3, ell17):
    return [hurwitz, case2, case3, ell17]


def test_catalog_orders_valid_and_maximal(catalog):
    for order in catalog:
        assert is_maximal(order)
        assert order.reduced_disc == order.algebra.reduced_discriminant


def test_order_rejects_non_integral():
    alg = QuaternionAlgebra(-1, -1)
    with pytest.raises(NotIntegral):
        order_from_basis(alg, ((1, 0, 0, 0), (0, F(1, 2), 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_order_rejects_non_closed():
    # integral basis in (-1,-7) whose products escape the lattice
    alg = QuaternionAlgebra(-1, -7)
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (F(1, 2), 0, F(1, 2), 0), (0, 0, 0, 1))
    with pytest.raises(NotARing):
        order_from_basis(alg, rows)


def test_order_rejects_missing_one():
    alg = QuaternionAlgebra(-1, -1)
    with pytest.raises(NotARing):
        order_from_basis(alg, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_order_rejects_rank_deficient():
    alg = QuaternionAlgebra(-1, -1)
    with pytest.raises(NotFullRank):
        order_from_basis(alg, ((1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))


def test_reduced_discriminants():
    for ell in (1, 3, 7, 11):
        alg = QuaternionAlgebra(-1, -ell)
        assert order_from_basis(alg, STD).reduced_disc == 4 * ell


def test_hurwitz_disc(hurwitz):
    assert hurwitz.reduced_disc == 2


def test_case2_disc_parametrized():
    for ell in (3, 7, 11, 19):
        alg = QuaternionAlgebra(-1, -ell)
        order = preset_order("case2", alg)
        assert order.reduced_disc == ell
        assert is_maximal(order)


def test_case3_disc_parametrized():
    for ell in (5, 13, 29):
        alg = QuaternionAlgebra(-2, -ell)
        order = preset_order("case3", alg)
        assert order.reduced_disc == ell
        assert is_maximal(order)


def test_std_order_not_maximal():
    order = order_from_basis(QuaternionAlgebra(-1, -1), STD)
    assert order.reduced_disc == 4
    assert not is_maximal(order)


def test_maximalize_hurwitz_case():
    alg = QuaternionAlgebra(-1, -1)
    m = maximalize(order_from_basis(alg, STD))
    assert m.reduced_disc == 2
    assert is_maximal(m)


def test_maximalize_fixpoint(hurwitz):
    assert maximalize(hurwitz) == hurwitz


def test_maximalize_minus1_minus3():
    alg = QuaternionAlgebra(-1, -3)
    m = maximalize(order_from_basis(alg, STD))
    assert m.reduced_disc == 3
    assert is_maximal(m)


def test_maximalize_case4_algebras():
    for a, b in ((-3, -17), (-3, -41)):
        alg = QuaternionAlgebra(a, b)
        m = maximalize(order_from_basis(alg, STD))
        assert m.reduced_disc == abs(b)
        assert is_maximal(m)


def _no_climb(order, p):
    raise AssertionError(f"maximalize climbed at {p}")


def test_maximalize_case4_primes_use_pizer_order(monkeypatch):
    # every case-4 prime below 3000 gets Pizer's order without any climb
    monkeypatch.setattr(orders, "_enlarge_at", _no_climb)
    levels = [
        ell for ell in range(3, 3000) if is_prime(ell) and residue_case(ell) == 4
    ]
    assert len(levels) == 101
    for ell in levels:
        alg, _, q = algebra_for_prime(ell)
        m = maximalize(order_from_basis(alg, STD))
        assert m.reduced_disc == ell, (ell, q)
        assert all(m.lattice.contains(x) for x in alg.basis_elements())


def test_maximalize_minus3_minus17_is_ell17_catalog(ell17):
    alg = QuaternionAlgebra(-3, -17)
    assert maximalize(order_from_basis(alg, STD)).lattice == ell17.lattice


def test_maximalize_climbs_when_pizer_order_not_maximal():
    # (-7,-10) has the shape (7 = 3 mod 4, 7 | 3^2*10 + 1), but the
    # closed-form order is not maximal there, so the climb must run
    alg = QuaternionAlgebra(-7, -10)
    pizer = orders._pizer_order(alg)
    assert pizer is not None and not is_maximal(pizer)
    m = maximalize(order_from_basis(alg, STD))
    assert m.reduced_disc == alg.reduced_discriminant == 5
    assert is_maximal(m)


def test_maximalize_recovers_from_shrunken_suborders(catalog):
    # Z + p*Lambda is an order of index p^3 in Lambda; climbing back must
    # reach the algebra's discriminant again
    for order in catalog:
        for p in (2, 3):
            rows = [order.lattice.algebra.one.coords()]
            rows += [
                tuple(p * x for x in row) for row in order.lattice.basis
            ]
            sub = order_from_basis(order.algebra, rows)
            assert sub.reduced_disc == order.reduced_disc * p**3
            climbed = maximalize(sub)
            assert climbed.reduced_disc == order.algebra.reduced_discriminant
            assert is_maximal(climbed)


def test_left_right_order_of_order(catalog):
    for order in catalog:
        assert left_order(order.lattice).lattice == order.lattice
        assert right_order(order.lattice).lattice == order.lattice


def test_left_order_of_principal(hurwitz):
    alg = hurwitz.algebra
    beta = alg.i - alg.j
    lat = hurwitz.lattice.left_mul(beta)
    assert left_order(lat).lattice == hurwitz.lattice
    assert right_order(lat).lattice == hurwitz.lattice


def test_left_order_of_scaled(hurwitz):
    assert left_order(hurwitz.lattice.scaled(2)).lattice == hurwitz.lattice


def test_ideal_mul_unit(hurwitz):
    lam = TwoSidedIdeal.unit(hurwitz)
    assert ideal_mul(lam, lam).lattice == hurwitz.lattice


def test_prime_square_is_p_lambda(hurwitz):
    p2 = prime_ideal_above(hurwitz, 2)
    assert ideal_mul(p2, p2).lattice == hurwitz.lattice.scaled(2)


def test_principal_times_inverse(hurwitz):
    alg = hurwitz.algebra
    beta = alg.i - alg.j
    a = TwoSidedIdeal.from_lattice(hurwitz, hurwitz.lattice.left_mul(beta))
    b = TwoSidedIdeal.from_lattice(
        hurwitz, hurwitz.lattice.left_mul(beta.inverse())
    )
    assert ideal_mul(a, b).lattice == hurwitz.lattice


def test_ideal_mul_order_mismatch(hurwitz, case2):
    with pytest.raises(OrderMismatch):
        ideal_mul(TwoSidedIdeal.unit(hurwitz), TwoSidedIdeal.unit(case2))


def test_ideal_inverse_examples(hurwitz):
    lam = TwoSidedIdeal.unit(hurwitz)
    assert ideal_inverse(lam).lattice == hurwitz.lattice
    two = TwoSidedIdeal.scalar(hurwitz, 2)
    assert ideal_inverse(two).lattice == hurwitz.lattice.scaled(F(1, 2))
    p2 = prime_ideal_above(hurwitz, 2)
    inv = ideal_inverse(p2)
    assert ideal_mul(p2, inv).lattice == hurwitz.lattice


def test_conj_of_displaced_ideal_lattice(hurwitz):
    # conj(J t) equals conj(t)·J at the lattice level
    alg = hurwitz.algebra
    t = alg.one + alg.i
    p2 = prime_ideal_above(hurwitz, 2)
    displaced = TwoSidedIdeal.from_parts(hurwitz, p2.lattice, t)
    conj_lat = displaced.lattice.conjugated()
    assert conj_lat == p2.lattice.left_mul(t.conj())


def test_two_sided_rejects_one_sided(hurwitz):
    # a left ideal that is not two-sided: generated by a non-normalizing g
    alg = hurwitz.algebra
    g = alg.one + alg.i + alg.j
    assert not normalizer_contains(hurwitz, g)
    lat = hurwitz.lattice.left_mul(g)
    with pytest.raises(NotTwoSided):
        TwoSidedIdeal.from_lattice(hurwitz, lat)


def test_codifferent_different(catalog):
    for order in catalog:
        # the different is the inverse of the codifferent
        d = ideal_inverse(TwoSidedIdeal.from_lattice(order, codifferent(order)))
        assert d.reduced_norm == order.reduced_disc
        assert ideal_inverse(d).lattice == codifferent(order)


def test_normalizer_examples(hurwitz, case2):
    alg = hurwitz.algebra
    assert normalizer_contains(hurwitz, alg.i - alg.j)
    assert normalizer_contains(case2, case2.algebra.j)


def test_normalizer_consistency_brute(hurwitz):
    alg = hurwitz.algebra
    for g in (alg.one + alg.i + alg.j, alg.i, alg.one + alg.i):
        direct = all(
            hurwitz.lattice.contains(g * v * g.inverse())
            for v in hurwitz.lattice.elements()
        )
        assert normalizer_contains(hurwitz, g) == direct


def test_normalizer_rejects_zero(hurwitz):
    with pytest.raises(ValueError):
        normalizer_contains(hurwitz, hurwitz.algebra.scalar(0))


def test_prime_ideal_examples(hurwitz, case2):
    alg = hurwitz.algebra
    p2 = prime_ideal_above(hurwitz, 2)
    assert p2.reduced_norm == 2
    assert p2.lattice == hurwitz.lattice.left_mul(alg.i - alg.j)
    p3 = prime_ideal_above(case2, 3)
    assert p3.lattice == case2.lattice.left_mul(case2.algebra.j)
    with pytest.raises(NotRamified):
        prime_ideal_above(hurwitz, 3)


def test_prime_squares_all_catalog(catalog):
    for order in catalog:
        for p in order.algebra.ramified_primes:
            prime = prime_ideal_above(order, p)
            assert ideal_mul(prime, prime).lattice == order.lattice.scaled(p)
            assert prime.reduced_norm == p


def test_nrd_ideal_examples(hurwitz):
    alg = hurwitz.algebra
    assert TwoSidedIdeal.unit(hurwitz).reduced_norm == 1
    beta_lam = hurwitz.lattice.left_mul(alg.i - alg.j)
    assert TwoSidedIdeal.from_lattice(hurwitz, beta_lam).reduced_norm == 2


def test_nrd_multiplicative(catalog):
    for order in catalog:
        p = order.algebra.ramified_primes[0]
        prime = prime_ideal_above(order, p)
        two = TwoSidedIdeal.scalar(order, 2)
        grid = [
            TwoSidedIdeal.unit(order),
            prime,
            ideal_pow(prime, 2),
            two,
            ideal_mul(prime, two),
        ]
        for a in grid:
            for b in grid:
                prod = ideal_mul(a, b)
                assert prod.reduced_norm == a.reduced_norm * b.reduced_norm


def test_conj_stability_of_two_sided(catalog):
    for order in catalog:
        p = order.algebra.ramified_primes[0]
        prime = prime_ideal_above(order, p)
        half = TwoSidedIdeal.scalar(order, F(1, 2))
        for ideal in (prime, ideal_mul(prime, half), ideal_pow(prime, 3)):
            assert ideal.lattice.conjugated() == ideal.lattice


def test_left_right_orders_of_constructed_ideals(catalog):
    for order in catalog:
        p = order.algebra.ramified_primes[0]
        prime = prime_ideal_above(order, p)
        for ideal in (prime, ideal_pow(prime, 2), TwoSidedIdeal.scalar(order, 3)):
            assert left_order(ideal.lattice).lattice == order.lattice
            assert right_order(ideal.lattice).lattice == order.lattice


def test_radical_brute_vs_trace_form(case3):
    # the two radical algorithms must agree where both apply (p >= 5)
    from itertools import product

    from amlat.linalg import modp_rref
    from amlat.orders import _generates_nilpotent_ideal

    case2_7 = preset_order("case2", QuaternionAlgebra(-1, -7))
    for order, p in ((case3, 5), (case2_7, 7), (case3, 7)):
        rad = radical_mod_p(order, p)
        sc = order.structure_constants
        brute = [
            list(z)
            for z in product(range(p), repeat=4)
            if any(z) and _generates_nilpotent_ideal(sc, list(z), p)
        ]
        assert modp_rref(brute, p) == modp_rref([list(r) for r in rad], p)


def test_trace_matrix_det_square(catalog):
    for order in catalog:
        d = det(order.trace_matrix)
        assert abs(d) == order.reduced_disc**2
