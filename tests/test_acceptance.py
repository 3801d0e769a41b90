"""Acceptance suite: one test per criterion, all arithmetic exact.

Each test prints a [PASS] line on success so a verbose run reads as a
checklist.  Expected wall time for the whole module is well under a
minute.
"""

import random
from fractions import Fraction

from amlat.classify import construct, exists_arakelov_modular
from amlat.lattices import IdealLattice, minimum_and_kissing
from amlat.linalg import det
from amlat.numth import hilbert_places, hilbert_symbol, is_prime
from amlat.orders import (
    TwoSidedIdeal,
    preset_order,
    prime_ideal_above,
)
from amlat.quaternion import QuaternionAlgebra

F = Fraction


def _catalog():
    return [
        ("case1", preset_order("case1", QuaternionAlgebra(-1, -1))),
        ("case2", preset_order("case2", QuaternionAlgebra(-1, -3))),
        ("case3", preset_order("case3", QuaternionAlgebra(-2, -5))),
        ("ell17", preset_order("ell17", QuaternionAlgebra(-3, -17))),
    ]


def _case_beta(order):
    alg = order.algebra
    return (alg.i - alg.j) if (alg.a, alg.b) == (-1, -1) else alg.j


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def brute_min_kissing(g, box=5):
    """Naive double-loop brute force over the box |x_i| <= box."""
    g00, g01, g02, g03 = g[0]
    g10, g11, g12, g13 = g[1]
    g20, g21, g22, g23 = g[2]
    g30, g31, g32, g33 = g[3]
    best = None
    count = 0
    r = range(-box, box + 1)
    for x0 in r:
        for x1 in r:
            for x2 in r:
                for x3 in r:
                    if x0 == 0 and x1 == 0 and x2 == 0 and x3 == 0:
                        continue
                    q = (
                        x0 * (g00 * x0 + g01 * x1 + g02 * x2 + g03 * x3)
                        + x1 * (g10 * x0 + g11 * x1 + g12 * x2 + g13 * x3)
                        + x2 * (g20 * x0 + g21 * x1 + g22 * x2 + g23 * x3)
                        + x3 * (g30 * x0 + g31 * x1 + g32 * x2 + g33 * x3)
                    )
                    if best is None or q < best:
                        best, count = q, 1
                    elif q == best:
                        count += 1
    return F(best), count


def _check_construct(ell, want_ab, want_det, want_min):
    lat, cert = construct(ell)
    assert (lat.order.algebra.a, lat.order.algebra.b) == want_ab
    assert cert.valid, cert.checks()
    assert lat.discriminant == want_det
    assert lat.is_even()
    assert len(lat.gram) == 4
    mn, _ = lat.minimum_and_kissing()
    assert mn == want_min
    return lat, cert


def test_criterion_01_level_2():
    _check_construct(2, (-1, -1), 4, 2)
    print("[PASS] criterion 1: construct(2) det 4, even, minimum 2, valid certificate")


def test_criterion_02_level_3():
    _check_construct(3, (-1, -3), 9, 2)
    print("[PASS] criterion 2: construct(3) det 9, even, minimum 2, valid certificate")


def test_criterion_03_level_5():
    _check_construct(5, (-2, -5), 25, 2)
    print("[PASS] criterion 3: construct(5) over (-2,-5) det 25, even, minimum 2")


def test_criterion_04_level_17():
    from amlat.classify import algebra_for_prime

    _, case, q = algebra_for_prime(17)
    assert (case, q) == (4, 3)
    _check_construct(17, (-3, -17), 289, 2)
    print("[PASS] criterion 4: construct(17) over (-3,-17) with q=3, det 289, even, min 2")


def test_criterion_05_level_8():
    lat, _ = _check_construct(8, (-1, -1), 64, 4)
    assert lat.ideal.lattice == prime_ideal_above(lat.order, 2).lattice
    assert lat.alpha == 1
    print("[PASS] criterion 5: construct(8) = (P, q_1) over (-1,-1), det 64, even, min 4")


def test_criterion_06_level_27():
    lat, _ = _check_construct(27, (-1, -3), 729, 6)
    assert lat.ideal.lattice == prime_ideal_above(lat.order, 3).lattice
    assert lat.alpha == 1
    print("[PASS] criterion 6: construct(27) = (P, q_1) over (-1,-3), det 729, even, min 6")


def test_criterion_07_level_12():
    lat, _ = _check_construct(12, (-1, -3), 144, 4)
    assert lat.ideal.lattice == lat.order.lattice
    assert lat.alpha == 2
    print("[PASS] criterion 7: construct(12) = (Lambda, q_2) over (-1,-3), det 144, even, min 4")


def test_criterion_08_all_primes_below_200():
    count = 0
    for ell in range(2, 200):
        if not is_prime(ell):
            continue
        lat, cert = construct(ell)
        assert cert.valid, (ell, cert.checks())
        assert lat.discriminant == ell * ell, ell
        assert lat.is_even(), ell
        mn, _ = lat.minimum_and_kissing()
        assert mn == 2, ell
        if ell % 8 == 1:
            from amlat.classify import algebra_for_prime
            from amlat.numth import legendre

            _, _, q = algebra_for_prime(ell)
            assert q % 4 == 3 and legendre(ell, q) == -1
        count += 1
    assert count == 46
    print(f"[PASS] criterion 8: construct(l) valid for all {count} primes l < 200 "
          "(det l^2, even, minimum 2)")


def test_criterion_09_squares_impossible():
    squares = (4, 9, 16, 25, 36, 49)
    for _, order in _catalog():
        for ell in squares:
            ok, reason = exists_arakelov_modular(order.algebra, order, ell)
            assert not ok, (order.algebra, ell)
            assert reason
    print("[PASS] criterion 9: no construction exists for square levels "
          f"{squares} over any catalog algebra")


def test_criterion_10_hilbert_grid():
    values = [x for x in range(-50, 51) if x != 0]
    for a in values:
        for b in values:
            prod = 1
            for p in hilbert_places(a, b):
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1, (a, b)
    # symmetry and multiplicativity over the same grid
    for a in values:
        for b in values:
            for p in hilbert_places(a, b):
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
    for a in values:
        for b in values:
            for c in (-3, 2):
                places = set(hilbert_places(a, b)) | set(hilbert_places(a, c))
                for p in places:
                    lhs = hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
                    assert lhs == hilbert_symbol(a, b * c, p), (a, b, c, p)
    print("[PASS] criterion 10: product formula, symmetry and multiplicativity "
          "hold for all nonzero a, b in [-50, 50]^2")


def _ideal_grid(order):
    p = order.algebra.ramified_primes[0]
    prime = prime_ideal_above(order, p)
    beta = _case_beta(order)
    return [
        TwoSidedIdeal.unit(order),
        prime,
        TwoSidedIdeal.scalar(order, p),
        TwoSidedIdeal.from_lattice(order, order.lattice.left_mul(beta)),
    ]


def test_criterion_11_dual_equivalence_grid(ideal_formula_dual):
    checked = 0
    for _, order in _catalog():
        for ideal in _ideal_grid(order):
            for alpha in (F(1), F(2), F(3, 2)):
                lat = IdealLattice(ideal, alpha)
                assert lat.dual_lattice() == ideal_formula_dual(lat)
                checked += 1
    assert checked == 48
    print(f"[PASS] criterion 11: Gram-inverse dual equals ideal-formula dual on "
          f"all {checked} grid lattices")


def test_criterion_12_discriminant_formula_grid():
    checked = 0
    for _, order in _catalog():
        n_d = F(order.reduced_disc)
        for ideal in _ideal_grid(order):
            for alpha in (F(1), F(2), F(3, 2)):
                lat = IdealLattice(ideal, alpha)
                expected = alpha**4 * ideal.reduced_norm**4 * n_d**2
                assert det(lat.gram) == expected
                assert lat.discriminant == expected  # internal cross-check too
                checked += 1
    assert checked == 48
    print(f"[PASS] criterion 12: det(Gram) = alpha^4 n(I)^4 n(D)^2 on all "
          f"{checked} grid lattices")


def test_criterion_13_enumeration_vs_brute_force():
    rng = random.Random(20260810)
    mats = []
    while len(mats) < 50:
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            g[i][i] = rng.randint(2, 10)
            for j in range(i + 1, 4):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if all(naive_det([row[:k] for row in g[:k]]) > 0 for k in range(1, 5)):
            mats.append(g)
    for g in mats:
        assert minimum_and_kissing(g) == brute_min_kissing(g)
    for ell in (2, 3, 5, 17, 8, 27, 12):
        lat, _ = construct(ell)
        gint = [[int(x) for x in row] for row in lat.gram]
        assert lat.minimum_and_kissing() == brute_min_kissing(gint)
    print("[PASS] criterion 13: enumeration matches the |x_i| <= 5 brute-force "
          "oracle on 50 random positive definite Gram matrices and all "
          "constructed lattices")


def test_criterion_14_catalog_bases_for_all_applicable_primes():
    from amlat.orders import is_maximal, order_from_basis
    from amlat.orders import CATALOG_BASES

    case2_count = case3_count = 0
    for ell in range(3, 100):
        if not is_prime(ell):
            continue
        if ell % 4 == 3:
            order = order_from_basis(QuaternionAlgebra(-1, -ell), CATALOG_BASES["case2"])
            assert order.reduced_disc == ell
            assert is_maximal(order)
            case2_count += 1
        if ell % 8 == 5:
            order = order_from_basis(QuaternionAlgebra(-2, -ell), CATALOG_BASES["case3"])
            assert order.reduced_disc == ell
            assert is_maximal(order)
            case3_count += 1
    assert case2_count == 13 and case3_count == 6
    print(f"[PASS] criterion 14: the explicit bases are verified orders with "
          f"reduced discriminant l for {case2_count} primes = 3 mod 4 and "
          f"{case3_count} primes = 5 mod 8 below 100")
