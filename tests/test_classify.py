import time
from fractions import Fraction
from itertools import combinations, count

import pytest

from amlat import orders
from amlat.classify import (
    NoPlanFound,
    algebra_for_prime,
    beta_for,
    construct,
    exists_arakelov_modular,
    ideal_for,
    pizer_algebra,
    plan_level,
    residue_case,
    search_beta,
    split_level,
)
from amlat.lattices import IdealLattice, verify_arakelov_modular
from amlat.numth import factorint, is_prime, legendre
from amlat.orders import (
    NotTwoSided,
    TwoSidedIdeal,
    ideal_mul,
    ideal_pow,
    is_maximal,
    maximalize,
    normalizer_contains,
    order_from_basis,
    preset_order,
    prime_ideal_above,
)
from amlat.quaternion import QuaternionAlgebra

F = Fraction
STD = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_split_level():
    s = split_level(12)
    assert (s.ell1, s.ell2, s.odd_support) == (2, 3, (3,))
    s = split_level(8)
    assert (s.ell1, s.ell2, s.odd_support) == (1, 8, (2,))
    s = split_level(36)
    assert (s.ell1, s.ell2, s.odd_support) == (6, 1, ())
    s = split_level(30)
    assert (s.ell1, s.ell2, s.odd_support) == (1, 30, (2, 3, 5))


def test_residue_cases():
    assert residue_case(2) == 1
    assert residue_case(7) == 2
    assert residue_case(5) == 3
    assert residue_case(17) == 4
    with pytest.raises(ValueError):
        residue_case(6)


def test_algebra_for_prime_examples():
    assert algebra_for_prime(2) == (QuaternionAlgebra(-1, -1), 1, None)
    alg, case, q = algebra_for_prime(17)
    assert (alg.a, alg.b, case, q) == (-3, -17, 4, 3)
    alg, case, q = algebra_for_prime(41)
    assert (alg.a, alg.b) == (-3, -41)


def test_algebra_for_prime_ramification_postcondition():
    for ell in range(2, 100):
        if not is_prime(ell):
            continue
        alg, _, _ = algebra_for_prime(ell)
        assert alg.ramified_primes == (ell,)


def test_q_choice_properties():
    for ell in (17, 41, 73, 89, 97):
        _, case, q = algebra_for_prime(ell)
        assert case == 4
        assert q % 4 == 3 and is_prime(q)
        assert legendre(ell, q) == -1
        # minimality among eligible primes
        for smaller in range(3, q):
            if is_prime(smaller) and smaller % 4 == 3:
                assert legendre(ell, smaller) == 1


def test_beta_for_examples():
    for ell, want in ((2, "i-j"), (3, "j"), (5, "j")):
        plan = plan_level(ell)
        alg, order = plan.algebra, plan.order
        beta = beta_for(alg, order, plan.case)
        if want == "i-j":
            assert beta == alg.i - alg.j
        else:
            assert beta == alg.j
        assert beta.nrd() == ell
        assert order.lattice.contains(beta)
        assert normalizer_contains(order, beta)


def test_plan_level_case4_order_is_maximal():
    order = plan_level(17).order
    assert is_maximal(order)
    assert order.reduced_disc == 17


def test_construct_case4_needs_no_order_search(monkeypatch):
    # the closed-form maximal order must serve case 4 without the climb's
    # element search, whatever q is
    def no_search(order, p):
        raise AssertionError(f"element search at {p}")

    monkeypatch.setattr(orders, "_enlarge_at", no_search)
    for ell, q in ((17, 3), (41, 3), (1129, 11), (1873, 23), (2689, 19)):
        assert algebra_for_prime(ell)[2] == q
        lattice, cert = construct(ell)
        assert cert.valid
        assert lattice.discriminant == ell**2


def test_construct_1217_kissing_six():
    # Pizer's order contains the units of Z[(1+sqrt(-3))/2]; the order the
    # climb used to reach gives another level-1217 lattice with kissing 2
    lattice, cert = construct(1217)
    assert cert.valid
    assert lattice.minimum_and_kissing() == (F(2), 6)


def test_search_beta_finds_witness():
    hur = preset_order("hurwitz", QuaternionAlgebra(-1, -1))
    beta = search_beta(hur, 2)
    assert beta is not None
    assert beta.nrd() == 2
    assert normalizer_contains(hur, beta)


def test_search_beta_reads_no_bound(monkeypatch):
    # the search is exact at every norm: the environment variable that
    # used to cap it has no effect, and (i-j)^21 is found at 2^21
    hur = preset_order("hurwitz", QuaternionAlgebra(-1, -1))
    monkeypatch.setenv("AMLAT_SEARCH_BOUND", "4")
    for m in (8, 2**21):
        beta = search_beta(hur, m)
        assert beta is not None and beta.nrd() == m, m
        assert hur.lattice.contains(beta) and normalizer_contains(hur, beta)


def test_search_beta_needs_a_maximal_order_and_a_positive_norm():
    hur = preset_order("hurwitz", QuaternionAlgebra(-1, -1))
    for m in (0, -1, -2):
        assert search_beta(hur, m) is None
    std = order_from_basis(QuaternionAlgebra(-1, -1), STD)
    with pytest.raises(ValueError, match="maximal"):
        search_beta(std, 2)


def _search_beta_orders():
    climbed = maximalize(order_from_basis(QuaternionAlgebra(-5, -13), STD))
    return [
        preset_order("hurwitz", QuaternionAlgebra(-1, -1)),
        preset_order("case2", QuaternionAlgebra(-1, -3)),
        preset_order("case3", QuaternionAlgebra(-2, -5)),
        preset_order("ell17", QuaternionAlgebra(-3, -17)),
        climbed,
        plan_level(30).order,
        plan_level(130).order,
    ]


def test_search_beta_agrees_with_shell_scan(shell_scan_beta):
    # the shell of I_m has a vector exactly when the shell of the order
    # has a normalizing one; the two may pick different generators
    for order in _search_beta_orders():
        for m in range(1, 17):
            want = shell_scan_beta(order, m)
            got = search_beta(order, m)
            assert (got is None) == (want is None), (order.algebra, m)
            if got is not None:
                assert got.nrd() == m and order.lattice.contains(got)
                assert normalizer_contains(order, got)


def test_exists_examples():
    a1 = QuaternionAlgebra(-1, -1)
    hur = preset_order("hurwitz", a1)
    ok, reason = exists_arakelov_modular(a1, hur, 4)
    assert not ok and "odd power" in reason
    ok, _ = exists_arakelov_modular(a1, hur, 8)
    assert ok
    a3 = QuaternionAlgebra(-1, -3)
    c2 = preset_order("case2", a3)
    ok, _ = exists_arakelov_modular(a3, c2, 12)
    assert ok
    ok, reason = exists_arakelov_modular(a3, c2, 18)
    assert not ok and "odd power" in reason
    ok, reason = exists_arakelov_modular(a3, c2, 24)
    assert not ok and "even power" in reason


def test_exists_is_exact_past_the_old_search_bound():
    # (i-j)^7 has nrd 128 and lies in the Hurwitz order; the search that
    # was capped at 64 refused this level, the exact one finds a witness
    hur = preset_order("hurwitz", QuaternionAlgebra(-1, -1))
    ok, reason = exists_arakelov_modular(hur.algebra, hur, 128)
    assert ok and "alpha = 1" in reason
    beta2 = search_beta(hur, 128)
    assert repr(beta2) in reason
    assert beta2.nrd() == 128 and normalizer_contains(hur, beta2)


def test_exists_matches_arithmetic_criterion_for_hurwitz():
    # over (-1,-1) (ramified exactly at 2) a level works iff it is an odd
    # power of 2 times a coprime square; (i-j)^r supplies the witness, so
    # the search must agree with the closed-form criterion exactly
    hur = preset_order("hurwitz", QuaternionAlgebra(-1, -1))
    for ell in range(1, 2001):
        v2 = 0
        m = ell
        while m % 2 == 0:
            v2 += 1
            m //= 2
        root = int(m**0.5)
        while root * root > m:
            root -= 1
        while (root + 1) * (root + 1) <= m:
            root += 1
        expected = v2 % 2 == 1 and root * root == m
        got, _ = exists_arakelov_modular(hur.algebra, hur, ell)
        assert got == expected, ell


def test_exists_false_for_all_squares_up_to_400():
    catalog = [
        preset_order("hurwitz", QuaternionAlgebra(-1, -1)),
        preset_order("case2", QuaternionAlgebra(-1, -3)),
        preset_order("case3", QuaternionAlgebra(-2, -5)),
        preset_order("ell17", QuaternionAlgebra(-3, -17)),
    ]
    for order in catalog:
        for n in range(2, 21):
            ok, _ = exists_arakelov_modular(order.algebra, order, n * n)
            assert not ok, (order.algebra, n * n)


def test_construct_worked_examples():
    expectations = {
        2: ((-1, -1), 4, 2),
        3: ((-1, -3), 9, 2),
        5: ((-2, -5), 25, 2),
        17: ((-3, -17), 289, 2),
        8: ((-1, -1), 64, 4),
        27: ((-1, -3), 729, 6),
        12: ((-1, -3), 144, 4),
    }
    for ell, (ab, want_det, want_min) in expectations.items():
        lat, cert = construct(ell)
        assert (lat.order.algebra.a, lat.order.algebra.b) == ab
        assert lat.discriminant == want_det
        assert lat.is_even()
        assert lat.minimum_and_kissing()[0] == want_min
        assert cert.valid


def test_construct_12_shape():
    lat, cert = construct(12)
    assert lat.alpha == 2
    assert lat.ideal.lattice == lat.order.lattice  # J = Lambda, t = 1
    assert cert.beta.nrd() == 12


def test_construct_8_is_prime_ideal():
    from amlat.orders import prime_ideal_above

    lat, _ = construct(8)
    assert lat.ideal.lattice == prime_ideal_above(lat.order, 2).lattice


def test_construct_rejects_squares():
    for ell in (4, 9, 16, 25):
        with pytest.raises(NoPlanFound, match="square"):
            construct(ell)


def test_construct_rejects_even_support():
    with pytest.raises(NoPlanFound):
        construct(6)  # support {2, 3} has even size


def test_construct_30_three_prime_support():
    # support {2, 3, 5}: Pizer's algebra (-43, -30) and its closed-form order
    lat, cert = construct(30)
    assert cert.valid
    assert lat.order.algebra.ramified_primes == (2, 3, 5)
    assert lat.discriminant == 900


def test_plan_level_rejects_tiny():
    with pytest.raises(NoPlanFound):
        plan_level(1)


def test_square_free_lifting():
    # if level l2 works, so does l1^2 * l2 for coprime l1 <= 5
    for ell1, ell2 in ((2, 3), (3, 2), (5, 2), (2, 5), (5, 3), (3, 7)):
        lat, cert = construct(ell1 * ell1 * ell2)
        assert cert.valid
        assert lat.alpha == ell1
        assert lat.discriminant == (ell1 * ell1 * ell2) ** 2


def test_construct_130_is_certified():
    lat, cert = construct(130)
    assert cert.valid
    assert (lat.order.algebra.a, lat.order.algebra.b) == (-67, -130)
    assert lat.discriminant == 130**2


def test_search_beta_none_for_minus5_minus13():
    # (-5,-13) also ramifies exactly at {2, 5, 13}, but the maximal order
    # the climb reaches there has no normalizing element of reduced norm
    # 130; level 130 needs another order (Pizer's, in (-67, -130))
    alg = QuaternionAlgebra(-5, -13)
    order = maximalize(order_from_basis(alg, STD))
    assert order.reduced_disc == 130
    assert search_beta(order, 130) is None


def _recipe_supports():
    primes = [p for p in range(2, 50) if is_prime(p)]
    odd = primes[1:]
    yield from ((p,) for p in primes)
    yield from ((2, p, r) for p, r in combinations(odd, 2))
    yield from combinations([p for p in odd if p < 30], 3)
    for size in (5, 7, 9, 11):
        for run in (primes, odd):
            for k in range(0, len(run) - size + 1, 2):
                yield tuple(run[k : k + size])


def test_pizer_algebra_and_order_for_odd_supports(monkeypatch):
    # for every support: the algebra ramifies exactly there, the standard
    # order maximalizes to Pizer's closed form without a climb, and j
    # normalizes that order with reduced norm prod(S)
    def no_climb(order, p):
        raise AssertionError(f"maximalize climbed at {p}")

    monkeypatch.setattr(orders, "_enlarge_at", no_climb)
    seen = 0
    for support in _recipe_supports():
        alg, q = pizer_algebra(support)
        assert alg.ramified_primes == support
        assert alg.a == -q and q % 4 == 3 and is_prime(q)
        order = maximalize(order_from_basis(alg, STD))
        assert order.lattice == orders._pizer_order(alg).lattice
        assert normalizer_contains(order, alg.j)
        assert alg.j.nrd() == -alg.b
        seen += 1
    assert seen > 200


def test_pizer_algebra_q_is_least():
    for support in ((2, 3, 5), (3, 5, 7), (2, 5, 13), (17,), (3, 5, 7, 11, 13)):
        alg, q = pizer_algebra(support)
        d = -alg.b
        for r in range(3, q, 4):
            if is_prime(r) and d % r:
                assert QuaternionAlgebra(-r, -d).ramified_primes != support


def test_pizer_algebra_all_primes_below_50_is_fast():
    # q runs through its residue class and is screened by the Jacobi
    # symbol before is_prime; trial division in the q loop took 7-8 s here
    support = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    start = time.perf_counter()
    alg, q = pizer_algebra(support)
    elapsed = time.perf_counter() - start
    assert q == 1333963
    assert alg.ramified_primes == support
    assert elapsed < 5, elapsed


def test_every_level_to_200_constructs_or_is_refused_exactly():
    # the north star: a valid certificate, or a refusal that is a proof
    for ell in range(2, 201):
        try:
            _, cert = construct(ell)
        except NoPlanFound as exc:
            assert "square" in str(exc) or "odd in number" in str(exc), ell
        else:
            assert cert.valid, ell


def test_construct_prime_powers():
    for ell, want_min in ((32, 8), (125, 10)):
        lat, cert = construct(ell)
        assert cert.valid
        assert lat.discriminant == ell * ell
        assert lat.is_even()
        assert lat.minimum_and_kissing()[0] == want_min


def test_construct_mixed_levels():
    # odd prime-power support times a coprime square
    for ell, want_alpha, want_min in ((72, 3, 12), (48, 4, 8), (45, 3, 6)):
        lat, cert = construct(ell)
        assert cert.valid
        assert lat.alpha == want_alpha
        assert lat.discriminant == ell * ell
        assert lat.is_even()
        assert lat.minimum_and_kissing()[0] == want_min


def _prime_ideal_product(plan):
    """J = prod P_p^e_p by ideal arithmetic: the radical lift of each
    ramified prime, its powers and their products.  An oracle for the
    closed form of ideal_for, which uses none of this."""
    ideal = TwoSidedIdeal.unit(plan.order)
    for p, e in plan.ideal_exponents:
        if e:
            ideal = ideal_mul(ideal, ideal_pow(prime_ideal_above(plan.order, p), e))
    return ideal


def test_ideal_for_matches_prime_ideal_product():
    # every constructible level to 600 with some e_p > 0, and three levels
    # that mix exponents: 2^5·3^3·5, 3^3·5·7 and 3^3·5·7·11·13
    levels = []
    for ell in [*range(2, 601), 4320, 945, 135135]:
        try:
            plan = plan_level(ell)
        except NoPlanFound:
            continue
        if any(e for _, e in plan.ideal_exponents):
            levels.append(ell)
            ideal = ideal_for(plan.order, plan.beta, plan.ideal_exponents)
            assert ideal.lattice == _prime_ideal_product(plan).lattice, ell
            assert ideal.t == plan.algebra.one
    assert len(levels) == 32


def _unramified_mutant(beta):
    """(beta + k)/q with q exactly dividing nrd(beta + k) = nrd beta + k^2
    and not nrd beta.  q is unramified, and at q the lattice
    (beta + k)/q·Lambda + Lambda is the right ideal of a line in
    Lambda_q = M_2(Z_q), which is never two-sided."""
    d = beta.nrd()
    for k in count(1):
        for q, r in factorint(int(d + k * k)).items():
            if r == 1 and d % q:
                return (beta + k) / q


def test_ideal_for_guard_trips_on_non_normalizing_element():
    for ell in (8, 27, 72, 120, 945, 4320):
        plan = plan_level(ell)
        order, exps = plan.order, plan.ideal_exponents
        assert any(e % 2 for _, e in exps), ell  # the guard runs
        mutant = _unramified_mutant(plan.beta)
        assert not normalizer_contains(order, mutant)
        with pytest.raises(NotTwoSided):
            ideal_for(order, mutant, exps)
        # beta + 1 lies in Lambda, and every right ideal of Lambda_p is
        # two-sided at a ramified p, so it passes the guard; the ideal is
        # wrong, and the certificate refuses it
        wrong = ideal_for(order, plan.beta + 1, exps)
        assert wrong.lattice != ideal_for(order, plan.beta, exps).lattice
        lattice = IdealLattice(wrong, F(plan.ell1))
        cert = verify_arakelov_modular(lattice, plan.ell1 * plan.beta2, ell)
        assert not cert.valid, ell
