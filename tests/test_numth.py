import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from amlat import numth
from amlat.numth import (
    PRIMALITY_CAP,
    InvalidPrime,
    NumberTooLarge,
    _jacobi,
    factorint,
    hilbert_symbol,
    hilbert_places,
    is_prime,
    legendre,
    prime_factors,
    rational_sqrt,
)
from fractions import Fraction

# below 10**24 < PRIMALITY_CAP, so is_prime never raises
below_cap = st.integers(min_value=-10, max_value=10**24)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factorint():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(-17) == {17: 1}
    assert factorint(1) == {}
    with pytest.raises(ValueError):
        factorint(0)


def test_prime_factors_sorted():
    assert prime_factors(2 * 3 * 17) == (2, 3, 17)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_legendre_values():
    assert legendre(-1, 3) == -1
    assert legendre(1, 7) == 1
    assert legendre(17, 3) == -1
    assert legendre(6, 3) == 0


def test_legendre_euler_criterion_agreement():
    # oracle: explicit square enumeration
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert legendre(a, p) == want


def test_legendre_invalid_prime():
    with pytest.raises(InvalidPrime):
        legendre(3, 2)
    with pytest.raises(InvalidPrime):
        legendre(3, 15)


def test_hilbert_known_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -3, 3) == -1
    assert hilbert_symbol(-1, -5, 5) == 1
    assert hilbert_symbol(-2, -5, 5) == -1
    # p coprime to both arguments gives +1
    assert hilbert_symbol(3, 5, 7) == 1
    assert hilbert_symbol(-1, -1, -1) == -1
    assert hilbert_symbol(-1, 2, -1) == 1


def test_hilbert_zero_rejected():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 5, 3)


def test_hilbert_product_formula_small_grid():
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0:
                continue
            prod = 1
            for p in hilbert_places(a, b):
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1, (a, b)


def test_hilbert_symmetry_and_multiplicativity():
    places = (-1, 2, 3, 5, 7)
    values = [x for x in range(-10, 11) if x != 0]
    for a in values:
        for b in values:
            for p in places:
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
    for a in values:
        for b in values:
            for c in (-3, 2):
                for p in places:
                    lhs = hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
                    assert lhs == hilbert_symbol(a, b * c, p)


def test_minus_two_nonresidue_for_5_mod_8():
    # the branch the (-2,-p) construction relies on: p = 5 mod 8 makes -2
    # a non-residue, so (-2,-p) ramifies at p
    for p in (5, 13, 29, 37, 53, 61):
        assert legendre(-2, p) == -1
        assert hilbert_symbol(-2, -p, p) == -1


def test_hilbert_square_invariance():
    for a in (-7, -2, 3, 11):
        for b in (-5, -1, 6):
            for p in (-1, 2, 3, 5, 7, 11):
                assert hilbert_symbol(a * 9, b * 4, p) == hilbert_symbol(a, b, p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10, 10**6), below_cap))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 10**12).map(sympy.nextprime), st.integers(-10, 10**12))
def test_is_prime_on_primes_and_their_products(p, n):
    assert is_prime(p)
    if abs(n) > 1:
        assert not is_prime(p * abs(n))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 10**6), st.integers(1, 10**20)))
def test_factorint_matches_sympy(n):
    assert factorint(n) == dict(sorted(sympy.factorint(n).items()))
    assert factorint(-n) == factorint(n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(2, 10**7).map(sympy.nextprime), min_size=1, max_size=4),
    st.integers(1, 3),
)
def test_factorint_of_prime_products(primes, power):
    n = 1
    want: dict[int, int] = {}
    for p in primes:
        n *= p**power
        want[p] = want.get(p, 0) + power
    assert factorint(n) == dict(sorted(want.items()))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**15), 10**15), st.integers(3, 10**12).map(sympy.nextprime))
def test_legendre_matches_sympy(a, p):
    assert legendre(a, p) == sympy.legendre_symbol(a % p, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**15), 10**15), st.integers(0, 10**12))
def test_jacobi_matches_sympy(a, k):
    n = 2 * k + 1
    assert _jacobi(a, n) == sympy.jacobi_symbol(a, n)


def test_strong_pseudoprimes_and_carmichael_numbers_are_composite():
    # psi_4, psi_11 and psi_12: strong pseudoprimes to all prime bases up
    # to 7, 31 and 37 respectively (Sorenson and Webster 2017)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
        assert len(factorint(n)) > 1, n
    for n in (561, 41041):  # Carmichael numbers
        assert not is_prime(n), n
    assert factorint(41041) == {7: 1, 11: 1, 13: 1, 41: 1}


def test_factorint_perfect_powers(monkeypatch):
    # perfect powers are found by integer roots, never by rho
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(numth, "_rho", no_rho)
    assert factorint(47**20) == {47: 20}
    p = 999999999989  # the largest 12-digit prime
    assert is_prime(p)
    assert factorint(3 * p * p) == {3: 1, p: 2}
    assert factorint(p**5) == {p: 5}
    q = 1000003
    assert factorint(7 * q**6) == {7: 1, q: 6}


def test_product_of_two_13_digit_primes_factors():
    p, q = 1500000000047, 1800000000047
    assert factorint(p * q) == {p: 1, q: 1} == sympy.factorint(p * q)


def test_rho_budget_is_refused_by_name(monkeypatch):
    # rho needs about 4e5 steps here; a budget of 1000 refuses instead
    monkeypatch.setattr(numth, "_RHO_STEPS", 1000)
    with pytest.raises(NumberTooLarge, match="budget of 1000 steps"):
        factorint(1500000000047 * 1800000000047)
    assert factorint(2**61 - 1) == {2**61 - 1: 1}  # primes never reach rho


def test_primality_cap_is_refused():
    assert PRIMALITY_CAP == 3317044064679887385961981
    with pytest.raises(NumberTooLarge, match="3317044064679887385961981"):
        is_prime(PRIMALITY_CAP)
    with pytest.raises(NumberTooLarge):
        factorint(2 * 3317044064679887385962123)
    with pytest.raises(NumberTooLarge):
        is_prime(2**127 - 1)
    # a base that shows n composite is a proof even above the cap
    assert not is_prime(1000000000039 * 10000000000037)
    assert is_prime(2**61 - 1)
    assert factorint(2**100) == {2: 100}
