import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlat import orders
from amlat.classify import construct
from amlat.lattices import (
    IdealLattice,
    NonPositiveAlpha,
    gram_of_rows,
    minimum_and_kissing,
    short_vectors,
    verify_arakelov_modular,
)
from amlat.linalg import det, identity, inverse, mat, mat_mul, transpose, vec_mat
from amlat.orders import (
    TwoSidedIdeal,
    ZLat4,
    ideal_pow,
    preset_order,
    prime_ideal_above,
)
from amlat.quaternion import QuaternionAlgebra

F = Fraction


@pytest.fixture(scope="module")
def hurwitz():
    return preset_order("hurwitz", QuaternionAlgebra(-1, -1))


@pytest.fixture(scope="module")
def case2():
    return preset_order("case2", QuaternionAlgebra(-1, -3))


def unit_lattice(order, alpha=1):
    return IdealLattice(TwoSidedIdeal.unit(order), F(alpha))


def brute_min_kissing(gram, box=5):
    """Naive double-loop oracle over the box |x_i| <= box."""
    best = None
    count = 0
    g = [[int(x) if x.denominator == 1 else x for x in row] for row in mat(gram)]
    rng = range(-box, box + 1)
    for x0, x1, x2, x3 in product(rng, rng, rng, rng):
        if x0 == 0 and x1 == 0 and x2 == 0 and x3 == 0:
            continue
        x = (x0, x1, x2, x3)
        q = sum(x[i] * g[i][j] * x[j] for i in range(4) for j in range(4))
        if best is None or q < best:
            best, count = q, 1
        elif q == best:
            count += 1
    return F(best), count


def test_gram_hurwitz_in_stated_basis(hurwitz):
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (F(1, 2),) * 4)
    gram = gram_of_rows(hurwitz.lattice, rows, 1)
    assert gram == mat([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1], [1, 1, 1, 2]])


def test_gram_scales_linearly_in_alpha(case2):
    one = unit_lattice(case2, 1).gram
    two = unit_lattice(case2, 2).gram
    assert two == tuple(tuple(2 * x for x in row) for row in one)


def test_gram_symmetric_positive_definite(hurwitz, case2):
    for order in (hurwitz, case2):
        gram = unit_lattice(order).gram
        assert gram == tuple(zip(*gram))
        # leading principal minors positive
        for k in range(1, 5):
            sub = mat([row[:k] for row in gram[:k]])
            assert det(sub) > 0


def test_alpha_must_be_positive(hurwitz):
    with pytest.raises(NonPositiveAlpha):
        unit_lattice(hurwitz, -1)
    with pytest.raises(NonPositiveAlpha):
        unit_lattice(hurwitz, 0)


def test_indefinite_algebra_rejected():
    from amlat.orders import order_from_basis

    alg = QuaternionAlgebra(2, -1)
    order = order_from_basis(
        alg, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    with pytest.raises(ValueError, match="definite"):
        unit_lattice(order)


def test_discriminant_examples(hurwitz, case2):
    assert unit_lattice(hurwitz).discriminant == 4
    p2 = prime_ideal_above(hurwitz, 2)
    assert IdealLattice(p2, F(1)).discriminant == 64
    assert unit_lattice(case2, 2).discriminant == 144


def test_dual_lattice_det(hurwitz):
    lat = unit_lattice(hurwitz)
    dual = lat.dual_lattice()
    dual_gram = gram_of_rows(dual, dual.basis, lat.alpha)
    assert det(dual_gram) == F(1, 4)
    assert det(dual_gram) * lat.discriminant == 1


def test_dual_of_dual(hurwitz, case2):
    from amlat.linalg import inverse, lattice_canonical_basis, mat_mul

    for order in (hurwitz, case2):
        for alpha in (1, 2, F(3, 2)):
            lat = unit_lattice(order, alpha)
            dual = lat.dual_lattice()
            dual_gram = gram_of_rows(dual, dual.basis, F(alpha))
            back = mat_mul(inverse(mat(dual_gram)), dual.basis)
            assert lattice_canonical_basis(back) == lat.ideal.lattice.basis


def test_integral_and_even(hurwitz, case2):
    assert unit_lattice(hurwitz).is_even()
    assert not unit_lattice(hurwitz, F(1, 2)).is_integral()
    assert unit_lattice(case2, 2).is_even()


def test_certificate_valid_cases(hurwitz, case2):
    alg = hurwitz.algebra
    cert = verify_arakelov_modular(unit_lattice(hurwitz), alg.i - alg.j, 2)
    assert cert.valid and all(cert.checks().values())
    cert3 = verify_arakelov_modular(unit_lattice(case2), case2.algebra.j, 3)
    assert cert3.valid


def test_certificate_records_failures(hurwitz):
    alg = hurwitz.algebra
    cert = verify_arakelov_modular(unit_lattice(hurwitz), alg.i - alg.j, 3)
    assert not cert.nrd_beta_eq_ell
    assert not cert.valid
    assert cert.beta_in_order and cert.beta_in_normalizer
    cert_i = verify_arakelov_modular(unit_lattice(hurwitz), alg.i, 2)
    assert not cert_i.valid


def test_certificate_wrong_alpha_fails_dual_only(hurwitz):
    # scaling the form breaks I = I*·beta' but nothing else
    alg = hurwitz.algebra
    cert = verify_arakelov_modular(unit_lattice(hurwitz, 2), alg.i - alg.j, 2)
    assert cert.checks() == {
        "beta_in_order": True,
        "beta_in_normalizer": True,
        "nrd_beta_eq_ell": True,
        "dual_identity": False,
        "similitude_identity": True,
    }


def test_certificate_zero_beta(hurwitz):
    cert = verify_arakelov_modular(unit_lattice(hurwitz), hurwitz.algebra.scalar(0), 2)
    assert not cert.valid
    assert not cert.beta_in_normalizer


def test_certificate_on_displaced_ideal(hurwitz):
    # level 8 via J = Lambda, t = 1+i; here beta' = conj(t)·beta·conj(t)^-1
    # genuinely differs from beta
    alg = hurwitz.algebra
    t = alg.one + alg.i
    beta = (alg.i - alg.j) ** 3
    p2 = prime_ideal_above(hurwitz, 2)
    displaced = TwoSidedIdeal.from_parts(hurwitz, hurwitz.lattice, t)
    assert displaced.lattice == p2.lattice
    cert = verify_arakelov_modular(IdealLattice(displaced, F(1)), beta, 8)
    assert cert.valid
    assert cert.beta_prime != beta


def _formula_identities(lattice, dual, beta, ell):
    """(dual_identity, similitude_identity) read off an explicit dual: does
    x -> x·beta' map its basis onto I, scaling the form by ell?"""
    tbar = lattice.ideal.t.conj()
    beta_prime = tbar * beta * tbar.inverse()
    if beta_prime.is_zero():
        return False, False
    image_rows = [(d * beta_prime).coords() for d in dual.elements()]
    image = ZLat4.from_rows(dual.algebra, image_rows)
    gram_dual = gram_of_rows(dual, dual.basis, lattice.alpha)
    gram_image = gram_of_rows(dual, image_rows, lattice.alpha)
    scaled = tuple(tuple(ell * x for x in row) for row in gram_dual)
    return image == lattice.ideal.lattice, gram_image == scaled


def _mutants(lattice, beta, ell):
    """The certified triple and its perturbations: beta+w and beta·(1+w)
    for each basis element w of the order, alpha scaled, ell replaced,
    and the ideal 2·Lambda, conj(beta) and i·beta in turn."""
    order = lattice.order
    alg = order.algebra
    ideal = lattice.ideal
    yield lattice, beta, ell
    for w in order.lattice.elements():
        yield lattice, beta + w, ell
        yield lattice, beta * (alg.one + w), ell
    for s in (F(1, 2), 2, 3):
        yield IdealLattice(ideal, lattice.alpha * s), beta, ell
    for other in (ell + 1, 2 * ell, ell * ell):
        yield lattice, beta, other
    yield IdealLattice(TwoSidedIdeal.scalar(order, 2), lattice.alpha), beta, ell
    yield lattice, beta.conj(), ell
    yield lattice, alg.i * beta, ell


def test_certificate_agrees_with_ideal_formula_dual_on_mutants(
    hurwitz, ideal_formula_dual
):
    # the matrix certificate never builds a dual; the oracle builds it by
    # ideal arithmetic and checks x -> x·beta' on its basis directly
    alg = hurwitz.algebra
    displaced = TwoSidedIdeal.from_parts(hurwitz, hurwitz.lattice, alg.one + alg.i)
    bases = [(IdealLattice(displaced, F(1)), (alg.i - alg.j) ** 3, 8)]
    for ell in (2, 27, 30, 72):
        lattice, cert = construct(ell)
        bases.append((lattice, cert.beta, ell))
    dual_of = lru_cache(maxsize=None)(ideal_formula_dual)
    verdicts = []
    for base in bases:
        for lattice, beta, ell in _mutants(*base):
            cert = verify_arakelov_modular(lattice, beta, ell)
            want = _formula_identities(lattice, dual_of(lattice), beta, ell)
            assert (cert.dual_identity, cert.similitude_identity) == want, (
                ell, beta, lattice.alpha,
            )
            verdicts.append(cert.valid)
    assert len(verdicts) == 5 * 18
    assert 5 <= verdicts.count(True) < verdicts.count(False)


def test_construct_certifies_without_ideal_arithmetic(monkeypatch):
    # the ideal comes in closed form and the certificate builds no dual,
    # so prime levels and prime powers alike need no ideal arithmetic;
    # every binding of these functions in the package is replaced
    def forbidden(*args, **kwargs):
        raise AssertionError("ideal arithmetic in construct")

    names = (
        "ideal_inverse",
        "codifferent",
        "prime_ideal_above",
        "ideal_mul",
        "ideal_pow",
        "radical_mod_p",
        "left_order",
        "right_order",
    )
    originals = {name: getattr(orders, name) for name in names}
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "amlat"]:
        for name, original in originals.items():
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(TwoSidedIdeal, "from_lattice", forbidden)
    for ell in (2, 3, 5, 17, 2689, 8, 27, 72, 3125, 120, 945):
        lattice, cert = construct(ell)
        assert cert.valid, ell
        assert lattice.discriminant == ell * ell


def test_modular_det_is_ell_squared(hurwitz, case2):
    for order, beta, ell in (
        (hurwitz, hurwitz.algebra.i - hurwitz.algebra.j, 2),
        (case2, case2.algebra.j, 3),
    ):
        lat = unit_lattice(order)
        cert = verify_arakelov_modular(lat, beta, ell)
        assert cert.valid
        assert lat.discriminant == ell * ell


def test_dual_image_scaling(hurwitz):
    # x -> x * beta' carries the dual onto the lattice, scaling det by ell^2
    lat = unit_lattice(hurwitz)
    alg = hurwitz.algebra
    dual = lat.dual_lattice()
    image = dual.right_mul(alg.i - alg.j)
    assert image == lat.ideal.lattice
    assert abs(image.det / dual.det) == 4


def test_minimum_hurwitz(hurwitz):
    assert unit_lattice(hurwitz).minimum_and_kissing() == (2, 24)


def test_minimum_prime_ideals(hurwitz, case2):
    p2 = prime_ideal_above(hurwitz, 2)
    assert IdealLattice(p2, F(1)).minimum_and_kissing()[0] == 4
    p3 = prime_ideal_above(case2, 3)
    assert IdealLattice(ideal_pow(p3, 1), F(1)).minimum_and_kissing()[0] == 6


def test_minimum_vs_brute_force_oracle(hurwitz, case2):
    rng = random.Random(97)
    grams = [unit_lattice(hurwitz).gram, unit_lattice(case2).gram]
    while len(grams) < 12:
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            g[i][i] = rng.randint(2, 10)
            for j in range(i + 1, 4):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            m = mat(g)
            ok = all(det(mat([row[:k] for row in m[:k]])) > 0 for k in range(1, 5))
        except Exception:
            ok = False
        if ok:
            grams.append(m)
    for gram in grams:
        assert minimum_and_kissing(gram) == brute_min_kissing(gram)


def test_vector_counts_match_closed_form(hurwitz):
    # the norm form of the (-1,-1) maximal order has exactly 24*sigma(m)
    # vectors of value 2m, sigma summing the odd divisors of m
    from collections import Counter

    counts = Counter()
    for _, val in short_vectors(unit_lattice(hurwitz).gram, 16):
        counts[int(val)] += 1
    for m in range(1, 9):
        sigma_odd = sum(d for d in range(1, m + 1) if m % d == 0 and d % 2)
        assert counts[2 * m] == 24 * sigma_odd


def test_short_vectors_signs_and_bound(hurwitz):
    gram = unit_lattice(hurwitz).gram
    seen = {}
    for coords, val in short_vectors(gram, 4):
        assert val <= 4
        seen[coords] = val
    for coords, val in seen.items():
        neg = tuple(-c for c in coords)
        assert seen.get(neg) == val


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        list(short_vectors([[1, 0], [0, -1]], 4))


def test_short_vectors_on_skew_lattice():
    # disc-130 maximal order; its norm form is skew enough that vectors of
    # modest value need coordinates far outside a small box
    from collections import Counter

    from amlat.classify import _STANDARD_BASIS
    from amlat.orders import maximalize, order_from_basis

    order = maximalize(
        order_from_basis(QuaternionAlgebra(-5, -13), _STANDARD_BASIS)
    )
    gram = unit_lattice(order).gram
    g = [[int(x) for x in row] for row in gram]
    enum = {}
    for coords, val in short_vectors(gram, 120):
        q = sum(coords[i] * g[i][j] * coords[j] for i in range(4) for j in range(4))
        assert q == val
        enum[coords] = int(val)
    box = max(abs(x) for coords in enum for x in coords)
    assert box > 5  # the fixed small box really would miss vectors here
    counts = Counter()
    rng = range(-box, box + 1)
    for x0 in rng:
        for x1 in rng:
            for x2 in rng:
                for x3 in rng:
                    if x0 == 0 and x1 == 0 and x2 == 0 and x3 == 0:
                        continue
                    x = (x0, x1, x2, x3)
                    q = sum(
                        x[i] * g[i][j] * x[j] for i in range(4) for j in range(4)
                    )
                    if q <= 120:
                        counts[q] += 1
    assert counts == Counter(enum.values())


# --- short_vectors against an exact oracle on G = U0·diag(d)·U0^T ---------------


@st.composite
def diagonalized_forms(draw):
    """(U0, d, bound): a random unimodular U0 built from elementary row
    operations, positive rational d and a rational bound."""
    n = draw(st.integers(1, 4))
    u0 = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u0[i] = [-x for x in u0[i]]
        else:
            c = draw(st.integers(-3, 3))
            u0[i] = [x + c * y for x, y in zip(u0[i], u0[j])]
    d = draw(st.lists(st.builds(F, st.integers(1, 20), st.integers(1, 3)),
                      min_size=n, max_size=n))
    bound = draw(st.builds(F, st.integers(-1, 24), st.integers(1, 4)))
    return mat(u0), d, bound


def oracle_short_vectors(u0, d, bound):
    """All (y·U0^-1, sum d_i y_i^2) <= bound, by a box over y."""
    u0_inv = inverse(u0)
    boxes = [range(-r, r + 1) for r in
             (isqrt(int(max(bound, 0) / di)) for di in d)]
    out = set()
    for y in product(*boxes):
        val = sum(di * yi * yi for di, yi in zip(d, y))
        if any(y) and val <= bound:
            out.add((tuple(int(x) for x in vec_mat(y, u0_inv)), val))
    return out


@settings(max_examples=80, deadline=None)
@given(diagonalized_forms())
def test_short_vectors_match_diagonal_oracle(form):
    u0, d, bound = form
    gram = mat_mul(mat_mul(u0, mat([[di if i == j else 0 for j in range(len(d))]
                                    for i, di in enumerate(d)])), transpose(u0))
    got = list(short_vectors(gram, bound))
    assert len(got) == len(set(got))
    assert set(got) == oracle_short_vectors(u0, d, bound)
    m = min(d)
    assert minimum_and_kissing(gram) == (m, 2 * d.count(m))
