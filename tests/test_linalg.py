import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amlat.linalg import (
    SingularBasis,
    SingularMatrix,
    det,
    hnf,
    identity,
    inverse,
    lattice_canonical_basis,
    lattice_contains,
    lattice_intersect,
    lll_gram,
    mat,
    mat_mul,
    modp_nullspace,
    modp_rref,
    transpose,
)

F = Fraction


def naive_det(m):
    """Independent oracle: recursive cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def random_unimodular(rng, n=4, steps=12):
    u = [list(row) for row in identity(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            c = rng.randint(-3, 3)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return mat(u)


def test_hnf_already_reduced():
    h, _ = hnf([[2, 0], [0, 2]])
    assert h == ((2, 0), (0, 2))


def test_hnf_reduces_and_factors():
    m = [[1, 2], [3, 4]]
    h, u = hnf(m)
    assert h == ((1, 0), (0, 2))
    assert mat_mul(mat(u), mat(m)) == mat(h)
    assert abs(det(mat(u))) == 1


def test_hnf_zero_matrix():
    h, u = hnf([[0, 0], [0, 0]])
    assert h == ((0, 0), (0, 0))
    assert mat(u) == identity(2)


def test_hnf_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        h, _ = hnf(m)
        h2, _ = hnf(h)
        assert h2 == h


def test_hnf_pivots_positive_and_reduced():
    rng = random.Random(11)
    for _ in range(20):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(6)]
        h, _ = hnf(m)
        pivots = []
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                pivots.append((nz[0], row[nz[0]]))
        for idx, (col, p) in enumerate(pivots):
            assert p > 0
            for above in range(idx):
                assert 0 <= h[above][col] < p


def test_canonical_basis_identity():
    eye = identity(4)
    assert lattice_canonical_basis(eye) == eye


def test_canonical_basis_matches_hnf_oracle():
    rows = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    got = lattice_canonical_basis(rows)
    oracle, _ = hnf(rows)
    assert got == mat(oracle)


def test_canonical_basis_unimodular_invariance():
    rng = random.Random(13)
    base = mat(
        [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (F(1, 2), 0, F(1, 2), 0),
            (0, F(1, 2), 0, F(1, 2)),
        ]
    )
    canon = lattice_canonical_basis(base)
    for _ in range(10):
        u = random_unimodular(rng)
        assert lattice_canonical_basis(mat_mul(u, base)) == canon


def test_canonical_basis_det_preserved():
    rng = random.Random(17)
    for _ in range(10):
        m = mat([[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)])
        if det(m) == 0:
            continue
        c = lattice_canonical_basis(m)
        assert abs(det(c)) == abs(det(m))


def test_canonical_basis_singular():
    with pytest.raises(SingularBasis):
        lattice_canonical_basis([(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


def test_det_identity():
    assert det(identity(4)) == 1


def test_det_gram_example():
    m = mat([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1], [1, 1, 1, 2]])
    assert det(m) == 4
    assert naive_det(m) == 4


def test_det_matches_naive_oracle():
    rng = random.Random(19)
    for _ in range(25):
        m = mat([[F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)])
        assert det(m) == naive_det(m)


def test_inverse_scalar():
    assert inverse(mat([[2]])) == ((F(1, 2),),)


def test_inverse_roundtrip_exact():
    rng = random.Random(23)
    checked = 0
    while checked < 15:
        m = mat([[F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)])
        if det(m) == 0:
            continue
        inv = inverse(m)
        assert mat_mul(m, inv) == identity(4)
        assert inverse(inv) == m
        checked += 1


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        inverse(mat([[1, 2], [2, 4]]))


def test_lattice_contains():
    eye = identity(4)
    assert lattice_contains(eye, (1, 0, 0, 0))
    assert not lattice_contains(eye, (F(1, 2), 0, 0, 0))
    hurwitz = lattice_canonical_basis(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (F(1, 2), F(1, 2), F(1, 2), F(1, 2))]
    )
    assert lattice_contains(hurwitz, (F(1, 2), F(1, 2), F(1, 2), F(1, 2)))


def test_lattice_contains_unimodular_invariance():
    rng = random.Random(29)
    basis = mat([(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)])
    vectors = [(1, 1, 0, 0), (1, 0, 0, 0), (0, 0, F(3, 2), 0), (3, 2, 3, 4)]
    for _ in range(8):
        u = random_unimodular(rng)
        moved = mat_mul(u, basis)
        for v in vectors:
            assert lattice_contains(moved, v) == lattice_contains(basis, v)


def test_hnf_preserves_row_span():
    rng = random.Random(31)
    for _ in range(15):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        if det(mat(m)) == 0:
            continue
        h, _ = hnf(m)
        for row in m:
            assert lattice_contains(mat(h), row)
        for row in h:
            assert lattice_contains(mat(m), row)


def test_lattice_intersect():
    a = mat([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    b = mat([(1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    got = lattice_intersect([a, b])
    want = lattice_canonical_basis([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert got == want


def test_modp_rref_and_nullspace():
    rows = [[1, 2, 0], [2, 4, 0]]
    r = modp_rref(rows, 5)
    assert r == [[1, 2, 0]]
    ns = modp_nullspace(rows, 5)
    assert len(ns) == 2
    for x in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, x)) % 5 == 0


# --- LLL on Gram matrices -----------------------------------------------------


def gram_schmidt(g):
    """Independent oracle: (B*, mu) of a Gram matrix by exact Gram-Schmidt."""
    n = len(g)
    bstar = [F(0)] * n
    mu = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mu[i][j] = (
                g[i][j] - sum(mu[j][k] * mu[i][k] * bstar[k] for k in range(j))
            ) / bstar[j]
        bstar[i] = g[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i))
    return bstar, mu


@st.composite
def rational_bases(draw):
    """Full-rank square matrices with small rational entries."""
    n = draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
    rows = mat(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(det(rows) != 0)
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_bases())
def test_lll_gram_properties(basis):
    g = mat_mul(basis, transpose(basis))
    g_red, u = lll_gram(g)
    assert all(isinstance(x, int) for row in u for x in row)
    assert abs(det(mat(u))) == 1
    assert g_red == mat_mul(mat_mul(mat(u), g), transpose(mat(u)))
    bstar, mu = gram_schmidt(g_red)
    for i in range(len(g)):
        for j in range(i):
            assert abs(mu[i][j]) <= F(1, 2)
        if i:
            assert bstar[i] >= (F(99, 100) - mu[i][i - 1] ** 2) * bstar[i - 1]


@pytest.mark.parametrize(
    "g",
    [
        [[1, 1], [1, 1]],
        [[1, 0], [0, -1]],
        [[0, 0], [0, 0]],
        [[1, 2], [2, 1]],
        [[2, 1], [0, 2]],
    ],
)
def test_lll_gram_rejects_asymmetric_or_not_positive_definite(g):
    with pytest.raises(ValueError):
        lll_gram(g)
