from fractions import Fraction

import pytest

from amlat.lattices import IdealLattice, short_vectors
from amlat.linalg import lll_integral
from amlat.orders import (
    TwoSidedIdeal,
    codifferent,
    ideal_inverse,
    normalizer_contains,
)


def _ideal_formula_dual(lattice):
    """The dual of (J·t, q_alpha) as the lattice alpha^-1 · D^-1 ·
    conj(J)^-1 · conj(t)^-1, built by ideal arithmetic alone: the
    codifferent D^-1, the inverse of the two-sided ideal conj(J), and
    lattice products.  An oracle for the Gram-inverse dual and for the
    matrix certificate, which use none of this."""
    lam = lattice.order
    jbar = TwoSidedIdeal.from_lattice(lam, lattice.ideal.j_part.conjugated())
    dual = codifferent(lam).product(ideal_inverse(jbar).lattice)
    dual = dual.scaled(1 / lattice.alpha)
    tbar = lattice.ideal.t.conj()
    if tbar != lam.algebra.one:
        dual = dual.right_mul(tbar.inverse())
    return dual


@pytest.fixture(scope="session")
def ideal_formula_dual():
    return _ideal_formula_dual


def _lll_reduced(gram):
    """(G_red, U) from lll_integral: G_red = U·G·U^T as Fractions and U
    unimodular, its row i the i-th reduced vector in the input basis."""
    den, g, h, _, _ = lll_integral(gram)
    g_red = tuple(tuple(Fraction(x, den) for x in row[1:]) for row in g[1:])
    return g_red, tuple(tuple(row[1:]) for row in h[1:])


@pytest.fixture(scope="session")
def lll_reduced():
    return _lll_reduced


def _shell_scan_beta(order, m):
    """The first x of the order with nrd(x) = m that normalizes it, found
    by scanning the whole shell q_1(x) = 2m of the order itself, or None.
    An oracle for search_beta, which enumerates the ideal of norm m."""
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


@pytest.fixture(scope="session")
def shell_scan_beta():
    return _shell_scan_beta
