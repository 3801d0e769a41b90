import pytest

from amlat.orders import TwoSidedIdeal, codifferent, ideal_inverse


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
