"""Ideal lattices: Gram matrices, duals, modularity certificates, minima.

An ideal lattice is a pair (I, q_alpha) where I is a generalized
two-sided ideal of a maximal order and q_alpha(x, y) = trd(alpha·x·ȳ)
for a positive rational alpha.  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from operator import mul

from .linalg import (
    Mat,
    det,
    inverse,
    lll_integral,
    mat_mul,
    transpose,
)
from .orders import TwoSidedIdeal, ZLat4, _rmul_matrix, normalizer_contains
from .quaternion import QElem


class NonPositiveAlpha(ValueError):
    """The scaling of the bilinear form must be a positive rational."""


class DiscriminantFormulaMismatch(ArithmeticError):
    """det(Gram) disagrees with alpha^4 n(I)^4 n(D)^2 (internal bug guard)."""


def gram_of_rows(ideal_or_order_lattice: ZLat4, rows, alpha) -> Mat:
    """Gram matrix trd(alpha · w_k · conj(w_l)) for explicit basis rows."""
    alpha = Fraction(alpha)
    alg = ideal_or_order_lattice.algebra
    elems = [alg.element(*row) for row in rows]
    return tuple(
        tuple(alpha * (u * v.conj()).trd() for v in elems) for u in elems
    )


@dataclass(frozen=True)
class IdealLattice:
    """The lattice (I, q_alpha); the Gram matrix is cached on first use."""

    ideal: TwoSidedIdeal
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise NonPositiveAlpha(f"alpha = {self.alpha}")
        if not self.ideal.order.algebra.is_totally_definite:
            raise ValueError("the form is positive definite only over "
                             "totally definite algebras (a < 0 and b < 0)")

    @property
    def order(self):
        return self.ideal.order

    @cached_property
    def gram(self) -> Mat:
        return gram_of_rows(
            self.ideal.lattice, self.ideal.lattice.basis, self.alpha
        )

    @cached_property
    def discriminant(self) -> Fraction:
        """det(Gram), cross-checked against alpha^4 n(I)^4 n(D)^2."""
        d = det(self.gram)
        n_i = self.ideal.reduced_norm
        n_d = Fraction(self.order.reduced_disc)
        formula = self.alpha**4 * n_i**4 * n_d**2
        if d != formula:
            raise DiscriminantFormulaMismatch(f"det {d} vs formula {formula}")
        return d

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.gram for x in row)

    def is_even(self) -> bool:
        """Integral with even diagonal; by parity this makes q(x) even for all x."""
        return self.is_integral() and all(
            self.gram[k][k] % 2 == 0 for k in range(4)
        )

    def dual_lattice(self) -> ZLat4:
        """The dual I* = {x : q_alpha(x, I) in Z}, spanned by the rows Gram^-1 · B.

        The certificate does not build it: it checks U·G·U^T·G = ell·I_4
        for the matrix U of x -> x·beta' from this basis (Quebbemann 1995).
        """
        return ZLat4.from_rows(
            self.ideal.lattice.algebra,
            mat_mul(inverse(self.gram), self.ideal.lattice.basis),
        )

    def minimum_and_kissing(self) -> tuple[Fraction, int]:
        return minimum_and_kissing(self.gram)


@dataclass(frozen=True)
class ModularityCertificate:
    """Witness data for level-ell modularity of an ideal lattice.

    The lattice (I, q_alpha) with I = J·t is modular of level ell when
    beta lies in the order and its normalizer, nrd(beta) = ell, and
    x -> x·beta', beta' = conj(t)·beta·conj(t)^-1, is an isometry from
    (I*, ell·q_alpha) onto (I, q_alpha) (Quebbemann, "Modular lattices in
    Euclidean spaces", J. Number Theory 54 (1995)).  With U its matrix
    from the dual basis to the basis of I and G the Gram matrix,
    dual_identity says U is integral with det U = ±1 and
    similitude_identity says U·G·U^T·G = ell·I_4.
    """

    ell: int
    beta: QElem
    beta_prime: QElem
    t: QElem
    alpha: Fraction
    beta_in_order: bool
    beta_in_normalizer: bool
    nrd_beta_eq_ell: bool
    dual_identity: bool
    similitude_identity: bool

    def checks(self) -> dict[str, bool]:
        return {
            "beta_in_order": self.beta_in_order,
            "beta_in_normalizer": self.beta_in_normalizer,
            "nrd_beta_eq_ell": self.nrd_beta_eq_ell,
            "dual_identity": self.dual_identity,
            "similitude_identity": self.similitude_identity,
        }

    @property
    def valid(self) -> bool:
        return all(self.checks().values())


def verify_arakelov_modular(
    lattice: IdealLattice, beta: QElem, ell: int
) -> ModularityCertificate:
    """Run every modularity check; failures are recorded, never raised.

    The dual is not built: U = G^-1 · B · R(beta') · B^-1, with B the
    basis of I and R(beta') the matrix of x -> x·beta', and the identities
    U integral, |det U| = 1 and U·G·U^T·G = ell·I_4 (Quebbemann 1995) are
    checked on 4x4 matrices.
    """
    lam = lattice.order
    t = lattice.ideal.t
    tbar = t.conj()
    beta_prime = tbar * beta * tbar.inverse()

    in_order = lam.lattice.contains(beta)
    in_normalizer = (not beta.is_zero()) and normalizer_contains(lam, beta)
    nrd_ok = beta.nrd() == ell

    dual_ok = False
    simil_ok = False
    if not beta_prime.is_zero():
        g = lattice.gram
        lat = lattice.ideal.lattice
        u = mat_mul(
            mat_mul(inverse(g), lat.basis),
            mat_mul(_rmul_matrix(beta_prime), lat.basis_inv),
        )
        dual_ok = (
            all(x.denominator == 1 for row in u for x in row) and abs(det(u)) == 1
        )
        ugug = mat_mul(mat_mul(u, g), mat_mul(transpose(u), g))
        simil_ok = all(
            ugug[r][c] == (ell if r == c else 0) for r in range(4) for c in range(4)
        )

    return ModularityCertificate(
        ell=ell,
        beta=beta,
        beta_prime=beta_prime,
        t=t,
        alpha=lattice.alpha,
        beta_in_order=in_order,
        beta_in_normalizer=in_normalizer,
        nrd_beta_eq_ell=nrd_ok,
        dual_identity=dual_ok,
        similitude_identity=simil_ok,
    )


# --- exact shortest-vector enumeration ----------------------------------------


def _enumerate(lam, d, bound: int):
    """Fincke-Pohst: yield (y, den·y·G·yᵀ) for every nonzero integer y with
    den·y·G·yᵀ <= bound, from the fraction-free Gram-Schmidt data d, lam of
    the integer matrix den·G (1-based, as :func:`lll_integral` returns it).

    All arithmetic is on integers: den·y·G·yᵀ =
    sum_k (d_k·y_k + N_k)^2 / (d_{k-1}·d_k) with
    N_k = sum_{j>k} lam[j][k]·y_j, and scaling by the lcm of the
    denominators makes every partial sum an integer.
    """
    n = len(d) - 1
    scale = lcm(*(d[k - 1] * d[k] for k in range(1, n + 1)))
    weight = [0] + [scale // (d[k - 1] * d[k]) for k in range(1, n + 1)]
    total = bound * scale
    coords = [0] * (n + 1)

    def level(k: int, budget: int):
        num = sum(lam[j][k] * coords[j] for j in range(k + 1, n + 1))
        root = isqrt(budget // weight[k])
        for y in range(-((root + num) // d[k]), (root - num) // d[k] + 1):
            coords[k] = y
            t = d[k] * y + num
            rest = budget - weight[k] * t * t
            if k > 1:
                yield from level(k - 1, rest)
            elif any(coords):
                yield coords[1:], (total - rest) // scale
        coords[k] = 0

    yield from level(n, total)


def short_vectors(gram, bound):
    """Yield (coords, value) for all nonzero x with x·G·x^T <= bound.

    The enumeration runs on integers, on den·G_red with G_red = U·G·U^T
    the LLL-reduced Gram matrix (see :func:`lll_integral`), and each
    vector y found there is returned as x = y·U, so the coordinates are in
    the basis of the input and the value is a ``Fraction``.  Both signs
    of each vector are produced.  The order is deterministic but not
    lexicographic in x.
    """
    den, _, u, lam, d = lll_integral(gram)
    bound = Fraction(bound)
    if bound < 0:
        return
    u = [row[1:] for row in u[1:]]
    n = len(u)
    # an input that is already reduced, as minimum_and_kissing's is, keeps U = I
    same = u == [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    cols = tuple(zip(*u))
    for y, val in _enumerate(lam, d, bound.numerator * den // bound.denominator):
        x = tuple(y) if same else tuple(sum(map(mul, y, col)) for col in cols)
        yield x, Fraction(val, den)


def minimum_and_kissing(gram) -> tuple[Fraction, int]:
    """Exact minimum of the quadratic form over nonzero integer vectors,
    together with the number of vectors attaining it (counting both signs).

    The minimum and the kissing number do not change under a change of
    basis or a scaling, so they are counted among the :func:`short_vectors`
    of the integral matrix den·G_red that :func:`lll_integral` returns, up
    to its least diagonal entry, which is already the minimum or close to
    it.  There the reduction inside short_vectors is one pass without a
    swap, U = I, and every value is an integer; the one ``Fraction`` built
    is the minimum."""
    den, g, _, _, _ = lll_integral(gram)
    reduced = [row[1:] for row in g[1:]]
    best = min(reduced[k][k] for k in range(len(reduced)))
    count = 0
    for _, val in short_vectors(reduced, best):
        val = val.numerator
        if val < best:
            best = val
            count = 1
        elif val == best:
            count += 1
    return Fraction(best, den), count
