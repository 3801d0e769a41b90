"""Orders and two-sided ideals in a definite rational quaternion algebra.

Lattices are rank-4 Z-modules inside the algebra, held by a canonical
(Hermite-form derived) basis so that equal lattices compare equal.  The
row convention is used throughout: a lattice element is the coordinate
row of its expansion in the standard basis 1, i, j, ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import isqrt

from .linalg import (
    Mat,
    SingularBasis,
    det,
    inverse,
    lattice_canonical_basis,
    lattice_intersect,
    mat,
    mat_mul,
    modp_nullspace,
    modp_rref,
    vec_mat,
)
from .numth import _val, is_prime, prime_factors, rational_sqrt
from .quaternion import QElem, QuaternionAlgebra


class NotFullRank(ValueError):
    """Basis rows do not span a rank-4 lattice."""


class NotARing(ValueError):
    """Candidate order is not multiplicatively closed or misses 1."""


class NotIntegral(ValueError):
    """Candidate order contains elements without integral trace/norm."""


class NotTwoSided(ValueError):
    """Lattice is not a (generalized) two-sided ideal of the given order."""


class OrderMismatch(ValueError):
    """Ideal operands belong to different orders."""


class InverseVerificationFailed(ArithmeticError):
    """Computed ideal inverse failed the product check (internal bug guard)."""


class NotRamified(ValueError):
    """Prime is unramified, so no two-sided prime lies above it."""


class MaximalizationFailed(ArithmeticError):
    """Order enlargement reached a fixpoint below a maximal order."""


class NonSquareDiscriminant(ArithmeticError):
    """Trace-form determinant of a verified order must be a perfect square."""


class NonSquareIndex(ArithmeticError):
    """Generalized index of a two-sided ideal must be a rational square."""


_CONJ = mat(((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)))


def _lmul_matrix(g: QElem) -> Mat:
    """Matrix of x -> g*x acting on coordinate rows."""
    alg = g.algebra
    return tuple((g * e).coords() for e in alg.basis_elements())


def _rmul_matrix(g: QElem) -> Mat:
    """Matrix of x -> x*g acting on coordinate rows."""
    alg = g.algebra
    return tuple((e * g).coords() for e in alg.basis_elements())


@dataclass(frozen=True)
class ZLat4:
    """A full rank-4 lattice in the algebra, stored by canonical basis."""

    algebra: QuaternionAlgebra
    basis: Mat

    @classmethod
    def from_rows(cls, algebra: QuaternionAlgebra, rows) -> "ZLat4":
        try:
            return cls(algebra, lattice_canonical_basis(rows))
        except SingularBasis as exc:
            raise NotFullRank(str(exc)) from exc

    @cached_property
    def basis_inv(self) -> Mat:
        return inverse(self.basis)

    @cached_property
    def det(self) -> Fraction:
        return det(self.basis)

    def elements(self) -> tuple[QElem, ...]:
        return tuple(self.algebra.element(*row) for row in self.basis)

    def coords_of(self, x: QElem) -> tuple[Fraction, ...]:
        """Coordinates of x in this basis (rational in general)."""
        return vec_mat(x.coords(), self.basis_inv)

    def contains(self, x: QElem) -> bool:
        return all(c.denominator == 1 for c in self.coords_of(x))

    def scaled(self, c) -> "ZLat4":
        c = Fraction(c)
        if c == 0:
            raise ValueError("zero scaling")
        return ZLat4.from_rows(
            self.algebra, tuple(tuple(c * x for x in row) for row in self.basis)
        )

    def left_mul(self, g: QElem) -> "ZLat4":
        """The lattice g*L."""
        return ZLat4.from_rows(self.algebra, mat_mul(self.basis, _lmul_matrix(g)))

    def right_mul(self, g: QElem) -> "ZLat4":
        """The lattice L*g."""
        return ZLat4.from_rows(self.algebra, mat_mul(self.basis, _rmul_matrix(g)))

    def conjugated(self) -> "ZLat4":
        """The lattice of conjugates of the elements of L."""
        return ZLat4.from_rows(self.algebra, mat_mul(self.basis, _CONJ))

    def product(self, other: "ZLat4") -> "ZLat4":
        """Lattice spanned by all pairwise products (16 basis products)."""
        rows = [
            (u * v).coords() for u in self.elements() for v in other.elements()
        ]
        return ZLat4.from_rows(self.algebra, rows)

    def index_over(self, other: "ZLat4") -> Fraction:
        """Generalized index [other : self] = |det(self)| / |det(other)|."""
        return abs(self.det) / abs(other.det)


@dataclass(frozen=True)
class Order:
    """A verified order: unital, multiplicatively closed, integral."""

    lattice: ZLat4
    reduced_disc: int

    @property
    def algebra(self) -> QuaternionAlgebra:
        return self.lattice.algebra

    @cached_property
    def trace_matrix(self) -> Mat:
        """The matrix trd(v_i * v_j) over the basis (non-conjugated pairing)."""
        elems = self.lattice.elements()
        return tuple(
            tuple((u * v).trd() for v in elems) for u in elems
        )

    @cached_property
    def structure_constants(self) -> tuple:
        """Integer coordinates of v_i*v_j in the order basis, as sc[i][j]."""
        elems = self.lattice.elements()
        out = []
        for u in elems:
            row = []
            for v in elems:
                coords = self.lattice.coords_of(u * v)
                row.append(tuple(int(c) for c in coords))
            out.append(tuple(row))
        return tuple(out)


def order_from_basis(algebra: QuaternionAlgebra, rows) -> Order:
    """Verify that the rows span an order and compute its reduced discriminant.

    Checks 1 in the lattice, closure of all 16 basis products, and
    integrality of reduced trace/norm on the basis and on pairwise sums.
    """
    lat = ZLat4.from_rows(algebra, rows)
    if not lat.contains(algebra.one):
        raise NotARing("1 is not in the lattice")
    elems = lat.elements()
    for u in elems:
        if u.trd().denominator != 1 or u.nrd().denominator != 1:
            raise NotIntegral(f"basis element {u!r} is not integral")
    for a in range(4):
        for b in range(a + 1, 4):
            s = elems[a] + elems[b]
            if s.trd().denominator != 1 or s.nrd().denominator != 1:
                raise NotIntegral(f"pairwise sum {s!r} is not integral")
    for u in elems:
        for v in elems:
            if not lat.contains(u * v):
                raise NotARing(f"product ({u!r})*({v!r}) escapes the lattice")
    tmat = tuple(tuple((u * v).trd() for v in elems) for u in elems)
    d2 = abs(det(tmat))
    if d2 == 0 or d2.denominator != 1:
        raise NonSquareDiscriminant(f"trace-form determinant {d2}")
    d = isqrt(d2.numerator)
    if d * d != d2.numerator:
        raise NonSquareDiscriminant(f"{d2} is not a perfect square")
    return Order(lat, d)


def is_maximal(order: Order) -> bool:
    """Maximality test: reduced discriminant equals the algebra's."""
    return order.reduced_disc == order.algebra.reduced_discriminant


def left_order(lat: ZLat4) -> Order:
    """The order {x : x*L inside L}, by exact lattice intersection."""
    bases = [
        mat_mul(lat.basis, inverse(_rmul_matrix(b))) for b in lat.elements()
    ]
    return order_from_basis(lat.algebra, lattice_intersect(bases))


def right_order(lat: ZLat4) -> Order:
    """The order {x : L*x inside L}."""
    bases = [
        mat_mul(lat.basis, inverse(_lmul_matrix(b))) for b in lat.elements()
    ]
    return order_from_basis(lat.algebra, lattice_intersect(bases))


@dataclass(frozen=True)
class TwoSidedIdeal:
    """A generalized two-sided ideal I = J*t with J two-sided over the order.

    ``lattice`` holds I itself; ``t`` the invertible displacement (1 for
    honest two-sided ideals).  Construction validates the shape.
    """

    order: Order
    lattice: ZLat4
    t: QElem

    @classmethod
    def from_lattice(cls, order: Order, lat: ZLat4) -> "TwoSidedIdeal":
        """Wrap a lattice that is two-sided over the order (t = 1)."""
        if left_order(lat).lattice != order.lattice:
            raise NotTwoSided("left order differs from the given order")
        if right_order(lat).lattice != order.lattice:
            raise NotTwoSided("right order differs from the given order")
        return cls(order, lat, order.algebra.one)

    @classmethod
    def from_parts(cls, order: Order, j_lat: ZLat4, t: QElem) -> "TwoSidedIdeal":
        """Build J*t from a two-sided J and invertible t."""
        if t.is_zero():
            raise ValueError("t must be invertible")
        base = cls.from_lattice(order, j_lat)
        if t == order.algebra.one:
            return base
        return cls(order, j_lat.right_mul(t), t)

    @classmethod
    def unit(cls, order: Order) -> "TwoSidedIdeal":
        return cls(order, order.lattice, order.algebra.one)

    @classmethod
    def scalar(cls, order: Order, c) -> "TwoSidedIdeal":
        return cls(order, order.lattice.scaled(c), order.algebra.one)

    @cached_property
    def j_part(self) -> ZLat4:
        """The two-sided component J = I * t^-1."""
        if self.t == self.order.algebra.one:
            return self.lattice
        return self.lattice.right_mul(self.t.inverse())

    @cached_property
    def reduced_norm(self) -> Fraction:
        """n(I) = n(J) * nrd(t), with n(J)^2 the generalized index of J."""
        idx = self.j_part.index_over(self.order.lattice)
        nj = rational_sqrt(idx)
        if nj is None:
            raise NonSquareIndex(f"index {idx} is not a rational square")
        return nj * self.t.nrd()


def ideal_mul(a: TwoSidedIdeal, b: TwoSidedIdeal) -> TwoSidedIdeal:
    """Product ideal, spanned by the 16 pairwise basis products."""
    if a.order != b.order:
        raise OrderMismatch("ideal product across different orders")
    one = a.order.algebra.one
    if a.t != one or b.t != one:
        raise ValueError("ideal products require two-sided operands (t = 1)")
    return TwoSidedIdeal.from_lattice(a.order, a.lattice.product(b.lattice))


def ideal_pow(a: TwoSidedIdeal, n: int) -> TwoSidedIdeal:
    if n < 0:
        raise ValueError("negative powers: use ideal_inverse")
    out = TwoSidedIdeal.unit(a.order)
    for _ in range(n):
        out = ideal_mul(out, a)
    return out


def ideal_inverse(a: TwoSidedIdeal) -> TwoSidedIdeal:
    """The inverse {x : I*x inside Lambda}; verified by multiplying back."""
    lam = a.order.lattice
    bases = [
        mat_mul(lam.basis, inverse(_lmul_matrix(b))) for b in a.lattice.elements()
    ]
    inv_lat = ZLat4.from_rows(a.order.algebra, lattice_intersect(bases))
    inv = TwoSidedIdeal.from_lattice(a.order, inv_lat)
    if ideal_mul(a, inv).lattice != lam:
        raise InverseVerificationFailed("I * I^-1 is not the order")
    return inv


def codifferent(order: Order) -> ZLat4:
    """Dual lattice of the order under the pairing (x, y) -> trd(x*y)."""
    rows = mat_mul(inverse(order.trace_matrix), order.lattice.basis)
    return ZLat4.from_rows(order.algebra, rows)


def normalizer_contains(order: Order, g: QElem) -> bool:
    """Whether g*Lambda*g^-1 is contained in Lambda (hence equal to it)."""
    if g.is_zero():
        raise ValueError("zero does not normalize anything")
    ginv = g.inverse()
    lat = order.lattice
    return all(lat.contains(g * v * ginv) for v in lat.elements())


# --- the radical of Lambda/p·Lambda and prime ideals --------------------------


def _modp_mul(sc, x, y, p):
    z = [0, 0, 0, 0]
    for i in range(4):
        if not x[i]:
            continue
        for j in range(4):
            if not y[j]:
                continue
            f = x[i] * y[j]
            row = sc[i][j]
            for k in range(4):
                z[k] = (z[k] + f * row[k]) % p
    return z


def _modp_products_span(sc, s1, s2, p):
    prods = [_modp_mul(sc, x, y, p) for x in s1 for y in s2]
    return modp_rref(prods, p) if prods else []


def _generates_nilpotent_ideal(sc, z, p) -> bool:
    units = [[1 if k == i else 0 for k in range(4)] for i in range(4)]
    span = modp_rref([z], p)
    while True:
        ext = list(span)
        for s in span:
            for e in units:
                ext.append(_modp_mul(sc, e, s, p))
                ext.append(_modp_mul(sc, s, e, p))
        new = modp_rref(ext, p)
        if len(new) == len(span):
            break
        span = new
    # Powers of an ideal are nested, so the dimension must strictly drop
    # to zero; a repeat means the chain is stuck at a non-nilpotent ideal.
    power = span
    prev = len(span) + 1
    while power:
        if len(power) >= prev:
            return False
        prev = len(power)
        power = _modp_products_span(sc, power, span, p)
    return True


def radical_mod_p(order: Order, p: int) -> list[list[int]]:
    """Basis of the Jacobson radical of Lambda/p·Lambda over F_p.

    For p >= 5 the radical is the kernel of the regular trace form
    (valid since all composition multiplicities and matrix components
    are smaller than p); for p in {2, 3} it is found by enumerating the
    elements that generate nilpotent ideals.
    """
    sc = order.structure_constants
    if p >= 5:
        tau = [sum(sc[i][j][j] for j in range(4)) % p for i in range(4)]
        form = [
            [sum(sc[m][l][i] * tau[i] for i in range(4)) % p for l in range(4)]
            for m in range(4)
        ]
        return modp_nullspace(form, p)
    nilp = [
        list(z)
        for z in product(range(p), repeat=4)
        if any(z) and _generates_nilpotent_ideal(sc, list(z), p)
    ]
    rad = modp_rref(nilp, p) if nilp else []
    if rad and not _generates_nilpotent_ideal(sc, rad[0], p):
        raise ArithmeticError("radical sanity check failed")  # pragma: no cover
    return rad


def _radical_lift_lattice(order: Order, p: int, rad) -> ZLat4:
    """The two-sided ideal p·Lambda + (lift of the radical)."""
    basis = order.lattice.basis
    rows = [tuple(p * x for x in row) for row in basis]
    for vec in rad:
        rows.append(
            tuple(
                sum(Fraction(vec[k]) * basis[k][c] for k in range(4))
                for c in range(4)
            )
        )
    return ZLat4.from_rows(order.algebra, rows)


def prime_ideal_above(order: Order, p: int) -> TwoSidedIdeal:
    """The unique two-sided prime P over a ramified p, with P^2 = p·Lambda."""
    if p not in order.algebra.ramified_primes:
        raise NotRamified(f"{p} is not ramified in {order.algebra!r}")
    rad = radical_mod_p(order, p)
    lat = _radical_lift_lattice(order, p, rad)
    prime = TwoSidedIdeal.from_lattice(order, lat)
    if ideal_mul(prime, prime).lattice != order.lattice.scaled(p):
        raise ArithmeticError(
            f"P^2 != {p}·Lambda for the radical lift"
        )  # pragma: no cover
    return prime


# --- maximalization ----------------------------------------------------------


def _ring_closure(algebra: QuaternionAlgebra, rows, max_rounds: int = 8):
    """Smallest multiplicatively closed lattice containing the rows, or None."""
    basis = lattice_canonical_basis(rows)
    for _ in range(max_rounds):
        elems = [algebra.element(*row) for row in basis]
        prods = [(u * v).coords() for u in elems for v in elems]
        new = lattice_canonical_basis(list(basis) + prods)
        if new == basis:
            return basis
        basis = new
    return None


def _try_enlargement(order: Order, x: QElem) -> Order | None:
    if x.trd().denominator != 1 or x.nrd().denominator != 1:
        return None
    rows = list(order.lattice.basis) + [x.coords()]
    closed = _ring_closure(order.algebra, rows)
    if closed is None:
        return None
    try:
        cand = order_from_basis(order.algebra, closed)
    except (NotARing, NotIntegral, NotFullRank):
        return None
    if cand.reduced_disc < order.reduced_disc:
        return cand
    return None


def _enlarge_at(order: Order, p: int) -> Order | None:
    """One enlargement step at p: radical climb, then element search."""
    rad = radical_mod_p(order, p)
    if rad:
        lat = _radical_lift_lattice(order, p, rad)
        for side in (left_order, right_order):
            cand = side(lat)
            if cand.reduced_disc < order.reduced_disc:
                return cand
    # Hereditary split orders stall the radical climb; look for an
    # integral element v/p directly (one candidate per projective line).
    basis = order.lattice.elements()
    for lead in range(4):
        for rest in product(range(p), repeat=3 - lead):
            coeffs = [0] * lead + [1] + list(rest)
            v = order.algebra.scalar(0)
            for c, w in zip(coeffs, basis):
                if c:
                    v = v + c * w
            cand = _try_enlargement(order, v / p)
            if cand is not None:
                return cand
    return None


def _pizer_order(algebra: QuaternionAlgebra) -> Order | None:
    """Pizer's order Z<(1+i)/2, (j+ij)/2, (i+c·ij)/q, ij> of (-q, -m), or None.

    The recipe needs q prime, q = 3 (mod 4), q not dividing m > 0, and c
    with q | c²m + 1.  Since q = 3 (mod 4), c = (-1/m)^((q+1)/4) mod q is
    a square root of -1/m whenever one exists, so no search is needed.
    The order is maximal in the algebras of case 4 (m a prime = 1 mod 8,
    (-m/q) = 1), but not for every m: (-7, -10) has reduced discriminant
    5 and the order 10.  Callers therefore check is_maximal.
    """
    q, m = -algebra.a, -algebra.b
    if q < 3 or q % 4 != 3 or m < 1 or m % q == 0 or not is_prime(q):
        return None
    c = pow(-pow(m, -1, q), (q + 1) // 4, q)
    if (c * c * m + 1) % q:
        return None
    h = Fraction(1, 2)
    rows = (
        (h, h, 0, 0),
        (0, 0, h, h),
        (0, Fraction(1, q), 0, Fraction(c, q)),
        (0, 0, 0, 1),
    )
    return order_from_basis(algebra, rows)


def maximalize(order: Order) -> Order:
    """A maximal order containing the given one.

    A non-maximal order of (-q, -m) is first tried against Pizer's
    closed-form maximal order (Pizer, "An algorithm for computing modular
    forms on Γ0(N)", J. Algebra 64 (1980), §5), which is returned when it
    is maximal and contains the given order.  Otherwise the order climbs
    prime by prime (ascending) while its reduced discriminant exceeds the
    algebra's; each step strictly decreases it, so the loop terminates.
    """
    target = order.algebra.reduced_discriminant
    if order.reduced_disc != target:
        pizer = _pizer_order(order.algebra)
        if (
            pizer is not None
            and is_maximal(pizer)
            and all(pizer.lattice.contains(x) for x in order.lattice.elements())
        ):
            return pizer
    cur = order
    while cur.reduced_disc != target:
        bad = min(
            p
            for p in prime_factors(cur.reduced_disc)
            if _val(cur.reduced_disc, p)[0] > _val(target, p)[0]
        )
        nxt = _enlarge_at(cur, bad)
        if nxt is None:
            raise MaximalizationFailed(
                f"stuck at reduced discriminant {cur.reduced_disc} (prime {bad})"
            )
        cur = nxt
    if not is_maximal(cur):  # pragma: no cover - definitional
        raise MaximalizationFailed("exit order is not maximal")
    return cur


# --- catalog of explicit maximal-order bases ----------------------------------

_H = Fraction(1, 2)

CATALOG_BASES: dict[str, tuple] = {
    # (-1,-1): the Hurwitz order 1, i, j, (1+i+j+ij)/2
    "case1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (_H, _H, _H, _H)),
    # (-1,-p), p = 3 mod 4: 1, i, (1+j)/2, (i+ij)/2
    "case2": ((1, 0, 0, 0), (0, 1, 0, 0), (_H, 0, _H, 0), (0, _H, 0, _H)),
    # (-2,-p), p = 5 mod 8: i, (1+i+j)/2, j, (2+i+ij)/4
    "case3": (
        (0, 1, 0, 0),
        (_H, _H, _H, 0),
        (0, 0, 1, 0),
        (_H, Fraction(1, 4), 0, Fraction(1, 4)),
    ),
    # (-3,-17): 1, (1+i)/2, (3+i+3j+ij)/6, (-3+i-2ij)/6
    "ell17": (
        (1, 0, 0, 0),
        (_H, _H, 0, 0),
        (_H, Fraction(1, 6), _H, Fraction(1, 6)),
        (-_H, Fraction(1, 6), 0, Fraction(-1, 3)),
    ),
}

PRESET_ALIASES = {"hurwitz": "case1"}


def preset_order(name: str, algebra: QuaternionAlgebra) -> Order:
    """Build and verify a catalog order basis inside the given algebra."""
    key = PRESET_ALIASES.get(name, name)
    if key not in CATALOG_BASES:
        raise KeyError(f"unknown order preset {name!r}")
    return order_from_basis(algebra, CATALOG_BASES[key])
