"""Exact rational linear algebra for small integer lattices.

Matrices are immutable tuples of tuples of :class:`fractions.Fraction`
(or plain ints for the integer-only routines).  Every operation here is
exact; no floating point is used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


class SingularMatrix(ValueError):
    """Square matrix with determinant zero where an inverse was required."""


class SingularBasis(ValueError):
    """Rows expected to span a full-rank lattice are linearly dependent."""


def mat(rows) -> Mat:
    """Coerce nested iterables of ints/Fractions into an immutable matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def vec_mat(v, m: Mat) -> Vec:
    """Row vector times matrix (the package-wide row convention)."""
    return tuple(
        sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))
    )


def hnf(m) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns ``(H, U)`` with ``H = U @ m``, ``U`` unimodular over the
    integers, and ``H`` in the canonical form used for lattice equality:
    row echelon with positive pivots and every entry above a pivot
    reduced into ``[0, pivot)``.  Zero rows sink to the bottom.
    """
    rows = [list(int(x) for x in row) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def addmul(dst, src, q):
        if q:
            rdst, rsrc = rows[dst], rows[src]
            for j in range(ncols):
                rdst[j] += q * rsrc[j]
            udst, usrc = u[dst], u[src]
            for j in range(nrows):
                udst[j] += q * usrc[j]

    def swap(i, k):
        if i != k:
            rows[i], rows[k] = rows[k], rows[i]
            u[i], u[k] = u[k], u[i]

    def negate(i):
        rows[i] = [-x for x in rows[i]]
        u[i] = [-x for x in u[i]]

    piv = 0
    for col in range(ncols):
        if piv >= nrows:
            break
        # shrink the column below piv to a single nonzero entry by gcd steps
        while True:
            live = [k for k in range(piv, nrows) if rows[k][col] != 0]
            if not live:
                break
            k0 = min(live, key=lambda k: abs(rows[k][col]))
            swap(piv, k0)
            done = True
            for k in range(piv + 1, nrows):
                if rows[k][col] != 0:
                    addmul(k, piv, -(rows[k][col] // rows[piv][col]))
                    if rows[k][col] != 0:
                        done = False
            if done:
                break
        if rows[piv][col] == 0:
            continue
        if rows[piv][col] < 0:
            negate(piv)
        p = rows[piv][col]
        for k in range(piv):
            addmul(k, piv, -(rows[k][col] // p))
        piv += 1

    h = tuple(tuple(r) for r in rows)
    return h, tuple(tuple(r) for r in u)


def lattice_canonical_basis(rows) -> Mat:
    """Canonical basis of the lattice spanned by rational rows.

    Clears denominators by their lcm, takes the Hermite normal form of
    the resulting integer matrix and divides back, so that any two row
    sets spanning the same lattice produce identical output.  The span
    must have rank equal to the number of columns.
    """
    m = mat(rows)
    if not m:
        raise SingularBasis("empty basis")
    ncols = len(m[0])
    den = lcm(*(x.denominator for row in m for x in row)) if m else 1
    ints = tuple(tuple(int(x * den) for x in row) for row in m)
    h, _ = hnf(ints)
    nonzero = [row for row in h if any(row)]
    if len(nonzero) != ncols:
        raise SingularBasis(f"rank {len(nonzero)} < {ncols}")
    return tuple(tuple(Fraction(x, den) for x in row) for row in nonzero)


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix, in place."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det(m: Mat) -> Fraction:
    """Exact determinant via Bareiss elimination on the cleared matrix."""
    m = mat(m)
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    denom = Fraction(1)
    ints = []
    for row in m:
        d = lcm(*(x.denominator for x in row))
        denom *= d
        ints.append([int(x * d) for x in row])
    return Fraction(_bareiss_det(ints)) / denom


def inverse(m: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    m = mat(m)
    n = len(m)
    a = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def lattice_contains(basis: Mat, v) -> bool:
    """Whether the row vector ``v`` lies in the row span of ``basis`` over ℤ."""
    coords = vec_mat(tuple(Fraction(x) for x in v), inverse(basis))
    return all(c.denominator == 1 for c in coords)


def lattice_sum(bases) -> Mat:
    """Canonical basis of the sum of several lattices (stack then reduce)."""
    stacked = [row for b in bases for row in b]
    return lattice_canonical_basis(stacked)


def lattice_intersect(bases) -> Mat:
    """Intersection of full-rank lattices via duality.

    Uses the identity  L1 ∩ L2 = (L1* + L2*)*  where the dual of a row
    basis B is the row span of (B^-1)^T.
    """
    duals = [transpose(inverse(mat(b))) for b in bases]
    s = lattice_sum(duals)
    return lattice_canonical_basis(transpose(inverse(s)))


# --- LLL reduction of a positive definite Gram matrix -----------------------


def lll_integral(gram) -> tuple[int, list, list, list, list]:
    """Cohen's fraction-free integral LLL with δ = 99/100, on plain ints.

    The rational Gram matrix G is scaled by den, the lcm of its entries'
    denominators (entries may be anything ``Fraction`` accepts).  Returns
    ``(den, g, h, lam, d)``, all 1-based (row and column 0 unused,
    ``d[0] = 1``): ``g = den·U·G·Uᵀ`` and ``h = U`` with ``U`` unimodular,
    and the fraction-free Gram-Schmidt data of the reduced basis,
    ``d[i]`` the Gram determinant of its first i vectors and
    ``lam[i][j] = d[j]·μ_ij`` for j < i (*A Course in Computational
    Algebraic Number Theory*, Alg. 2.6.7).  Raises ValueError when G is
    not square, symmetric and positive definite.
    """
    rows = [
        [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        for row in gram
    ]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("gram matrix must be square and symmetric")
    den = lcm(*(x.denominator for row in rows for x in row))
    # 1-based as in Cohen; index 0 of every vector array is unused
    g = [[0] * (n + 1)] + [
        [0] + [x.numerator * (den // x.denominator) for x in row] for row in rows
    ]
    if any(g[i][j] != g[j][i] for i in range(2, n + 1) for j in range(1, i)):
        raise ValueError("gram matrix must be square and symmetric")
    h = [[0] * (n + 1)] + [[0] * i + [1] + [0] * (n - i) for i in range(1, n + 1)]
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    d = [1] + [0] * n

    def red(k: int, l: int) -> None:
        # size-reduce b_k against b_l so that |μ_kl| <= 1/2
        if 2 * abs(lam[k][l]) <= d[l]:
            return
        q = (2 * lam[k][l] + d[l]) // (2 * d[l])  # nearest integer to μ_kl
        for row in (h, g):
            rk, rl = row[k], row[l]
            for j in range(1, n + 1):
                rk[j] -= q * rl[j]
        for row in g[1:]:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l]
        for i in range(1, l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        h[k], h[k - 1] = h[k - 1], h[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g[1:]:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        b = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * t) // d[k - 1]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k]
        d[k - 1] = b

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:
            # Gram-Schmidt row k; every division is exact
            kmax = k
            for j in range(1, k + 1):
                u = g[k][j]
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
            d[k] = u
            if u <= 0:
                raise ValueError("gram matrix is not positive definite")
        if k == 1:
            k = 2
            continue
        red(k, k - 1)
        # Lovász condition d_k·d_{k-2} >= (99/100)·d_{k-1}² - λ_{k,k-1}²
        if 100 * (d[k] * d[k - 2] + lam[k][k - 1] ** 2) < 99 * d[k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
            continue
        for l in range(k - 2, 0, -1):
            red(k, l)
        k += 1
    return den, g, h, lam, d


# --- small dense linear algebra over the prime field F_p ---------------------


def modp_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """Reduced row echelon form over F_p; returns the nonzero rows."""
    a = [[x % p for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    piv = 0
    for col in range(ncols):
        k = next((i for i in range(piv, len(a)) if a[i][col]), None)
        if k is None:
            continue
        a[piv], a[k] = a[k], a[piv]
        inv = pow(a[piv][col], -1, p)
        a[piv] = [(inv * x) % p for x in a[piv]]
        for i in range(len(a)):
            if i != piv and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[piv])]
        piv += 1
    return [row for row in a if any(row)]


def modp_nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace {x : rows @ x = 0} over F_p."""
    ncols = len(rows[0]) if rows else 0
    r = modp_rref(rows, p)
    pivots = []
    for row in r:
        pivots.append(next(j for j, x in enumerate(row) if x))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for row, pc in zip(r, pivots):
            x[pc] = (-row[f]) % p
        basis.append(x)
    return basis
