"""Correctness oracles, independent of the code path that is timed.

They use only the numbers an operation returned and the benchmark's own
exact arithmetic in the standard basis 1, i, j, ij of the algebra (a, b),
where the form q_alpha is diagonal:
q_alpha(x) = 2 alpha (x0^2 - a x1^2 - b x2^2 + ab x3^2).
Each check returns None when the result is right, else a reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt, lcm

# --- number theory -------------------------------------------------------------


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_case(p: int) -> int:
    """The paper's construction case of a prime level."""
    if p == 2:
        return 1
    if p % 4 == 3:
        return 2
    if p % 8 == 5:
        return 3
    return 4


def aux_q(p: int) -> int:
    """Least prime q = 3 mod 4 with (p/q) = -1, for a case-4 prime p."""
    q = 3
    while not (is_prime(q) and q % 4 == 3 and pow(p % q, (q - 1) // 2, q) == q - 1):
        q += 4
    return q


# --- exact 4x4 rational algebra ----------------------------------------------


def form_diagonal(a, b, alpha) -> tuple[Fraction, ...]:
    two_alpha = 2 * Fraction(alpha)
    return (two_alpha, -a * two_alpha, -b * two_alpha, a * b * two_alpha)


def gram(rows, a, b, alpha) -> tuple:
    diag = form_diagonal(a, b, alpha)
    return tuple(
        tuple(sum(d * x * y for d, x, y in zip(diag, u, v)) for v in rows)
        for u in rows
    )


def det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def inverse(m) -> list[list[Fraction]]:
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def matmul(x, y):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]


def qmul(x, y, a, b):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def nrd(x, a, b) -> Fraction:
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def qinv(x, a, b):
    n = nrd(x, a, b)
    return (x[0] / n, -x[1] / n, -x[2] / n, -x[3] / n)


def right_mul_matrix(g, a, b):
    """Matrix of x -> x*g on coordinate rows."""
    units = [tuple(Fraction(int(i == k)) for k in range(4)) for i in range(4)]
    return [qmul(e, g, a, b) for e in units]


def in_lattice(basis_inv, x) -> bool:
    return all(
        sum(xi * row[j] for xi, row in zip(x, basis_inv)).denominator == 1
        for j in range(4)
    )


def is_unimodular(m) -> bool:
    return all(x.denominator == 1 for row in m for x in row) and abs(det(m)) == 1


# --- construct ----------------------------------------------------------------


def check_construction(ell: int, s: dict) -> str | None:
    """Certificate valid, and an independent recheck of level-ell modularity:
    the Gram matrix is the form on the ideal basis, it is even with
    determinant ell^2, beta lies in the order and normalizes it with
    nrd(beta) = ell, and x -> x*beta' maps the dual onto the lattice while
    scaling the form by ell."""
    if not s["valid"] or not all(s["checks"].values()):
        return f"certificate not valid: {s['checks']}"
    a, b, alpha = s["a"], s["b"], Fraction(s["alpha"])
    rows = [[Fraction(x) for x in row] for row in s["ideal"]]
    g = gram(rows, a, b, alpha)
    if tuple(map(tuple, s["gram"])) != g:
        return "Gram matrix is not the form on the ideal basis"
    if any(x.denominator != 1 for row in g for x in row) or any(
        g[k][k] % 2 for k in range(4)
    ):
        return "lattice is not even"
    if det(g) != ell * ell:
        return f"discriminant {det(g)} != {ell}^2"
    beta = tuple(Fraction(x) for x in s["beta"])
    t = tuple(Fraction(x) for x in s["t"])
    if nrd(beta, a, b) != ell:
        return f"nrd(beta) = {nrd(beta, a, b)} != {ell}"
    order_inv = inverse(s["order"])
    if not in_lattice(order_inv, beta):
        return "beta is not in the order"
    beta_inv = qinv(beta, a, b)
    for w in s["order"]:
        w = tuple(Fraction(x) for x in w)
        if not in_lattice(order_inv, qmul(qmul(beta, w, a, b), beta_inv, a, b)):
            return "beta does not normalize the order"
    tbar = (t[0], -t[1], -t[2], -t[3])
    beta_prime = qmul(qmul(tbar, beta, a, b), qinv(tbar, a, b), a, b)
    dual = matmul(inverse(g), rows)
    image = matmul(dual, right_mul_matrix(beta_prime, a, b))
    if not is_unimodular(matmul(image, inverse(rows))):
        return "x -> x*beta' does not map the dual lattice onto the lattice"
    if gram(image, a, b, alpha) != tuple(
        tuple(ell * x for x in row) for row in gram(dual, a, b, alpha)
    ):
        return "x -> x*beta' does not scale the form by ell"
    return None


# --- minimum and kissing number -----------------------------------------------


def brute_minimum(s: dict, bound: Fraction) -> tuple[Fraction, int] | None:
    """(min, kissing) over nonzero lattice vectors with q <= bound, found by
    scanning the box of standard coordinates x with q(x) <= bound in steps
    of 1/D, D the lcm of the basis denominators; None if there are none."""
    a, b, alpha = s["a"], s["b"], Fraction(s["alpha"])
    rows = [[Fraction(x) for x in row] for row in s["ideal"]]
    den = lcm(*(x.denominator for row in rows for x in row))
    # X = den * x is an integer vector; q(x) = scale * sum(w_i X_i^2).
    weights = (1, -a, -b, a * b)
    scale = 2 * alpha / (den * den)
    radius = int(bound / scale)
    # Membership x in L  <=>  X * inv(den * B) is integral.
    inv = inverse([[den * x for x in row] for row in rows])
    m = lcm(*(x.denominator for row in inv for x in row))
    cols = [[int(inv[i][j] * m) for i in range(4)] for j in range(4)]
    best, count = None, 0

    def span(budget, w):
        r = isqrt(budget // w)
        return range(-r, r + 1)

    for x3 in span(radius, weights[3]):
        b3 = radius - weights[3] * x3 * x3
        for x2 in span(b3, weights[2]):
            b2 = b3 - weights[2] * x2 * x2
            for x1 in span(b2, weights[1]):
                b1 = b2 - weights[1] * x1 * x1
                partial = [c[1] * x1 + c[2] * x2 + c[3] * x3 for c in cols]
                for x0 in span(b1, 1):
                    if not (x0 or x1 or x2 or x3):
                        continue
                    if any((c[0] * x0 + p) % m for c, p in zip(cols, partial)):
                        continue
                    val = radius - b1 + x0 * x0
                    if best is None or val < best:
                        best, count = val, 1
                    elif val == best:
                        count += 1
    return None if best is None else (best * scale, count)


def check_minimum(ell: int, s: dict, result, cache: dict | None = None) -> str | None:
    """(min, kissing) agree with the brute-force count in standard coordinates."""
    a, b, alpha = s["a"], s["b"], Fraction(s["alpha"])
    if tuple(map(tuple, s["gram"])) != gram(s["ideal"], a, b, alpha):
        return "Gram matrix is not the form on the ideal basis"
    minimum, kissing = Fraction(result[0]), result[1]
    if minimum <= 0:
        return f"minimum {minimum} is not positive"
    key = (ell, minimum)
    if cache is None or key not in cache:
        expected = brute_minimum(s, minimum)
        if cache is not None:
            cache[key] = expected
    else:
        expected = cache[key]
    if expected != (minimum, kissing):
        return f"reported (min, kissing) = ({minimum}, {kissing}), brute force {expected}"
    return None


# --- classify -------------------------------------------------------------------


def expected_classification(n: int) -> dict | None:
    """What `amlat classify --ell n` must print, from sympy.factorint; None
    when the odd-exponent support is empty or even, so no construction
    exists.  Supports of three or more primes are not benchmark inputs."""
    import sympy

    fact = sympy.factorint(n)
    odd = [p for p, e in fact.items() if e % 2]
    if len(odd) % 2 == 0:
        return None
    if len(odd) > 1:
        raise ValueError(f"{n}: odd support {odd} is outside the benchmark's inputs")
    p = odd[0]
    ell2 = p ** fact[p]
    case = prime_case(p)
    q = aux_q(p) if case == 4 else None
    a = -q if q else {1: -1, 2: -1, 3: -2}[case]
    b = -1 if case == 1 else -p
    return {"a": a, "b": b, "case": case, "ell": n, "ell1": isqrt(n // ell2), "ell2": ell2, "q": q}


def check_classify(n: int, code: int, out: str, err: str) -> str | None:
    want = expected_classification(n)
    if want is None:
        if code != 2 or not err.startswith("no construction:"):
            return f"expected an exact refusal (exit 2), got exit {code}"
        return None
    if code != 0:
        return f"expected a construction, got exit {code}: {err.strip()}"
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return f"stdout is not JSON: {out!r}"
    if got != want:
        return f"classify printed {got}, expected {want}"
    return None
