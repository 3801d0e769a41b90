"""Integer number theory: primality, factorization, quadratic symbols.

Primality is deterministic Miller-Rabin to the 13 prime bases 2..41,
which is a proof below PRIMALITY_CAP = psi_13 = 3317044064679887385961981
(Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86 (2017)).  Factoring splits cofactors with Pollard's rho in
Brent's variant, within a fixed budget of steps per cofactor.  Neither
uses floating point or randomness.  Where a proof would need a prime at
or above the cap, or rho exhausts its budget, NumberTooLarge is raised.

The Hilbert symbol follows the convention that ``p = -1`` denotes the
real place (as in most computer algebra systems).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt

REAL_PLACE = -1

# psi_13: the least odd composite that passes the strong test to every
# prime base up to 41.
PRIMALITY_CAP = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# every composite below 1000 has a divisor below 32
_SMALL_PRIMES = tuple(
    sorted(
        set(range(2, 1000)).difference(*(range(d * d, 1000, d) for d in range(2, 32)))
    )
)
# 1009 is the least prime above _SMALL_PRIMES, so an integer below its
# square with no factor in _SMALL_PRIMES is prime.
_TRIAL_LIMIT = 1009 * 1009
# Every composite below PRIMALITY_CAP has a prime factor p < 1.83e12, and
# rho meets a cycle mod p after about sqrt(p) < 1.4e6 steps.  The budget is
# about 7 times that: it admits Brent's rounds up to r = 2**21 (8.4e6
# steps).  22 products of two primes in [0.9e12, 3.2e12] took at most 3.7e6.
# From 2**333, a little above 10**100, a step counts more (_step_weight).
_RHO_STEPS = 10**7


class InvalidPrime(ValueError):
    """Argument was required to be an (odd) prime and is not."""


class NumberTooLarge(ValueError):
    """Primality at or above PRIMALITY_CAP, or a factor beyond rho's budget."""


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIMALITY_CAP.

    Small primes are divided out first; the rest get the strong
    Miller-Rabin test to the 13 prime bases 2..41.  At or above the cap a
    base that shows n composite is still a proof, but a pass is not, so it
    raises NumberTooLarge instead of returning a probable prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return n < _TRIAL_LIMIT or _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Strong test of an odd n > 41 to every base in _MR_BASES."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_CAP:
        raise NumberTooLarge(
            f"{n} passes Miller-Rabin to the bases 2..41 but is not below the "
            f"primality cap {PRIMALITY_CAP} (psi_13, Sorenson-Webster 2017), "
            "so its primality cannot be proved"
        )
    return True


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _step_weight(n: int) -> int:
    """What one rho step on n counts against _RHO_STEPS: ⌈bits/333⌉².

    A step is a multiplication mod n, whose cost grows with the size of n,
    though more slowly than this weight: measured against a 100-digit n,
    about 24 times at 1000 digits and 330 times at 4300.  At the sizes
    measured this held rho above 10**100 to seconds, at the price of fewer
    steps there (10**5 at 1000 digits) than time alone would allow.  Every
    n below 2**333, so every n below 10**100, counts 1.
    """
    return ((n.bit_length() + 332) // 333) ** 2


def _rho(n: int) -> int:
    """A proper factor of an odd composite n that is not a perfect power.

    Pollard's rho with Brent's cycle finding on x -> x² + c, gcds taken
    over batches of products; c runs through 1, 2, 3, ... so the result is
    deterministic.  Each round of r costs at most 2r steps of the map; the
    steps of all c together are counted once per round, each weighted by
    _step_weight(n), and a round that would take them past _RHO_STEPS
    raises NumberTooLarge instead.
    """
    batch = 128
    weight = _step_weight(n)
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r * weight
            if steps > _RHO_STEPS:
                raise NumberTooLarge(
                    f"{n} is composite, but Brent's rho found no factor of it "
                    f"within its budget of {_RHO_STEPS} steps, each step on "
                    f"this {n.bit_length()}-bit number counted {weight} times"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _split(m: int, e: int, out: dict[int, int]) -> None:
    """Add the factorization of m**e to out.

    m > 1 is either a prime below _TRIAL_LIMIT or free of _SMALL_PRIMES,
    so a perfect power m = r**p has r >= 1009.
    """
    for p in _SMALL_PRIMES:
        if m < 1009**p:
            break
        r = _iroot(m, p)
        if r**p == m:
            _split(r, e * p, out)
            return
    if m < _TRIAL_LIMIT or _miller_rabin(m):
        out[m] = out.get(m, 0) + e
        return
    d = _rho(m)
    _split(d, e, out)
    _split(m // d, e, out)


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero.

    Small primes are divided out, and each cofactor is split by Brent's
    rho.  Raises NumberTooLarge if a cofactor at or above PRIMALITY_CAP
    looks prime, or if rho finds no factor of a cofactor within
    _RHO_STEPS steps, weighted by the cofactor's size (_step_weight).
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if n < p * p:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        _split(n, 1, out)
    return dict(sorted(out.items()))


def prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct primes dividing |n|."""
    return tuple(factorint(n))


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by reciprocity (no factoring).

    For prime n it is the Legendre symbol.
    """
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: the Jacobi symbol (a/p)."""
    if p == 2 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")
    return _jacobi(a, p)


def _val(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and p not dividing u."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _hilbert_odd(a: int, b: int, p: int) -> int:
    alpha, u = _val(a, p)
    beta, v = _val(b, p)
    sign = 1
    if (alpha * beta * ((p - 1) // 2)) % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def _hilbert_two_direct(a: int, b: int) -> int:
    alpha, u = _val(a, 2)
    beta, v = _val(b, 2)
    e = ((u - 1) // 2) * ((v - 1) // 2)
    e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
    return -1 if e % 2 else 1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a,b)_p over the rationals, in {-1, +1}.

    -1 exactly when the quaternion algebra (a,b) is a division algebra
    over the completion at p.  ``p = -1`` (REAL_PLACE) is the real place.

    The symbol at p = 2 is computed by the standard 2-adic unit formula
    and independently cross-checked against the product formula over all
    other places; a mismatch would indicate a bug and raises.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if p == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    if p != 2:
        if not is_prime(p):
            raise InvalidPrime(f"{p} is not a prime or the real place")
        return _hilbert_odd(a, b, p)
    direct = _hilbert_two_direct(a, b)
    others = -1 if (a < 0 and b < 0) else 1
    for q in prime_factors(a * b):
        if q != 2:
            others *= _hilbert_odd(a, b, q)
    if direct != others:  # pragma: no cover - internal consistency guard
        raise ArithmeticError(
            f"hilbert symbol routes disagree for ({a},{b})_2"
        )
    return direct


def hilbert_places(a: int, b: int) -> tuple[int, ...]:
    """The places that can carry a nontrivial symbol: real, 2 and p | ab."""
    places = [REAL_PLACE, 2]
    for p in prime_factors(a * b):
        if p != 2:
            places.append(p)
    return tuple(places)
