"""Seeded inputs for the four workloads, and how each operation is run.

Every workload draws its inputs with ``random.Random(seed)`` and the
benchmark's own number theory, so amlat sees only levels or Gram
matrices.  A run's inputs are a stratified sample: each stratum (a
construction case, an auxiliary prime q, a level shape) gets a fixed
count, drawn evenly over the stratum sorted by the size that drives its
cost, so that every seed gives the same mix at about the same cost.  The
counts are sized for one pass of about PASS_SECONDS on a 2-core x86 VM
(Python 3.11) and scale with the time a run gives each pass.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import gcd, isqrt

import oracle
from oracle import aux_q, is_prime, prime_case, primes_below

PASS_SECONDS = 5


def prime_class(p: int) -> str:
    case = prime_case(p)
    return f"case4_q{aux_q(p)}" if case == 4 else f"case{case}"


def scaled(counts: dict[str, int], scale: float) -> dict[str, int]:
    """Stratum counts for a pass of scale * PASS_SECONDS."""
    return {name: max(1, round(k * scale)) for name, k in counts.items()}


# --- sampling -----------------------------------------------------------------


def in_slice(rng: random.Random, i: int, k: int) -> float:
    """A random point of the middle half of slice i of [0, 1) cut in k."""
    return (i + 0.25 + 0.5 * rng.random()) / k


def spread(rng: random.Random, population: list, k: int) -> list:
    """k items of a sorted population, one drawn at random from the middle
    half of each of k equal slices, so a sample covers the population's
    range evenly and its order statistics move little from seed to seed."""
    n = len(population)
    k = min(k, n)
    return [population[int(in_slice(rng, i, k) * n)] for i in range(k)]


def stratified(rng, strata: dict[str, list], counts: dict[str, int]) -> list:
    """Spread samples of each stratum, shuffled together."""
    items = [x for name, k in counts.items() for x in spread(rng, strata[name], k)]
    rng.shuffle(items)
    return items


def _group(items, key) -> dict[str, list]:
    out: dict[str, list] = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return out


def lattice_summary(raw) -> dict:
    """The numbers of a construct(l) result that the oracles need."""
    lattice, cert = raw
    algebra = lattice.order.algebra
    return {
        "a": algebra.a,
        "b": algebra.b,
        "alpha": lattice.alpha,
        "ideal": lattice.ideal.lattice.basis,
        "order": lattice.order.lattice.basis,
        "gram": lattice.gram,
        "beta": cert.beta.coords(),
        "t": cert.t.coords(),
        "valid": cert.valid,
        "checks": cert.checks(),
    }


# --- workloads ------------------------------------------------------------------


class Workload:
    """Inputs drawn from the seed, with stratum counts scaled to the run.

    A workload gives ``prepare(api)``, the run's inputs after any
    pre-builds; ``call(api, item)``, the timed operation; ``summarize``,
    which reduces its result to plain numbers; and ``check``, the oracle,
    which returns None or the reason the result is wrong."""

    COUNTS: dict[str, int] = {}

    def __init__(self, seed: int, scale: float = 1.0):
        self.rng = random.Random(seed)
        self.counts = scaled(self.COUNTS, scale)


class ConstructWorkload(Workload):
    """Shared part of the workloads whose inputs are construct(l) results."""

    def prepare(self, api) -> list:
        """The run's inputs, after any pre-builds."""
        return stratified(self.rng, self.population(), self.counts)

    @staticmethod
    def call(api, ell):
        return api.construct(ell)

    @staticmethod
    def summarize(ell, raw) -> dict:
        return lattice_summary(raw)

    def check(self, ell, summary) -> str | None:
        return oracle.check_construction(ell, summary)


class Primes(ConstructWorkload):
    """construct(l) over distinct primes below 3000, all four cases."""

    name = "primes"
    LIMIT = 3000
    # Cases 1-3 keep their natural mix (about a fifteenth of each class
    # below LIMIT), so the median falls among them, four draws from their
    # top.  Case 4 with q = 3 is oversampled (a fifth of its class) so
    # that the tail, the eleventh slowest operation, is among those ten
    # draws of similar cost rather than the slowest of the cheap cases,
    # which one slow spell of the machine decides.  Above them
    # sit q = 7 (2), q = 11 (1) and one prime with q >= 19.  The six primes
    # with q >= 19 cost 2-5 s each; a seeded pick among them would decide
    # the run, so every run holds the same one, l = 2689 (q = 19, about
    # 2 s), the cheapest of them.
    COUNTS = {
        "case1": 1,
        "case2": 14,
        "case3": 7,
        "case4_q3": 10,
        "case4_q7": 2,
        "case4_q11": 1,
        "heavy": 1,
    }
    HEAVY = 2689

    def population(self):
        strata = _group(primes_below(self.LIMIT), prime_class)
        strata["heavy"] = [self.HEAVY]
        return strata


class Powers(ConstructWorkload):
    """construct(l) for l = p^r and l = l1^2 p^r, r odd and at least 3."""

    name = "powers"
    PRIME_LIMIT = 100
    EXPONENTS = (3, 5, 7, 9)
    SQUARE_ROOTS = range(2, 13)
    # p = 2 and 3 find the radical by enumeration, p >= 5 by the trace
    # form; case-4 primes (17, 41, 73, 89, 97) also run maximalize.
    COUNTS = {
        f"{pc}_{shape}": {"pure": 2, "square": 3}[shape]
        for pc in ("p2", "p3", "case2", "case3", "case4")
        for shape in ("pure", "square")
    }

    def population(self):
        levels = []
        for p in primes_below(self.PRIME_LIMIT):
            pclass = {2: "p2", 3: "p3"}.get(p, prime_class(p).split("_")[0])
            for r in self.EXPONENTS:
                levels.append(((pclass, "pure"), r, p, 1))
                for l1 in self.SQUARE_ROOTS:
                    if gcd(l1, p) == 1:
                        levels.append(((pclass, "square"), r, p, l1))
        levels.sort()
        return {
            f"{pc}_{shape}": [l1 * l1 * p**r for _, r, p, l1 in group]
            for (pc, shape), group in _group(levels, lambda t: t[0]).items()
        }


class Minima(ConstructWorkload):
    """minimum_and_kissing(gram) on Gram matrices built during set-up."""

    name = "minima"
    # Enumeration cost grows about linearly with l and varies by a fifth
    # between neighbouring primes.  Each class is drawn from the band of l
    # where one minimum costs about the same, 0.1-0.3 s: case 2 from the
    # top of the range, cases 3 and 4 (q = 3) lower down, where their
    # lattices are as hard.  The median and the tail are then middles of
    # some thirty similar operations, not the cost of one draw.  Above
    # l = 1000 one minimum of cases 3 and 4 costs 1-2 s; for q >= 7 the
    # cost jumps fourfold between neighbouring primes (1489, 1609).
    BANDS = {"case2": (1800, 3000), "case3": (250, 420), "case4_q3": (200, 460)}
    COUNTS = {"case2": 18, "case3": 6, "case4_q3": 4, "power": 4}
    POWERS = (27, 72, 108, 125, 200, 243, 343, 500, 1125, 1331, 2197, 3087)

    def population(self):
        strata = _group(primes_below(3000), prime_class)
        strata = {
            name: [p for p in strata[name] if low <= p < high]
            for name, (low, high) in self.BANDS.items()
        }
        strata["power"] = list(self.POWERS)
        return strata

    def prepare(self, api) -> list:
        levels = stratified(self.rng, self.population(), self.counts)
        self.expected: dict = {}
        return [
            (ell, lattice_summary(api.construct(ell)))
            for ell in levels
        ]

    @staticmethod
    def call(api, item):
        return api.minimum_and_kissing(item[1]["gram"])

    @staticmethod
    def summarize(item, raw):
        return raw

    def check(self, item, summary) -> str | None:
        return oracle.check_minimum(item[0], item[1], summary, self.expected)


class BigLevels(Workload):
    """cli.main(["classify", "--ell", N]) for N in [1e10, 1e12]."""

    name = "big-levels"
    LOG_LOW, LOG_HIGH = 10, 12
    # Shapes of N, each drawn evenly over log N.  Case-4 primes are limited
    # to q in {3, 7} because larger q makes maximalize, not numth, dominate.
    # Primes, whose cost grows smoothly with N, are four fifths of the draw,
    # so the median falls in the middle of their costs and not on the edge
    # of the cheap shapes or of the cheapest primes.
    COUNTS = {
        "prime_case2": 8,
        "prime_case3": 8,
        "prime_case4_q3": 7,
        "prime_case4_q7": 4,
        "two_m2": 1,
        "p_m2": 2,
        "p1_p2": 2,
        "m2": 2,
    }

    def prepare(self, api) -> list:
        items = []
        for shape, k in self.counts.items():
            for i in range(k):
                u = in_slice(self.rng, i, k)
                x = self.LOG_LOW + (self.LOG_HIGH - self.LOG_LOW) * u
                items.append(self._draw(shape, 10**x))
        self.rng.shuffle(items)
        return items

    def _draw(self, shape: str, target: float) -> int:
        """An N of the given shape near target, within [1e10, 1e12]."""
        rng = self.rng
        lo, hi = 10**self.LOG_LOW, 10**self.LOG_HIGH
        while True:
            if shape.startswith("prime_"):
                want = shape[len("prime_"):]
                n = int(target) | 1
                while not (is_prime(n) and prime_class(n) == want):
                    n += 2
            elif shape == "two_m2":
                n = 2 * isqrt(int(target) // 2) ** 2
            elif shape == "p_m2":
                p = rng.choice(_ODD_PRIMES)
                n = p * isqrt(int(target) // p) ** 2
            elif shape == "p1_p2":
                p1 = _next_prime(rng.randrange(10**3, 10**5))
                p2 = _next_prime(int(target) // p1)
                n = p1 * p2
            else:  # m2
                n = isqrt(int(target)) ** 2
            if lo <= n <= hi:
                return n
            target = target * 0.99 if n > hi else target * 1.01

    @staticmethod
    def call(api, n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(["classify", "--ell", str(n)])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def summarize(n, raw):
        return raw

    @staticmethod
    def check(n, summary) -> str | None:
        return oracle.check_classify(n, *summary)


_ODD_PRIMES = primes_below(1000)[1:]


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


WORKLOADS = {w.name: w for w in (Primes, Powers, Minima, BigLevels)}

