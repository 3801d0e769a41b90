"""Self-tests of the benchmark: seeded inputs, oracles, tracer, refusals.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def api():
    return run.load_amlat()


@pytest.mark.parametrize("name", ["primes", "powers", "big-levels"])
def test_same_seed_same_inputs(api, name):
    cls = workloads.WORKLOADS[name]
    first = cls(7).prepare(api)
    assert first == cls(7).prepare(api)
    assert first != cls(8).prepare(api)


def test_same_seed_same_minima_grams(api):
    small = 0.25  # a quarter-size pool keeps the pre-builds short
    pool = workloads.Minima(3, small).prepare(api)
    again = workloads.Minima(3, small).prepare(api)
    assert [(ell, s["gram"]) for ell, s in pool] == [
        (ell, s["gram"]) for ell, s in again
    ]


def test_primes_mix_is_fixed(api):
    items = workloads.Primes(1).prepare(api)
    assert len(items) == len(set(items)) == sum(workloads.Primes.COUNTS.values())
    assert 2 in items and workloads.Primes.HEAVY in items
    classes = [workloads.prime_class(p) for p in items]
    assert classes.count("case2") == workloads.Primes.COUNTS["case2"]


def test_spread_draws_from_the_middle_of_each_slice():
    rng = random.Random(4)
    for _ in range(50):
        picks = workloads.spread(rng, list(range(100)), 4)
        assert all(25 * i + 6 <= x < 25 * i + 19 for i, x in enumerate(picks))


def test_big_levels_in_range_and_shapes(api):
    items = workloads.BigLevels(5).prepare(api)
    assert all(10**10 <= n <= 10**12 for n in items)
    refusals = [n for n in items if oracle.expected_classification(n) is None]
    assert len(refusals) == sum(
        workloads.BigLevels.COUNTS[s] for s in ("p1_p2", "m2")
    )


# --- oracles catch corrupted results ------------------------------------------


@pytest.fixture(scope="module")
def built(api):
    return {
        ell: workloads.lattice_summary(api.construct(ell))
        for ell in (27, 97, 17)
    }


@pytest.mark.parametrize("ell", [27, 97, 17])
def test_construction_oracle_accepts_real_result(built, ell):
    assert oracle.check_construction(ell, built[ell]) is None


def _corrupt(summary, **changes):
    out = dict(summary)
    out.update(changes)
    return out


def test_construction_oracle_catches_flipped_check(built):
    s = built[97]
    flipped = _corrupt(s, checks={**s["checks"], "dual_identity": False})
    assert oracle.check_construction(97, flipped) is not None
    assert oracle.check_construction(97, _corrupt(s, valid=False)) is not None


def test_construction_oracle_rechecks_beyond_the_flags(built):
    s = built[97]
    beta = s["beta"]
    moved = _corrupt(s, beta=(beta[0] + 1, *beta[1:]))
    assert oracle.check_construction(97, moved) is not None
    gram = [list(row) for row in s["gram"]]
    gram[0][0] += 2
    assert oracle.check_construction(97, _corrupt(s, gram=gram)) is not None
    assert oracle.check_construction(101, s) is not None  # wrong level


def test_minimum_oracle(built):
    s = built[27]
    assert oracle.check_minimum(27, s, (Fraction(6), 12)) is None
    assert oracle.check_minimum(27, s, (Fraction(6), 13)) is not None  # kissing + 1
    assert oracle.check_minimum(27, s, (Fraction(4), 12)) is not None  # too small
    assert oracle.check_minimum(27, s, (Fraction(8), 12)) is not None  # too large


def test_minimum_oracle_agrees_with_amlat(api, built):
    for ell, s in built.items():
        assert oracle.check_minimum(ell, s, api.minimum_and_kissing(s["gram"])) is None


def test_classify_oracle():
    n = 10**10 + 19  # prime, case 2
    want = {"a": -1, "b": -n, "case": 2, "ell": n, "ell1": 1, "ell2": n, "q": None}
    assert oracle.check_classify(n, 0, json.dumps(want), "") is None
    assert oracle.check_classify(n, 0, json.dumps({**want, "case": 3}), "") is not None
    assert oracle.check_classify(n, 2, "", "no construction: x") is not None
    square = 100003**2
    assert oracle.check_classify(square, 2, "", "no construction: square level") is None
    assert oracle.check_classify(square, 0, json.dumps(want), "") is not None


def test_workload_results_pass_their_oracles(api):
    for name in ("primes", "big-levels"):
        wl = workloads.WORKLOADS[name](2, 0.2)
        items = wl.prepare(api)
        ran = run.one_pass(api, wl, items)
        ok, failed = run.count_failures(wl, [ran])
        assert failed == 0 and all(ok)


# --- tracing -----------------------------------------------------------------------


def installed() -> list[str]:
    """Names of amlat bindings that currently hold a tracing wrapper."""
    found = []
    for mod_name, module in tracing.modules().items():
        for name, value in vars(module).items():
            if hasattr(value, tracing.MARK):
                found.append(f"{mod_name}.{name}")
            if inspect.isclass(value) and value.__module__ == mod_name:
                found += [
                    f"{mod_name}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, tracing.MARK)
                ]
    return found


def test_untraced_path_has_no_wrappers(api):
    assert installed() == []
    with tracing.Tracer() as tracer:
        assert "amlat.construct" in installed()
        assert "amlat.classify.factorint" in installed()
        assert "amlat.quaternion.QElem.__mul__" in installed()
        # The timed path imports amlat afresh, so the wrappers installed
        # on the modules above never see its calls.
        out = run.end_to_end("big-levels", 1, 0.3)
        assert out["failed"] == 0
        assert installed() == []
        assert tracer.stats["cli.main"].calls == 0
    assert tracer._restore == []


def test_tracer_counts_and_self_time():
    api = run.load_amlat()
    with tracing.Tracer() as tracer:
        lattice, _ = api.construct(17)
        mn, kissing = api.minimum_and_kissing(lattice.gram)
    table = tracer.table()
    assert table["classify.construct.calls"][0] == 1
    assert table["orders.maximalize.calls"][0] == 1
    assert table["orders.order_from_basis.per_maximalize"][0] >= 1
    assert table["lattices.short_vectors.calls"][0] == 1
    assert table["lattices.short_vectors.yielded"][0] >= kissing
    assert table["lattices.short_vectors.useful_ratio"][0] == pytest.approx(
        kissing / table["lattices.short_vectors.yielded"][0]
    )
    for key in tracing.KEYS:
        total, self_time = table[f"{key}.total_s"][0], table[f"{key}.self_s"][0]
        assert -1e-6 <= self_time <= total + 1e-6
    construct_total = table["classify.construct.total_s"][0]
    assert table["classify.plan_level.total_s"][0] <= construct_total


def test_tail_percentile():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


# --- refuses to run without the program ---------------------------------------------


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "primes",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
