"""Per-layer timing of amlat from outside the package.

The tracer rebinds the public functions listed in ``TARGETS`` to timing
wrappers and restores the originals afterwards.  amlat modules import
each other with ``from .x import y``, so a function can be bound under
several names; every binding in every ``amlat`` namespace that is the
original object is rebound, and methods are rebound on their class.

Each call of a spanned function becomes a span ``(id, parent, name,
start, end)`` kept in memory.  Hot leaves (``COUNTED``) are timed and
counted but leave no span, because their spans would swamp the run; a
generator (``short_vectors``) is timed per resumption.  A function's
self time is its duration minus the time of the wrapped calls nested
directly inside it; total time counts only the outermost call of a
function, so recursion through another wrapped function is not counted
twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

TARGETS = {
    "linalg": (
        "hnf",
        "lattice_canonical_basis",
        "inverse",
        "det",
        "lattice_intersect",
        "modp_rref",
    ),
    "numth": ("is_prime", "factorint", "hilbert_symbol", "legendre"),
    "quaternion": ("QElem.__mul__", "QElem.inverse"),
    "orders": (
        "order_from_basis",
        "left_order",
        "right_order",
        "ideal_mul",
        "ideal_inverse",
        "codifferent",
        "normalizer_contains",
        "radical_mod_p",
        "prime_ideal_above",
        "maximalize",
    ),
    "lattices": (
        "IdealLattice.dual_lattice",
        "verify_arakelov_modular",
        "short_vectors",
        "minimum_and_kissing",
    ),
    "classify": ("plan_level", "construct"),
    "cli": ("main",),
}

COUNTED = frozenset(
    {"quaternion.QElem.__mul__", "quaternion.QElem.inverse", "lattices.short_vectors"}
)

KEYS = tuple(f"{mod}.{name}" for mod, names in TARGETS.items() for name in names)

PACKAGE = "amlat"
MARK = "_perfbench_original"  # on every wrapper: the wrapped function


class _Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


def _resolve(key: str):
    """(owner, attribute, original) for a ``module.qualname`` key."""
    mod_name, _, qualname = key.partition(".")
    owner = sys.modules[f"{PACKAGE}.{mod_name}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def modules() -> dict:
    """The amlat modules currently imported, by name."""
    return {
        name: module
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


class Tracer:
    """Install with ``with Tracer(): ...``; read ``table()`` afterwards."""

    def __init__(self):
        self.stats = {key: _Stat() for key in KEYS}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.yielded = 0
        self.kissing = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        namespaces = modules().values()
        for key in KEYS:
            owner, attr, original = _resolve(key)
            wrapper = self._wrap(key, original)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
                continue
            for module in namespaces:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _rebind(self, owner, name, wrapper):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _enter(self, stat):
        stat.active += 1
        parent = self._stack[-1][0] if self._stack else -1
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid, parent

    def _leave(self, stat, dur):
        child = self._stack.pop()[1]
        stat.active -= 1
        if not stat.active:
            stat.total += dur
        stat.self_time += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, key, fn):
        stat = self.stats[key]
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)
        counted = key in COUNTED
        kissing = key == "lattices.minimum_and_kissing"
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            sid, parent = self._enter(stat)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._leave(stat, end - start)
                if not counted:
                    spans.append((sid, parent, key, start, end))
            if kissing:
                self.kissing += out[1]
            return out

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrap_generator(self, key, fn):
        stat = self.stats[key]
        tracer = self

        def resumptions(gen):
            try:
                while True:
                    tracer._enter(stat)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(stat, perf_counter() - start)
                    tracer.yielded += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return resumptions(fn(*args, **kwargs))

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- results -----------------------------------------------------------

    def per_maximalize(self) -> float:
        """order_from_basis calls made inside maximalize, per maximalize call."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        parents = {sid: parent for sid, parent, _, _, _ in self.spans}
        inside = 0
        for sid, parent, name, _, _ in self.spans:
            if name != "orders.order_from_basis":
                continue
            while parent != -1 and names.get(parent) != "orders.maximalize":
                parent = parents.get(parent, -1)
            inside += parent != -1
        calls = self.stats["orders.maximalize"].calls
        return inside / calls if calls else 0.0

    def table(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = (st.calls, "count")
            out[f"{key}.total_s"] = (st.total, "s")
            out[f"{key}.self_s"] = (st.self_time, "s")
        out["lattices.short_vectors.yielded"] = (self.yielded, "count")
        ratio = self.kissing / self.yielded if self.yielded else 0.0
        out["lattices.short_vectors.useful_ratio"] = (ratio, "ratio")
        out["orders.order_from_basis.per_maximalize"] = (self.per_maximalize(), "count")
        return out

    def write_spans(self, path: Path, origin: float) -> None:
        """One JSON object per line, times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )
