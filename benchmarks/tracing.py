"""Traced mode: spans and counts recorded from outside the program.

Tracer.install() wraps every public function of each mwscodes layer module
in every namespace that binds it (so search.is_mws and constructions.is_qm
are wrapped as well as codes.is_mws), wraps LinearCode.__post_init__, times
the lifetime of the search layer's process pools, and counts, without
timing, the scalar GF methods.  Spans are kept in memory; uninstall()
restores every original.  Pool children are not traced: a fork hook
switches the tracer off in the child, so their work shows as the parent's
pool wait.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("gf", "codes", "constructions", "search", "bounds", "matrixio", "cli")
GF_SCALAR = ("add", "sub", "neg", "mul", "inv", "pow")
DRIVERS = ("search.search", "search.gv_qm_search", "search.estimate_expectation")

# A span is [name, start, end, parent index or -1, op index].
NAME, START, END, PARENT, OP = range(5)


def layer_modules(package) -> dict:
    """The layer modules by name.  Looked up by import, because the package
    namespace rebinds some module names (mwscodes.search is the function)."""
    return {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = layer_modules(package)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tally: Counter = Counter()
        self.cells: dict[str, list[int]] = {}
        self.op = -1
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, leaf: bool = False) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        if not leaf:
            self.stack.append(idx)
        return idx

    def close(self, idx: int, leaf: bool = False) -> None:
        self.spans[idx][END] = time.perf_counter()
        if not leaf:
            self.stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.tally.clear()
        for cell in self.cells.values():
            cell[0] = 0

    # -- wrapping ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        tracer = self
        probe = _PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        if inspect.isgeneratorfunction(fn):
            # One leaf span from the first item to exhaustion; every consumer
            # in the program materialises the generator at once.
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return (yield from fn(*args, **kwargs))
                idx = tracer.open(name, leaf=True)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer.close(idx, leaf=True)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe:
                probe(tracer.tally, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        # Counting runs millions of times per cycle, so it skips the active
        # check: the wrappers only exist while tracing, and counts made in a
        # forked pool child stay in the child.
        cell = self.cells.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def counts(self) -> dict:
        """The span probes' tally plus the scalar call counts."""
        return {**self.tally, **{name: cell[0] for name, cell in self.cells.items()}}

    def install(self) -> None:
        targets = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for ns in (self.package, *self.modules.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets:
                    self._set(ns, attr, targets[id(obj)])

        codes, gf = self.modules["codes"], self.modules["gf"]
        self._set(codes.LinearCode, "__post_init__",
                  self._wrap(codes.LinearCode.__post_init__, "codes.LinearCode.__post_init__"))
        for meth in GF_SCALAR:
            self._set(gf.GF, meth, self._count(getattr(gf.GF, meth), f"gf.{meth}"))

        search = self.modules["search"]
        pool_cls = getattr(search, "ProcessPoolExecutor", None)
        if pool_cls is not None:
            tracer = self

            class TracedPool(pool_cls):
                """Times a pool from entering its with-block to shutdown."""

                def __enter__(self):
                    self._span = tracer.open("search.pool_wait") if tracer.active else None
                    return super().__enter__()

                def __exit__(self, *exc):
                    try:
                        return super().__exit__(*exc)
                    finally:
                        if self._span is not None:
                            tracer.close(self._span)

            self._set(search, "ProcessPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _probe_codeword_matrix(tally, arguments, result) -> None:
    rows, n = result.shape
    tally["codes.codewords"] += rows
    tally["codes.enum_bytes_max"] = max(tally["codes.enum_bytes_max"], rows * n * 8)


def _probe_eqbound(tally, arguments, result) -> None:
    k, cap = arguments["k"], arguments.get("max_n")
    last = result if result is not None else cap
    tally["bounds.scan_steps"] += last - max(k, 1) + 1
    tally["bounds.cap_hits"] += result is None


_PROBES = {
    "codes.codeword_matrix": _probe_codeword_matrix,
    "bounds.eqbound_min_n": _probe_eqbound,
}


# -- arithmetic on spans ------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return [sp[END] - sp[START] - covered(children[i], sp[START], sp[END])
            for i, sp in enumerate(spans)]


def outermost(spans: list[list], i: int, names) -> bool:
    """True when no ancestor of span i has a name in names."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return False
        p = spans[p][PARENT]
    return True


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    return not outermost(spans, i, (name,))


class SpanStats:
    """Totals over one traced cycle's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self = self_times(spans)
        self.by_name = defaultdict(list)
        for i, sp in enumerate(spans):
            self.by_name[sp[NAME]].append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, *names: str, ops=None) -> float:
        """Time in spans of these names, not counting one nested in another."""
        return sum(self.spans[i][END] - self.spans[i][START]
                   for name in names for i in self.by_name[name]
                   if (ops is None or self.spans[i][OP] in ops)
                   and outermost(self.spans, i, names))

    def self_time(self, pred, ops=None) -> float:
        return sum(t for sp, t in zip(self.spans, self.self)
                   if pred(sp[NAME]) and (ops is None or sp[OP] in ops))
