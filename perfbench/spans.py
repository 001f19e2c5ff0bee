"""Span recording around the package's public functions, and cache control.

The tracer replaces module attributes with recording wrappers, including
every other module's binding of the same function object (``cli`` binds
``evaluate_grid`` at import, ``phasematch`` binds ``bessel_j0``), so calls
made from inside the package are seen too.  Spans hold name, start, end,
parent span and op id; they stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import statistics
import threading
import time
from collections import defaultdict

import numpy as np


def package_modules(pkg) -> list:
    """The package and every module in it, imported."""
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{pkg.__name__}.{info.name}"))
    return mods


# -- self time -----------------------------------------------------------------


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of its interval that its child
    spans cover.  spans: (id, name, start, end, parent, op, cpu) tuples."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        inside = [(max(a, start), min(b, end)) for a, b in children[sid] if b > start and a < end]
        out[sid] = (end - start) - covered_length(inside)
    return out


# -- tracer --------------------------------------------------------------------


class Tracer:
    """Records spans while ``active``; ``install`` puts its wrappers in
    place and ``uninstall`` takes them out."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op_id = None
        self.active = False
        #: wrapper calls while active, recorded or not
        self.entries = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []  # (owner, attribute, original value)

    def patch(self, owner, attr: str, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, replacement):
        """Rebind every module attribute that refers to original."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.patch(mod, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        """A recording wrapper for fn.  A call made while a span of the same
        name is open on this thread (scalar recursion inside sine_integral)
        runs unrecorded, so calls and points count outermost calls only."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.entries += 1
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op_id, c1 - c0))
            if on_result is not None:
                result = on_result(tracer, args, result)
            return result

        return wrapper

    def by_name(self) -> dict:
        """name -> (calls, self seconds, cpu seconds)."""
        own = self_times(self.spans)
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, _, _, _, _, cpu in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += own[sid]
            row[2] += cpu
        return {k: tuple(v) for k, v in out.items()}

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.entries = 0


def wrapper_cost(nested: bool = False, calls: int = 20000, batches: int = 5) -> float:
    """Seconds one wrapper call adds to a no-op function: the median over
    batches of (wrapped - bare time) / calls.  nested: calls made inside a
    span of the same name, which run unrecorded."""

    def noop():
        return None

    def bare_loop():
        for _ in range(calls):
            noop()

    def wrapped_loop():
        for _ in range(calls):
            wrapped()

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    run = tracer.wrap("noop", wrapped_loop) if nested else wrapped_loop
    tracer.active = True
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        bare_loop()
        t1 = time.perf_counter()
        run()
        t2 = time.perf_counter()
        tracer.reset()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _count_points(key):
    def on_result(tracer, args, result):
        tracer.counts[key] += int(np.size(args[0]))
        return result

    return on_result


def _count_len(key):
    def on_result(tracer, args, result):
        tracer.counts[key] += len(result)
        return result

    return on_result


def _count_cells(tracer, args, result):
    cells = int(result.values.size)
    tracer.counts["joint.evaluate_grid.cells"] += cells
    # float64 cells, computed rather than measured
    tracer.counts["joint.evaluate_grid.bytes_written"] += 8 * cells
    return result


def _count_pdf(tracer, args, result):
    # count the radial pdf points the marginal quadrature evaluates
    if result.sigma is not None:
        return result
    pdf = result.pdf

    def counted(r):
        out = pdf(r)
        tracer.counts["joint.marginal.pdf_evals"] += int(np.size(out))
        return out

    return result._replace(pdf=counted)


def install(tracer: Tracer, pkg):
    """Wrap each layer boundary of the package, in every module that binds it."""
    mods = package_modules(pkg)
    m = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in mods}
    targets = [
        ("cli", "main", "cli.main", None),
        ("params", "load_params", "params.load_params", None),
        ("phasematch", "momentum_radial_density", "phasematch.radial_density", _count_pdf),
        ("phasematch", "position_radial_density", "phasematch.radial_density", _count_pdf),
        ("numerics", "sine_integral", "numerics.sine_integral", _count_points("numerics.sine_integral.points")),
        ("numerics", "bessel_j0", "numerics.bessel_j0", _count_points("numerics.bessel_j0.points")),
        ("numerics", "hankel0", "numerics.hankel0", None),
        ("joint", "default_axes", "joint.default_axes", None),
        ("joint", "evaluate_grid", "joint.evaluate_grid", _count_cells),
        ("joint", "widths_from_grid", "joint.widths_from_grid", None),
        ("entanglement", "classify", "entanglement.classify", None),
        ("entanglement", "sweep_phase_diagram", "entanglement.sweep_phase_diagram",
         _count_len("entanglement.sweep_phase_diagram.cells")),
        ("entanglement", "sweep_to_csv", "entanglement.sweep_to_csv", None),
    ]
    targets += [("validation", attr, f"validation.{attr}", None)
                for attr in sorted(vars(m["validation"])) if attr.startswith("check_")]
    for modname, attr, name, hook in targets:
        original = getattr(m[modname], attr)
        tracer.replace_everywhere(mods, original, tracer.wrap(name, original, hook))
    grid_cls = m["joint"].JointGrid
    for attr in ("to_csv", "to_json"):
        wrapper = tracer.wrap(f"joint.{attr}", grid_cls.__dict__[attr], _count_len(f"joint.{attr}.bytes"))
        tracer.patch(grid_cls, attr, wrapper)
    from_json = grid_cls.__dict__["from_json"].__func__
    tracer.patch(grid_cls, "from_json", classmethod(tracer.wrap("joint.from_json", from_json)))


# -- caches --------------------------------------------------------------------


class CacheSet:
    """Every lru_cache wrapper bound at module or class level anywhere in
    the package, found at run time, with hit/miss totals kept across clears."""

    def __init__(self, pkg):
        found = {}
        for mod in package_modules(pkg):
            scopes = [(mod.__name__, vars(mod))]
            scopes += [
                (f"{mod.__name__}.{k}", vars(v))
                for k, v in vars(mod).items()
                if isinstance(v, type) and v.__module__ == mod.__name__
            ]
            for prefix, scope in scopes:
                for attr, val in scope.items():
                    fn = getattr(val, "__func__", val)  # staticmethod / classmethod
                    if callable(getattr(fn, "cache_clear", None)) and callable(getattr(fn, "cache_info", None)):
                        found.setdefault(id(fn), (f"{prefix}.{attr}", fn))
        self.caches = dict(sorted(found.values()))
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)
        self._seen = {name: (0, 0) for name in self.caches}

    def absorb(self):
        """Add lookups since the last absorb or clear to the totals."""
        for name, fn in self.caches.items():
            info = fn.cache_info()
            h0, m0 = self._seen[name]
            self.hits[name] += info.hits - h0
            self.misses[name] += info.misses - m0
            self._seen[name] = (info.hits, info.misses)

    def skip(self):
        """Forget lookups since the last absorb (made by the checks)."""
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self._seen[name] = (info.hits, info.misses)

    def clear(self):
        """Absorb, then empty every cache and check that each is empty."""
        self.absorb()
        for name, fn in self.caches.items():
            fn.cache_clear()
            if fn.cache_info().currsize != 0:
                raise RuntimeError(f"cache {name} still holds entries after cache_clear()")
            self._seen[name] = (0, 0)

    def reset_totals(self):
        self.absorb()
        self.hits.clear()
        self.misses.clear()

    def hit_ratio(self, suffix: str) -> float:
        """Hits over lookups of the cache whose name ends with suffix; 0 when unused."""
        for name in self.caches:
            if name.endswith(suffix):
                total = self.hits[name] + self.misses[name]
                return self.hits[name] / total if total else 0.0
        return 0.0
