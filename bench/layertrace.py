"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every public function of the graphon_kit layer
modules (and ``pair_eval`` on the graphon classes) with a timing wrapper,
wherever a graphon_kit module holds a reference to it. Calls the library
makes between its own modules therefore go through the wrappers too.
``uninstall`` puts the originals back.

For each wrapped function ``<layer>.<name>`` the tracer records ``.calls``
and ``.s`` (wall time inside the function, self plus children, outermost
activation only), and a few work counts taken from arguments and results.
For the functions in ``ALLOC`` it also records ``.alloc_peak_mb``, the
tracemalloc peak above the allocations live at entry; tracemalloc runs only
while such a function is active, so the rest of the op is not slowed by it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "sampling", "graphon", "estimators", "metrics", "experiments")
ALLOC = frozenset({"sampling.generate_sample", "sampling.sample_degrees",
                   "estimators.degree_sorting", "estimators.block_average",
                   "metrics.cut_norm_exact"})
_CUT_NORMS = ("metrics.cut_norm", "metrics.cut_norm_exact", "metrics.cut_norm_lower")
_MB = float(1 << 20)


def _n_of(m) -> int:
    return len(getattr(m, "mat", m))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _hook_main(args, kwargs, result, dt, active):
    argv = _arg(args, kwargs, 0, "argv")
    return {f"cli.{argv[0]}.s": dt} if argv else {}


def _hook_write_ssm(args, kwargs, result, dt, active):
    return {"cli.ssm_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _pairs(args, kwargs):
    n = _arg(args, kwargs, 1, "n")
    return n * (n - 1) // 2


def _hook_generate_sample(args, kwargs, result, dt, active):
    return {"sampling.pairs": _pairs(args, kwargs),
            "sampling.edges": int(result.G.mat.sum()) // 2}


def _hook_sample_degrees(args, kwargs, result, dt, active):
    return {"sampling.pairs": _pairs(args, kwargs),
            "sampling.edges": int(result.sum()) // 2}


def _hook_pair_eval(args, kwargs, result, dt, active):
    return {"graphon.pair_eval.cells": result.size}


def _hook_least_squares(args, kwargs, result, dt, active):
    return {"estimators.least_squares_search.trace_length":
            result.diagnostics.get("trace_length", 0)}


def _hook_cut_norm(args, kwargs, result, dt, active):
    # one least-cut objective evaluation = one outermost cut-norm call
    # made while least_cut_search is running
    if active["estimators.least_cut_search"] and not any(active[c] for c in _CUT_NORMS):
        return {"estimators.least_cut_search.objective_calls": 1}
    return {}


def _hook_cut_norm_exact(args, kwargs, result, dt, active):
    out = _hook_cut_norm(args, kwargs, result, dt, active)
    out["metrics.cut_norm_exact.subsets"] = 2 ** _n_of(args[0])
    return out


def _hook_run_consistency(args, kwargs, result, dt, active):
    return {"experiments.trial_wall.s": sum(r.wall_time for r in result)}


HOOKS = {
    "cli.main": _hook_main,
    "sampling.write_ssm": _hook_write_ssm,
    "sampling.generate_sample": _hook_generate_sample,
    "sampling.sample_degrees": _hook_sample_degrees,
    "graphon.pair_eval": _hook_pair_eval,
    "estimators.least_squares_search": _hook_least_squares,
    "metrics.cut_norm": _hook_cut_norm,
    "metrics.cut_norm_lower": _hook_cut_norm,
    "metrics.cut_norm_exact": _hook_cut_norm_exact,
    "experiments.run_consistency": _hook_run_consistency,
}


class Tracer:
    """Counters for one traced op; ``take`` returns and clears them."""

    def __init__(self):
        self.values = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []          # (owner, attribute, original)

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "active"):
            st.active = defaultdict(int)
            st.frames = []          # [base, peak] per active ALLOC call
        return st

    def _alloc_enter(self, st) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if st.frames:
            st.frames[-1][1] = max(st.frames[-1][1], peak)
        tracemalloc.reset_peak()
        st.frames.append([cur, cur])

    def _alloc_exit(self, st) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, top = st.frames.pop()
        top = max(top, peak)
        if st.frames:
            st.frames[-1][1] = max(st.frames[-1][1], top)
        else:
            tracemalloc.stop()
        return (top - base) / _MB

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qual: str, fn):
        hook = HOOKS.get(qual)
        alloc = qual in ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            outer = st.active[qual] == 0
            if alloc:
                self._alloc_enter(st)
            st.active[qual] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.active[qual] -= 1
                mb = self._alloc_exit(st) if alloc else 0.0
            extra = hook(args, kwargs, result, dt, st.active) if hook else {}
            with self._lock:
                v = self.values
                v[qual + ".calls"] += 1
                if outer:
                    v[qual + ".s"] += dt
                if alloc:
                    v[qual + ".alloc_peak_mb"] = max(v[qual + ".alloc_peak_mb"], mb)
                for key, val in extra.items():
                    v[key] += val
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("graphon_kit")
        mods = [pkg] + [importlib.import_module(f"graphon_kit.{m}")
                        for m in ("common",) + LAYERS]
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"graphon_kit.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))

        def lookup(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit and hit[0] is obj else None

        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if lookup(obj):
                    self._patch(vars(mod), name, lookup(obj))
                elif isinstance(obj, dict):       # dispatch tables
                    for key, val in list(obj.items()):
                        if lookup(val):
                            self._patch(obj, key, lookup(val))
        graphon = importlib.import_module("graphon_kit.graphon")
        for cls in vars(graphon).values():
            if (inspect.isclass(cls) and cls.__module__ == graphon.__name__
                    and "pair_eval" in vars(cls)):
                original = vars(cls)["pair_eval"]
                self._patches.append((cls, "pair_eval", original))
                setattr(cls, "pair_eval", self._wrap("graphon.pair_eval", original))

    def _patch(self, table: dict, key, new) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def take(self) -> dict:
        with self._lock:
            out = dict(self.values)
            self.values.clear()
        return out
