"""Outside-in tracing of the modnopo layers for the benchmark's traced pass.

The tracer replaces the public functions of the traced modules with
wrappers that record one span per call (name, start, end, parent) and,
for a few functions, a count derived from the arguments or the result.
Every module namespace that imported a function by name (``cli`` imports
``asymptotic_variance`` from ``fluctuations``, for instance) gets the
wrapper too, so calls are seen whichever way they are made.

Two hot methods, ``DerivedParams.eps`` (one call per ODE right-hand side
and per stochastic step) and ``SemiclassicalTrajectory.interp``, are
wrapped count-only: a span per call would dominate the self times it is
meant to measure.

Spans are kept in memory and written out once, at the end of the pass.
The traced pass runs at one worker, so every span lives on the main
thread; spans from other threads are still recorded, with their own
parent chain.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions get spans, in layer order.
LAYERS = ("cli", "model", "semiclassical", "fluctuations", "positivep", "qsd")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _traj_steps(t_grid, dt: float, relax: float) -> tuple[int, int]:
    """Steps per trajectory of a fixed-step ensemble: relaxation + grid span."""
    n_relax = math.ceil(max(relax, 0.0) / dt - 1e-12)
    span = float(t_grid[-1] - t_grid[0]) if len(t_grid) > 1 else 0.0
    return n_relax, round(span / dt)


def _count_positivep(counts, args, res):
    n_relax, n_grid = _traj_steps(args["t_grid"], res.dt, args["relax"])
    counts["positivep.traj_steps"] += res.n_traj * (n_relax + n_grid)
    counts["positivep.n_traj"] += res.n_traj
    counts["positivep.discarded"] += res.discarded


def _count_qsd(counts, args, res):
    n_relax, n_grid = _traj_steps(res.t_grid, res.dt, args["relax"])
    counts["qsd.traj_steps"] += res.n_traj * (n_relax + n_grid)
    counts["qsd.n_traj"] += res.n_traj
    counts["qsd.discarded"] += res.discarded
    counts["qsd.n_max"] = max(counts["qsd.n_max"], res.n_max)


def _add(key, amount):
    def hook(counts, args, res):
        counts[key] += amount(args, res)
    return hook


# name -> hook(counts, bound_args, result); only these bind their arguments.
_HOOKS = {
    # asymptotic_n0 is a thin wrapper of asymptotic_log_n0: count points once
    "semiclassical.asymptotic_log_n0": _add(
        "semiclassical.asymptotic_n0.points", lambda a, r: int(np.size(r))),
    "semiclassical.periodic_steady_state": _add(
        "semiclassical.orbit_periods", lambda a, r: r.periods_to_converge),
    "fluctuations.asymptotic_variance": _add(
        "fluctuations.asymptotic_variance.points", lambda a, r: int(np.size(a["t"]))),
    "fluctuations.integrate_variance": _add(
        "fluctuations.variance_periods", lambda a, r: r.periods_to_converge),
    "fluctuations.sweep_vmin": _add("fluctuations.sweep_vmin.cells", lambda a, r: len(r)),
    "positivep.simulate_ensemble": _count_positivep,
    "qsd.simulate_qsd_ensemble": _count_qsd,
}


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (id, parent, name, start, end, thread)
        self.counts: defaultdict = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span_wrapper(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, counts, stack_of, ids = self.spans, self.counts, self._stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, threading.get_ident()))
            if hook is not None:
                hook(counts, _bound(fn, args, kwargs), result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of LAYERS and the two hot methods."""
        pkg = [m for n, m in sys.modules.items()
               if m is not None and (n == "modnopo" or n.startswith("modnopo."))]
        for layer in LAYERS:
            mod = sys.modules[f"modnopo.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._span_wrapper(f"{layer}.{attr}", obj)
                for holder in pkg:
                    for hname, hval in list(vars(holder).items()):
                        if hval is obj:
                            self._undo.append((holder, hname, obj))
                            setattr(holder, hname, wrapper)
        model = sys.modules["modnopo.model"]
        semi = sys.modules["modnopo.semiclassical"]
        for cls, meth, name in ((model.DerivedParams, "eps", "model.eps_calls"),
                                (semi.SemiclassicalTrajectory, "interp",
                                 "semiclassical.interp_calls")):
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._count_wrapper(name, orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()

    # --- analysis -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part covered by its child spans."""
        children = defaultdict(list)
        for sid, parent, _name, start, end, _th in self.spans:
            if parent:
                children[parent].append((start, end))
        out = {}
        for sid, _parent, _name, start, end, _th in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures the benchmark reports, from spans and counts."""
        selft = self.self_times()
        by_name_self = defaultdict(float)
        by_name_wall = defaultdict(float)
        by_name_calls = defaultdict(int)
        for sid, _parent, name, start, end, _th in self.spans:
            by_name_self[name] += selft[sid]
            by_name_wall[name] += end - start
            by_name_calls[name] += 1
        c = self.counts

        def rate(num, den):
            return num / den if den > 0 else 0.0

        pp_self = by_name_self["positivep.simulate_ensemble"]
        qsd_self = by_name_self["qsd.simulate_qsd_ensemble"]
        return {
            "cli.self_s": sum(v for k, v in by_name_self.items() if k.startswith("cli.")),
            "model.eps_calls": c["model.eps_calls"],
            "semiclassical.asymptotic_n0.points": c["semiclassical.asymptotic_n0.points"],
            "semiclassical.asymptotic_n0.self_s": (
                by_name_self["semiclassical.asymptotic_n0"]
                + by_name_self["semiclassical.asymptotic_log_n0"]),
            "fluctuations.asymptotic_variance.points": c["fluctuations.asymptotic_variance.points"],
            "fluctuations.asymptotic_variance.self_s": by_name_self["fluctuations.asymptotic_variance"],
            "semiclassical.periodic_steady_state.calls": by_name_calls["semiclassical.periodic_steady_state"],
            "semiclassical.periodic_steady_state.self_s": by_name_self["semiclassical.periodic_steady_state"],
            "semiclassical.orbit_periods": c["semiclassical.orbit_periods"],
            "semiclassical.interp_calls": c["semiclassical.interp_calls"],
            "fluctuations.integrate_variance.calls": by_name_calls["fluctuations.integrate_variance"],
            "fluctuations.integrate_variance.self_s": by_name_self["fluctuations.integrate_variance"],
            "fluctuations.variance_periods": c["fluctuations.variance_periods"],
            "fluctuations.find_vmin.self_s": by_name_self["fluctuations.find_vmin"],
            "fluctuations.sweep_vmin.cells": c["fluctuations.sweep_vmin.cells"],
            "fluctuations.cells_per_s": rate(c["fluctuations.sweep_vmin.cells"],
                                             by_name_wall["fluctuations.sweep_vmin"]),
            "positivep.simulate_ensemble.self_s": pp_self,
            "positivep.traj_steps": c["positivep.traj_steps"],
            "positivep.traj_steps_per_s": rate(c["positivep.traj_steps"], pp_self),
            "positivep.discard_frac": rate(c["positivep.discarded"], c["positivep.n_traj"]),
            "qsd.simulate_qsd_ensemble.self_s": qsd_self,
            "qsd.build_operators.calls": by_name_calls["qsd.build_operators"],
            "qsd.build_operators.self_s": by_name_self["qsd.build_operators"],
            "qsd.n_max": c["qsd.n_max"],
            "qsd.traj_steps": c["qsd.traj_steps"],
            "qsd.traj_steps_per_s": rate(c["qsd.traj_steps"], qsd_self),
            "qsd.discard_frac": rate(c["qsd.discarded"], c["qsd.n_traj"]),
        }

    def dump(self, path) -> None:
        """Write spans (with self times) and counts as one JSON document."""
        selft = self.self_times()
        doc = {
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "self": selft[sid], "thread": th}
                for sid, parent, name, start, end, th in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
