"""Spans around the public entry points of each besselops layer.

Tracing lives in the benchmark, not in the package: ``install`` replaces
each entry point below by a wrapper at every module binding (``heat``
imports ``besseli_scaled`` by name; ``campaigns``, ``riesz`` and ``grids``
import ``heat`` functions by name; ``cli`` imports ``run_campaign``), so
calls made through any binding are recorded.  Spans are kept in memory as
plain lists and written out once, when the process ends.

A span is ``[name, tag, start, end, parent, work, outer_name, outer_layer]``:
``work`` is the entry point's work count (points, pair x time-node products,
matrix builds), ``outer_name`` is false for a call nested inside a call of
the same entry point and ``outer_layer`` is false for a call nested inside
another span of the same layer.  Inclusive seconds count outer spans only,
so recursion is not counted twice.  Self time is a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("special", "heat", "sampling", "grids", "riesz", "spaces", "campaigns", "cli")


def _getter(fn, name: str):
    """Fast lookup of one required argument (binding a signature on every
    call of a hot entry point would cost more than the call's bookkeeping)."""
    idx = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[idx] if idx < len(args) else kwargs[name]


def _points(*names):
    """Work = size of the broadcast of the named array arguments."""

    def work(fn):
        getters = [_getter(fn, n) for n in names]
        return lambda a, kw, result: np.broadcast(*(g(a, kw) for g in getters)).size

    return work


def _pair_nodes_batch(fn):
    sig = inspect.signature(fn)

    def work(a, kw, result):
        bound = sig.bind(*a, **kw)
        bound.apply_defaults()
        args = bound.arguments
        return np.atleast_2d(args["x"]).shape[1] * args["plan"].nodes()[0].size

    return work


def _builds(fn):
    """The matrix cache hands back the same array on a hit, so a build is a
    call whose result has not been seen before."""
    seen: dict[int, object] = {}

    def work(a, kw, result):
        if id(result) in seen:
            return 0
        seen[id(result)] = result  # keep it alive so its id stays unique
        return 1

    return work


def _campaign_id(fn):
    get = _getter(fn, "config")
    return lambda a, kw: get(a, kw).inequality


# (module, function, metric name, (work metric suffix, counter factory), tag factory)
ENTRY_POINTS = (
    ("special", "besseli_scaled", "special.besseli_scaled", ("points", _points("z")), None),
    ("heat", "eval_delta_heat_1d", "heat.eval_delta_heat_1d", ("points", _points("t", "x", "y")), None),
    ("heat", "mixed_partial_delta", "heat.mixed_partial_delta", None, None),
    ("heat", "delta_dt_heat_1d", "heat.delta_dt_heat_1d", None, None),
    ("heat", "adjoint_power_heat_1d", "heat.adjoint_power_heat_1d", None, None),
    ("heat", "_bound_rhs_arrays", "heat.bound_rhs", None, None),
    ("heat", "_p1d_shifts", "heat.p1d_shifts", None, None),
    ("sampling", "make_rng", "sampling.make_rng", None, None),
    ("sampling", "loguniform", "sampling.loguniform", None, None),
    ("sampling", "sample_kernel_points", "sampling.sample_kernel_points", None, None),
    ("sampling", "sample_offdiag_pairs", "sampling.sample_offdiag_pairs", None, None),
    ("sampling", "sample_smooth_triples", "sampling.sample_smooth_triples", None, None),
    ("grids", "apply_semigroup", "grids.apply_semigroup", None, None),
    ("grids", "maximal_function", "grids.maximal_function", None, None),
    ("grids", "lp_norm", "grids.lp_norm", None, None),
    ("riesz", "riesz_kernel_batch", "riesz.riesz_kernel_batch", ("pair_nodes", _pair_nodes_batch), None),
    ("riesz", "riesz_matrix", "riesz.riesz_matrix", ("builds", _builds), None),
    ("riesz", "riesz_apply", "riesz.riesz_apply", None, None),
    ("riesz", "cz_bound_check", "riesz.cz_bound_check", None, None),
    ("spaces", "bmo_norm", "spaces.bmo_norm", None, None),
    ("spaces", "minimizing_polynomial", "spaces.minimizing_polynomial", None, None),
    ("campaigns", "run_campaign", "campaigns.run_campaign", None, _campaign_id),
    ("cli", "main", "cli.main", None, None),
)


class Recorder:
    """Span list and the stack of open spans for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self._open_layers: Counter = Counter()

    def wrap(self, name: str, fn, work=None, tag=None):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        open_names, open_layers = self._open_names, self._open_layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [
                name,
                tag(args, kwargs) if tag else None,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                0,
                open_names[name] == 0,
                open_layers[layer] == 0,
            ]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] += 1
            open_layers[layer] += 1
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                open_names[name] -= 1
                open_layers[layer] -= 1
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point at every binding in the besselops modules."""
        mods = {m: importlib.import_module(f"besselops.{m}") for m in MODULES}
        for mod_name, fn_name, metric, work, tag in ENTRY_POINTS:
            original = getattr(mods[mod_name], fn_name)
            traced = self.wrap(
                metric,
                original,
                work[1](original) if work else None,
                tag(original) if tag else None,
            )
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


WORK_SUFFIX = {metric: work[0] for _, _, metric, work, _ in ENTRY_POINTS if work}


def aggregate(spans) -> dict[str, float]:
    """Per-layer totals of one span list: calls, work, inclusive and self
    seconds per entry point, and self and inclusive seconds per layer."""
    out: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, tag, start, end, parent, work, outer_name, outer_layer in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, tag, start, end, parent, work, outer_name, outer_layer) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        out[f"{name}.calls"] += 1
        if name in WORK_SUFFIX:
            out[f"{name}.{WORK_SUFFIX[name]}"] += work
        if outer_name:
            out[f"{name}.s"] += dur
        if outer_layer:
            out[f"{layer}.s"] += dur
        if tag is not None and outer_name:
            out[f"{layer}.{tag}.s"] += dur
        out[f"{layer}.self_s"] += dur - child_time[i]
    return dict(out)
