"""Span tracer that wraps circembed's public functions from outside the package.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.installed` swaps
every module-level reference to a traced function (including names bound by
``from .x import f`` and values of module-level dicts such as
``validation._SAMPLERS``) for a wrapper, and restores the originals on exit.

A span is ``(id, name, parent_id, start, end, counts)``. Spans nest through a
per-thread stack. A span that opens on a thread with an empty stack (a
worker of a trial or row thread pool) takes as parent the innermost open
span of the thread that installed the tracer, which is the only thread that
submits work to pools. A span's self time is its duration minus the part of
its interval that its children cover, so children running concurrently on
several workers are not subtracted twice. Self times of spans on different
threads add up, so a layer run by a pool can total more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "self_times", "layer_totals", "TARGETS", "LAYER_METRICS"]


def _calls(a, k, r):
    return {"calls": 1}


def _draws(a, k, r):
    return {"calls": 1, "draws": int(r.size)}


def _fwht_counts(a, k, r):
    # the kernel transforms in place along the last axis and returns None
    x = a[0]
    n = int(x.shape[-1])
    flops = int(x.size) * int(math.log2(n)) if n > 1 else 0
    return {"calls": 1, "elems": int(x.size), "flops_computed": flops, "bytes_computed": 16 * flops}


def _correlate_counts(a, k, r):
    return {"calls": 1, "elems": int(a[1].size)}


def _rows(a, k, r):
    return {"calls": 1, "rows": int(r.shape[0])}


def _pairs(a, k, r):
    N = int(a[0].N)
    return {"pairs": N * (N - 1) // 2}


def _trials(a, k, r):
    return {"trials": int(r.trials)}


def _bytes_of(index):
    def count(a, k, r):
        path = a[index] if len(a) > index else k["path"]
        return {"bytes": os.path.getsize(path)}

    return count


# (module, attribute, layer name, counter, counted fields). A dotted
# attribute names a method. The public ``fwht`` and its in-place kernel share
# one layer name: the wrapper of the kernel counts, and the public wrapper
# adds the copy and the scaling to the layer's self time.
TARGETS = (
    ("rng", "Stream.normals", "rng.normals", _draws, ("calls", "draws")),
    ("rng", "Stream.rademacher", "rng.rademacher", None, ()),
    ("rng", "Stream.index_subset", "rng.index_subset", _draws, ("calls", "draws")),
    ("transforms", "_fwht_inplace", "transforms.fwht", _fwht_counts,
     ("calls", "elems", "flops_computed", "bytes_computed")),
    ("transforms", "fwht", "transforms.fwht", None, ()),
    ("transforms", "_correlate", "transforms.correlate", _correlate_counts, ("calls", "elems")),
    ("embedders", "sample_gaussian_operator", "embedders.sample_gaussian", None, ()),
    ("embedders", "sample_circulant_operator", "embedders.sample_circulant", None, ()),
    ("embedders", "sample_randomized_operator", "embedders.sample_randomized", None, ()),
    ("embedders", "deserialize_operator", "embedders.deserialize", None, ()),
    ("embedders", "embed", "embedders.embed", _calls, ("calls",)),
    ("embedders", "embed_points", "embedders.embed_points", _rows, ("calls", "rows")),
    ("geometry", "coherence", "geometry.coherence", _pairs, ("pairs",)),
    ("validation", "evaluate_codes", "validation.evaluate_codes", _pairs, ("pairs",)),
    ("validation", "distortion_experiment", "validation.distortion_experiment", _trials, ("trials",)),
    ("validation", "conditioning_experiment", "validation.conditioning_experiment", _trials, ("trials",)),
    ("validation", "hadamard_coherence_experiment", "validation.hadamard_coherence_experiment",
     _trials, ("trials",)),
    ("validation", "decomposition_experiment", "validation.decomposition_experiment", _trials, ("trials",)),
    ("io", "generate_pointset", "io.generate_pointset", None, ()),
    ("io", "load_pointset", "io.load_pointset", None, ()),
    ("io", "save_pointset", "io.save_pointset", None, ()),
    ("io", "save_codes", "io.save_codes", _bytes_of(1), ("bytes",)),
    ("io", "load_codes", "io.load_codes", _bytes_of(0), ("bytes",)),
    ("io", "save_result", "io.save_result", _bytes_of(1), ("bytes",)),
    ("cli", "cmd_gen", "cli.gen", None, ()),
    ("cli", "cmd_embed", "cli.embed", None, ()),
    ("cli", "cmd_eval", "cli.eval", None, ()),
    ("cli", "cmd_sweep", "cli.sweep", None, ()),
    ("cli", "cmd_validate", "cli.validate", None, ()),
)


def _layer_metrics():
    names = {}
    for _, _, layer, _, fields in TARGETS:
        names.setdefault(f"{layer}.self_s", "s")
        for f in fields:
            names.setdefault(f"{layer}.{f}", "count")
    return names


# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = _layer_metrics()


class Tracer:
    """Records spans around circembed's public functions while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self._root = threading.get_ident()

    def _stack(self):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.get_ident() != self._root:
            root = self._stacks.get(self._root)
            if root:
                return root[-1]
        return None

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, parent, t0, t1, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, name, parent, t0, t1, count(args, kwargs, result) if count else None))
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every target in ``package``'s modules; restore them on exit."""
        by_name = {m: importlib.import_module(f"{package.__name__}.{m}") for m in {t[0] for t in TARGETS}}
        modules = [package, *by_name.values()]
        undo = []
        try:
            for mod_name, attr, layer, count, _ in TARGETS:
                owner = by_name[mod_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[leaf]
                wrapped = self.wrap(layer, orig, count)
                if path:  # a method: patch the class attribute only
                    undo.append((setattr, owner, leaf, orig))
                    setattr(owner, leaf, wrapped)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((setattr, mod, key, orig))
                            setattr(mod, key, wrapped)
                        elif type(val) is dict:
                            for dkey, dval in list(val.items()):
                                if dval is orig:
                                    undo.append((dict.__setitem__, val, dkey, orig))
                                    val[dkey] = wrapped
            yield self
        finally:
            for restore, target, key, orig in reversed(undo):
                restore(target, key, orig)


def _covered(lo, hi, intervals):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Map span id to self time: duration minus what its children cover."""
    children = defaultdict(list)
    for sid, _, parent, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
        for sid, _, _, t0, t1, _ in spans
    }


def layer_totals(spans):
    """Per-layer metric totals over ``spans``, zero for layers never entered."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    st = self_times(spans)
    for sid, name, _, _, _, counts in spans:
        out[f"{name}.self_s"] += st[sid]
        if counts:
            for field, v in counts.items():
                out[f"{name}.{field}"] += v
    return out
