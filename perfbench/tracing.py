"""Span recorder for the traced benchmark run.

The program is not instrumented.  ``instrument`` wraps, from outside, the
public functions of each hypext module and the few methods and closures
that carry the per-point work, under the name they are looked up by:

* a module function is patched in every hypext module that binds its name
  (``cutlimits`` imports ``join_c2_distance`` and ``join_grid`` from
  ``extension``, ``fields`` imports ``log_sinh`` from ``hyptrig``);
* the ``block_m`` closures are wrapped on the ``JoinMetricField``s that
  ``extension_family_cut``, ``predicted_limit`` and ``cut_via_formula``
  return;
* the family closures are wrapped on the family ``cli.build_family``
  returns.

Each call becomes a span (name, start, end, parent).  Spans stay in memory
and are written when the run ends; a span's self time is its duration
minus the durations of its child spans (one thread, so children never
overlap).  Counters of work (points, columns, bytes) are recorded at the
same boundaries.  Byte counters are computed from array and file sizes,
not measured traffic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import os
import time
import types

import numpy as np

MODULES = ("hyptrig", "families", "fields", "extension", "cutlimits", "cli")


class SpanRecorder:
    """Spans and counters of the traced passes of one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name, self._parent, self._start, self._end = [], [], [], []
        self._stack = [-1]
        self.counters = {}
        self.problems = []
        self._archive = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, after=None):
        """A traced stand-in for fn.  ``after(args, kwargs, result,
        duration)`` runs outside the span and returns the result to hand
        back (it may wrap closures on it)."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = (self._name, self._parent,
                                        self._start, self._end)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                ends[i] = t
                stack.pop()
            if after is not None:
                result = after(args, kwargs, result, t - starts[i])
            return result

        return functools.update_wrapper(traced, fn)

    def end_pass(self):
        """Close one pass: per span name its calls, total and self
        seconds, plus the counters; the spans move to the archive."""
        if self._stack != [-1]:
            raise RuntimeError("a span is still open at the end of a pass")
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start, dtype=float)
        end = np.asarray(self._end, dtype=float)
        dur = end - start
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child],
                                   minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k)
        spans = {n: {"calls": int(calls[i]), "total_s": float(total_s[i]),
                     "self_s": float(self_s[i])}
                 for i, n in enumerate(self.names) if calls[i]}
        summary = {"spans": spans, "counters": dict(self.counters)}
        self._archive.append((name, parent, start, end))
        for lst in (self._name, self._parent, self._start, self._end):
            lst.clear()
        self.counters.clear()
        return summary

    def write(self, path):
        """Write every archived span: name id, parent (an index into the
        same file, -1 for a root), start, end and pass index."""
        sizes = [a[0].size for a in self._archive]
        offsets = np.cumsum([0] + sizes[:-1])
        name, parent, start, end = zip(*self._archive)
        np.savez_compressed(
            path, names=np.asarray(self.names), name=np.concatenate(name),
            parent=np.concatenate([np.where(p >= 0, p + off, -1)
                                   for p, off in zip(parent, offsets)]),
            start=np.concatenate(start), end=np.concatenate(end),
            pass_index=np.repeat(np.arange(len(sizes)), sizes))


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _hooks(rec):
    """Counters and closure wrapping, keyed by span name."""

    def columns_of(name):
        def after(args, kwargs, result, dur):
            rec.count(f"{name}.columns", np.size(args[1]))
            return result
        return after

    def wrap_block_m(field, name):
        return dataclasses.replace(
            field, block_m=rec.wrap(field.block_m, name, columns_of(name)))

    def solve_r(args, kwargs, result, dur):
        rec.count("hyptrig.solve_r.points", np.size(result))
        return result

    def c2_sups(args, kwargs, result, dur):
        delta = np.asarray(args[0])
        n_axes = len(args[1])
        rec.count("fields.c2_sups.points",
                  int(np.prod(delta.shape[:n_axes])))
        rec.count("fields.c2_sups.bytes", delta.nbytes)
        return result

    def write_reports(args, kwargs, result, dur):
        out = args[0]
        rec.count("cli.write_reports.bytes", sum(
            os.path.getsize(os.path.join(out, f))
            for f in ("report.jsonl", "report.csv", "summary.txt")))
        return result

    def sample(args, kwargs, result, dur):
        rec.count("extension.sample.bytes", sum(
            a.nbytes for a in (result.block_m, result.block_beta,
                               result.offdiag, result.block_h_coeff)))
        return result

    def extension_family_cut(args, kwargs, result, dur):
        return wrap_block_m(result, "cutlimits.ext_cut.block_m")

    def predicted_limit(args, kwargs, result, dur):
        return dataclasses.replace(result, interior=wrap_block_m(
            result.interior, "cutlimits.limit.block_m"))

    def cut_via_formula(args, kwargs, result, dur):
        return wrap_block_m(result, "extension.cut_via_formula.block_m")

    def build_family(args, kwargs, result, dur):
        limit = result.limit
        return dataclasses.replace(
            result, cut=rec.wrap(result.cut, "families.cut"),
            limit=None if limit is None else rec.wrap(limit,
                                                      "families.limit"))

    def run_convergence(args, kwargs, result, dur):
        # the program times its own loop and discards the figure; the span
        # around the whole call must cover it
        if result.wall_clock_s > dur:
            rec.problems.append(
                f"run_convergence span {dur:.6f} s is shorter than its "
                f"wall_clock_s {result.wall_clock_s:.6f} s")
        return result

    return {"hyptrig.solve_r": solve_r, "fields.c2_sups": c2_sups,
            "cli.write_reports": write_reports, "extension.sample": sample,
            "cutlimits.extension_family_cut": extension_family_cut,
            "cutlimits.predicted_limit": predicted_limit,
            "extension.cut_via_formula": cut_via_formula,
            "cli.build_family": build_family,
            "cutlimits.run_convergence": run_convergence}


# methods that carry per-point work, traced as <module>.<method>
_METHODS = (("fields", "SphereMetricField", "from_function"),
            ("fields", "SphereMetricField", "components"),
            ("fields", "SphereMetricField", "at_angles"),
            ("fields", "SphereMetricField", "grid_components"),
            ("extension", "JoinMetricField", "sample"))


@contextlib.contextmanager
def instrument(rec):
    """Patch hypext for tracing into ``rec``; restore it on exit."""
    mods = [importlib.import_module(f"hypext.{m}") for m in MODULES]
    own = {m.__name__ for m in mods}
    hooks = _hooks(rec)
    patched = []

    def patch(obj, attr, new):
        patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    traced = {}
    for mod in mods:
        for attr, fn in vars(mod).items():
            if (isinstance(fn, types.FunctionType) and fn.__module__ in own
                    and not attr.startswith("_")
                    and fn.__name__.isidentifier() and fn not in traced):
                name = _span_name(fn)
                traced[fn] = rec.wrap(fn, name, hooks.get(name))
    try:
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in traced:
                    patch(mod, attr, traced[fn])
        for modname, clsname, meth in _METHODS:
            cls = getattr(mods[MODULES.index(modname)], clsname)
            name = f"{modname}.{meth}"
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                new = classmethod(rec.wrap(raw.__func__, name,
                                           hooks.get(name)))
            else:
                new = rec.wrap(raw, name, hooks.get(name))
            patch(cls, meth, new)
        yield rec
    finally:
        for obj, attr, old in reversed(patched):
            setattr(obj, attr, old)
