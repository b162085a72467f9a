"""Spans at the program's module boundaries, recorded from outside ``src/``.

``Tracer.install`` replaces the names a calling module looks up in the module
below it (``engine._reflection`` is the stack layer as the engine sees it)
with wrappers that record a span (name, start, end, parent) in memory.
Self time is a span's duration minus that of its child spans.  A few
wrappers also read arguments and results to count work the program does not
report: Matsubara terms, T = 0 integrand evaluations, panel-rule
refinements, and refinement loops that end with the error target missed.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

import numpy as np

from lifshitz_plates import engine, fit, stack

# (module, attribute, span name, layer)
WRAPPED = (
    (stack, "permittivity_imag_axis", "stack.permittivity_imag_axis", "materials"),
    (engine, "_reflection", "engine._reflection", "stack"),
    (engine, "_static_reflection", "engine._static_reflection", "stack"),
    (engine, "_pol_integrals", "engine._pol_integrals", "quad"),
    (engine, "_pol_integrals_zero", "engine._pol_integrals_zero", "quad"),
    (engine, "_block_terms_scaled", "engine._block_terms_scaled", "engine"),
    (engine, "pressure", "engine.pressure", "engine"),
    (engine, "pressure_zero_temperature", "engine.pressure_zero_temperature", "engine"),
    (fit, "objective", "fit.objective", "fit"),
)
# spans the benchmark opens around its own calls into the program
ROOT_LAYERS = {"engine.eta_sweep": "engine", "fit.fit_roughness": "fit"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class _Frame:
    __slots__ = ("index", "name", "data")

    def __init__(self, index, name):
        self.index, self.name, self.data = index, name, None


class Tracer:
    """In-memory span recorder plus the counters read off wrapped calls."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []          # open _Frame objects
        self.counts = defaultdict(float)
        self.saved = []
        self.default_nodes = len(engine.DEFAULT_RULE.nodes)
        self.max_level = engine._MAX_REFINEMENTS

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1].index if self.stack else -1
        frame = _Frame(len(self.spans), name)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        self.spans[frame.index][2] = time.perf_counter()
        self.stack.pop()

    def _parent(self):
        return self.stack[-2] if len(self.stack) >= 2 else None

    def span(self, name, call):
        """Run ``call()`` inside a root span named ``name``."""
        frame = self._open(name)
        try:
            return call()
        finally:
            self._close(frame)

    def _wrap(self, fn, name):
        hook = getattr(self, "_on_" + name.split(".")[-1].lstrip("_"), None)
        collects = name in ("engine._block_terms_scaled", "engine.pressure")
        zero_t = name == "engine.pressure_zero_temperature"

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            if collects:
                frame.data = []
            elif zero_t:
                frame.data = _settings(args, kwargs).quad_rel_tol
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(frame, args, kwargs, result)
                return result
            finally:
                self._close(frame)

        return wrapper

    def install(self):
        for module, attr, name, _ in WRAPPED:
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    # -- counters read from arguments and results --------------------------

    def _on_permittivity_imag_axis(self, frame, args, kwargs, result):
        self.counts["eps_points"] += np.size(result)

    def _on_reflection(self, frame, args, kwargs, result):
        self.counts["reflection_points"] += np.size(result)

    _on_static_reflection = _on_reflection

    def _on_pol_integrals(self, frame, args, kwargs, result):
        rule = _arg(args, kwargs, 3, "rule")
        self._integrals(frame, rule, len(result[0]), result)

    def _on_pol_integrals_zero(self, frame, args, kwargs, result):
        rule = _arg(args, kwargs, 2, "rule")
        self._integrals(frame, rule, 1, result)

    def _integrals(self, frame, rule, terms, result):
        level = round(math.log2(len(rule.nodes) / self.default_nodes))
        self.counts["quad_terms"] += terms
        self.counts["quad_term_nodes"] += terms * len(rule.nodes)
        parent = self._parent()
        if parent is not None and parent.name == "engine._block_terms_scaled":
            parent.data.append((level, result))
            return
        # otherwise one evaluation of the T = 0 integrand, one refinement loop
        # per default-rule call, exactly as in pressure_zero_temperature
        if parent is not None and parent.name == "engine.pressure_zero_temperature":
            if level == 0:
                self.counts["t0_integrand_calls"] += 1
                self.counts["refinement_loops"] += 1
            elif level == 1:
                self.counts["refined_loops"] += 1
            if level == self.max_level:
                te, tm, err = result
                value = float(np.sum(te) + np.sum(tm))
                if value != 0.0 and float(np.sum(err)) > 0.25 * parent.data * abs(value):
                    self.counts["budget_exhausted"] += 1

    def _on_block_terms_scaled(self, frame, args, kwargs, result):
        ls = _arg(args, kwargs, 2, "ls")
        tol = _arg(args, kwargs, 4, "quad_rel_tol")
        hint = _arg(args, kwargs, 5, "scale_hint")
        self.counts["terms"] += len(ls)
        self.counts["refinement_loops"] += 1
        levels = [level for level, _ in frame.data]
        if max(levels) >= 1:
            self.counts["refined_loops"] += 1
        last = [r for level, r in frame.data if level == self.max_level]
        if last:
            err = sum(float(np.sum(e)) for _, _, e in last)
            scale = max(abs(hint), abs(sum(float(np.sum(te) + np.sum(tm)) for te, tm, _ in last)))
            if scale != 0.0 and err > 0.25 * tol * scale:
                self.counts["budget_exhausted"] += 1
        parent = self._parent()
        if parent is not None and parent.name == "engine.pressure":
            parent.data.append(np.asarray(result[0]) + np.asarray(result[1]))

    def _on_pressure(self, frame, args, kwargs, result):
        settings = _settings(args, kwargs)
        self.counts["pressure_calls"] += 1
        if settings.zero_temperature:
            self.counts["t0_points"] += 1
        elif frame.data:
            self.counts["finite_t_points"] += 1
            self.counts["terms_needed"] += _terms_needed(np.concatenate(frame.data), settings)

    # -- aggregation --------------------------------------------------------

    def summary(self):
        """Per span name: calls and inclusive time; per layer: self time (s)."""
        layer_of = {name: layer for _, _, name, layer in WRAPPED}
        layer_of.update(ROOT_LAYERS)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, inclusive, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, start, end, _), below in zip(self.spans, child):
            calls[name] += 1
            inclusive[name] += end - start
            self_time[layer_of[name]] += (end - start) - below
        return calls, inclusive, self_time

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({"names": names,
                       "spans": [[ids[n], round(a, 7), round(b, 7), p]
                                 for n, a, b, p in self.spans]}, handle)


def _settings(args, kwargs):
    """The ``settings`` argument of pressure(plate, a, settings) and
    pressure_zero_temperature(plate, a, settings), with the engine default."""
    return _arg(args, kwargs, 2, "settings") or engine.EvaluationSettings()


def _terms_needed(terms, settings):
    """Terms up to where the documented stopping rule is first met: after
    l = 0, ``consecutive_small_terms`` terms in a row each below
    ``sum_rel_tol`` times the running sum (the rule of engine._sum_terms)."""
    weights = np.ones(len(terms))
    weights[0] = 0.5
    totals = np.cumsum(weights * terms)
    small = np.abs(terms[1:]) < settings.sum_rel_tol * np.abs(totals[1:])
    run = settings.consecutive_small_terms
    if len(small) >= run:
        windows = np.convolve(small.astype(int), np.ones(run, dtype=int), mode="valid")
        hits = np.flatnonzero(windows == run)
        if len(hits):
            return int(hits[0]) + run + 1
    return len(terms)
