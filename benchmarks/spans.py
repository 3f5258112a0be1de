"""Outside-in span tracing of the vortexfield package.

``Instrumentation`` wraps public functions and methods of the package
from outside, without touching its source.  A ``from .x import y``
import copies the name ``y`` into the importing module, so wrapping one
name is not enough: every module-level name in ``vortexfield.*`` that
refers to a target is rebound to the wrapper.  Methods are replaced on
their class, and the check functions inside ``verify.ALL_CHECKS`` are
swapped in a rebuilt tuple.  Leaving the ``with`` block restores every
original binding.

Each wrapped call records one span (name, start, end, parent, attrs) in
a ``Recorder`` held in memory; the caller writes the spans out when the
run ends.  The recorder keeps one stack of open spans, so it assumes the
package runs serially (``VORTEXFIELD_THREADS`` unset).
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PACKAGE = "vortexfield"


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=0.0, parent=-1, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class Recorder:
    """In-memory span store with the stack of currently open spans."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._open.pop()
        return span


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``attr`` is a module attribute (``"w0_conformal"``) or a method
    (``"DiskPoissonSolver.solve"``).  ``annotate(args, kwargs, result)``
    returns the span's attributes; it runs after the span has closed.
    A target whose result is itself a callable to trace (an objective
    factory) names that callable's span in ``result_span`` and may set
    ``span`` to None to record nothing for the factory call itself.
    """

    module: str
    attr: str
    span: str | None
    annotate: object = None
    result_span: str | None = None
    result_annotate: object = None


def _wrap(fn, recorder: Recorder, name, annotate=None, result_span=None,
          result_annotate=None):
    if name is None:
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            result = fn(*args, **kwargs)
            return _wrap(result, recorder, result_span, result_annotate)
        return factory

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.end(idx).attrs = {"error": type(exc).__name__}
            raise
        span = recorder.end(idx)
        if annotate is not None:
            span.attrs = annotate(args, kwargs, result)
        if result_span is not None:
            result = _wrap(result, recorder, result_span, result_annotate)
        return result
    return wrapper


class Instrumentation:
    """Context manager that installs span wrappers and restores the originals."""

    def __init__(self, recorder: Recorder, targets):
        self.recorder = recorder
        self.targets = tuple(targets)
        self._restore = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        replaced = {}
        for t in self.targets:
            owner = sys.modules[f"{PACKAGE}.{t.module}"]
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:  # a method: replace it on its class
                original = owner.__dict__[leaf]
                wrapper = _wrap(original, self.recorder, t.span, t.annotate,
                                t.result_span, t.result_annotate)
                self._rebind(owner, leaf, wrapper)
                continue
            original = getattr(owner, leaf)
            wrapper = _wrap(original, self.recorder, t.span, t.annotate,
                            t.result_span, t.result_annotate)
            replaced[id(original)] = wrapper
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)
        verify = sys.modules.get(f"{PACKAGE}.verify")
        if verify is not None:
            checks = tuple((name, tags, replaced.get(id(fn), fn))
                           for name, tags, fn in verify.ALL_CHECKS)
            self._rebind(verify, "ALL_CHECKS", checks)

    def _rebind(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc_info):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
        return False


# ----------------------------------------------------------------------
# what gets traced
# ----------------------------------------------------------------------

def _solve_attrs(args, kwargs, result):
    return {"n_r": result.grid.n_r, "n_t": result.grid.n_t}


def _points_attrs(args, kwargs, result):
    return {"points": int(result.size)}


def _picard_attrs(args, kwargs, result):
    report = result[1]
    ch = report.changes
    ratios = [ch[k + 1] / ch[k] for k in range(len(ch) - 1) if ch[k] > 0.0]
    return {"iters": report.iterations, "converged": report.converged,
            "contraction": max(ratios, default=0.0)}


def _descent_attrs(args, kwargs, result):
    return {"iters": int(result[1])}


def _eval_attrs(args, kwargs, result):
    return {"value": float(result)}


def _nm_attrs(args, kwargs, result):
    return {"evals": int(result.evaluations)}


def _landscape_attrs(args, kwargs, result):
    # cells that received a value from the objective (finite or failed)
    filled = int(np.count_nonzero(np.isfinite(result.energies)))
    return {"cells": filled + int(result.failures)}


# the objective factory records nothing itself; each evaluation is a span
EVAL_TARGET = Target("optimize", "energy_objective", None,
                     result_span="optimize.eval", result_annotate=_eval_attrs)

LAYER_TARGETS = (
    Target("poisson", "DiskPoissonSolver.__init__", "poisson.factor"),
    Target("poisson", "DiskPoissonSolver.solve", "poisson.solve", _solve_attrs),
    Target("poisson", "DiskPoissonSolver.apply", "poisson.apply"),
    Target("poisson", "DiskPoissonSolver.lambda_max", "poisson.lambda_max"),
    Target("poisson", "graded_log_quadrature", "poisson.quadrature"),
    Target("canonical", "canonical_map_disk", "canonical.map", _points_attrs),
    Target("geom", "ConformalDomain.curvature_speed", "geom.curvature_speed"),
    Target("renorm", "w0_conformal", "renorm.w0_conformal"),
    Target("renorm", "g_functional", "renorm.g_functional"),
    Target("renorm", "punctured_energy", "renorm.punctured"),
    Target("micromag", "total_energy", "micromag.total_energy"),
    Target("micromag", "picard_solve", "micromag.picard", _picard_attrs),
    Target("micromag", "magnetization_field", "micromag.field"),
    Target("micromag", "minimize_g_descent", "micromag.descent", _descent_attrs),
    EVAL_TARGET,
    Target("optimize", "nelder_mead", "optimize.nm", _nm_attrs),
    Target("optimize", "landscape", "optimize.landscape", _landscape_attrs),
    Target("verify", "check_logsin", "verify.logsin_integrals"),
    Target("verify", "check_disk_reduction", "verify.disk_reduction"),
    Target("verify", "check_punctured_ladder", "verify.punctured_ladder"),
    Target("verify", "check_picard_oracle", "verify.picard_oracle"),
    Target("cli", "main", "cli.main"),
)

#: the two wrappers the untraced runs keep, to count failed evaluations
COUNT_TARGETS = (EVAL_TARGET, Target("micromag", "total_energy", "micromag.total_energy"))


# ----------------------------------------------------------------------
# derived numbers
# ----------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def _value(span) -> float:
    """An evaluation's result; NaN when the objective raised."""
    return span.attrs.get("value", math.nan)


def eval_counts(spans, start: int = 0) -> tuple:
    """(evaluations, degenerate, failed) of the objective, from span ``start`` on.

    A degenerate evaluation returns +inf without reaching total_energy;
    a failed one reached it and total_energy raised ConvergenceError.
    """
    reached = set()
    failed = set()
    for s in spans[start:]:
        if s.name == "micromag.total_energy" and s.parent >= 0:
            reached.add(s.parent)
            if s.attrs and s.attrs.get("error") == "ConvergenceError":
                failed.add(s.parent)
    evals = [i for i in range(start, len(spans)) if spans[i].name == "optimize.eval"]
    degenerate = sum(1 for i in evals if i not in reached
                     and math.isinf(_value(spans[i])))
    return len(evals), degenerate, sum(1 for i in evals if i in failed)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def solve_bytes(n_r: int, n_t: int) -> int:
    """Bytes one ``solve`` moves, computed from its array sizes.

    Real field R = 8 n_r n_t (read input, finiteness check, write
    output: 3R); complex spectrum C = 16 n_r (n_t/2 + 1) (rfft write,
    transpose read and write, forward sweep read, write and read-back,
    back sweep read, write and read-back: 9C); two real factor arrays
    F = 8 n_r (n_t/2 + 1).  Cache effects are ignored.
    """
    modes = n_t // 2 + 1
    return 3 * 8 * n_r * n_t + 9 * 16 * n_r * modes + 2 * 8 * n_r * modes


def layer_metrics(spans, commands: int) -> dict:
    """Per-layer numbers, per traced command, as {name: (value, unit)}.

    Counts and times are totals over the traced commands divided by
    ``commands``; maxima and percentiles are over all of them.  The
    ``poisson.factor`` numbers are process totals, set-up included,
    because the factorization is built once and cached.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name)) / commands

    def secs(name):
        return sum(spans[i].duration for i in idx(name)) / commands

    def self_s(name):
        return sum(selfs[i] for i in idx(name)) / commands

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in idx(name) if spans[i].attrs) / commands

    picard = [spans[i].attrs for i in idx("micromag.picard") if spans[i].attrs
              and "iters" in spans[i].attrs]
    evals, degenerate, failed = eval_counts(spans)
    eval_ms = [spans[i].duration * 1e3 for i in idx("optimize.eval")]

    improving = 0
    nm_evals = 0
    for nm in idx("optimize.nm"):
        best = math.inf
        for i in idx("optimize.eval"):
            if spans[i].parent == nm:
                nm_evals += 1
                if _value(spans[i]) < best:
                    best = _value(spans[i])
                    improving += 1
    landscape_evals = sum(1 for i in idx("optimize.eval")
                          if spans[i].parent >= 0
                          and spans[spans[i].parent].name == "optimize.landscape")
    cells = attr_sum("optimize.landscape", "cells") * commands

    solve_mb = sum(solve_bytes(spans[i].attrs["n_r"], spans[i].attrs["n_t"])
                   for i in idx("poisson.solve") if spans[i].attrs) / 1e6 / commands

    m = {
        "poisson.solve.calls": (calls("poisson.solve"), "count"),
        "poisson.solve.s": (secs("poisson.solve"), "s"),
        "poisson.solve.ms_per_call": (
            _ratio(secs("poisson.solve") * 1e3, calls("poisson.solve")), "ms"),
        "poisson.solve.mb_computed": (solve_mb, "MB"),
        "poisson.apply.calls": (calls("poisson.apply"), "count"),
        "poisson.apply.s": (secs("poisson.apply"), "s"),
        "poisson.factor.calls": (float(len(idx("poisson.factor"))), "count"),
        "poisson.factor.s": (sum(spans[i].duration for i in idx("poisson.factor")), "s"),
        "poisson.lambda_max.s": (secs("poisson.lambda_max"), "s"),
        "poisson.quadrature.s": (secs("poisson.quadrature"), "s"),
        "canonical.map.calls": (calls("canonical.map"), "count"),
        "canonical.map.points": (attr_sum("canonical.map", "points"), "count"),
        "canonical.map.s": (secs("canonical.map"), "s"),
        "canonical.map.per_eval": (
            _ratio(calls("canonical.map"), calls("micromag.total_energy")), "ratio"),
        "geom.curvature_speed.calls": (calls("geom.curvature_speed"), "count"),
        "renorm.w0_conformal.calls": (calls("renorm.w0_conformal"), "count"),
        "renorm.w0_conformal.s": (secs("renorm.w0_conformal"), "s"),
        "renorm.w0_conformal.ms_per_call": (
            _ratio(secs("renorm.w0_conformal") * 1e3, calls("renorm.w0_conformal")), "ms"),
        "renorm.g_functional.calls": (calls("renorm.g_functional"), "count"),
        "renorm.g_functional.s": (secs("renorm.g_functional"), "s"),
        "renorm.punctured.s": (secs("renorm.punctured"), "s"),
        "micromag.total_energy.calls": (calls("micromag.total_energy"), "count"),
        "micromag.total_energy.self_s": (self_s("micromag.total_energy"), "s"),
        "micromag.picard.calls": (calls("micromag.picard"), "count"),
        "micromag.picard.s": (secs("micromag.picard"), "s"),
        "micromag.picard.self_s": (self_s("micromag.picard"), "s"),
        "micromag.picard.iters": (sum(a["iters"] for a in picard) / commands, "count"),
        "micromag.picard.iters_per_call": (
            _ratio(sum(a["iters"] for a in picard), len(picard)), "ratio"),
        "micromag.picard.iters_max": (float(max((a["iters"] for a in picard), default=0)),
                                      "count"),
        "micromag.picard.contraction_max": (
            max((a["contraction"] for a in picard), default=0.0), "ratio"),
        "micromag.picard.unconverged": (
            sum(1 for a in picard if not a["converged"]) / commands, "count"),
        "micromag.field.s": (secs("micromag.field"), "s"),
        "micromag.descent.iters": (attr_sum("micromag.descent", "iters"), "count"),
        "micromag.descent.s": (secs("micromag.descent"), "s"),
        "optimize.evals": (evals / commands, "count"),
        "optimize.evals_degenerate": (degenerate / commands, "count"),
        "optimize.evals_failed": (failed / commands, "count"),
        "optimize.eval_ms.p50": (_percentile(eval_ms, 50), "ms"),
        "optimize.eval_ms.p90": (_percentile(eval_ms, 90), "ms"),
        "optimize.nm.evals": (attr_sum("optimize.nm", "evals"), "count"),
        "optimize.nm.s": (secs("optimize.nm"), "s"),
        "optimize.nm.improving_ratio": (_ratio(improving, nm_evals), "ratio"),
        "optimize.landscape.cells": (cells / commands, "count"),
        "optimize.landscape.evals_per_cell": (_ratio(landscape_evals, cells), "ratio"),
        "optimize.landscape.s": (secs("optimize.landscape"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "verify.logsin_integrals.s": (secs("verify.logsin_integrals"), "s"),
        "verify.disk_reduction.s": (secs("verify.disk_reduction"), "s"),
        "verify.punctured_ladder.s": (secs("verify.punctured_ladder"), "s"),
        "verify.picard_oracle.s": (secs("verify.picard_oracle"), "s"),
    }
    return m
