"""Tests of the benchmark's own machinery: wrappers, span arithmetic, checks.

Run from the repository root with ``python -m pytest benchmarks -q``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vortexfield import (canonical, cli, micromag, optimize, poisson,  # noqa: E402
                         verify)
from vortexfield.errors import ConfigurationError  # noqa: E402


def _bindings():
    """Every module-level name and traced class attribute of the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "vortexfield" or name.startswith("vortexfield."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (poisson.DiskPoissonSolver, canonical.ConformalDomain):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def _small_energy():
    domain = canonical.ConformalDomain.oval(0.2)
    field = micromag.ExternalField((0.0, 0.3))
    grid = poisson.GridSpec(16, 32)
    return micromag.total_energy(domain, canonical.VortexConfig.pair(0.4, 2.9),
                                 field, grid)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def test_wrappers_are_transparent_and_restored():
    before = _bindings()
    plain_energy = _small_energy()
    plain_checks = [(r.name, r.passed, r.measured) for r in verify.run_checks("quadrature")]

    rec = spans.Recorder()
    with spans.Instrumentation(rec, spans.LAYER_TARGETS):
        # copies made by `from .x import y` point at the same wrapper
        assert micromag.canonical_map_disk is canonical.canonical_map_disk
        assert micromag.canonical_map_disk is not before[("vortexfield.canonical",
                                                          "canonical_map_disk")]
        assert optimize.total_energy is micromag.total_energy is cli.total_energy
        assert verify.ALL_CHECKS[0][2] is verify.check_logsin
        assert verify.ALL_CHECKS is not before[("vortexfield.verify", "ALL_CHECKS")]
        traced_energy = _small_energy()
        traced_checks = [(r.name, r.passed, r.measured)
                         for r in verify.run_checks("quadrature")]

    assert traced_energy == plain_energy
    assert traced_checks == plain_checks
    names = {s.name for s in rec.spans}
    assert {"micromag.total_energy", "micromag.picard", "poisson.solve",
            "canonical.map", "renorm.w0_conformal", "renorm.g_functional",
            "geom.curvature_speed", "verify.logsin_integrals",
            "verify.disk_reduction", "poisson.quadrature"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exception_propagates_is_recorded_and_bindings_restored():
    before = _bindings()
    rec = spans.Recorder()
    with pytest.raises(ConfigurationError):
        with spans.Instrumentation(rec, spans.LAYER_TARGETS):
            micromag.canonical_map_disk(canonical.VortexConfig.pair(1.0, 1.0), 0.0)
    assert [(s.name, s.attrs) for s in rec.spans] == [
        ("canonical.map", {"error": "ConfigurationError"})]
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def _span(name, start, end, parent=-1, attrs=None):
    return spans.Span(name, start, end, parent, attrs)


def test_self_time_on_nested_spans():
    synthetic = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("c", 6.5, 8.0, 0),    # overlaps b: the union counts once
        _span("d", 9.5, 11.0, 0),   # sticks out of root: clipped to it
    ]
    assert spans.self_times(synthetic) == pytest.approx(
        [10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 1.5, 1.5])


def test_eval_counts_separate_degenerate_and_failed():
    synthetic = [
        _span("optimize.nm", 0.0, 10.0),
        _span("optimize.eval", 0.0, 1.0, 0, {"value": -1.0}),
        _span("micromag.total_energy", 0.1, 0.9, 1),
        _span("optimize.eval", 1.0, 2.0, 0, {"value": math.inf}),   # degenerate
        _span("optimize.eval", 2.0, 3.0, 0, {"value": math.inf}),   # failed
        _span("micromag.total_energy", 2.1, 2.9, 4, {"error": "ConvergenceError"}),
        _span("optimize.eval", 3.0, 4.0, 0, {"value": -2.0}),
        _span("micromag.total_energy", 3.1, 3.9, 6),
    ]
    assert spans.eval_counts(synthetic) == (4, 1, 1)
    assert spans.eval_counts(synthetic, start=3) == (3, 1, 1)
    m = spans.layer_metrics(synthetic, commands=1)
    assert m["optimize.nm.improving_ratio"][0] == pytest.approx(2 / 4)
    assert m["micromag.total_energy.calls"][0] == 3


def test_solve_bytes_counts_real_and_spectral_arrays():
    # 3 real fields, 9 complex spectra, 2 real factor arrays
    assert spans.solve_bytes(4, 8) == 3 * 8 * 32 + 9 * 16 * 20 + 2 * 8 * 20


# ----------------------------------------------------------------------
# traced CLI runs: identical artifacts, bypass predictions
# ----------------------------------------------------------------------

SMALL_LANDSCAPE = ["landscape", "--domain", "oval", "--c", "0.2", "--h=0,0",
                   "--landscape-n", "16", "--grid", "16,32", "--w0-nodes", "256"]
SMALL_MINIMIZE = ["minimize", "--domain", "disk", "--h=-0.01,0", "--grid", "16,32"]


class _Small:
    def __init__(self, argv, check):
        self.argv = argv
        self.check = check
        self.setup_grids = ((16, 32),)

    def inputs(self, seed):
        return [self.argv]


def _traced_pair(tmp_path, argv, check):
    runner = run.Runner(_Small(argv, check), 0, tmp_path / "out")
    plain = runner.run_one(0, spans.Recorder(), False)
    rec = spans.Recorder()
    traced = runner.run_one(0, rec, True)
    return plain, traced, spans.layer_metrics(rec.spans, 1)


def test_traced_landscape_matches_untraced_and_bypasses_solvers(tmp_path):
    plain, traced, m = _traced_pair(
        tmp_path, SMALL_LANDSCAPE, lambda code, files: workloads.check_landscape(code, files, 16))
    assert plain.passed and traced.passed, plain.problems + traced.problems
    assert traced.files == plain.files
    for name in ("poisson.solve.calls", "micromag.picard.calls", "canonical.map.calls"):
        assert m[name][0] == 0
    assert m["optimize.landscape.evals_per_cell"][0] == 1.0
    assert m["optimize.evals"][0] == m["optimize.landscape.cells"][0] > 0
    assert m["optimize.evals_failed"][0] == 0


def test_traced_minimize_counts_are_consistent(tmp_path):
    plain, traced, m = _traced_pair(tmp_path, SMALL_MINIMIZE, workloads.check_minimize)
    assert plain.passed and traced.passed, plain.problems + traced.problems
    summary = json.loads(traced.files["summary.json"])
    assert m["optimize.nm.evals"][0] == summary["evaluations"] == m["optimize.evals"][0]
    # one M in the Picard solve and one in g_functional, per evaluation
    assert m["canonical.map.per_eval"][0] == 2.0
    assert m["micromag.picard.calls"][0] == m["micromag.total_energy.calls"][0]
    assert m["micromag.picard.iters_per_call"][0] >= 2
    assert plain.evals == traced.evals == summary["evaluations"]


def test_later_run_with_other_artifacts_fails(tmp_path):
    runner = run.Runner(_Small(SMALL_LANDSCAPE,
                               lambda code, files: workloads.check_landscape(code, files, 16)),
                        0, tmp_path / "out")
    assert runner.run_one(0, spans.Recorder(), False).passed
    code, files = runner.reference[0]
    runner.reference[0] = (code, {**files, "landscape.csv": files["landscape.csv"] + b"\n"})
    again = runner.run_one(0, spans.Recorder(), False)
    assert not again.passed and "landscape.csv" in again.problems[0]


# ----------------------------------------------------------------------
# output checks reject corrupted artifacts
# ----------------------------------------------------------------------

def _minimize_files(**change):
    summary = {"converged": True, "s_min": [1e-9, math.pi], "total": -0.2}
    summary.update(change)
    return {"summary.json": json.dumps(summary).encode()}


def test_minimize_check():
    assert workloads.check_minimize(0, _minimize_files()) == []
    assert workloads.check_minimize(2, _minimize_files())
    assert workloads.check_minimize(0, _minimize_files(converged=False))
    assert workloads.check_minimize(0, _minimize_files(s_min=[0.1, math.pi]))
    assert workloads.check_minimize(0, _minimize_files(total="inf"))


def _landscape_files(n=16, drop=0, **change):
    summary = {"failures": 0, "min_s": [0.0, math.pi]}
    summary.update(change)
    rows = ["s1,s2,W"] + ["0.0,0.0,1.0"] * (n * n - drop)
    return {"landscape_summary.json": json.dumps(summary).encode(),
            "landscape.csv": ("\n".join(rows) + "\n").encode()}


def test_landscape_check():
    assert workloads.check_landscape(0, _landscape_files(), 16) == []
    assert workloads.check_landscape(0, _landscape_files(failures=3), 16)
    assert workloads.check_landscape(0, _landscape_files(drop=1), 16)
    assert workloads.check_landscape(0, _landscape_files(min_s=[0.0, 2.5]), 16)
    assert workloads.check_landscape(1, _landscape_files(), 16)


def _field_files(scale=1.0):
    rows = ["x,y,mx,my"]
    for t in np.linspace(0.0, 6.0, 7):
        rows.append(f"{0.5 * math.cos(t)!r},{0.5 * math.sin(t)!r},"
                    f"{math.cos(t)!r},{math.sin(t)!r}")
    t = 1.234
    rows.append(f"0.1,0.2,{scale * math.cos(t)!r},{scale * math.sin(t)!r}")
    return {"field.csv": ("\n".join(rows) + "\n").encode()}


def test_field_rows_check():
    assert workloads.check_field_rows(0, _field_files()) == []
    assert workloads.check_field_rows(0, _field_files(scale=1.0 + 1e-9))
    assert workloads.check_field_rows(2, _field_files())


def test_local_min_check_rejects_a_non_minimum():
    summary = {"s": [0.3, 2.0],
               "config": {"domain": "disk", "c": 0.2, "h": [-0.01, 0.0],
                          "grid": [16, 32], "w0_nodes": 2048, "tol": 1e-9,
                          "max_iter": 50}}
    assert workloads.local_min_problems(summary)


def test_verify_check():
    ok = {"verify_report.json": json.dumps({"all_passed": True}).encode()}
    bad = {"verify_report.json": json.dumps({"all_passed": False}).encode()}
    assert workloads.check_verify(0, ok) == []
    assert workloads.check_verify(0, bad)
    assert workloads.check_verify(3, ok)


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.inputs(7) == w.inputs(7)
    assert workloads.minimize_starts(0)[0] == workloads.DEFAULT_S0
    assert workloads.minimize_starts(1) != workloads.minimize_starts(2)
