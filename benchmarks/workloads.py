"""The four benchmark workloads and the checks on their outputs.

Each workload is one ``vortexfield`` CLI command.  ``inputs(seed)``
returns the argument lists a run cycles through (``--out`` is added by
the runner); the same seed always gives the same lists.  ``check``
reads the artifacts one command wrote and returns the problems it
found, an empty list when the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: the CLI default start of the simplex search
DEFAULT_S0 = (0.5, 2.5)


@dataclass(frozen=True)
class Workload:
    """One CLI command; the reason each was chosen is in BENCHMARK.json."""

    name: str
    #: (n_r, n_t) grids whose Poisson factorization counts as set-up
    setup_grids: tuple
    inputs: object
    check: object


def _torus_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _json(files: dict, name: str) -> dict:
    if name not in files:
        raise ValueError(f"{name} was not written")
    return json.loads(files[name])


def _exit_problems(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


# ----------------------------------------------------------------------
# minimize-disk-weak
# ----------------------------------------------------------------------

MINIMIZE_STARTS = 8


def minimize_starts(seed: int) -> list:
    """Simplex starts for one run: CLI default plus seeded offsets in +-0.1.

    Moving the start by 1e-6 already moves the Nelder-Mead evaluation
    count between about 117 and 132, so each run times several starts
    and reports their median; seed 0 begins with the CLI default itself.
    """
    rng = np.random.default_rng(seed)
    starts = []
    for k in range(MINIMIZE_STARTS):
        offset = rng.uniform(-0.1, 0.1, size=2)
        if seed == 0 and k == 0:
            offset = np.zeros(2)
        starts.append(tuple(float(v) for v in np.asarray(DEFAULT_S0) + offset))
    return starts


def minimize_inputs(seed: int) -> list:
    return [["minimize", "--domain", "disk", "--h=-0.01,0", f"--s0={s1!r},{s2!r}"]
            for s1, s2 in minimize_starts(seed)]


def check_minimize(code: int, files: dict) -> list:
    problems = _exit_problems(code)
    summary = _json(files, "summary.json")
    if summary.get("converged") is not True:
        problems.append("minimize did not converge")
    for s in summary["s_min"]:
        gap = min(_torus_dist(s, 0.0), _torus_dist(s, math.pi))
        if gap > 0.05:
            problems.append(f"s_min angle {s!r} is {gap:.3g} from {{0, pi}}")
    total = summary["total"]
    if not (isinstance(total, float) and math.isfinite(total)):
        problems.append(f"total energy {total!r} is not finite")
    return problems


# ----------------------------------------------------------------------
# landscape-oval-zero
# ----------------------------------------------------------------------

LANDSCAPE_N = 64


def landscape_inputs(seed: int) -> list:
    return [["landscape", "--domain", "oval", "--c", "0.2", "--h=0,0",
             "--landscape-n", str(LANDSCAPE_N)]]


def check_landscape(code: int, files: dict, n: int = LANDSCAPE_N) -> list:
    problems = _exit_problems(code)
    summary = _json(files, "landscape_summary.json")
    if summary["failures"] != 0:
        problems.append(f"{summary['failures']} landscape cells failed")
    if "landscape.csv" not in files:
        raise ValueError("landscape.csv was not written")
    lines = files["landscape.csv"].decode().splitlines()
    if len(lines) != n * n + 1:
        problems.append(f"landscape.csv has {len(lines)} lines, expected {n * n + 1}")
    s1, s2 = summary["min_s"]
    sep = _torus_dist(s1, s2)
    if abs(sep - math.pi) > TWO_PI / n:
        problems.append(f"minimum separation {sep:.4f} is not pi to within one cell")
    return problems


# ----------------------------------------------------------------------
# field-oval-strong
# ----------------------------------------------------------------------

def field_inputs(seed: int) -> list:
    # the seed drives the CLI's own sample jitter; the simplex start stays
    # the CLI default (see README: a 1e-6 change of s0 moves this run
    # between 138 and 209 evaluations)
    return [["field", "--auto-min", "--domain", "oval", "--c", "0.2", "--h=0,3",
             "--jitter", "0.5", "--seed", str(seed)]]


def check_field_rows(code: int, files: dict) -> list:
    problems = _exit_problems(code)
    if "field.csv" not in files:
        raise ValueError("field.csv was not written")
    rows = files["field.csv"].decode().splitlines()[1:]
    if not rows:
        problems.append("field.csv has no samples")
    for row in rows:
        x, y, mx, my = (float(v) for v in row.split(","))
        if abs(math.hypot(mx, my) - 1.0) > 1e-12:
            problems.append(f"|m| = {math.hypot(mx, my)!r} at ({x!r}, {y!r})")
            break
    return problems


def local_min_problems(summary: dict) -> list:
    """W at the returned pair against W 1e-3 away along each angle."""
    from vortexfield.canonical import VortexConfig
    from vortexfield.geom import ConformalDomain
    from vortexfield.micromag import ExternalField, total_energy
    from vortexfield.poisson import GridSpec

    cfg = summary["config"]
    domain = (ConformalDomain.disk() if cfg["domain"] == "disk"
              else ConformalDomain.oval(cfg["c"]))
    h = tuple(cfg["h"])
    field = ExternalField(h, h_max=max(0.5, math.hypot(*h)))
    grid = GridSpec(*cfg["grid"])

    def w(s):
        return total_energy(domain, VortexConfig.pair(*s), field, grid,
                            w0_nodes=cfg["w0_nodes"], tol=cfg["tol"],
                            max_iter=cfg["max_iter"]).total

    s = tuple(summary["s"])
    w_s = w(s)
    problems = []
    for j in range(2):
        for d in (-1e-3, 1e-3):
            probe = list(s)
            probe[j] += d
            w_p = w(probe)
            if w_p < w_s:
                problems.append(f"W drops by {w_s - w_p:.3g} moving angle {j} by {d:+g}")
    return problems


def check_field(code: int, files: dict) -> list:
    problems = check_field_rows(code, files)
    if not problems:
        problems += local_min_problems(_json(files, "field_summary.json"))
    return problems


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def verify_inputs(seed: int) -> list:
    return [["verify"]]


def check_verify(code: int, files: dict) -> list:
    problems = _exit_problems(code)
    if _json(files, "verify_report.json").get("all_passed") is not True:
        problems.append("verify reports a failed check")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("minimize-disk-weak", ((128, 256),), minimize_inputs, check_minimize),
    Workload("landscape-oval-zero", ((128, 256),), landscape_inputs, check_landscape),
    Workload("field-oval-strong", ((128, 256),), field_inputs, check_field),
    Workload("verify", ((8, 16),), verify_inputs, check_verify),
)}
