"""Cross-validation suite behind the ``verify`` CLI command.

Each check pits one computational path against an independent one:
closed forms against quadrature, the closed form of W_0 on a conformal
image against the disk's and, on an oval, against its boundary formula
by a subtracted trapezoid rule, the punctured-domain limit against the
known renormalized value, and the Picard fixed point against a
descent-method minimizer.  Checks are cheap enough to run in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .canonical import VortexConfig
from .geom import TWO_PI, ConformalDomain, circle_distance, wrap
from .micromag import ExternalField, minimize_g_descent, picard_solve
from .poisson import (GridSpec, LOG_SIN_INTEGRAL, LOG_SIN_SQUARED_INTEGRAL,
                      singular_quadrature_1d)
from .renorm import punctured_energy, w0_conformal, w0_disk


@dataclass
class CheckResult:
    """One check's verdict; :func:`run_checks` stamps on its name and tags."""

    passed: bool
    measured: dict = dataclass_field(default_factory=dict)
    detail: str = ""
    name: str = ""
    tags: tuple = ()


def check_logsin() -> CheckResult:
    v1 = singular_quadrature_1d("log_sin")
    v2 = singular_quadrature_1d("log_sin_squared")
    e1 = abs(v1 - LOG_SIN_INTEGRAL)
    e2 = abs(v2 - LOG_SIN_SQUARED_INTEGRAL)
    return CheckResult(
        passed=bool(e1 < 1e-6 and e2 < 1e-6),
        measured={"log_sin": v1, "log_sin_error": e1,
                  "log_sin_squared": v2, "log_sin_squared_error": e2},
        detail=f"log-sine integrals vs closed forms, errors {e1:.2e} / {e2:.2e}",
    )


def check_disk_reduction() -> CheckResult:
    n_configs, nodes = 20, 1024
    rng = np.random.default_rng(2024)
    disk = ConformalDomain.disk()
    worst = 0.0
    for _ in range(n_configs):
        s1, s2 = rng.uniform(0.0, TWO_PI, size=2)
        if circle_distance(s1, s2) < 0.2:
            s2 = wrap(s1 + np.pi)
        config = VortexConfig.pair(s1, s2)
        worst = max(worst, abs(w0_conformal(disk, config, nodes) - w0_disk(config)))
    return CheckResult(
        passed=bool(worst < 1e-6),
        measured={"max_error": worst, "configs": n_configs, "nodes": nodes},
        detail=f"conformal closed form reduces to the disk closed form, worst {worst:.2e}",
    )


def subtracted_trapezoid_w0(domain: ConformalDomain, config: VortexConfig,
                            nodes: int = 65536) -> float:
    """W_0 by the trapezoid rule, a reference independent of :func:`w0_conformal`.

    It integrates the boundary formula that :func:`w0_conformal` sums in
    closed form.  Near each vortex s the density f is replaced by
    f - f(s) - f'(s) sin(t - s): both subtracted terms have zero integral
    against the log kernel, and what is left vanishes to second order at
    t = s, so the integrand is C^1 there and the periodic trapezoid rule
    applies.
    """
    t = TWO_PI * np.arange(nodes) / nodes
    f = domain.curvature_speed(t)
    total = np.sum(f * np.log(np.abs(domain.dforward(np.exp(1j * t))))) * TWO_PI / nodes
    for s in config.angles:
        fs = domain.curvature_speed(np.array([s]))[0]
        fp = (domain.curvature_speed(np.array([s + 1e-5]))[0]
              - domain.curvature_speed(np.array([s - 1e-5]))[0]) / 2e-5
        dist = np.abs(np.exp(1j * t) - np.exp(1j * s))
        logk = np.log(np.where(dist > 1e-14, dist, 1.0))
        total += np.sum((f - fs - fp * np.sin(t - s)) * logk) * TWO_PI / nodes
    return float(w0_disk(config) + 0.5 * total)


def check_oval_w0() -> CheckResult:
    """The closed form of W_0 on the c = 0.2 oval against the subtracted trapezoid rule.

    On the disk its boundary-speed term, the boundary formula's log-kernel
    term, is exactly 0, so :func:`check_disk_reduction` cannot see it; on
    this oval it is -0.32 and +1.24 at the two pairs.
    """
    c, nodes, reference_nodes = 0.2, 256, 1024
    domain = ConformalDomain.oval(c)
    worst = 0.0
    for pair in ((0.3, 2.1), (1.0, 4.5)):
        config = VortexConfig.pair(*pair)
        worst = max(worst, abs(w0_conformal(domain, config, nodes)
                               - subtracted_trapezoid_w0(domain, config, reference_nodes)))
    return CheckResult(
        passed=bool(worst < 1e-6),
        measured={"max_error": worst, "c": c, "nodes": nodes,
                  "reference_nodes": reference_nodes},
        detail=f"oval W0 vs subtracted trapezoid rule, worst {worst:.2e}",
    )


def check_punctured_ladder() -> CheckResult:
    """Renormalized limit of the punctured Dirichlet integral.

    The evaluated integral carries the full |grad phi*|^2, whose
    renormalized limit is twice the half-energy closed form; the check
    extrapolates the rho ladder linearly and compares against
    2 * w0_disk, on the 128 x 256 grid.  One ``punctured_energy`` call
    takes the three radii, so the grid level is integrated once.
    """
    grid = GridSpec(128, 256)
    config = VortexConfig.pair(0.0, np.pi)
    rhos = (0.1, 0.05, 0.025)
    seq = [energy - TWO_PI * np.log(1.0 / rho)
           for rho, energy in zip(rhos, punctured_energy(config, rhos, grid))]
    monotone = seq[0] > seq[1] > seq[2]
    extrapolated = 2.0 * seq[2] - seq[1]
    target = 2.0 * w0_disk(config)
    err = abs(extrapolated - target)
    return CheckResult(
        passed=bool(monotone and err < 2e-2),
        measured={"sequence": list(seq), "extrapolated": extrapolated,
                  "target": target, "error": err},
        detail=(f"ladder {['%.4f' % v for v in seq]} extrapolates to "
                f"{extrapolated:.4f} vs {target:.4f}"),
    )


def check_picard_oracle() -> CheckResult:
    grid = GridSpec(8, 16)
    config = VortexConfig.pair(0.5, 2.8)
    field = ExternalField((-0.01, 0.0))
    theta_p, report = picard_solve(config, field, grid)
    theta_g, iters, residual = minimize_g_descent(config, field, grid)
    diff = float(np.max(np.abs(theta_p.values - theta_g.values)))
    # a descent stopped by its step cap is no oracle, however close it got
    return CheckResult(
        passed=bool(report.converged and residual < 1e-8 and diff < 1e-6),
        measured={"max_diff": diff, "picard_iterations": report.iterations,
                  "descent_iterations": iters, "descent_residual": residual},
        detail=f"fixed point vs gradient descent, max-norm gap {diff:.2e}",
    )


ALL_CHECKS = (
    ("logsin_integrals", ("quadrature",), check_logsin),
    ("disk_reduction", ("quadrature",), check_disk_reduction),
    ("oval_w0", ("quadrature",), check_oval_w0),
    ("punctured_ladder", ("punctured",), check_punctured_ladder),
    ("picard_oracle", ("oracle",), check_picard_oracle),
)


def select_checks(only: str = "") -> list:
    """The ``(name, tags, fn)`` entries whose name contains ``only`` or whose
    tags include it; every entry when ``only`` is empty."""
    return [(name, tags, fn) for name, tags, fn in ALL_CHECKS
            if not only or only in name or only in tags]


def run_checks(only: str = ""):
    """Run the suite, optionally filtered by check name or tag."""
    return [replace(fn(), name=name, tags=tags) for name, tags, fn in select_checks(only)]
