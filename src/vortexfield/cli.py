"""Command-line interface: minimize, landscape, field, verify.

Each command accepts only the option groups it reads; an option outside
them is a usage error.  The groups are:

- problem: ``--domain --c --h --grid --tol --max-iter --w0-nodes``
- search (the simplex search): ``--s0 --max-evals``
- output: ``--out``
- plots: ``--svg``

``minimize`` reads problem, search and output; ``landscape`` reads
problem, plots, output and ``--landscape-n``; ``field`` reads problem,
search, plots, output and ``--s --auto-min --samples --jitter --seed``;
``verify`` reads ``--out`` and ``--only``.  Before any work,
:func:`config_from_args` checks ``field``'s mode (exactly one of ``--s``
and ``--auto-min``, and the search options only with ``--auto-min``),
and :meth:`RunConfig.validate` checks each value once.

``minimize``, ``landscape`` and ``field`` take every W from the run's
one objective (:func:`_objective`).  A search's answer is its own
evaluation: ``minimize`` writes the kept breakdown of the pair it
reports, ``failures``, its count of evaluations that were not finite,
``nearest_failure`` when a solve failed (its ``s``, ``error`` and torus
max-norm ``distance`` from ``s_min``), and ``bounded``, its count of
evaluations that stopped on a certified lower bound above the value the
search compared them with; ``field --auto-min`` samples the theta
solved there, and ``field --s`` the objective's breakdown at its pair.
Both summaries write the breakdown through :func:`_energy_keys`:
``w0``, ``v_ext``, ``total``, ``gradient`` (the exact dW/ds, one
operator apply, no solve) and, when something was solved, ``solver``,
the winning solve and the branch choice alone; the grid and
``w0_nodes``, the trapezoid rule of W_0's one domain constant
(``renorm.w0_constant``), are in ``config``.  A search, scan or pair
with no finite energy writes nothing and exits 2 with its first solver
failure's message; an unconverged search exits 2, after ``minimize``
writes its summary, naming its spent budget or the failure by its answer.

Outputs are flat files (JSON summaries, CSV tables, optional static
SVG); every artifact embeds the resolved configuration it was made from
(``verify_report.json`` only the two fields verify reads), so runs are
reproducible from their own output.  Numbers are written with shortest
round-trip formatting, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .canonical import VortexConfig
from .errors import ConvergenceError
from .geom import TWO_PI, ConformalDomain
# total_energy stays importable from here: the benchmark's span tracer
# rebinds this copy (every evaluation calls it through optimize)
from .micromag import (ExternalField, SampleSpec, magnetization_field,
                       require_picard_budget, total_energy)
from .optimize import energy_objective, landscape, nelder_mead
from .poisson import GridSpec
from .renorm import require_w0_nodes
from .svgplot import heatmap_svg, quiver_svg
from .verify import run_checks, select_checks


@dataclass
class RunConfig:
    domain: str = "disk"
    c: float = 0.2
    h: tuple = (0.0, 0.0)
    s: tuple = None
    s0: tuple = (0.5, 2.5)
    grid: tuple = (128, 256)
    landscape_n: int = 64
    tol: float = 1e-9
    max_iter: int = 50
    max_evals: int = 500
    w0_nodes: int = 2048
    samples: tuple = (16, 48)
    jitter: float = 0.0
    seed: int = 0
    out: str = "."
    svg: bool = False
    auto_min: bool = False
    only: str = ""

    def conformal_domain(self) -> ConformalDomain:
        if self.domain == "disk":
            return ConformalDomain.disk()
        return ConformalDomain.oval(self.c)

    def external_field(self) -> ExternalField:
        return ExternalField(self.h)

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.grid[0], self.grid[1])

    def sample_spec(self) -> SampleSpec:
        return SampleSpec(n_r=self.samples[0], n_t=self.samples[1],
                          jitter=self.jitter, seed=self.seed)

    def validate(self) -> None:
        if self.domain not in ("disk", "oval"):
            raise ValueError(f"unknown domain {self.domain!r}")
        ConformalDomain(self.c)   # the range of c, on the disk too
        self.external_field()
        self.grid_spec()
        self.sample_spec()
        require_picard_budget(self.tol, self.max_iter)
        if self.max_evals < 3:
            raise ValueError(f"max_evals must be at least 3, got {self.max_evals}")
        if self.landscape_n < 16:
            raise ValueError(f"landscape resolution must be at least 16, got {self.landscape_n}")
        require_w0_nodes(self.w0_nodes)
        if self.s is not None and VortexConfig.pair(*self.s).is_degenerate:
            raise ValueError("vortex angles coincide (degenerate configuration)")
        VortexConfig.pair(*self.s0)   # the simplex start must be finite too
        if self.only and not select_checks(self.only):
            raise ValueError(f"--only {self.only!r} matches no check name or tag")


def _pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _int_pair(text: str) -> tuple:
    a, b = _pair(text)
    if not (a.is_integer() and b.is_integer()):
        raise argparse.ArgumentTypeError(f"expected two integers, got {text!r}")
    return (int(a), int(b))


def _json_safe(obj):
    if isinstance(obj, float):
        if np.isnan(obj):
            raise ValueError("refusing to emit NaN")
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


def _objective(config: RunConfig):
    """The run's W over angle pairs: the only route from a RunConfig to an energy."""
    return energy_objective(config.conformal_domain(), config.external_field(),
                            config.grid_spec(), config.w0_nodes,
                            tol=config.tol, max_iter=config.max_iter)


def _energy_keys(breakdown) -> dict:
    """The keys of an evaluation in both summaries (module docstring)."""
    keys = {"w0": breakdown.w0, "v_ext": breakdown.v_ext, "total": breakdown.total,
            "gradient": breakdown.gradient().tolist()}
    if breakdown.diagnostics:
        keys["solver"] = breakdown.diagnostics
    return keys


def _no_finite_energy(error: str | None, where: str) -> ConvergenceError:
    """The failure of a run with no finite W: its solver message, if one failed."""
    return ConvergenceError(error or f"no {where} has a finite energy")


def _minimize_run(config: RunConfig):
    result = nelder_mead(_objective(config), config.s0, max_evals=config.max_evals)
    if not np.isfinite(result.value):
        # the failure nearest the first vertex is the start's first solver failure
        raise _no_finite_energy((result.nearest_failure or {}).get("error"),
                                "vertex of the starting simplex")
    return result


def _report_unconverged(command: str, result, config: RunConfig) -> None:
    if result.evaluations < config.max_evals:   # it stopped next to a failure
        nearest = result.nearest_failure
        print(f"{command} did not converge: a failed evaluation lies {nearest['distance']:.2g} "
              f"from its answer ({nearest['error']})", file=sys.stderr)
    else:
        print(f"{command} did not converge within the evaluation budget "
              f"({result.evaluations} evaluations used, budget {config.max_evals})",
              file=sys.stderr)


def cmd_minimize(config: RunConfig) -> int:
    result = _minimize_run(config)
    domain = config.conformal_domain()
    positions = domain.forward(np.exp(1j * np.asarray(result.s_min)))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json", {
        "command": "minimize",
        "config": asdict(config),
        "converged": result.converged,
        "evaluations": result.evaluations,
        "failures": result.failures,
        "bounded": result.bounded,
        **({"nearest_failure": result.nearest_failure} if result.nearest_failure else {}),
        "s_min": list(result.s_min),
        "vortex_positions": [[float(p.real), float(p.imag)] for p in positions],
        **_energy_keys(result.best),
        "optimizer": {
            "operations": result.state.operations,
            "best_history": result.state.best_history,
        },
    })
    if not result.converged:
        _report_unconverged("minimize", result, config)
        return 2
    return 0


def cmd_landscape(config: RunConfig) -> int:
    scan = landscape(_objective(config), config.landscape_n)
    if not np.isfinite(scan.min_value):
        raise _no_finite_energy(scan.best.diagnostics.get("error"), "landscape cell")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    n = scan.n
    lines = ["s1,s2,W"]
    for i in range(n):
        for j in range(n):
            lines.append(
                f"{scan.angle(i)!r},{scan.angle(j)!r},{float(scan.energies[i, j])!r}")
    (out / "landscape.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "landscape_summary.json", {
        "command": "landscape",
        "config": asdict(config),
        "min_index": list(scan.min_index),
        "min_s": [scan.angle(scan.min_index[0]), scan.angle(scan.min_index[1])],
        "min_value": scan.min_value,
        "failures": scan.failures,
    })
    if config.svg:
        (out / "landscape.svg").write_text(heatmap_svg(scan.energies))
    return 0


def cmd_field(config: RunConfig) -> int:
    if config.auto_min:
        result = _minimize_run(config)
        if not result.converged:
            _report_unconverged("auto-min", result, config)
            return 2
        s, solved = result.s_min, result.best
    else:
        s, solved = config.s, _objective(config)(config.s)
        if not np.isfinite(solved.total):
            raise _no_finite_energy(solved.diagnostics.get("error"), "pair")
    domain = config.conformal_domain()
    field_out = magnetization_field(domain, VortexConfig.pair(*s),
                                    config.external_field(), config.grid_spec(),
                                    config.sample_spec(), solved=solved)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["x,y,mx,my"]
    for smp in field_out.samples:
        lines.append(f"{smp.x!r},{smp.y!r},{smp.mx!r},{smp.my!r}")
    (out / "field.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "field_summary.json", {
        "command": "field",
        "config": asdict(config),
        "s": list(s),
        "samples": len(field_out.samples),
        "skipped": field_out.skipped,
        "vortex_positions": [[v.real, v.imag] for v in field_out.vortex_positions],
        **_energy_keys(solved),
    })
    if config.svg:
        boundary = domain.boundary_point(np.linspace(0.0, TWO_PI, 257))
        (out / "field.svg").write_text(
            quiver_svg(field_out.samples, field_out.vortex_positions, boundary))
    return 0


def cmd_verify(config: RunConfig) -> int:
    results = run_checks(only=config.only)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    all_passed = all(r.passed for r in results)
    _write_json(out / "verify_report.json", {
        "command": "verify",
        "config": {"out": config.out, "only": config.only},
        "all_passed": all_passed,
        "checks": [
            {"name": r.name, "tags": list(r.tags), "passed": r.passed,
             "measured": r.measured, "detail": r.detail}
            for r in results
        ],
    })
    return 0 if all_passed else 3


def build_parser() -> argparse.ArgumentParser:
    """The four subcommands; an option left out takes its RunConfig default."""
    parser = argparse.ArgumentParser(
        prog="vortexfield",
        description="Boundary-vortex positions and magnetization fields in "
                    "thin ferromagnetic films (unit disk and conformal ovals).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group():
        return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)

    problem = group()
    problem.add_argument("--domain", choices=("disk", "oval"),
                         help="unit disk or conformal oval")
    problem.add_argument("--c", type=float,
                         help="conformal coefficient of the oval family")
    problem.add_argument("--h", type=_pair, metavar="H1,H2",
                         help="external field components")
    problem.add_argument("--grid", type=_int_pair, metavar="NR,NT",
                         help="solver grid (radial, angular)")
    problem.add_argument("--tol", type=float,
                         help="fixed-point stopping tolerance (max-norm)")
    problem.add_argument("--max-iter", type=int,
                         help="fixed-point iteration budget")
    problem.add_argument("--w0-nodes", type=int,
                         help="trapezoid nodes of W0's domain constant (power of two)")
    search = group()
    search.add_argument("--s0", type=_pair, metavar="S1,S2",
                        help="initial angle pair for the simplex search")
    search.add_argument("--max-evals", type=int,
                        help="objective evaluation budget")
    output = group()
    output.add_argument("--out", help="output directory")
    plots = group()
    plots.add_argument("--svg", action="store_true", help="emit static SVG plots")

    def command(name, summary, *parents):
        return sub.add_parser(name, help=summary, parents=[*parents, output],
                              argument_default=argparse.SUPPRESS)

    command("minimize", "minimize the renormalized energy", problem, search)

    p_land = command("landscape", "scan the energy over angle pairs", problem, plots)
    p_land.add_argument("--landscape-n", type=int, metavar="N",
                        help="grid resolution per angle")

    p_field = command("field", "sample the magnetization vector field",
                      problem, search, plots)
    p_field.add_argument("--s", type=_pair, metavar="S1,S2",
                         help="vortex angles (skip the minimization)")
    p_field.add_argument("--auto-min", action="store_true",
                         help="locate vortices by minimization first")
    p_field.add_argument("--samples", type=_int_pair, metavar="NR,NT",
                         help="sample lattice resolution")
    p_field.add_argument("--jitter", type=float,
                         help="sample jitter as a fraction of one cell")
    p_field.add_argument("--seed", type=int,
                         help="random seed for sample jitter")

    p_ver = command("verify", "run the cross-validation suite")
    p_ver.add_argument("--only", metavar="CHECK-SET",
                       help="restrict to checks matching this name or tag")
    return parser


#: options whose value may start with a minus sign, as in ``--h -0.01,0``
_SIGNED_PAIR_OPTIONS = ("--h", "--s", "--s0")


def _join_signed_values(argv: list) -> list:
    """Rewrite ``--h X`` as ``--h=X`` for the options taking signed pairs.

    argparse reads a separate value that starts with ``-`` as an option
    unless it is a bare number, and ``-0.01,0`` is not one.
    """
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _SIGNED_PAIR_OPTIONS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # an unset option is absent from args, so field's mode is told from
    # the options given, not from their defaults
    if args.command == "field":
        auto_min = getattr(args, "auto_min", False)
        if hasattr(args, "s") == auto_min:
            raise ValueError("field takes exactly one of --s s1,s2 and --auto-min")
        searched = [f"--{k.replace('_', '-')}" for k in ("s0", "max_evals") if hasattr(args, k)]
        if searched and not auto_min:
            raise ValueError(f"field searches only with --auto-min: "
                             f"{' and '.join(searched)} would be ignored")
    config = RunConfig()
    for key in vars(config):
        if hasattr(args, key):
            setattr(config, key, getattr(args, key))
    config.validate()
    return config


COMMANDS = {
    "minimize": cmd_minimize,
    "landscape": cmd_landscape,
    "field": cmd_field,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](config)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
