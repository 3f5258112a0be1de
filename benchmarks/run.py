"""Benchmark runner for the vortexfield CLI.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload minimize-disk-weak --seed 0 \
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
runner times whole CLI commands, called in-process through
``vortexfield.cli.main``, and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced commands on the same
inputs and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every command's artifacts are checked outside the timed
region; a run record (environment, per-command times, spans) goes to
``.bench_work/runs/`` in the repository root.

The package is imported from ``src/`` next to this directory; without
it the runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import vortexfield
from vortexfield.poisson import GridSpec, solver_for
for spec in sys.argv[2:]:
    solver_for(GridSpec(*map(int, spec.split(","))))
print(repr(time.perf_counter()))
"""


@dataclass
class Command:
    """One CLI command as run and checked."""

    input_index: int
    traced: bool
    code: int
    seconds: float
    files: dict
    evals: int = 0
    evals_failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        return {"input": self.input_index, "traced": self.traced, "code": self.code,
                "seconds": self.seconds, "evals": self.evals,
                "evals_failed": self.evals_failed, "problems": self.problems,
                "bytes_written": sum(len(b) for b in self.files.values())}


def environment(found_threads: dict) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():   # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, **found_threads}


def setup_sample(grids) -> float:
    """Seconds from spawning a fresh interpreter to ``import`` plus factorization.

    The child reports ``time.perf_counter()`` when ready; on Linux that
    clock is system-wide, so it compares with the parent's spawn time.
    """
    specs = [f"{n_r},{n_t}" for n_r, n_t in grids]
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *specs],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


class Runner:
    def __init__(self, workload, seed: int, out_dir: Path):
        from vortexfield import cli

        self.cli = cli
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.out_dir = out_dir
        self.reference = {}   # input index -> (code, files) of its first command

    def run_one(self, k: int, recorder, traced: bool) -> Command:
        """Run input ``k`` once, with every layer traced or only evaluations counted."""
        targets = spans.LAYER_TARGETS if traced else spans.COUNT_TARGETS
        mark = len(recorder.spans)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        argv = [*self.inputs[k], "--out", str(self.out_dir)]
        sink = io.StringIO()
        with spans.Instrumentation(recorder, targets), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed command, not a crashed run
                traceback.print_exc()
                code = -1
            seconds = perf_counter() - t0
        files = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        cmd = Command(k, traced, code, seconds, files)
        cmd.evals, _, cmd.evals_failed = spans.eval_counts(recorder.spans, mark)
        self.check(cmd, sink.getvalue())
        return cmd

    def check(self, cmd: Command, output: str) -> None:
        """Full check on an input's first command; later ones must match it byte for byte."""
        ref = self.reference.get(cmd.input_index)
        if ref is None:
            try:
                cmd.problems = list(self.workload.check(cmd.code, cmd.files))
            except (KeyError, ValueError, TypeError) as exc:
                cmd.problems = [f"unreadable artifacts: {exc!r}"]
            if cmd.code != 0:
                cmd.problems.append(output.strip()[-500:])
            self.reference[cmd.input_index] = (cmd.code, cmd.files)
        elif (cmd.code, cmd.files) != ref:
            changed = sorted(n for n in set(ref[1]) | set(cmd.files)
                             if ref[1].get(n) != cmd.files.get(n))
            cmd.problems = [f"exit code {cmd.code} / artifacts {changed} differ "
                            f"from the first run of this input"]


def median_per_input(commands) -> float:
    """Median over inputs of each input's median command time (passing commands)."""
    by_input = {}
    for c in [c for c in commands if c.passed] or commands:
        by_input.setdefault(c.input_index, []).append(c.seconds)
    return statistics.median(statistics.median(v) for v in by_input.values())


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    from vortexfield.poisson import GridSpec, solver_for

    setup = []
    runner = Runner(workload, seed, out_dir)
    recorder = spans.Recorder()   # traced commands, set-up included
    with (spans.Instrumentation(recorder, spans.LAYER_TARGETS) if trace
          else contextlib.nullcontext()):
        for grid in workload.setup_grids:
            solver_for(GridSpec(*grid))

    commands = []
    start = perf_counter()
    k = 0
    while k < len(runner.inputs) or perf_counter() - start < seconds:
        i = k % len(runner.inputs)
        if not trace:   # set-up samples spread over the run, like the commands
            setup.append(setup_sample(workload.setup_grids))
        # traced and untraced commands on one input take turns going first
        for traced in ((True, False) if k % 2 == 0 else (False, True)) if trace else (False,):
            commands.append(runner.run_one(i, recorder if traced else spans.Recorder(),
                                           traced))
        k += 1
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload.setup_grids))
    return setup, commands, recorder


def end_to_end(setup, commands) -> dict:
    evals = sum(c.evals for c in commands)
    failed_evals = sum(c.evals_failed for c in commands)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (median_per_input(commands), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (sum(c.passed for c in commands) / len(commands), "ratio"),
        "eval_success_rate": (1.0 - failed_evals / evals if evals else 1.0, "ratio"),
    }


def per_layer(commands, recorder) -> dict:
    traced = [c for c in commands if c.traced]
    untraced = [c for c in commands if not c.traced]
    metrics = spans.layer_metrics(recorder.spans, len(traced))
    metrics["cli.bytes_written"] = (
        statistics.mean(sum(len(b) for b in c.files.values()) for c in traced), "B")
    plain = median_per_input(untraced)
    metrics["trace.overhead_frac"] = ((median_per_input(traced) - plain) / plain, "ratio")
    return metrics


def summary_lines(name: str, setup, commands, metrics: dict) -> list:
    failed = sum(not c.passed for c in commands)
    evals = sum(c.evals for c in commands)
    failed_evals = sum(c.evals_failed for c in commands)
    lines = [f"# {name}: {len(commands)} commands over {len({c.input_index for c in commands})} "
             f"inputs, {len(setup)} set-up samples",
             f"# {name}: error_rate {failed}/{len(commands)}, "
             f"eval_error_rate {failed_evals}/{evals}"]
    for key, (value, unit) in metrics.items():
        lines.append(f"{name} {key} {value:.6g} {unit}")
    for c in commands:
        for p in c.problems:
            lines.append(f"# FAIL input {c.input_index}: {p}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    if not (SRC / "vortexfield" / "__init__.py").is_file():
        print(f"vortexfield sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # serial runs: the thread pool stays off, BLAS threads stay as found
    found = {k: os.environ.get(k) for k in
             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VORTEXFIELD_THREADS")}
    os.environ.pop("VORTEXFIELD_THREADS", None)
    env = environment(found)
    print("# environment " + json.dumps(env, sort_keys=True))

    out_dir = WORK / f"out-{os.getpid()}"
    try:
        setup, commands, recorder = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    metrics = per_layer(commands, recorder) if args.trace else end_to_end(setup, commands)
    print("\n".join(summary_lines(args.workload, setup, commands, metrics)))
    result = {
        "correct": all(c.passed for c in commands),
        "attempted": len(commands),
        "failed": sum(not c.passed for c in commands),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    (WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "result": result, "setup_s": setup,
                    "commands": [c.record() for c in commands],
                    "spans": [s.as_list() for s in recorder.spans]}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak memory."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
