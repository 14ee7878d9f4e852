#!/usr/bin/env python3
"""Benchmark of the sparsehalf CLI, end to end and per module.

    python3 bench/run.py --workload tradeoff --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Every operation is a fresh ``python -m sparsehalf.cli`` process,
one at a time, with BLAS pinned to one thread.  A run repeats whole rounds
of its workload's operations for ``--seconds`` seconds, checks each
operation's output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one more traced
process runs the workload after the timed rounds, and the metrics are the
per-layer ones.  ``--workload all`` runs the four workloads in turn.
"""

from __future__ import annotations

import os

# before numpy is imported here or in any child: the box has two cores, and
# oversubscribed BLAS threads once made the certifier 100x slower
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLI = [sys.executable, "-m", "sparsehalf.cli"]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
STARTUP_RUNS = 15
# every process is killed once a run has lasted this long, well inside the
# three minutes a run may take
RUN_LIMIT_S = 165.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.import_s": "s", "cli.user_s": "s", "cli.sys_s": "s",
    "core.draw_s": "s", "core.vectors_drawn": "count", "core.sample_items": "count",
    "core.parse_s": "s", "core.parsed_examples": "count",
    "core.erm_s": "s", "core.erm_pattern_examples": "count",
    "realizations.route_calls": "count",
    "learners.h3_s": "s", "learners.h3_fits": "count", "learners.table_s": "s",
    "learners.partition_self_s": "s", "learners.eg_s": "s", "learners.eg_fits": "count",
    "learners.eg_steps": "count", "learners.eg_svds": "count",
    "learners.discarded_error_s": "s", "learners.discarded_predictions": "count",
    "predictors.predict_s": "s", "predictors.predictions": "count",
    "predictors.write_s": "s", "predictors.read_s": "s", "predictors.model_bytes": "bytes",
    "formulas.sample_s": "s", "formulas.clauses": "count", "formulas.to_sample_s": "s",
    "formulas.value_s": "s", "formulas.value_pattern_clauses": "count",
    "refutation.refute_self_s": "s", "refutation.rounds": "count",
    "decompmat.certify_s": "s", "decompmat.dykstra_runs": "count", "decompmat.dykstra_feasible": "count",
    "decompmat.eigh_calls": "count", "decompmat.verify_s": "s", "decompmat.io_s": "s",
    "decompmat.cert_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    exit: int
    wall_s: float
    user_s: float
    sys_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Round:
    procs: list[Proc] = field(default_factory=list)
    failed: int = 0
    incorrect: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)


def spawn(argv: list[str], cwd: Path, deadline: float) -> Proc:
    """Run one process to its end: spawn-to-exit wall time and its own rusage."""
    stdout, stderr = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime, usage.ru_stime, usage.ru_maxrss / 1024.0,
                stdout.read_text(errors="replace"), stderr.read_text(errors="replace"))


def check_op(op, exit_code: int, stdout: str, stderr: str, rnd: Round) -> None:
    """Count the operation failed on a non-zero exit or a failed output check.

    A failed check also makes the run incorrect; a crash does not, as there
    is no output to be wrong.
    """
    if exit_code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        problems = [f"exit {exit_code}: {tail[0]}"]
    else:
        try:
            problems = op.check(stdout)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"check could not read the output: {exc!r}"]
        rnd.incorrect = rnd.incorrect or bool(problems)
    if problems:
        rnd.failed += 1
        rnd.problems += [f"{op.name}: {p}" for p in problems]


def run_round(workload, workdir: Path, deadline: float) -> Round:
    rnd = Round()
    for op in workload.ops:
        proc = spawn(CLI + op.argv, workdir, deadline)
        rnd.procs.append(proc)
        check_op(op, proc.exit, proc.stdout, proc.stderr, rnd)
    return rnd


def run_traced(workload, workdir: Path, name: str, seed: int, deadline: float) -> tuple[Round, dict, float]:
    """The workload's commands in one traced process; its outputs are checked too."""
    commands = workdir / "commands.json"
    commands.write_text(json.dumps([op.argv for op in workload.ops]))
    trace_path = OUT / f"{name}-{seed}.trace.json"
    proc = spawn([sys.executable, str(HERE / "tracer.py"), str(commands), str(trace_path)], workdir, deadline)
    rnd = Round(procs=[proc])
    if proc.exit != 0:
        rnd.failed = len(workload.ops)
        rnd.problems.append(f"traced process exit {proc.exit}: {proc.stderr.strip()[-300:]}")
        return rnd, {}, proc.wall_s
    trace = json.loads(trace_path.read_text())
    if Path(trace["module"]).resolve().parent.parent != SRC:
        raise SystemExit(f"traced run imported {trace['module']}, not the checkout's src/")
    for op, result in zip(workload.ops, trace["commands"]):
        check_op(op, result["exit"], result["stdout"], proc.stderr, rnd)
    return rnd, trace, proc.wall_s


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run of one workload: (result, details)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        version = spawn(CLI + ["--version"], workdir, deadline)
        if version.exit != 0:
            raise SystemExit(f"sparsehalf does not start: {version.stderr.strip()}")
        startups = [spawn(CLI + ["--version"], workdir, deadline).wall_s for _ in range(STARTUP_RUNS)]
        workload = WORKLOADS[name](seed, workdir)

        rounds: list[Round] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(workload, workdir, deadline))
        attempted = len(rounds) * len(workload.ops)
        setup_s = statistics.median(startups)
        wall_s = statistics.median(r.wall_s for r in rounds)
        if trace:
            traced, spans, traced_wall = run_traced(workload, workdir, name, seed, deadline)
            rounds.append(traced)
            attempted += len(workload.ops)
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            if spans:
                metrics.update(tracer.layer_metrics(spans))
            metrics["cli.user_s"] = statistics.median(sum(p.user_s for p in r.procs) for r in rounds[:-1])
            metrics["cli.sys_s"] = statistics.median(sum(p.sys_s for p in r.procs) for r in rounds[:-1])
            # the traced process starts one interpreter, the rounds one per command
            metrics["trace.overhead_s"] = traced_wall - (wall_s - (len(workload.ops) - 1) * setup_s)
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": wall_s,
                "peak_rss_mb": statistics.median(max(p.rss_mb for p in r.procs) for r in rounds),
                "setup_s": setup_s,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not any(r.incorrect for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds) - int(trace), "round_wall_s": [r.wall_s for r in rounds],
        "startup_s": startups, "problems": problems, **environment(),
    }
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sparsehalf" / "cli.py").is_file():
        print(f"error: no sparsehalf sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    # the build: byte-compile the sources once, so no timed process does it
    if not compileall.compile_dir(SRC / "sparsehalf", quiet=1):
        print("error: the sparsehalf sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, details = run(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(json.dumps(details))
        for problem in details["problems"]:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        (OUT / f"{name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps({**details, **result}, indent=1))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            print(name, json.dumps(result))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
