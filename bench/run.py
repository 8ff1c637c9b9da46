#!/usr/bin/env python3
"""End-to-end benchmark of the mftg command line.

Run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Each CLI command of a workload is one operation, called in-process through
``mftg.cli.main`` from one process.  The workload repeats in rounds until
``--seconds`` have passed (at least one round), every operation is checked
for correctness, and each operation's time is its median over rounds.  With ``--trace 1`` one
more round runs with spans around each layer's public functions and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, per-operation times and output hashes, goes to
``.bench_out/results/``.  See ``bench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import wide
from tracing import COMMAND_PREFIX, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Paths below are relative to ROOT, the working directory of every run.
OUT = Path(".bench_out")
PAPER_SCENARIOS = ("deterministic_two_agent", "additive_two_agent",
                   "multiplicative_two_agent", "general_moment_two_agent")
# Above the simulator's 100k path-storage cap, so paths are streamed and reduced.
ENSEMBLE_PATHS = 102_400
SETUP_SAMPLES = 7
COMMANDS = ("solve", "simulate", "verify")


@dataclass(frozen=True)
class Op:
    """One CLI command: ``mftg <kind> <scenario> --out <out> <extra...>``."""

    key: str
    kind: str
    scenario: str
    out: Path
    extra: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        return [self.kind, self.scenario, "--out", str(self.out), *self.extra]


@dataclass
class OpResult:
    key: str
    kind: str
    wall: float
    failures: list[str]
    digests: dict[str, str]
    bytes_written: int
    csv_rows: int


@dataclass
class Workload:
    ops: list[Op]
    # (key a, key b, files) whose bytes must agree between two operations.
    same_outputs: list[tuple[str, str, tuple[str, ...]]] = field(default_factory=list)
    # Checks made once per invocation, outside the timed rounds.
    setup_failures: list[str] = field(default_factory=list)


def build_paper(seed: int) -> Workload:
    """solve, simulate --plot and verify on each shipped scenario, in an
    order drawn from the seed."""
    names = list(PAPER_SCENARIOS)
    random.Random(seed).shuffle(names)
    ops = []
    for name in names:
        scenario = f"scenarios/{name}.yaml"
        for kind, extra in (("solve", ()), ("simulate", ("--plot",)), ("verify", ())):
            key = f"{name}/{kind}"
            ops.append(Op(key, kind, scenario, OUT / "paper" / key, extra))
    return Workload(ops)


def build_ensemble(seed: int) -> Workload:
    """Streamed ensembles: one problem at 1 and 2 threads, and the
    general-moment scenario at 2 threads; the seed is the Monte Carlo seed."""
    common = ("--paths", str(ENSEMBLE_PATHS), "--seed", str(seed))
    cases = (("additive_t1", "additive_two_agent", "1"),
             ("additive_t2", "additive_two_agent", "2"),
             ("general_moment_t2", "general_moment_two_agent", "2"))
    ops = [Op(f"{case}/simulate", "simulate", f"scenarios/{name}.yaml",
              OUT / "ensemble" / case, common + ("--threads", threads))
           for case, name, threads in cases]
    # The thread count must never change results.
    same = [("additive_t1/simulate", "additive_t2/simulate",
             ("meanpath.csv", "ensemble_stats.csv", "costs.csv"))]
    return Workload(ops, same)


def build_wide(seed: int) -> Workload:
    """solve and a mean-path simulate on a generated I=20, N=1000 scenario."""
    path = wide.write_scenario(seed, OUT / "wide" / "input" / "wide.yaml")
    ops = [Op("wide/solve", "solve", str(path), OUT / "wide" / "solve"),
           Op("wide/simulate", "simulate", str(path), OUT / "wide" / "simulate", ("--paths", "0"))]
    try:
        failures = wide.check_solution(path)
    except Exception:  # noqa: BLE001 - reported as a failed check
        failures = [f"wide solution check raised:\n{traceback.format_exc()}"]
    return Workload(ops, setup_failures=failures)


WORKLOADS = {"paper": build_paper, "ensemble": build_ensemble, "wide": build_wide}


def run_op(op: Op, ref_dir: Path, tracer: Tracer | None = None) -> OpResult:
    """Run one command in-process, time it, and gate its outputs."""
    import mftg.cli

    shutil.rmtree(op.out, ignore_errors=True)
    stderr = io.StringIO()
    rc = crash = None
    span = tracer.span(COMMAND_PREFIX + op.kind) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr), span:
            rc = mftg.cli.main(op.argv)
    except Exception:  # noqa: BLE001 - an operation that raises counts as failed
        crash = traceback.format_exc()
    wall = time.perf_counter() - start

    files = checks.output_files(op.out)
    if crash:
        failures = [f"raised:\n{crash}"]
    else:
        failures = checks.gate(op.kind, rc, files, ref_dir / op.key)
    if failures and stderr.getvalue():
        failures.append(f"stderr: {stderr.getvalue().strip()}")
    csv_rows = 0
    for name, path in files.items():
        if name.endswith(".csv"):
            with open(path, "rb") as handle:
                csv_rows += sum(1 for _ in handle) - 1
    return OpResult(
        key=op.key,
        kind=op.kind,
        wall=wall,
        failures=failures,
        digests={name: checks.output_digest(path) for name, path in files.items()},
        bytes_written=sum(path.stat().st_size for path in files.values()),
        csv_rows=csv_rows,
    )


def run_round(workload: Workload, ref_dir: Path, tracer: Tracer | None = None) -> list[OpResult]:
    results = [run_op(op, ref_dir, tracer) for op in workload.ops]
    by_key = {r.key: r for r in results}
    for a, b, names in workload.same_outputs:
        for name in names:
            if by_key[a].digests.get(name) != by_key[b].digests.get(name):
                by_key[b].failures.append(f"{name} differs from {a}")
    return results


def warm_up() -> None:
    """Run small commands untimed, so that one-off costs of the first calls
    in the process (lazy imports, allocator growth, thread start-up) stay
    out of the timed rounds."""
    import mftg.cli

    out = str(OUT / "warmup")
    with contextlib.redirect_stderr(io.StringIO()):
        mftg.cli.main(["simulate", "scenarios/additive_two_agent.yaml", "--out", out,
                       "--paths", "10000", "--threads", "2", "--plot"])
        mftg.cli.main(["verify", "scenarios/deterministic_two_agent.yaml", "--out", out])


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing mftg.cli, as every
    CLI invocation does.  One untimed import first writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mftg.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    import yaml

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_seconds(rounds: list[list[OpResult]], kind: str | None = None) -> float:
    """Sum over the operations (of one kind, or all) of each operation's
    median wall time across rounds; a slow spell in one round then moves
    the figure less than a median of round totals would."""
    return sum(statistics.median(rnd[i].wall for rnd in rounds)
               for i, r in enumerate(rounds[0]) if kind is None or r.kind == kind)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> bool:
    """Work from the repository root against its ``src`` tree; False when
    the sources are not there."""
    if not (SRC / "mftg" / "__init__.py").is_file():
        print(f"error: the mftg sources are not at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    setup_s = measure_setup()
    workload = WORKLOADS[args.workload](args.seed)
    ref_dir = checks.reference_dir(args.workload, args.seed)
    warm_up()

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(workload, ref_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total_s = median_seconds(rounds)
    kinds = [k for k in COMMANDS if any(op.kind == k for op in workload.ops)]
    kind_s = {k: median_seconds(rounds, k) for k in kinds}

    results = [r for rnd in rounds for r in rnd]
    problems = list(workload.setup_failures)
    last = {r.key: r for r in rounds[-1]}
    spans = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_round(workload, ref_dir, tracer)
        results += traced
        for r in traced:
            if r.digests != last[r.key].digests:
                problems.append(f"{r.key}: traced outputs differ from untraced outputs")
        problems += tracer.unaccounted()
        metrics = layer_metrics(tracer, sum(r.bytes_written for r in traced),
                                sum(r.csv_rows for r in traced))
        metrics["trace.overhead_s"] = _metric(median_seconds([traced]) - total_s, "s")
        spans = [vars(s) for s in tracer.spans]
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "total_s": _metric(total_s, "s"),
            "simulate_s": _metric(kind_s["simulate"], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    digests = {f"{key}/{name}": d for key, r in last.items() for name, d in r.digests.items()}
    reference = checks.load_reference_hashes(args.workload, args.seed)
    changed = checks.changed_files(reference, digests)
    failed = [r for r in results if r.failures]
    correct = not failed and not problems
    env = environment()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(rounds)} timed "
          f"round(s), {len(results)} operations, {len(failed)} failed")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if not args.trace:
        print(f"  setup_s = {setup_s:.4f} s")
        print(f"  total_s = {total_s:.4f} s")
        for k in kinds:
            print(f"  {k}_s = {kind_s[k]:.4f} s")
        print(f"  peak_rss_mb = {peak_rss_mb:.1f} MB")
    else:
        for name, m in metrics.items():
            value = m["value"]
            print(f"  {name} = {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    if reference is None:
        print(f"output hashes: no reference for seed {args.seed}")
    else:
        print(f"output files changed against the reference: {', '.join(changed) or 'none'}")
    for r in failed:
        print(f"FAILED {r.key}: " + "; ".join(r.failures), file=sys.stderr)
    for p in problems:
        print(f"FAILED check: {p}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "rounds": len(rounds),
        "command_seconds": kind_s, "operations": [vars(r) for r in results],
        "changed_against_reference": changed if reference is not None else None,
        "problems": problems, "metrics": metrics, "spans": spans,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
