#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. The gates can fire: ``verify --inject-gain 1:*:1.2`` on a shipped scenario
   counts as a failed operation, and the same command without the injection
   passes.
2. The computed work counts repeat exactly: one traced round of each
   workload under two seeds gives identical counts.
3. The tracer restores every name it rebinds, and a public name missing from
   the package drops the metrics that need it instead of crashing.

Takes about a minute and a half; exits with status 0 when every test passes.
"""

from __future__ import annotations

import importlib
import sys

import checks
import run
from tracing import TARGETS, Tracer, layer_metrics

COUNT_METRICS = ("recursion.agent_steps", "simulate.path_steps", "verify.replay_path_steps")
NO_REFERENCE = checks.REFERENCE / "none"


def originals() -> dict:
    out = {}
    for module_name, names in TARGETS.items():
        module = importlib.import_module(module_name)
        out.update({(module_name, n): getattr(module, n, None) for n in names})
    return out


def traced_round(workload: run.Workload) -> tuple[dict, list[str]]:
    before = originals()
    tracer = Tracer()
    with tracer.installed():
        results = run.run_round(workload, NO_REFERENCE, tracer)
    problems = [f"{r.key}: {r.failures}" for r in results if r.failures]
    problems += [f"{module}.{name} not restored"
                 for (module, name), fn in originals().items() if fn is not before[(module, name)]]
    return layer_metrics(tracer, 0, 0), problems


def test_gates_fire() -> list[str]:
    scenario = "scenarios/additive_two_agent.yaml"
    out = run.OUT / "selftest"
    clean = run.run_op(run.Op("clean", "verify", scenario, out / "clean"), NO_REFERENCE)
    injected = run.run_op(run.Op("injected", "verify", scenario, out / "injected",
                                 ("--inject-gain", "1:*:1.2")), NO_REFERENCE)
    problems = []
    if clean.failures:
        problems.append(f"clean verify failed: {clean.failures}")
    if not injected.failures:
        problems.append("verify with an injected gain error was not counted as failed")
    return problems


def test_counts_repeat() -> list[str]:
    problems = []
    for name, build in run.WORKLOADS.items():
        seen = []
        for seed in (1, 2):
            metrics, round_problems = traced_round(build(seed))
            problems += round_problems
            seen.append({m: metrics[m]["value"] for m in COUNT_METRICS})
        print(f"  {name}: {seen[0]}")
        if seen[0] != seen[1]:
            problems.append(f"{name}: counts differ between seeds: {seen}")
    return problems


def test_missing_name() -> list[str]:
    import mftg.cli

    saved = mftg.cli.line_plot
    del mftg.cli.line_plot
    try:
        op = run.Op("solve", "solve", "scenarios/deterministic_two_agent.yaml",
                    run.OUT / "selftest" / "missing")
        metrics, problems = traced_round(run.Workload([op]))
    finally:
        mftg.cli.line_plot = saved
    if "svgplot.line_plot_s" in metrics:
        problems.append("metric of a missing name was reported")
    if "recursion.solve_s" not in metrics:
        problems.append("metrics of present names were dropped")
    return problems


def main() -> int:
    if not run.prepare():
        return 2
    failed = False
    for test in (test_gates_fire, test_missing_name, test_counts_repeat):
        problems = test()
        print(f"{'FAIL' if problems else 'ok'} {test.__name__}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
