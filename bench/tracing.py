"""Spans around the public functions of each mftg layer, recorded from
outside the package.

While installed, the tracer rebinds the names in TARGETS to wrappers that
record a span (name, start, end, parent, counts) per call, and restores the
originals afterwards.  A name that no longer exists is skipped and every
metric that needs it is left out of the report.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

TARGETS = {
    "mftg.cli": ("load_scenario_file", "serialize_scenario", "solve", "propagate_mean",
                 "run_ensemble", "evaluate_cost", "run_verification", "line_plot"),
    "mftg.verify": ("unilateral_deviation_test", "stationarity_residual",
                    "bellman_identity_check", "sample_convexity"),
}
COMMAND_PREFIX = "cli."
COUNT_KEYS = ("agent_steps", "path_steps", "replay_path_steps")


def _agent_steps(sc, *args, **kwargs):
    channels = 2 if sc.family.stochastic else 1
    return {"agent_steps": sc.agents * sc.horizon * channels}


def _path_steps(sc, gains, *, paths=None, seed=None, threads=1, **kwargs):
    paths = sc.mc.paths if paths is None else int(paths)
    seed = sc.mc.seed if seed is None else int(seed)
    problem = (sc.family.value, sc.agents, sc.horizon, paths, seed)
    return {"path_steps": paths * sc.horizon, "threads": threads, "problem": problem}


def _replay_path_steps(sc, gains, agent, grid=None):
    from mftg.verify import DeviationGrid

    grid = grid or DeviationGrid()
    modes = 1 + sc.horizon if grid.per_step else 1
    sampled = sc.family.stochastic and sc.noise.kind != "explicit_moments"
    paths = getattr(grid, "paths", 1) if sampled else 1
    return {"replay_path_steps": modes * grid.points * paths * sc.horizon}


# Work counts computed from each call's arguments, never read from the program.
COUNTERS = {
    "solve": _agent_steps,
    "run_ensemble": _path_steps,
    "unilateral_deviation_test": _replay_path_steps,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        record = Span(name, 0.0, 0.0, stack[-1] if stack else None, attrs or {})
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = counter(*args, **kwargs) if counter else None
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, names in TARGETS.items():
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is None:
                        self.missing.append(name)
                        continue
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def unaccounted(self) -> list[str]:
        """Child spans that do not sit inside their parent's interval."""
        problems = []
        for s in self.spans:
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name} lies outside its parent {p.name}")
        return problems

    def cli_self_time(self) -> float:
        """Command wall time not covered by the commands' direct child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return sum(s.duration - child[i] for i, s in enumerate(self.spans)
                   if s.name.startswith(COMMAND_PREFIX))


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int, csv_rows: int) -> dict:
    """Per-layer metrics of one traced round.  Metrics of an absent layer
    are 0; metrics that need a name missing from the package are omitted."""
    time_of = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in tracer.spans:
        time_of[s.name] += s.duration
        calls[s.name] += 1
        for key in COUNT_KEYS:
            counts[key] += s.attrs.get(key, 0)

    threaded = defaultdict(lambda: defaultdict(float))
    for s in tracer.spans:
        if s.name == "run_ensemble":
            threaded[s.attrs["problem"]][s.attrs["threads"]] += s.duration
    pairs = [t for t in threaded.values() if 1 in t and 2 in t]
    speedup = _ratio(sum(t[1] for t in pairs), sum(t[2] for t in pairs))

    solve_s = time_of["solve"]
    ensemble_s = time_of["run_ensemble"]
    scan_s = time_of["unilateral_deviation_test"]
    cli_self = tracer.cli_self_time()
    table = [
        ("scenario.load_s", time_of["load_scenario_file"], "s", "load_scenario_file"),
        ("scenario.serialize_s", time_of["serialize_scenario"], "s", "serialize_scenario"),
        ("scenario.serialize_calls", calls["serialize_scenario"], "count", "serialize_scenario"),
        ("recursion.solve_s", solve_s, "s", "solve"),
        ("recursion.solve_calls", calls["solve"], "count", "solve"),
        ("recursion.agent_steps", counts["agent_steps"], "count", "solve"),
        ("recursion.us_per_agent_step", 1e6 * _ratio(solve_s, counts["agent_steps"]), "us", "solve"),
        ("simulate.run_ensemble_s", ensemble_s, "s", "run_ensemble"),
        ("simulate.propagate_mean_s", time_of["propagate_mean"], "s", "propagate_mean"),
        ("simulate.evaluate_cost_s", time_of["evaluate_cost"], "s", "evaluate_cost"),
        ("simulate.path_steps", counts["path_steps"], "count", "run_ensemble"),
        ("simulate.ns_per_path_step", 1e9 * _ratio(ensemble_s, counts["path_steps"]), "ns",
         "run_ensemble"),
        ("simulate.thread_speedup", speedup, "ratio", "run_ensemble"),
        ("verify.run_verification_s", time_of["run_verification"], "s", "run_verification"),
        ("verify.deviation_scan_s", scan_s, "s", "unilateral_deviation_test"),
        ("verify.stationarity_s", time_of["stationarity_residual"], "s", "stationarity_residual"),
        ("verify.bellman_s", time_of["bellman_identity_check"], "s", "bellman_identity_check"),
        ("verify.convexity_s", time_of["sample_convexity"], "s", "sample_convexity"),
        ("verify.replay_path_steps", counts["replay_path_steps"], "count",
         "unilateral_deviation_test"),
        ("verify.ns_per_replay_path_step", 1e9 * _ratio(scan_s, counts["replay_path_steps"]), "ns",
         "unilateral_deviation_test"),
        ("svgplot.line_plot_s", time_of["line_plot"], "s", "line_plot"),
        ("cli.self_s", cli_self, "s", None),
        ("cli.bytes_written", bytes_written, "bytes", None),
        ("cli.csv_rows", csv_rows, "count", None),
        ("cli.mb_per_s", _ratio(bytes_written / 1e6, cli_self), "MB/s", None),
    ]
    return {name: {"value": value, "unit": unit}
            for name, value, unit, needs in table if needs not in tracer.missing}
