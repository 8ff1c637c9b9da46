"""Scenario-driven command line: solve | simulate | verify | sweep.

Outputs are CSV files plus a flat key=value manifest listing each file with
its content hash; files are written atomically (temp + rename) so concurrent
runs never see partial files.  Exit codes partition the failure classes:

    0 success          4 coefficient overflow
    1 usage            5 resource limit
    2 parse / schema   6 verification failure
    3 validation
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .csvformat import VECTOR_MIN_ROWS, csv_rows
from .errors import (
    CoefficientOverflowError,
    ConfigSyntaxError,
    MissingMomentError,
    NumericDomainError,
    ResourceLimitError,
    ScenarioValidationError,
    SchemaError,
)
from .recursion import solve
from .scenario import (
    Scenario,
    load_scenario_file,
    serialize_scenario,
    with_params,
)
from .simulate import (
    DEFAULT_STORE_CAP,
    MAX_PATH_FLOATS,
    evaluate_cost,
    predicted_cost,
    propagate_mean,
    run_ensemble,
)
from .svgplot import line_plot
from .verify import Check, DeviationGrid, inject_gain_scaling, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_OVERFLOW = 4
EXIT_RESOURCE = 5
EXIT_VERIFY = 6

TRAJECTORY_ROW_LIMIT = 2_000_000


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path: Path, chunks) -> str:
    """Write byte chunks to a temp file that then replaces `path`.

    Returns the SHA-256 of the bytes written, hashed as they are written.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                digest.update(chunk)
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _write_text(path: Path, text: str) -> str:
    return _atomic_write(path, [text.encode("utf-8")])


# 8-byte words a CSV block may take while it is formatted, counted as six
# per column (a float field takes five or six): 4096 rows of five columns,
# trajectories.csv for two agents.
CSV_BLOCK_WORDS = 4096 * 30


def _spans(units: int, unit_rows: int, columns: int):
    """Ranges (lo, hi) that cut 0..units, units of `unit_rows` rows of
    `columns` columns, into blocks of at most CSV_BLOCK_WORDS words (of one
    unit, where a unit alone is larger).

    Every block is full but the last, which takes units from the one before
    it rather than fall below VECTOR_MIN_ROWS rows onto the scalar path.
    """
    most = max(1, CSV_BLOCK_WORDS // (6 * columns * unit_rows))
    cuts = [*range(0, units, most), units]
    if len(cuts) > 2:
        cuts[-2] = min(cuts[-2], units - min(most, -(-VECTOR_MIN_ROWS // unit_rows)))
    return zip(cuts, cuts[1:])


def _csv_chunks(header: list[str], blocks, short):
    yield (",".join(header) + "\n").encode("utf-8")
    written = 0
    for columns in blocks:
        rows = len(next(c for c in columns if c is not None))
        for lo, hi in _spans(rows, 1, len(header)):
            yield csv_rows([None if c is None else c[lo:hi] for c in columns], short,
                           written + lo)
        written += rows


def _write_csv(path: Path, header: list[str], blocks, short=None) -> str:
    """Write a CSV file from blocks of columns; return its SHA-256.

    Each block is a list with one entry per CSV column: a 1-D array holding a
    value per row, or None for a column left empty.  Integer arrays are
    written with %d, float arrays with %.17g and text arrays as they are (they
    hold fixed tokens that need no quoting), byte for byte; see
    ``mftg.csvformat``.  With ``short=(period, keep)`` the last of every
    `period` rows of the file (the terminal step, which has no controls)
    keeps its first `keep` columns and leaves the rest empty; its values
    there are never written.  Blocks are formatted at most CSV_BLOCK_WORDS
    words at a time, cut anywhere, mid-period too.
    """
    return _atomic_write(path, _csv_chunks(header, blocks, short))


def _write_manifest(out: Path, command: str, sc: Scenario, source: Path,
                    files: dict[str, str], extras: dict | None = None) -> None:
    digest = hashlib.sha256()
    # Hashed as it is generated: the canonical text is never held whole.
    serialize_scenario(sc, lambda piece: digest.update(piece.encode("utf-8")))
    lines = [
        f"tool = mftg {__version__}",
        f"command = {command}",
        f"scenario = {source}",
        f"scenario_digest = sha256:{digest.hexdigest()}",
        f"seed = {sc.mc.seed}",
        f"created_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    for key, value in (extras or {}).items():
        lines.append(f"{key} = {value}")
    for name, file_digest in files.items():
        lines.append(f"file {name} = sha256:{file_digest}")
    _write_text(out / "manifest.txt", "\n".join(lines) + "\n")


def _by_step(values, lo: int, hi: int):
    """Rows ordered by step, then agent, of steps lo..hi-1 of an (agents,
    steps) table."""
    return None if values is None else np.asarray(values)[:, lo:hi].T.ravel()


def _with_terminal(values):
    """Append a terminal column to per-step controls; it is never written."""
    return np.concatenate([values, np.zeros(values.shape[:-1] + (1,))], axis=-1)


COEFFICIENT_HEADER = ["k", "agent", "alpha_bar", "alpha", "gamma_bar"]
GAIN_HEADER = ["k", "agent", "mean_gain", "dev_gain", "c_bar", "c",
               "closed_loop_mean", "closed_loop_dev"]
COST_HEADER = ["agent", "run_state_mean", "run_state_dev", "run_control_mean",
               "run_control_dev", "terminal_mean", "terminal_dev", "total",
               "predicted", "std_error"]


def _agent_step_blocks(sc: Scenario, steps: int, columns: int):
    """Step ranges of a file with a row per (step, agent), a block each,
    with its k and agent columns."""
    for lo, hi in _spans(steps, sc.agents, columns):
        yield lo, hi, [np.repeat(np.arange(lo, hi), sc.agents),
                       np.tile(np.arange(1, sc.agents + 1), hi - lo)]


def _coefficient_blocks(sc: Scenario, table):
    for lo, hi, keys in _agent_step_blocks(sc, sc.horizon + 1, len(COEFFICIENT_HEADER)):
        yield [*keys, *(_by_step(values, lo, hi)
                        for values in (table.alpha_bar, table.alpha, table.gamma_bar))]


def _gain_blocks(sc: Scenario, gains):
    dev = gains.dev_gain is not None
    for lo, hi, keys in _agent_step_blocks(sc, sc.horizon, len(GAIN_HEADER)):
        yield [*keys, _by_step(gains.mean_gain, lo, hi), _by_step(gains.dev_gain, lo, hi),
               _by_step(gains.c_bar, lo, hi), _by_step(gains.c, lo, hi) if dev else None,
               np.repeat(gains.closed_loop_mean[lo:hi], sc.agents),
               np.repeat(gains.closed_loop_dev[lo:hi], sc.agents) if dev else None]


def _meanpath_header(agents: int) -> list[str]:
    return ["k", "x_bar"] + [f"u_bar_{i + 1}" for i in range(agents)]


def _meanpath_blocks(sc: Scenario, mean):
    rows = sc.horizon + 1
    for lo, hi in _spans(rows, 1, sc.agents + 2):
        u_bar = mean.u_bar[:, lo:hi]
        yield [np.arange(lo, hi), mean.x_bar[lo:hi],
               *(_with_terminal(u_bar) if hi == rows else u_bar)]


def _cost_columns(breakdown) -> list:
    columns = [np.array([b.agent + 1 for b in breakdown])]
    for name in COST_HEADER[1:]:
        values = [getattr(b, name) for b in breakdown]
        # std_error is None for every agent of a mean-path cost.
        columns.append(None if values[0] is None else np.array(values))
    return columns


def _trajectory_blocks(sc: Scenario, ensemble):
    """Columns of trajectories.csv, whole paths at a time."""
    rows = sc.horizon + 1
    for lo, hi in _spans(ensemble.n_paths, rows, 3 + sc.agents):
        yield [np.repeat(np.arange(lo, hi), rows), np.tile(np.arange(rows), hi - lo),
               ensemble.x[lo:hi].ravel(),
               *(u.ravel() for u in _with_terminal(ensemble.u[:, lo:hi]))]


def _write_solve_outputs(out: Path, sc: Scenario, table, gains) -> dict[str, str]:
    return {
        "coefficients.csv": _write_csv(out / "coefficients.csv", COEFFICIENT_HEADER,
                                       _coefficient_blocks(sc, table)),
        "gains.csv": _write_csv(out / "gains.csv", GAIN_HEADER, _gain_blocks(sc, gains)),
    }


def cmd_solve(args) -> int:
    sc = load_scenario_file(args.scenario)
    table, gains = solve(sc)
    out = Path(args.out)
    files = _write_solve_outputs(out, sc, table, gains)
    _write_manifest(out, "solve", sc, Path(args.scenario), files)
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = load_scenario_file(args.scenario)
    table, gains = solve(sc)
    out = Path(args.out)
    extras = {"paths": 0}

    paths = args.paths if args.paths is not None else sc.mc.paths
    ensemble = None
    # An overflowing prediction ends the run before any path is drawn.
    predicted_cost(sc, table, sc.family.stochastic and paths >= 1)
    if not sc.family.stochastic:
        if paths:
            print("warning: deterministic scenario; --paths ignored, "
                  "mean path only", file=sys.stderr)
    elif paths < 1:
        print("warning: monte_carlo.paths is 0; mean path only", file=sys.stderr)
    else:
        # Keep the paths only when trajectories.csv will be written from them.
        store_cap = min(DEFAULT_STORE_CAP, TRAJECTORY_ROW_LIMIT // (sc.horizon + 1))
        ensemble = run_ensemble(sc, gains, paths=paths, seed=args.seed, store_cap=store_cap)
        if ensemble.x is None and paths <= store_cap:
            print("warning: the path store does not fit the in-memory budget; "
                  "trajectories.csv not written", file=sys.stderr)
    mean = propagate_mean(sc, gains) if ensemble is None else ensemble.mean
    terminal = (sc.horizon + 1, 2)
    files = {"meanpath.csv": _write_csv(out / "meanpath.csv", _meanpath_header(sc.agents),
                                        _meanpath_blocks(sc, mean), terminal)}
    breakdown = evaluate_cost(sc, mean if ensemble is None else ensemble, table)
    if ensemble is not None:
        extras["paths"] = ensemble.n_paths
        extras["ensemble_seed"] = ensemble.seed
        files["ensemble_stats.csv"] = _write_csv(
            out / "ensemble_stats.csv", ["k", "emp_mean", "emp_var", "emp_moment_2o"],
            [[np.arange(sc.horizon + 1), ensemble.emp_mean, ensemble.dev_m2,
              ensemble.dev_m2o]],
        )
        if ensemble.x is not None:
            files["trajectories.csv"] = _write_csv(
                out / "trajectories.csv",
                ["path", "k", "x"] + [f"u_{i + 1}" for i in range(sc.agents)],
                _trajectory_blocks(sc, ensemble), (sc.horizon + 1, 3),
            )

    files["costs.csv"] = _write_csv(out / "costs.csv", COST_HEADER, [_cost_columns(breakdown)])

    if args.plot:
        files.update(_write_plots(out, sc, table, mean, ensemble))
    _write_manifest(out, "simulate", sc, Path(args.scenario), files, extras)
    return EXIT_OK


def _write_plots(out: Path, sc: Scenario, table, mean, ensemble) -> dict[str, str]:
    steps = list(range(sc.horizon + 1))
    state_series = [("mean state", mean.x_bar)]
    if ensemble is not None:
        state_series.append(("ensemble mean", ensemble.emp_mean))
    plots = [
        ("state.svg", line_plot(steps, state_series, "Closed-loop state", "step", "state")),
        ("controls.svg", line_plot(
            steps[:-1],
            [(f"agent {i + 1}", mean.u_bar[i]) for i in range(sc.agents)],
            "Equilibrium mean controls", "step", "control",
        )),
    ]
    coeff_series = [(f"alpha_bar {i + 1}", table.alpha_bar[i]) for i in range(sc.agents)]
    if table.alpha is not None:
        coeff_series += [(f"alpha {i + 1}", table.alpha[i]) for i in range(sc.agents)]
    plots.append(("coefficients.svg", line_plot(
        steps, coeff_series, "Backward coefficients", "step", "coefficient")))
    return {name: _write_text(out / name, svg) for name, svg in plots}


def _parse_grid(spec: str | None, sc: Scenario) -> DeviationGrid:
    points, span = DeviationGrid.points, DeviationGrid.span
    if spec:
        try:
            points_str, span_str = spec.lower().split("x")
            points, span = int(points_str), float(span_str)
        except ValueError:
            raise SchemaError(f"--grid expects POINTSxSPAN, e.g. 101x0.2, got {spec!r}")
    if points * max(sc.agents, sc.horizon + 1) > MAX_PATH_FLOATS:
        raise ResourceLimitError(f"--grid {points} points over {sc.agents} agents and "
                                 f"{sc.horizon} steps exceed the in-memory budget of "
                                 f"{MAX_PATH_FLOATS} table entries")
    return DeviationGrid(points=points, span=span)


def _parse_injection(spec: str, sc: Scenario):
    try:
        agent_str, step_str, factor_str = spec.split(":")
        agent = int(agent_str)
        step = None if step_str == "*" else int(step_str)
        factor = float(factor_str)
    except ValueError:
        raise SchemaError(f"--inject-gain expects AGENT:STEP:FACTOR with STEP an "
                          f"integer or '*', got {spec!r}")
    if not np.isfinite(factor):
        raise SchemaError(f"--inject-gain factor must be finite, got {factor_str!r}")
    if not 1 <= agent <= sc.agents:
        raise SchemaError(f"--inject-gain agent must be 1..{sc.agents}, got {agent}")
    if step is not None and not 0 <= step < sc.horizon:
        raise SchemaError(f"--inject-gain step must be 0..{sc.horizon - 1} or '*'")
    return agent - 1, step, factor


def cmd_verify(args) -> int:
    sc = load_scenario_file(args.scenario)
    # The grid, factors included, is checked before anything is built: the
    # scan holds (agent, factor) tables.
    grid = _parse_grid(args.grid, sc)
    table, gains = solve(sc)
    injected = None
    if args.inject_gain:
        agent, step, factor = _parse_injection(args.inject_gain, sc)
        gains = inject_gain_scaling(gains, agent, step, factor)
        injected = args.inject_gain
    report = run_verification(sc, table, gains, grid=grid)

    out = Path(args.out)
    checks = report.checks
    rows = [[*check[:6], "pass" if check.passed else "fail"] for check in checks]
    # Every field is already the text report.csv writes.
    report_csv = _write_csv(out / "report.csv", [*Check._fields[:6], "status"],
                            [[np.array(column, dtype=str) for column in zip(*rows)]])
    word = {(check.section, check.agent): "ok" if check.passed else "FAIL" for check in checks}
    lines = [f"verification {'PASSED' if report.passed else 'FAILED'}"]
    if injected:
        lines.append(f"gain corruption injected: {injected}")
    for dev in report.deviation:
        lines.append(
            f"agent {dev.agent + 1}: deviation margin {dev.margin:.3e} "
            f"(tolerance {dev.tolerance:.3e}, argmin factor "
            f"{dev.uniform_argmin_factor:.4f}, {dev.worst_mode}) "
            f"{word['deviation', str(dev.agent + 1)]}"
        )
    lines.append(f"stationarity max residual: {float(np.max(report.stationarity)):.3e}")
    lines.append(f"positivity: {word['positivity', '']}")
    lines.append(f"convexity sampled min: {report.convexity_min:.6g}")
    lines.append(f"cost-to-go identity max residual: {float(np.max(report.bellman_max_per_step)):.3e}")
    files = {"report.csv": report_csv,
             "summary.txt": _write_text(out / "summary.txt", "\n".join(lines) + "\n")}
    _write_manifest(out, "verify", sc, Path(args.scenario), files,
                    {"injected": injected or "none"})

    for failure in report.failures():
        print(f"verification failed: {failure}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _parse_sweep(spec: str) -> tuple[str, list[int]]:
    if "=" not in spec:
        raise SchemaError("--sweep expects NAME=V1,V2,..., e.g. p=2,3,4")
    name, _, values_str = spec.partition("=")
    name = name.strip()
    if name not in ("p", "o"):
        raise SchemaError(f"sweepable parameters are p and o, got {name!r}")
    values = [v for v in values_str.split(",") if v.strip()]
    if not values:
        raise SchemaError(f"--sweep {name}= needs at least one value")
    try:
        return name, [int(v) for v in values]
    except ValueError:
        raise SchemaError(f"--sweep values for {name} must be integers, got {values_str!r}")


def cmd_sweep(args) -> int:
    sc = load_scenario_file(args.scenario)
    try:
        name, values = _parse_sweep(args.sweep)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    runs = []
    failures = []
    terminal = (sc.horizon + 1, 2)
    for value in values:
        run_dir = out / f"{name}={value}"
        try:
            variant = with_params(sc, **{name: value})
            table, gains = solve(variant)
            files = _write_solve_outputs(run_dir, variant, table, gains)
            mean = propagate_mean(variant, gains)
            files["meanpath.csv"] = _write_csv(run_dir / "meanpath.csv",
                                               _meanpath_header(variant.agents),
                                               _meanpath_blocks(variant, mean), terminal)
            if variant.family.stochastic and variant.mc.paths > 0:
                predicted_cost(variant, table, True)  # before any path is drawn
                ensemble = run_ensemble(variant, gains, store_cap=0)
                breakdown = evaluate_cost(variant, ensemble, table)
            else:
                breakdown = evaluate_cost(variant, mean, table)
            costs = _cost_columns(breakdown)
            files["costs.csv"] = _write_csv(run_dir / "costs.csv", COST_HEADER, [costs])
            _write_manifest(run_dir, "sweep", variant, Path(args.scenario), files,
                            {"sweep": f"{name}={value}"})
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            failures.append((value, exc))
            print(f"sweep {name}={value} failed: {exc}", file=sys.stderr)
            continue
        runs.append((value, variant, table, gains, mean, costs))

    def combined(key):
        """The blocks of a combined file: each run's, after its name and value."""
        for value, variant, table, gains, mean, costs in runs:
            blocks = {"coefficients": _coefficient_blocks(variant, table),
                      "gains": _gain_blocks(variant, gains),
                      "meanpath": _meanpath_blocks(variant, mean), "costs": [costs]}[key]
            for columns in blocks:
                rows = len(columns[0])
                yield [np.full(rows, name), np.full(rows, value), *columns]

    prefix = ["param", "value"]
    _write_csv(out / "sweep_coefficients.csv", prefix + COEFFICIENT_HEADER,
               combined("coefficients"))
    _write_csv(out / "sweep_gains.csv", prefix + GAIN_HEADER, combined("gains"))
    _write_csv(out / "sweep_meanpath.csv", prefix + _meanpath_header(sc.agents),
               combined("meanpath"), (sc.horizon + 1, 4))
    _write_csv(out / "sweep_costs.csv", prefix + COST_HEADER, combined("costs"))
    if failures:
        return _exit_code_for(failures[0][1])
    return EXIT_OK


# Each expected failure class and its exit code; the first match wins.  An
# OSError is a path the output cannot be written to (or a scenario file that
# cannot be read), which is a usage error.  A FloatingPointError is a float
# operation that overflowed or went invalid (`main` raises one for every
# such operation the code does not expect), which is an overflow too.
_EXIT_CODES = {
    ConfigSyntaxError: EXIT_PARSE,
    SchemaError: EXIT_PARSE,
    ScenarioValidationError: EXIT_VALIDATION,
    MissingMomentError: EXIT_VALIDATION,
    NumericDomainError: EXIT_VALIDATION,
    CoefficientOverflowError: EXIT_OVERFLOW,
    FloatingPointError: EXIT_OVERFLOW,
    ResourceLimitError: EXIT_RESOURCE,
    OSError: EXIT_USAGE,
}


def _exit_code_for(exc: Exception) -> int:
    """The documented exit code of an expected failure; anything else is a
    defect and is raised again."""
    for kind, code in _EXIT_CODES.items():
        if isinstance(exc, kind):
            return code
    raise exc


def _error_lines(exc: Exception) -> list[str]:
    if isinstance(exc, ScenarioValidationError):
        return [f"validation error [{diag.code}]: {diag.message}" for diag in exc.diagnostics]
    if isinstance(exc, MissingMomentError):
        return [f"validation error: {exc}"]
    if isinstance(exc, FloatingPointError):
        return [f"error: floating-point {exc}"]
    return [f"error: {exc}"]


def _nonnegative_type(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _positive_type(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


@cache  # built on first use: a parse leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mftg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("scenario", help="scenario configuration file (YAML)")
        p.add_argument("--out", default="mftg_out", help="output directory")

    p_solve = sub.add_parser("solve", help="backward coefficient tables and gains")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="mean path, ensembles, realized costs")
    common(p_sim)
    p_sim.add_argument("--paths", type=_nonnegative_type, default=None,
                       help="Monte Carlo paths")
    p_sim.add_argument("--seed", type=_seed_type, default=None, help="master seed")
    p_sim.add_argument("--threads", type=_positive_type, default=1,
                       help="accepted for compatibility; ignored")
    p_sim.add_argument("--plot", action="store_true", help="write SVG plots")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="equilibrium and identity checks")
    common(p_ver)
    p_ver.add_argument("--grid", default=None, help="deviation grid POINTSxSPAN")
    p_ver.add_argument("--inject-gain", default=None, metavar="AGENT:STEP:FACTOR",
                       help="test hook: scale one agent's mean gain (STEP '*' = all)")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="solve+simulate across parameter values")
    common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="NAME=V1,V2,...",
                         help="parameter sweep, e.g. p=2,3,4")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Never a silent inf or nan in an output: a float operation that
        # overflows, divides by zero or goes invalid ends the run.
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        for line in _error_lines(exc):
            print(line, file=sys.stderr)
        return _exit_code_for(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
