"""Forward simulation under the computed equilibrium feedback.

The mean path is exact: zero-mean disturbances never enter the mean
recursion, so it is propagated deterministically and the feedback laws
consume this model mean, never an ensemble average (using empirical means
would couple paths).  Monte Carlo paths are drawn in fixed blocks of
CHUNK_SIZE paths, each from its own substream derived from (seed, block
index), which makes ensembles reproducible bit for bit.

Each block is propagated one step at a time and each step is reduced as
soon as it is made: its path sums of the states, the controls and their
deviations' squares and moment powers are added to the run's running sums,
and each path's stage cost is added to that path's cost, in a fixed order
of elementwise operations.  The step rows are then reused for the next
step, so a block holds its noise draw (N x B floats) and a few (I, B) rows,
whatever the horizon.  Blocks are drawn, propagated and reduced one at a
time, in block order.  A run that keeps its paths (up to the store cap)
also writes each step's rows into the store, so its statistics have the
same bits as a streamed run's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientOverflowError, NumericDomainError, ResourceLimitError
from .numerics import _odd_double_factorial, even_power
from .recursion import CoefficientTable, GainSchedule
from .scenario import InitialLaw, Scenario

DEFAULT_STORE_CAP = 100_000
# Paths per random-stream block; chunks are whole blocks (the last may be partial).
CHUNK_SIZE = 4096
# Ceiling on floats held at once: the per-path costs, the path store when
# one is kept, the step rows, and the block being drawn.  The scenario's
# tables have their own, scenario.MAX_TABLE_FLOATS.
MAX_PATH_FLOATS = 400_000_000


@dataclass(frozen=True)
class MeanPath:
    """Exact mean trajectory x_bar (k = 0..N) and mean controls (k < N)."""

    x_bar: np.ndarray
    u_bar: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    """Simulated trajectories and their per-step statistics.

    ``emp_mean`` is the plain path average; ``dev_m2`` / ``dev_m2o`` are the
    mean squared / 2o-power deviations from the exact model mean (the
    quantity the coefficient recursions price, which matters when the
    initial law puts its atom away from the declared mean).  ``path_cost``
    holds each agent's realized cost per path, mean terms included.  The
    raw path and control matrices are kept only below the storage cap.
    """

    n_paths: int
    seed: int
    moment_order: int
    mean: MeanPath
    emp_mean: np.ndarray
    dev_m2: np.ndarray
    dev_m2o: np.ndarray
    u_mean: np.ndarray
    u_dev_m2: np.ndarray
    u_dev_m2o: np.ndarray
    path_cost: np.ndarray
    x: np.ndarray | None = None
    u: np.ndarray | None = None


@dataclass(frozen=True)
class CostBreakdown:
    """Per-agent realized cost split, with the model-predicted value."""

    agent: int
    run_state_mean: float
    run_state_dev: float
    run_control_mean: float
    run_control_dev: float
    terminal_mean: float
    terminal_dev: float
    total: float
    predicted: float
    std_error: float | None = None


def propagate_mean(sc: Scenario, gains: GainSchedule) -> MeanPath:
    """Exact closed-loop mean propagation through the dynamics."""
    n, a_bar = sc.horizon, sc.a_bar
    # step-major (N, I) tables: step k's controls and their push are rows
    gain, b_bar = (np.ascontiguousarray(v.T) for v in (-gains.mean_gain * a_bar, sc.b_bar))
    x_bar = np.empty(n + 1)
    u_bar = np.empty((n, sc.agents))
    x_bar[0] = sc.x0.mean
    for k in range(n):
        np.multiply(gain[k], x_bar[k], out=u_bar[k])
        x_bar[k + 1] = a_bar[k] * x_bar[k] + np.add.reduce(b_bar[k] * u_bar[k])
    u_bar = np.ascontiguousarray(u_bar.T)
    x_bar.setflags(write=False)
    u_bar.setflags(write=False)
    return MeanPath(x_bar=x_bar, u_bar=u_bar)


def initial_central_moment(law: InitialLaw, order: int) -> float:
    """E[(x0 - mean)**order] for an initial law, order even (inf past the float range)."""
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 2, got {order}")
    if law.kind == "deterministic":
        return float(even_power(law.start_value() - law.mean, order))
    if law.kind == "gaussian_around_mean":
        return float(even_power(law.variance, order // 2)) * _odd_double_factorial(order - 1)
    return float(np.mean(even_power(law.samples - law.mean, order)))


def _draw_paths(sc: Scenario, seed: int, lo: int, eps: np.ndarray) -> np.ndarray:
    """Initial states of paths lo..lo+B-1 of one block, with their scaled
    noise written step-major into eps (N, B).

    lo must start a block.  The block's substream first draws a full block
    of initial states (when the law is random), then one noise row per
    path as a single draw, so a partial last block yields the first rows of
    a full one and the first n paths of any ensemble are the same.
    """
    rows, n = eps.shape[1], sc.horizon
    law = sc.x0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), lo // CHUNK_SIZE]))
    if law.kind == "deterministic":
        x0 = np.full(rows, law.start_value())
    elif law.kind == "gaussian_around_mean":
        x0 = law.mean + np.sqrt(law.variance) * rng.standard_normal(CHUNK_SIZE)[:rows]
    else:
        x0 = law.samples[rng.integers(0, len(law.samples), CHUNK_SIZE)[:rows]]
    kind = sc.noise.kind
    if kind == "gaussian":
        raw = rng.standard_normal((rows, n))
    elif kind == "rademacher":
        raw = 2.0 * rng.integers(0, 2, (rows, n)) - 1.0
    else:
        raw = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (rows, n))
    np.multiply(raw.T, sc.noise.sigma[:, None], out=eps)
    return x0


def _moment_sums(dev: np.ndarray, mo: int, out: np.ndarray):
    """Sums over the last (path) axis of dev**2 and dev**mo; dev**mo is
    written to out, as (dev**2)**(mo/2)."""
    np.multiply(dev, dev, out=out)
    sq_sum = np.add.reduce(out, axis=-1)
    if mo == 2:
        return sq_sum, sq_sum
    even_power(out, mo // 2, out=out)
    return sq_sum, np.add.reduce(out, axis=-1)


def _run_block(sc: Scenario, gains: GainSchedule, mean: MeanPath, x0: np.ndarray,
               eps: np.ndarray, sums: list, cost: np.ndarray, rows: list,
               store: tuple | None) -> None:
    """Propagate one block of B paths from its initial states x0 and its
    step-major noise eps (N, B), one step at a time, and reduce each step
    as soon as it is made.

    Each step's path sums of x, d**2, d**mo (d = x - x_bar) and of u, v**2,
    v**mo (v = u - u_bar) are added into sums, and each path's deviation
    cost is added into cost (I, B) in a fixed order: the stage costs
    r_k * v_k**mo + q_k * d_k**mo for k = 0..N-1 in step order, then the
    terminal q_N * d_N**mo.  That arithmetic is elementwise, so each path's
    cost has the same bits for any block size.  rows are the step rows the
    block is propagated in: x, d, d**mo and a scratch row (B), and u, v and a
    scratch row (I, B).  A kept store gets each step's rows written into its
    views store = (x (B, N+1), u (I, B, N)).
    """
    n, slot, mo = sc.horizon, sc.family.noise_slot, sc.moment_order
    x, d, d_pow, tmp, u, v, stage = rows
    x_sum, d2_sum, dmo_sum, u_sum, v2_sum, vmo_sum = sums
    g_dev, q_dev, r_dev = gains.dev_gain, sc.q_dev, sc.r_dev
    x_bar, u_bar = mean.x_bar, mean.u_bar
    a, b = sc.deviation_dynamics
    gain = g_dev * a
    push = np.add.reduce(np.ascontiguousarray((b * gain).T), axis=1)
    np.copyto(x, x0)
    np.subtract(x, x_bar[0], out=d)
    for k in range(n + 1):
        x_sum[k] += x.sum()
        d2, dmo = _moment_sums(d, mo, d_pow)
        d2_sum[k] += d2
        dmo_sum[k] += dmo
        if store:
            store[0][:, k] = x
        if k == n:
            break
        np.multiply(gain[:, k, None], d, out=u)
        np.subtract(u_bar[:, k, None], u, out=u)
        np.subtract(u, u_bar[:, k, None], out=v)
        u_sum[k] += u.sum(axis=-1)
        v2, vmo = _moment_sums(v, mo, stage)
        v2_sum[k] += v2
        vmo_sum[k] += vmo
        if store:
            store[1][:, :, k] = u
        stage *= r_dev[:, k, None]
        np.multiply(q_dev[:, k, None], d_pow, out=v)
        stage += v
        cost += stage
        # The dynamics split exactly into the mean recursion plus a
        # deviation channel; propagating the deviation and re-adding the
        # exact mean keeps zero-noise paths bit-identical to the mean path.
        # The controls -gain d push the state by push[k] d, so each path's
        # arithmetic does not depend on how many paths share its block.
        np.multiply(d, a[k], out=x)
        np.multiply(d, push[k], out=tmp)
        x -= tmp
        # The noise enters in the family's push slot, path by path.
        if slot == "shift":
            x += eps[k]
        elif slot == "lift":
            np.multiply(d, eps[k], out=tmp)
            x += tmp
        else:
            x *= eps[k]
        x += x_bar[k + 1]
        np.subtract(x, x_bar[k + 1], out=d)
    np.multiply(q_dev[:, n, None], d_pow, out=stage)
    cost += stage


def _memory_plan(sc: Scenario, n_paths: int, store_cap: int) -> tuple[bool, int, int]:
    """Whether a run keeps its path store, the floats it holds throughout,
    and the floats the block being drawn holds, counted against
    MAX_PATH_FLOATS.

    A run holds the per-path costs (before and after the mean terms), the
    running path sums of its statistics, the step rows each block is
    propagated in (four of B floats and three of I x B), and the path store
    when it keeps one.  A block holds its initial states, the initial-law
    draw of a full block, and its noise, in both layouts while it is drawn.
    A run keeps its store only when the store fits beside what it holds
    throughout and one block.
    """
    n, agents = sc.horizon, sc.agents
    width = min(CHUNK_SIZE, n_paths)
    held = (2 * agents * n_paths + 3 * (n + 1 + agents * n)
            + width * (4 + 3 * agents))
    per_block = width * (2 * n + 1) + CHUNK_SIZE
    store_floats = n_paths * (n + 1 + agents * n)
    store = (n_paths <= store_cap
             and held + store_floats + per_block <= MAX_PATH_FLOATS)
    return store, (held + store_floats if store else held), per_block


def _mean_costs(sc: Scenario, mean: MeanPath):
    """Each agent's running state, running control and terminal cost on the
    exact mean path."""
    n, p2 = sc.horizon, 2 * sc.p
    xpow = even_power(mean.x_bar, p2)
    return (np.add.reduce(sc.q_bar[:, :n] * xpow[:n], axis=1),
            np.add.reduce(sc.r_bar * even_power(mean.u_bar, p2), axis=1),
            sc.q_bar[:, n] * xpow[n])


def run_ensemble(
    sc: Scenario,
    gains: GainSchedule,
    *,
    paths: int | None = None,
    seed: int | None = None,
    store_cap: int = DEFAULT_STORE_CAP,
) -> Ensemble:
    """Simulate a seeded closed-loop ensemble and collect its statistics.

    Paths are drawn, propagated and reduced in the fixed blocks their
    random streams are keyed by, one block at a time in block order.  A run
    that does not fit MAX_PATH_FLOATS with one block raises
    ResourceLimitError.
    """
    if not sc.family.stochastic:
        raise ValueError("deterministic scenarios have no ensemble; use propagate_mean")
    if sc.noise.kind == "explicit_moments":
        raise NumericDomainError(
            "explicit-moment noise defines moments only and cannot be sampled"
        )
    n_paths = sc.mc.paths if paths is None else int(paths)
    if n_paths < 1:
        raise ValueError(f"ensemble needs at least one path, got {n_paths}")
    seed = sc.mc.seed if seed is None else int(seed)
    n, agents = sc.horizon, sc.agents

    store, held, per_block = _memory_plan(sc, n_paths, store_cap)
    if held + per_block > MAX_PATH_FLOATS:
        raise ResourceLimitError(
            f"{n_paths} paths need {held + per_block} floats with one block in "
            f"flight, above the in-memory budget of {MAX_PATH_FLOATS}"
        )

    mean = propagate_mean(sc, gains)
    mo = sc.moment_order
    path_cost_dev = np.zeros((agents, n_paths))
    x_store = np.empty((n_paths, n + 1)) if store else None
    u_store = np.empty((agents, n_paths, n)) if store else None
    # Running path sums: x, d**2, d**mo per step (N+1), then u, v**2, v**mo
    # step-major (N, I).  Each block's step sums are added in block order.
    sums = [np.zeros(n + 1) for _ in range(3)] + [np.zeros((n, agents)) for _ in range(3)]
    width = min(CHUNK_SIZE, n_paths)
    rows = [np.empty(width) for _ in range(4)] + [np.empty((agents, width)) for _ in range(3)]

    for lo in range(0, n_paths, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, n_paths)
        eps = np.empty((n, hi - lo))
        x0 = _draw_paths(sc, seed, lo, eps)
        _run_block(sc, gains, mean, x0, eps, sums, path_cost_dev[:, lo:hi],
                   [row[..., :hi - lo] for row in rows],
                   (x_store[lo:hi], u_store[:, lo:hi]) if store else None)

    emp_mean, dev_m2, dev_m2o = (s / n_paths for s in sums[:3])
    # Control sums are step-major (N, I); the statistics are (I, N).
    u_mean, u_dev_m2, u_dev_m2o = (np.ascontiguousarray(s.T) / n_paths
                                   for s in sums[3:])

    # Mean cost terms are path-independent constants; add them so that the
    # per-path costs average to the full realized cost.
    state, control, terminal = _mean_costs(sc, mean)
    path_cost = path_cost_dev + (state + control + terminal)[:, None]

    arrays = [emp_mean, dev_m2, dev_m2o, u_mean, u_dev_m2, u_dev_m2o, path_cost]
    if store:
        arrays += [x_store, u_store]
    for arr in arrays:
        arr.setflags(write=False)
    return Ensemble(
        n_paths=n_paths,
        seed=seed,
        moment_order=mo,
        mean=mean,
        emp_mean=emp_mean,
        dev_m2=dev_m2,
        dev_m2o=dev_m2o,
        u_mean=u_mean,
        u_dev_m2=u_dev_m2,
        u_dev_m2o=u_dev_m2o,
        path_cost=path_cost,
        x=x_store,
        u=u_store,
    )


def predicted_cost(sc: Scenario, table: CoefficientTable, deviation: bool) -> np.ndarray:
    """Each agent's cost-to-go at k = 0: the alpha_bar-weighted mean power,
    plus with ``deviation`` the alpha-weighted initial deviation moment and
    any gamma_bar constant.  A cost beyond the float range raises
    CoefficientOverflowError: nothing priced from it could be finite."""
    orders = [2 * sc.p, sc.moment_order] if deviation else [2 * sc.p]
    with np.errstate(over="ignore"):
        predicted = table.alpha_bar[:, 0] * even_power(sc.x0.mean, orders[0])
        if deviation:
            predicted = predicted + table.alpha[:, 0] * initial_central_moment(sc.x0, orders[1])
            if table.gamma_bar is not None:
                predicted = predicted + table.gamma_bar[:, 0]
    if not np.all(np.isfinite(predicted)):
        raise CoefficientOverflowError(
            f"predicted cost of agent {np.argmin(np.isfinite(predicted)) + 1} overflows at "
            f"the initial state (mean {sc.x0.mean:g}, cost orders {orders})")
    return predicted


def evaluate_cost(
    sc: Scenario,
    data: Ensemble | MeanPath,
    table: CoefficientTable,
) -> list[CostBreakdown]:
    """Realized per-agent cost breakdown plus the predicted value.

    Mean terms always come from the exact mean path; deviation terms use the
    ensemble's empirical moments about that mean.  The prediction is
    ``predicted_cost``, with the deviation terms for an ensemble.
    """
    n = sc.horizon
    ensemble = isinstance(data, Ensemble)
    predicted = predicted_cost(sc, table, ensemble)
    mean_parts = _mean_costs(sc, data.mean if ensemble else data)
    dev_parts = (np.zeros(sc.agents),) * 3
    if ensemble:
        mo = data.moment_order
        dev = data.dev_m2 if mo == 2 else data.dev_m2o
        u_dev = data.u_dev_m2 if mo == 2 else data.u_dev_m2o
        dev_parts = (np.add.reduce(sc.q_dev[:, :n] * dev[:n], axis=1),
                     np.add.reduce(sc.r_dev * u_dev, axis=1),
                     sc.q_dev[:, n] * dev[n])
    # One row per agent: the state, control and terminal terms, each as
    # mean then deviation part.
    parts = np.stack([part for pair in zip(mean_parts, dev_parts) for part in pair], axis=1)

    out = []
    for i, (row, prediction) in enumerate(zip(parts.tolist(), predicted.tolist())):
        (run_state_mean, run_state_dev, run_control_mean, run_control_dev,
         terminal_mean, terminal_dev) = row
        std_error = None
        if ensemble and data.n_paths > 1:
            std_error = float(np.std(data.path_cost[i], ddof=1) / np.sqrt(data.n_paths))
        total = (run_state_mean + run_state_dev + run_control_mean
                 + run_control_dev + terminal_mean + terminal_dev)
        out.append(CostBreakdown(
            agent=i,
            run_state_mean=run_state_mean,
            run_state_dev=run_state_dev,
            run_control_mean=run_control_mean,
            run_control_dev=run_control_dev,
            terminal_mean=terminal_mean,
            terminal_dev=terminal_dev,
            total=total,
            predicted=prediction,
            std_error=std_error,
        ))
    return out
