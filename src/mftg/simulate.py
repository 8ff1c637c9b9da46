"""Forward simulation under the computed equilibrium feedback.

The mean path is exact: zero-mean disturbances never enter the mean
recursion, so it is propagated deterministically and the feedback laws
consume this model mean, never an ensemble average (using empirical means
would couple paths).  Monte Carlo paths are drawn in fixed blocks of
CHUNK_SIZE paths, each from its own substream derived from (seed, block
index), which makes ensembles reproducible bit for bit regardless of how
blocks are scheduled over worker threads.

Each block runs step-major: states and their deviations from the mean
(N+1, B) and controls (N, I, B) are filled one step row at a time, the
deviations are raised to the moment order once, in place, and both the
per-path costs and the block's moment sums read those powers.  Every run
sums each block over its paths and adds the block sums in block order; a
run that keeps its paths (up to the store cap) only copies them into the
store as well, so its statistics have the same bits as a streamed run's.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, ResourceLimitError
from .numerics import _odd_double_factorial, even_power
from .recursion import CoefficientTable, GainSchedule
from .scenario import Family, InitialLaw, Scenario

DEFAULT_STORE_CAP = 100_000
# Paths per random-stream block; chunks are whole blocks (the last may be partial).
CHUNK_SIZE = 4096
# Ceiling on floats held at once: the per-path costs, the path store when
# one is kept, and the block arrays of every concurrent worker.
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
    n, agents = sc.horizon, sc.agents
    a_bar, b_bar = sc.a_bar, sc.b_bar
    x_bar = np.empty(n + 1)
    u_bar = np.empty((agents, n))
    x_bar[0] = sc.x0.mean
    for k in range(n):
        u_bar[:, k] = -gains.mean_gain[:, k] * a_bar[k] * x_bar[k]
        x_bar[k + 1] = a_bar[k] * x_bar[k] + b_bar[:, k] @ u_bar[:, k]
    x_bar.setflags(write=False)
    u_bar.setflags(write=False)
    return MeanPath(x_bar=x_bar, u_bar=u_bar)


def initial_central_moment(law: InitialLaw, order: int) -> float:
    """E[(x0 - mean)**order] for an initial law, order even."""
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 2, got {order}")
    if law.kind == "deterministic":
        return (law.start_value() - law.mean) ** order
    if law.kind == "gaussian_around_mean":
        return law.variance ** (order // 2) * _odd_double_factorial(order - 1)
    return float(np.mean((law.samples - law.mean) ** order))


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


def _propagate_block(sc: Scenario, gains: GainSchedule, mean: MeanPath, seed: int,
                     lo: int, x: np.ndarray, d: np.ndarray, u: np.ndarray,
                     eps: np.ndarray) -> None:
    """Fill the step-major states x (N+1, B), their deviations d = x - x_bar
    and the controls u (N, I, B) of paths lo..lo+B-1 of one block."""
    family = sc.family
    x[0] = _draw_paths(sc, seed, lo, eps)
    np.subtract(x[0], mean.x_bar[0], out=d[0])
    g_dev = gains.dev_gain
    a, b = sc.deviation_dynamics
    # The dynamics split exactly into the mean recursion plus a deviation
    # channel; propagating the deviation and re-adding the exact mean keeps
    # zero-noise paths bit-identical to the mean path.  The controls' push
    # b.v is applied as a scalar times d rather than a matrix product, so
    # each path's arithmetic does not depend on how many paths share its
    # block.  d[k + 1] serves as scratch until it is written at the step's end.
    for k in range(sc.horizon):
        gain = g_dev[:, k] * a[k]
        np.multiply(gain[:, None], d[k], out=u[k])
        np.subtract(mean.u_bar[:, k, None], u[k], out=u[k])
        nxt, tmp = x[k + 1], d[k + 1]
        np.multiply(d[k], a[k], out=nxt)
        np.multiply(d[k], b[:, k] @ gain, out=tmp)
        nxt -= tmp
        if family is Family.ADDITIVE:
            nxt += eps[k]
        elif family is Family.MULTIPLICATIVE:
            np.multiply(d[k], eps[k], out=tmp)
            nxt += tmp
        else:
            nxt *= eps[k]
        nxt += mean.x_bar[k + 1]
        np.subtract(nxt, mean.x_bar[k + 1], out=d[k + 1])


def _path_sums(x: np.ndarray, d: np.ndarray, mo: int):
    """Sums over the last (path) axis of x, d**2 and d**mo; d is raised to
    the moment order in place."""
    x_sum = x.sum(axis=-1)
    d2_sum = None if mo == 2 else np.einsum("...b,...b->...", d, d)
    even_power(d, mo, out=d)
    dmo_sum = d.sum(axis=-1)
    return x_sum, dmo_sum if d2_sum is None else d2_sum, dmo_sum


def _path_cost_dev(sc: Scenario, d_pow: np.ndarray, v_pow: np.ndarray,
                   x_buf: np.ndarray, u_buf: np.ndarray) -> np.ndarray:
    """Deviation-cost contribution of each path of a block, per agent: (I, B).

    d_pow (N+1, B) and v_pow (N, I, B) are the deviations raised to the
    moment order.  A matrix product may round differently with its operands'
    layout, so they are first copied path-major into the block's freed
    state and control buffers, and the products are taken there: each
    path's cost then has the same bits as a path-major kernel gives, for
    any block size.
    """
    n, rows = sc.horizon, d_pow.shape[1]
    d_path = x_buf.reshape(-1)[:d_pow.size].reshape(rows, n + 1)
    v_path = u_buf.reshape(-1)[:v_pow.size].reshape(sc.agents, rows, n)
    np.copyto(d_path, d_pow.T)
    np.copyto(v_path, v_pow.transpose(1, 2, 0))
    q_dev = sc.q_dev
    out = d_path[:, :n] @ q_dev[:, :n].T
    out += np.outer(d_path[:, n], q_dev[:, n])
    out += np.einsum("ibk,ik->bi", v_path, sc.r_dev)
    return out.T


def _memory_plan(sc: Scenario, n_paths: int, store_cap: int) -> tuple[bool, int, int]:
    """Whether a run keeps its path store, the floats it holds throughout,
    and the floats each of its workers holds, counted against MAX_PATH_FLOATS.

    A run holds the per-path costs (before and after the mean terms), each
    block's partial sums, and the path store when it keeps one.  A worker
    holds its block arrays (x, d, u, v), the noise in both layouts, the
    block's per-path costs, and the copy even_power takes of v when the
    moment order is not a power of two.  A run keeps its store only when the
    store fits beside what it holds throughout and one worker.
    """
    n, agents, mo = sc.horizon, sc.agents, sc.moment_order
    blocks = -(-n_paths // CHUNK_SIZE)
    held = 2 * agents * n_paths + blocks * 3 * (n + 1 + agents * n)
    power_copy = agents * n if mo & (mo - 1) else 0
    per_worker = min(CHUNK_SIZE, n_paths) * (
        2 * (n + 1) + 2 * n + 2 * agents * n + 3 * agents + power_copy)
    store_floats = n_paths * (n + 1 + agents * n)
    store = (n_paths <= store_cap
             and held + store_floats + per_worker <= MAX_PATH_FLOATS)
    return store, (held + store_floats if store else held), per_worker


def run_ensemble(
    sc: Scenario,
    gains: GainSchedule,
    *,
    paths: int | None = None,
    seed: int | None = None,
    threads: int = 1,
    store_cap: int = DEFAULT_STORE_CAP,
) -> Ensemble:
    """Simulate a seeded closed-loop ensemble and collect its statistics.

    Paths are processed in the fixed blocks their random streams are keyed
    by; worker threads only decide which block runs when, never how
    statistics are reduced, so results are identical for any thread count.
    Each worker reuses one set of block arrays, and no more workers run
    than MAX_PATH_FLOATS has room for.
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

    store, held, per_worker = _memory_plan(sc, n_paths, store_cap)
    workers = min(threads, (MAX_PATH_FLOATS - held) // per_worker)
    if workers < 1:
        raise ResourceLimitError(
            f"{n_paths} paths need {held + per_worker} floats with one worker, "
            f"above the in-memory budget of {MAX_PATH_FLOATS}"
        )

    mean = propagate_mean(sc, gains)
    mo = sc.moment_order
    chunks = [(lo, min(lo + CHUNK_SIZE, n_paths)) for lo in range(0, n_paths, CHUNK_SIZE)]
    path_cost_dev = np.empty((agents, n_paths))
    x_store = np.empty((n_paths, n + 1)) if store else None
    u_store = np.empty((agents, n_paths, n)) if store else None
    partials: list = [None] * len(chunks)
    # One set of step-major block arrays per worker: x, d, u, v and eps.
    block = chunks[0][1]
    shapes = [(n + 1, block)] * 2 + [(n, agents, block)] * 2 + [(n, block)]
    local = threading.local()

    def work(ci: int) -> None:
        lo, hi = chunks[ci]
        if not hasattr(local, "buffers"):
            local.buffers = [np.empty(shape) for shape in shapes]
        x, d, u, v, eps = (buf[..., :hi - lo] for buf in local.buffers)
        _propagate_block(sc, gains, mean, seed, lo, x, d, u, eps)
        np.subtract(u, mean.u_bar.T[:, :, None], out=v)
        if store:
            x_store[lo:hi] = x.T
            u_store[:, lo:hi] = u.transpose(1, 2, 0)
        partials[ci] = _path_sums(x, d, mo) + _path_sums(u, v, mo)
        path_cost_dev[:, lo:hi] = _path_cost_dev(sc, d, v, local.buffers[0], local.buffers[2])

    if workers == 1 or len(chunks) == 1:
        for ci in range(len(chunks)):
            work(ci)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(len(chunks))))

    # Block sums are added in block order, whichever worker made them.
    sums = [np.zeros_like(p) for p in partials[0]]
    for part in partials:
        for acc, val in zip(sums, part):
            acc += val
    emp_mean, dev_m2, dev_m2o = (s / n_paths for s in sums[:3])
    # Control sums are step-major (N, I); the statistics are (I, N).
    u_mean, u_dev_m2, u_dev_m2o = (np.ascontiguousarray(s.T) / n_paths
                                   for s in sums[3:])

    # Mean cost terms are path-independent constants; add them so that the
    # per-path costs average to the full realized cost.
    p2 = 2 * sc.p
    q_bar, r_bar = sc.q_bar, sc.r_bar
    mean_const = (
        q_bar[:, :n] @ mean.x_bar[:n] ** p2
        + (r_bar * mean.u_bar ** p2).sum(axis=1)
        + q_bar[:, n] * mean.x_bar[n] ** p2
    )
    path_cost = path_cost_dev + mean_const[:, None]

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


def evaluate_cost(
    sc: Scenario,
    data: Ensemble | MeanPath,
    table: CoefficientTable,
) -> list[CostBreakdown]:
    """Realized per-agent cost breakdown plus the predicted value.

    Mean terms always come from the exact mean path; deviation terms use the
    ensemble's empirical moments about that mean.  The prediction is the
    cost-to-go at k = 0: alpha_bar-weighted mean power, plus (stochastic
    families) the alpha-weighted initial deviation moment and any gamma_bar
    constant.
    """
    n, agents, p2 = sc.horizon, sc.agents, 2 * sc.p
    mean = data.mean if isinstance(data, Ensemble) else data
    q_bar, r_bar, q_dev, r_dev = sc.q_bar, sc.r_bar, sc.q_dev, sc.r_dev
    xpow = mean.x_bar ** p2

    out = []
    for i in range(agents):
        run_state_mean = float(q_bar[i, :n] @ xpow[:n])
        run_control_mean = float(r_bar[i] @ mean.u_bar[i] ** p2)
        terminal_mean = float(q_bar[i, n] * xpow[n])
        predicted = float(table.alpha_bar[i, 0]) * sc.x0.mean ** p2
        run_state_dev = run_control_dev = terminal_dev = 0.0
        std_error = None
        if isinstance(data, Ensemble):
            mo = data.moment_order
            dev = data.dev_m2 if mo == 2 else data.dev_m2o
            u_dev = data.u_dev_m2 if mo == 2 else data.u_dev_m2o
            run_state_dev = float(q_dev[i, :n] @ dev[:n])
            run_control_dev = float(r_dev[i] @ u_dev[i])
            terminal_dev = float(q_dev[i, n] * dev[n])
            predicted += float(table.alpha[i, 0]) * initial_central_moment(sc.x0, mo)
            if table.gamma_bar is not None:
                predicted += float(table.gamma_bar[i, 0])
            if data.n_paths > 1:
                std_error = float(
                    np.std(data.path_cost[i], ddof=1) / np.sqrt(data.n_paths)
                )
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
            predicted=predicted,
            std_error=std_error,
        ))
    return out
