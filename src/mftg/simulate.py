"""Forward simulation under the computed equilibrium feedback.

The mean path is exact: zero-mean disturbances never enter the mean
recursion, so it is propagated deterministically and the feedback laws
consume this model mean, never an ensemble average (using empirical means
would couple paths).  Monte Carlo paths are drawn in fixed blocks of
CHUNK_SIZE paths, each from its own substream derived from (seed, block
index), which makes ensembles reproducible bit for bit regardless of how
blocks are scheduled over worker threads.
"""

from __future__ import annotations

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
# Ceiling on floats held at once (path-cost matrix plus one chunk).
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


def _draw_paths(sc: Scenario, seed: int, lo: int, hi: int):
    """Initial states and scaled noise rows for paths lo..hi-1 of one block.

    lo must start a block.  The block's substream first draws a full block
    of initial states (when the law is random), then one noise row per
    path as a single draw, so a partial last block yields the first rows of
    a full one and the first n paths of any ensemble are the same.
    """
    rows, n = hi - lo, sc.horizon
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
        eps = rng.standard_normal((rows, n))
    elif kind == "rademacher":
        eps = 2.0 * rng.integers(0, 2, (rows, n)) - 1.0
    else:
        eps = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (rows, n))
    eps *= sc.noise.sigma
    return x0, eps


def _simulate_chunk(sc: Scenario, gains: GainSchedule, mean: MeanPath,
                    seed: int, lo: int, x: np.ndarray, u: np.ndarray) -> None:
    """Fill x (B, N+1) and u (I, B, N) with the closed-loop paths lo..lo+B-1
    of one block; they may be views into the ensemble's path store."""
    family = sc.family
    x0, eps = _draw_paths(sc, seed, lo, lo + x.shape[0])
    x[:, 0] = x0
    g_dev = gains.dev_gain
    a, b = sc.deviation_dynamics
    # The dynamics split exactly into the mean recursion plus a deviation
    # channel; propagating the deviation and re-adding the exact mean keeps
    # zero-noise paths bit-identical to the mean path.  The controls' push
    # b.v is applied as a scalar times d rather than a matrix product, so
    # each path's arithmetic does not depend on how many paths share its
    # chunk (a matrix product may round differently for a one-row chunk).
    for k in range(sc.horizon):
        gain = g_dev[:, k] * a[k]
        d = x[:, k] - mean.x_bar[k]
        u[:, :, k] = mean.u_bar[:, k][:, None] - gain[:, None] * d[None, :]
        dev_next = a[k] * d - (b[:, k] @ gain) * d
        if family is Family.ADDITIVE:
            dev_next += eps[:, k]
        elif family is Family.MULTIPLICATIVE:
            dev_next += d * eps[:, k]
        else:
            dev_next *= eps[:, k]
        x[:, k + 1] = mean.x_bar[k + 1] + dev_next


def _dev_cost_per_path(sc: Scenario, mean: MeanPath, x: np.ndarray, u: np.ndarray):
    """Deviation-cost contribution of each path, per agent: (I, B)."""
    n = sc.horizon
    mo = sc.moment_order
    q_dev, r_dev = sc.q_dev, sc.r_dev
    d_pow = even_power(x - mean.x_bar[None, :], mo)
    out = d_pow[:, :n] @ q_dev[:, :n].T
    out += np.outer(d_pow[:, n], q_dev[:, n])
    v_pow = even_power(u - mean.u_bar[:, None, :], mo)
    out += np.einsum("ibk,ik->bi", v_pow, r_dev)
    return out.T


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

    if n_paths * (agents + 2) > MAX_PATH_FLOATS:
        raise ResourceLimitError(
            f"{n_paths} paths exceed the in-memory budget for per-path statistics"
        )
    store = n_paths <= store_cap and n_paths * (n + 1) * (agents + 1) <= MAX_PATH_FLOATS

    mean = propagate_mean(sc, gains)
    mo = sc.moment_order
    chunks = [(lo, min(lo + CHUNK_SIZE, n_paths)) for lo in range(0, n_paths, CHUNK_SIZE)]
    path_cost_dev = np.empty((agents, n_paths))
    x_store = np.empty((n_paths, n + 1)) if store else None
    u_store = np.empty((agents, n_paths, n)) if store else None
    partials: list = [None] * len(chunks)

    def work(ci: int) -> None:
        lo, hi = chunks[ci]
        if store:
            x, u = x_store[lo:hi], u_store[:, lo:hi]
        else:
            x, u = np.empty((hi - lo, n + 1)), np.empty((agents, hi - lo, n))
        _simulate_chunk(sc, gains, mean, seed, lo, x, u)
        path_cost_dev[:, lo:hi] = _dev_cost_per_path(sc, mean, x, u)
        if not store:
            d = x - mean.x_bar[None, :]
            v = u - mean.u_bar[:, None, :]
            partials[ci] = (
                x.sum(axis=0),
                (d ** 2).sum(axis=0),
                even_power(d, mo).sum(axis=0),
                u.sum(axis=1),
                (v ** 2).sum(axis=1),
                even_power(v, mo).sum(axis=1),
            )

    if threads <= 1 or len(chunks) == 1:
        for ci in range(len(chunks)):
            work(ci)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(chunks))))

    if store:
        d = x_store - mean.x_bar[None, :]
        v = u_store - mean.u_bar[:, None, :]
        emp_mean = x_store.sum(axis=0) / n_paths
        dev_m2 = (d ** 2).sum(axis=0) / n_paths
        dev_m2o = even_power(d, mo).sum(axis=0) / n_paths
        u_mean = u_store.sum(axis=1) / n_paths
        u_dev_m2 = (v ** 2).sum(axis=1) / n_paths
        u_dev_m2o = even_power(v, mo).sum(axis=1) / n_paths
    else:
        sums = [np.zeros_like(p) for p in partials[0]]
        for part in partials:
            for acc, val in zip(sums, part):
                acc += val
        emp_mean, dev_m2, dev_m2o, u_mean, u_dev_m2, u_dev_m2o = (
            s / n_paths for s in sums
        )

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
