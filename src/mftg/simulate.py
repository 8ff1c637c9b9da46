"""Forward simulation under the computed equilibrium feedback.

The mean path is exact: zero-mean disturbances never enter the mean
recursion, so it is propagated deterministically and the feedback laws
consume this model mean, never an ensemble average (using empirical means
would couple paths).  Monte Carlo paths are drawn in fixed blocks of
CHUNK_SIZE paths, each from its own substream derived from (seed, block
index), which makes ensembles reproducible bit for bit.

Paths are propagated in slabs of up to SLAB_BLOCKS whole blocks (a partial
last block is a slab of its own), one step at a time, each path as its
deviation d = x - x_bar alone: the split the coefficient recursions price.
Every equilibrium control is linear in d, v = u - u_bar = -g a d, so its
moment is (g a)**mo E[d**mo] and its stage cost the recursion's
(q + r (g a)**mo) d**mo.  Each step is reduced as soon as it is made: each
block's path sums of x = x_bar + d, of d**2 and d**mo are kept for the step,
and each agent's weighted d**mo is added to each path's cost, in a fixed
order of elementwise operations.  After the last step the block sums are
added to the run's running sums in block order, so the statistics have the
same bits for any slab width.  A slab reuses its noise (N x slab floats),
four slab rows and one (I, slab) row at every step.  A run that keeps its
paths (up to the store cap) also writes each step's x and u = u_bar + v
into the store, so its statistics have the same bits as a streamed run's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientOverflowError, NumericDomainError, ResourceLimitError
from .numerics import _odd_double_factorial, agent_sum, even_power
from .recursion import CoefficientTable, GainSchedule
from .scenario import InitialLaw, Scenario

DEFAULT_STORE_CAP = 100_000
# Paths per random-stream block; chunks are whole blocks (the last may be partial).
CHUNK_SIZE = 4096
# Whole blocks propagated together: wider step rows cut the per-call cost
# of the step loop.  Two to four blocks ran fastest at 102,400 paths;
# wider slabs fall out of cache.
SLAB_BLOCKS = 4
# Ceiling on floats held at once: the per-path costs, the path store when
# one is kept, the step rows and noise of a slab, and the block being
# drawn.  The scenario's tables have their own, scenario.MAX_TABLE_FLOATS.
MAX_PATH_FLOATS = 400_000_000


@dataclass(frozen=True)
class MeanPath:
    """Exact mean trajectory x_bar (k = 0..N) and mean controls (k < N)."""

    x_bar: np.ndarray
    u_bar: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    """Simulated trajectories and their per-step statistics.

    ``emp_mean`` is the plain path average of the stored states; ``dev_m2``
    / ``dev_m2o`` are the mean square / mo-th power of each path's carried
    deviation d from the exact model mean (what the coefficient recursions
    price, which matters when the initial law puts its atom away from the
    declared mean), and ``u_dev_m2o`` (I, N) the mean mo-th power of the
    controls' deviation v from the exact mean controls, mo the scenario's
    moment order.  With mo = 2, ``dev_m2o`` has the bits of ``dev_m2``.  The
    controls are linear in d, v = -g a d, so ``u_dev_m2o`` is priced as
    (g a)**mo dev_m2o[:N], exactly 0 where a gain is.  ``path_cost``
    holds each agent's realized cost per path, mean terms included.  The
    raw path and control matrices are kept only below the storage cap.
    """

    n_paths: int
    seed: int
    mean: MeanPath
    emp_mean: np.ndarray
    dev_m2: np.ndarray
    dev_m2o: np.ndarray
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


def _draw_paths(sc: Scenario, seed: int, lo: int, out: tuple) -> np.ndarray:
    """Initial states of paths lo..lo+B-1 of one block, with their scaled
    noise written step-major into out = (eps (N, B), draw).

    draw is a path-major buffer of at least (B, N) floats that a Gaussian
    draw is made in and reused for every block.  lo must start a block.
    The block's substream first draws a full block of initial states (when
    the law is random), then one noise row per path as a single draw, so a
    partial last block yields the first rows of a full one and the first n
    paths of any ensemble are the same.
    """
    eps, draw = out
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
        raw = rng.standard_normal(out=draw[:rows])
    elif kind == "rademacher":
        raw = 2.0 * rng.integers(0, 2, (rows, n)) - 1.0
    else:
        raw = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (rows, n))
    np.multiply(raw.T, sc.noise.sigma[:, None], out=eps)
    return x0


def _slabs(n_paths: int, blocks: int):
    """(lo, hi, blocks) of each slab in path order: up to `blocks` whole
    blocks, and the partial last block, if any, alone."""
    whole = n_paths - n_paths % CHUNK_SIZE
    for lo in range(0, whole, blocks * CHUNK_SIZE):
        hi = min(lo + blocks * CHUNK_SIZE, whole)
        yield lo, hi, (hi - lo) // CHUNK_SIZE
    if whole < n_paths:
        yield whole, n_paths, 1


def _run_block(sc: Scenario, feedback: tuple, mean: MeanPath, eps: np.ndarray,
               blocks: int, rows: list, parts: list, sums: list, cost: np.ndarray,
               store: tuple | None) -> None:
    """Propagate a slab of `blocks` equal blocks of paths from the initial
    states in rows[0] and the step-major noise eps (N, P), one step at a
    time, and reduce each step as soon as it is made.  feedback = (-gain
    (I, N), push (N), weight (I, N)): the controls' deviation v = -gain d,
    the push they give the state, and the stage-cost weight q + r gain**mo
    on d**mo.  Each path is carried as its deviation d from x_bar; x is
    formed only for its sum and the store, and v and u only for the store.

    Each step's sums over each block's paths of x, d**2 and d**mo go to that
    step's row of parts, (N+1, blocks) buffers (with mo == 2 the d**2 and
    d**mo buffers are one); after the last step they are added into sums
    block by block, in block order.  d**mo is taken as (d**2)**(mo/2).  Each
    path's deviation cost is added into cost (I, P) in a fixed order: the
    stage costs weight_k * d_k**mo for k = 0..N-1 in step order, then the
    terminal q_N * d_N**mo.  That arithmetic is elementwise, so each path's
    cost, like each block sum, has the same bits for any slab width.  rows
    are the step rows: x, d, d**mo and a scratch row (P), and the stage
    cost (I, P), which first holds v for a kept store = (x (P, N+1),
    u (I, P, N)), whose views get each step's x and u.
    """
    n, slot, mo = sc.horizon, sc.family.noise_slot, sc.moment_order
    x, d, d_pow, tmp, stage = rows
    x_part, d2_part, dmo_part = (p[:, :blocks] for p in parts)
    neg_gain, push, weight = feedback
    x_bar, u_bar = mean.x_bar, mean.u_bar
    a = sc.deviation_dynamics[0]
    # With mo > 2 the square goes to tmp, so even_power never copies.
    d_sq = d_pow if mo == 2 else tmp
    # (blocks, B) views of the rows summed per block
    x_blocks, sq_blocks, d_blocks = (row.reshape(blocks, -1) for row in (x, d_sq, d_pow))
    np.subtract(x, x_bar[0], out=d)
    for k in range(n + 1):
        np.add.reduce(x_blocks, axis=-1, out=x_part[k])
        if store:
            store[0][:, k] = x
        np.multiply(d, d, out=d_sq)
        np.add.reduce(sq_blocks, axis=-1, out=d2_part[k])
        if mo > 2:
            even_power(d_sq, mo // 2, out=d_pow)
            np.add.reduce(d_blocks, axis=-1, out=dmo_part[k])
        if k == n:
            break
        if store:
            np.multiply(neg_gain[:, k, None], d, out=stage)
            np.add(u_bar[:, k, None], stage, out=store[1][:, :, k])
        np.multiply(weight[:, k, None], d_pow, out=stage)
        cost += stage
        # The dynamics split exactly into the mean recursion plus this
        # deviation channel, so zero-noise paths stay at d = 0, on the mean
        # path.  Each path's arithmetic does not depend on how many paths
        # share its slab; the noise enters in the family's push slot.
        np.multiply(d, push[k], out=tmp)
        if slot == "lift":
            np.multiply(d, eps[k], out=x)
        d *= a[k]
        d -= tmp
        if slot == "shift":
            d += eps[k]
        elif slot == "lift":
            d += x
        else:
            d *= eps[k]
        np.add(d, x_bar[k + 1], out=x)
    np.multiply(sc.q_dev[:, n, None], d_pow, out=stage)
    cost += stage
    for j in range(blocks):
        for total, part in zip(sums, parts):
            total += part[:, j]


def _run_slabs(sc: Scenario, feedback: tuple, mean: MeanPath, seed: int,
               n_paths: int, blocks: int, sums: list, cost: np.ndarray,
               store: tuple | None) -> None:
    """Draw, propagate and reduce n_paths paths in slabs of up to `blocks`
    whole blocks, in block order, into sums, cost (I, n_paths) and store =
    (x, u) when one is kept.  The slab buffers are freed on return."""
    n, agents = sc.horizon, sc.agents
    # Each slab's per-block step sums of the statistics in sums.
    parts = [np.empty((n + 1, blocks)) for _ in range(3)]
    if sc.moment_order == 2:
        parts[2] = parts[1]
    width = min(blocks * CHUNK_SIZE, n_paths)
    rows = [np.empty(width) for _ in range(4)] + [np.empty(agents * width)]
    noise = np.empty(n * width)
    # Only a Gaussian draw has an out= form.
    draw = np.empty((min(CHUNK_SIZE, n_paths), n)) if sc.noise.kind == "gaussian" else None
    for lo, hi, count in _slabs(n_paths, blocks):
        size = hi - lo
        eps = noise[:n * size].reshape(n, size)
        slab = [row[:size] for row in rows[:4]] + [rows[4][:agents * size].reshape(agents, size)]
        for start in range(lo, hi, CHUNK_SIZE):
            cols = slice(start - lo, min(start + CHUNK_SIZE, hi) - lo)
            slab[0][cols] = _draw_paths(sc, seed, start, (eps[:, cols], draw))
        _run_block(sc, feedback, mean, eps, count, slab, parts, sums, cost[:, lo:hi],
                   (store[0][lo:hi], store[1][:, lo:hi]) if store else None)


def _memory_plan(sc: Scenario, n_paths: int, store_cap: int,
                 max_blocks: int = SLAB_BLOCKS) -> tuple[bool, int, int, int]:
    """Whether a run keeps its path store, the floats it holds throughout,
    the floats each block's draw adds, and the blocks per slab, counted
    against MAX_PATH_FLOATS.

    A run holds the per-path costs; the path-major draw buffer (N floats
    per path of a block); the step-major noise and step rows of its widest
    slab (N + 4 floats and one of I per path, the stage cost, which a kept
    store's controls pass through); the running path sums of x, d**2 and
    d**mo (N+1 floats each) and a slab's per-block step sums of the same;
    four tables of at most (N+1) x (I+1) floats, the feedback gains, the
    stage-cost weights, (g a)**mo and the mean path; NumPy's ufunc buffers,
    up to np.getbufsize() floats for each of a call's three operands, which
    narrow or transposed rows can take (a step's (I, 1) columns against
    (I, P) rows, the transposed noise draw);
    and the path store when it keeps one.  A block's draw adds its initial
    states and the initial-law draw of a full block.  A run keeps its store
    only when the store fits beside one-block slabs; it then propagates the
    widest slab of up to max_blocks blocks that fits.
    """
    n, agents = sc.horizon, sc.agents
    draw = min(CHUNK_SIZE, n_paths)
    store_floats = n_paths * (n + 1 + agents * n)

    def held(blocks):
        width = min(blocks * CHUNK_SIZE, n_paths)
        tables = (1 + blocks) * 3 * (n + 1) + 4 * (n + 1) * (agents + 1)
        return (agents * n_paths + draw * n + width * (n + 4 + agents) + tables
                + 3 * np.getbufsize())

    per_block = draw + CHUNK_SIZE
    store = (n_paths <= store_cap
             and held(1) + store_floats + per_block <= MAX_PATH_FLOATS)
    kept = store_floats if store else 0
    most = min(max_blocks, max(1, n_paths // CHUNK_SIZE))
    blocks = next((blocks for blocks in range(most, 1, -1)
                   if held(blocks) + kept + per_block <= MAX_PATH_FLOATS), 1)
    return store, held(blocks) + kept, per_block, blocks


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

    Paths are drawn in the fixed blocks their random streams are keyed by,
    and propagated and reduced in slabs of whole blocks, in block order.  A
    run that does not fit MAX_PATH_FLOATS with one-block slabs raises
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

    store, held, per_block, blocks = _memory_plan(sc, n_paths, store_cap)
    if held + per_block > MAX_PATH_FLOATS:
        raise ResourceLimitError(
            f"{n_paths} paths need {held + per_block} floats with one-block slabs, "
            f"above the in-memory budget of {MAX_PATH_FLOATS}"
        )

    mean = propagate_mean(sc, gains)
    a, b = sc.deviation_dynamics
    gain = gains.dev_gain * a
    # The solver's pw = (g a)**mo: q + r pw has the bits of its alpha term.
    pw = even_power(gain, sc.moment_order)
    push = agent_sum(b, gain)
    feedback = (np.negative(gain, out=gain), push, sc.q_dev[:, :n] + sc.r_dev * pw)
    path_cost = np.zeros((agents, n_paths))
    x_store = np.empty((n_paths, n + 1)) if store else None
    u_store = np.empty((agents, n_paths, n)) if store else None
    # Running path sums of x, d**2 and d**mo per step (N+1); each block's
    # step sums are added in block order.
    sums = [np.zeros(n + 1) for _ in range(3)]
    _run_slabs(sc, feedback, mean, seed, n_paths, blocks, sums, path_cost,
               (x_store, u_store) if store else None)

    emp_mean, dev_m2, dev_m2o = (s / n_paths for s in sums)
    # E[v**mo] = (g a)**mo E[d**mo], 0 at a zero gain even where d**mo is inf
    u_dev_m2o = np.multiply(pw, dev_m2o[:n], out=np.zeros_like(pw), where=pw != 0.0)

    # Mean cost terms are path-independent constants; add them so that the
    # per-path costs average to the full realized cost.
    state, control, terminal = _mean_costs(sc, mean)
    path_cost += (state + control + terminal)[:, None]

    arrays = [emp_mean, dev_m2, dev_m2o, u_dev_m2o, path_cost]
    if store:
        arrays += [x_store, u_store]
    for arr in arrays:
        arr.setflags(write=False)
    return Ensemble(
        n_paths=n_paths,
        seed=seed,
        mean=mean,
        emp_mean=emp_mean,
        dev_m2=dev_m2,
        dev_m2o=dev_m2o,
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
        dev = data.dev_m2o
        dev_parts = (np.add.reduce(sc.q_dev[:, :n] * dev[:n], axis=1),
                     np.add.reduce(sc.r_dev * data.u_dev_m2o, axis=1),
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
