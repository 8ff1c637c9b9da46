"""Independent correctness oracles for solved scenarios.

Nothing here reuses the backward-recursion formulas: deviation tests price
perturbed policies by propagating the mean and the deviation moment forward
exactly, the one-step solver minimizes each agent's objective numerically
from the raw problem data, the quadratic reduction is checked against a
separately coded scalar Riccati recursion, and the one-step value identity
is evaluated with the same exact moment pushforward, recomputed from the
gains.  These oracles are what certify the solver.

Scope: the deviation tests perturb within the linear-feedback class the
equilibrium lives in (plus an open-loop jitter smoke test); they certify no
profitable deviation inside that class, not over all measurable policies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SchemaError
from .numerics import noise_even_moment
from .recursion import CoefficientTable, GainSchedule, solve, stationarity_residual
from .scenario import Family, Scenario
from .simulate import initial_central_moment, propagate_mean

STATIONARITY_TOL = 1e-9
BELLMAN_TOL = 1e-10
DEVIATION_TOL = 1e-9


# ---------------------------------------------------------------------------
# unilateral deviation testing


@dataclass(frozen=True)
class DeviationGrid:
    """Multiplicative perturbation grid for one agent's gain schedule.

    ``points`` factors span 1 +- ``span``; the mean gain and (stochastic
    families) the deviation gain are each scaled by them, one channel at a
    time.  The uniform mode scales every step at once, the per-step mode
    (when enabled) perturbs one step at a time.  ``points`` must be odd and
    at least 3, so the grid holds the equilibrium factor 1 exactly at its
    middle index.
    """

    points: int = 101
    span: float = 0.2
    per_step: bool = True

    def __post_init__(self):
        if self.points < 3 or self.points % 2 == 0:
            raise SchemaError(f"deviation grid needs an odd point count >= 3, got {self.points}")
        if not 0.0 < self.span < float("inf"):
            raise SchemaError(f"deviation grid span must be positive and finite, got {self.span}")

    def factors(self) -> np.ndarray:
        factors = np.linspace(1.0 - self.span, 1.0 + self.span, self.points)
        factors[self.points // 2] = 1.0  # linspace may round the middle point
        return factors


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a unilateral deviation scan for one agent.

    ``margin`` is equilibrium cost minus the best perturbed cost (positive
    means some deviation improved on the equilibrium), taken over the worst
    channel and mode, which ``worst_mode`` names (``mean step 3``,
    ``deviation uniform``).  ``tolerance`` is the relative slack
    DEVIATION_TOL times the agent's equilibrium cost; the costs are exact,
    so it only absorbs roundoff.  ``uniform_argmin_factor`` is the best
    uniform factor of the channel holding the worst margin.
    """

    agent: int
    margin: float
    tolerance: float
    passed: bool
    uniform_argmin_factor: float
    worst_mode: str
    equilibrium_cost: float


def _push_dev_moment(sc: Scenario, k: int, clf, m):
    """E[d_{k+1}^mo] from m = E[d_k^mo] under the deviation closed-loop
    factor clf, with the step-(k+1) noise entering through its exact moment."""
    mo = sc.moment_order
    if sc.family is Family.ADDITIVE:
        return clf ** 2 * m + noise_even_moment(sc.noise, k + 1, 2)
    if sc.family is Family.MULTIPLICATIVE:
        return (clf ** 2 + noise_even_moment(sc.noise, k + 1, 2)) * m
    return clf ** mo * m * noise_even_moment(sc.noise, k + 1, mo)


def _channel_costs(sc: Scenario, gains: GainSchedule, agent: int,
                   factors: np.ndarray, per_step: bool) -> list[tuple[str, np.ndarray]]:
    """Exact cost of ``agent`` in each channel, per mode and factor.

    Every perturbed policy stays linear in the state, so the mean follows
    its exact recursion and the deviation channel is carried by its moment
    m_k = E[d_k^mo].  Costs are (modes, factors) arrays: row 0 scales the
    agent's gain at every step, row 1 + k at step k only.  The deviation
    channel (stochastic families) is scanned with its own gain, because the
    two channels' costs are separable.
    """
    n = sc.horizon
    shape = (1 + n if per_step else 1, factors.size)
    p2 = 2 * sc.p
    mo = sc.moment_order
    a_bar, b_bar, q_bar, r_bar = sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar
    stochastic = sc.family.stochastic
    if stochastic:
        a_d, b_d = sc.deviation_dynamics
        q_dev, r_dev = sc.q_dev, sc.r_dev
        m = np.full(shape, initial_central_moment(sc.x0, mo))
        dev = np.zeros(shape)
    xb = np.full(shape, float(sc.x0.mean))
    mean = np.zeros(shape)

    def closed_loop(a, s, b, g, f):
        # a - s * sum_j b_j g_j with the agent's gain scaled by f; written
        # around f - 1 so the factor-1 column is the equilibrium loop exactly
        return a - s * (b @ g + b[agent] * g[agent] * (f - 1.0))

    for k in range(n):
        f = np.ones(shape)
        f[0] = factors
        if per_step:
            f[1 + k] = factors
        g, s = gains.mean_gain[:, k], a_bar[k]
        mean += q_bar[agent, k] * xb ** p2 + r_bar[agent, k] * (f * g[agent] * s * xb) ** p2
        xb = closed_loop(a_bar[k], s, b_bar[:, k], g, f) * xb
        if stochastic:
            g, s = gains.dev_gain[:, k], a_d[k]
            dev += (q_dev[agent, k] + r_dev[agent, k] * (f * g[agent] * s) ** mo) * m
            m = _push_dev_moment(sc, k, closed_loop(a_d[k], s, b_d[:, k], g, f), m)
    mean += q_bar[agent, n] * xb ** p2
    if not stochastic:
        return [("mean", mean)]
    dev += q_dev[agent, n] * m
    return [("mean", mean), ("deviation", dev)]


def unilateral_deviation_test(
    sc: Scenario, gains: GainSchedule, agent: int, grid: DeviationGrid | None = None
) -> DeviationReport:
    """Scan multiplicative perturbations of one agent's gains, all other
    agents held at equilibrium, and report the best cost improvement found.

    Each channel's gain is scanned on its own, so the mean channel's
    curvature cannot hide an error in the deviation gain.
    """
    grid = grid or DeviationGrid()
    factors = grid.factors()
    eq = grid.points // 2
    channels = _channel_costs(sc, gains, agent, factors, grid.per_step)
    eq_cost = sum(float(cost[0, eq]) for _, cost in channels)
    tol = DEVIATION_TOL * max(abs(eq_cost), 1e-12)
    worst = None
    for name, cost in channels:
        margins = cost[:, eq] - cost.min(axis=1)
        row = int(np.argmax(margins))
        if worst is None or margins[row] > worst[0]:
            mode = "uniform" if row == 0 else f"step {row - 1}"
            argmin = float(factors[np.argmin(cost[0])])
            worst = (float(margins[row]), f"{name} {mode}", argmin)
    margin, mode, argmin = worst
    return DeviationReport(
        agent=agent,
        margin=margin,
        tolerance=tol,
        passed=margin <= tol,
        uniform_argmin_factor=argmin,
        worst_mode=mode,
        equilibrium_cost=eq_cost,
    )


def inject_gain_scaling(
    gains: GainSchedule, agent: int, step: int | None, factor: float
) -> GainSchedule:
    """Test hook: return a copy with one agent's mean gain scaled.

    ``step=None`` corrupts the whole schedule.  Only ``mean_gain`` changes:
    ``closed_loop_mean`` and the other audit fields are left as solved, so
    they no longer match the corrupted gains.  Nothing reads them after an
    injection; ``verify`` recomputes the closed loop from the gains.
    """
    mean_gain = np.array(gains.mean_gain)
    if step is None:
        mean_gain[agent] *= factor
    else:
        mean_gain[agent, step] *= factor
    mean_gain.setflags(write=False)
    return replace(gains, mean_gain=mean_gain)


def open_loop_jitter_test(
    sc: Scenario, gains: GainSchedule, agent: int,
    n_jitter: int = 64, scale: float | None = None, seed: int = 0,
) -> float:
    """Smoke test: random open-loop jitter of one agent's control sequence on
    the deterministic family must not beat the equilibrium.  Returns the
    margin (equilibrium cost minus best jittered cost)."""
    if sc.family is not Family.DETERMINISTIC:
        raise ValueError("open-loop jitter smoke test covers the deterministic family")
    n = sc.horizon
    p2 = 2 * sc.p
    a_bar, b_bar, q_bar, r_bar = sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar
    mean = propagate_mean(sc, gains)
    if scale is None:
        scale = 0.1 * max(1.0, float(np.max(np.abs(mean.u_bar[agent]))))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x70C1]))
    deltas = np.vstack([np.zeros(n), rng.normal(0.0, scale, (n_jitter, n))])
    xb = np.full(n_jitter + 1, float(sc.x0.mean))
    cost = np.zeros(n_jitter + 1)
    for k in range(n):
        u = -gains.mean_gain[:, k][:, None] * (a_bar[k] * xb)[None, :]
        u[agent] = mean.u_bar[agent, k] + deltas[:, k]
        cost += q_bar[agent, k] * xb ** p2 + r_bar[agent, k] * u[agent] ** p2
        xb = a_bar[k] * xb + b_bar[:, k] @ u
    cost += q_bar[agent, n] * xb ** p2
    return float(cost[0] - np.min(cost))


# ---------------------------------------------------------------------------
# brute-force one-step best responses


@dataclass(frozen=True)
class OneStepSolution:
    """Numerically solved one-step equilibrium, in gain form.

    ``mean_value`` is each agent's full mean-channel cost at the fixed point
    with the mean state at ``probe_mean``; ``dev_value`` the deviation-channel
    cost with a unit initial deviation moment.
    """

    mean_gain: np.ndarray
    mean_value: np.ndarray
    probe_mean: float
    dev_gain: np.ndarray | None = None
    dev_value: np.ndarray | None = None
    converged: bool = True


def _minimize_convex(f, rough: float) -> float:
    """Minimizer of a smooth strictly convex scalar objective, to within a
    few ulps.

    Minima located from function values alone stall near sqrt(eps), because
    f is flat there.  The sign of the slope stays right much closer in, so
    the slope is taken instead, as the complex-step derivative
    Im f(t + ih) / h of the same objective: exact to roundoff for these
    polynomial objectives, with no difference of nearby values.  The bracket
    starts at +-max(1, |rough|) and grows fourfold until the slope changes
    sign; bisection on the slope's sign then halves it to the float spacing
    (or to eps times the starting radius around a minimizer at zero).
    """
    def slope(t: float) -> float:
        return f(complex(t, 1e-20 * max(1.0, abs(t)))).imag

    radius = max(1.0, abs(rough))
    lo, hi = -radius, radius
    for _ in range(60):
        if slope(lo) <= 0.0:
            break
        lo, hi = 4.0 * lo, lo
    else:
        raise RuntimeError("minimizer bracket expansion failed")
    for _ in range(60):
        if slope(hi) >= 0.0:
            break
        lo, hi = hi, 4.0 * hi
    else:
        raise RuntimeError("minimizer bracket expansion failed")
    floor = np.finfo(float).eps * radius
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s = slope(mid)
        if s == 0.0:
            return mid
        if s > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _iterate_best_responses(br, agents: int, max_rounds: int, damping: float,
                            tol: float):
    """Damped best-response rounds with reduced-rank extrapolation.

    Strong cross-agent coupling pushes the damped iteration's linear rate
    toward 1, so after every window of agents + 2 iterates the sequence is
    extrapolated: the convex combination of window iterates that minimizes
    the combined displacement is the exact fixed point when the response map
    is affine, and a sharp improvement otherwise.  Safeguards fall back to
    the plain iterate when the window's Gram system is degenerate.
    Returns (controls, converged).
    """
    u = np.zeros(agents)
    window = [u.copy()]
    depth = agents + 2
    converged = False
    for _ in range(max_rounds):
        previous = u.copy()
        for i in range(agents):
            u[i] = (1.0 - damping) * u[i] + damping * br(i, u)
        if np.max(np.abs(u - previous)) <= tol:
            converged = True
            break
        window.append(u.copy())
        if len(window) == depth:
            iterates = np.array(window)
            diffs = np.diff(iterates, axis=0)
            # Weights c with sum 1 minimizing ||sum_i c_i diff_i||: solved on
            # the sum-zero subspace so an exactly annihilating combination
            # (the affine case) is found rather than approximated.
            m1 = depth - 1
            base = np.full(m1, 1.0 / m1)
            sum_zero = np.vstack([np.eye(m1 - 1), -np.ones((1, m1 - 1))])
            lhs = diffs.T @ sum_zero
            rhs = -diffs.T @ base
            y, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
            c = base + sum_zero @ y
            candidate = c @ iterates[:-1]
            scale = 1.0 + float(np.max(np.abs(iterates)))
            if np.all(np.isfinite(candidate)) and np.max(np.abs(candidate)) < 1e8 * scale:
                u = candidate
            window = [u.copy()]
    return u, converged


def brute_force_one_step(sc: Scenario, max_rounds: int = 100,
                         damping: float = 0.5, tol: float = 1e-10) -> OneStepSolution:
    """Solve a one-step instance by per-agent numeric best responses.

    Each agent's objective is assembled from the raw dynamics and cost
    definitions (never from the recursion formulas) and minimized by
    bisection on the sign of its complex-step slope; best responses are
    iterated with damping until the controls stop moving.  Gains are
    recovered by dividing out the probe states, so the mean probe must be
    nonzero.
    """
    if sc.horizon != 1:
        raise ValueError("brute_force_one_step requires a one-step instance")
    agents = sc.agents
    p2 = 2 * sc.p
    a0 = sc.a_bar[0]
    b0 = sc.b_bar[:, 0]
    r_bar0 = sc.r_bar[:, 0]
    q_bar = sc.q_bar
    xb = sc.x0.mean if sc.x0.mean != 0.0 else 1.0
    if a0 == 0.0:
        raise ValueError("mean-gain recovery needs a nonzero dynamics coefficient")

    def mean_objective(i, u_i, u_other):
        inner = a0 * xb + b0 @ u_other + b0[i] * u_i
        return r_bar0[i] * u_i ** p2 + q_bar[i, 1] * inner ** p2

    def mean_br(i, u):
        others = u.copy()
        others[i] = 0.0
        scale = max(abs(a0 * xb), 2.0 * float(np.max(np.abs(u))))
        return _minimize_convex(lambda t: mean_objective(i, t, others), rough=scale)

    u, converged = _iterate_best_responses(
        mean_br, agents, max_rounds, damping, tol
    )
    mean_gain = -u / (a0 * xb)
    inner = a0 * xb + b0 @ u
    mean_value = q_bar[:, 0] * xb ** p2 + r_bar0 * u ** p2 + q_bar[:, 1] * inner ** p2

    if not sc.family.stochastic:
        return OneStepSolution(mean_gain=mean_gain, mean_value=mean_value,
                               probe_mean=xb, converged=converged)

    mo = sc.moment_order
    q_dev = sc.q_dev
    r_dev0 = sc.r_dev[:, 0]
    a_dev, b_dev = sc.deviation_dynamics
    a_d, b_d = a_dev[0], b_dev[:, 0]
    # E[eps^2] for the variance families (mo = 2), E[eps^2o] for the general one
    noise = noise_even_moment(sc.noise, 1, mo)
    general = sc.family is Family.GENERAL_MOMENT

    def dev_objective(i, w_i, w_other):
        # One-step deviation cost with E[(x0 - xbar0)^mo] normalized to 1.
        inner = a_d + b_d @ w_other + b_d[i] * w_i
        if general:
            return r_dev0[i] * w_i ** mo + q_dev[i, 1] * inner ** mo * noise
        return r_dev0[i] * w_i ** 2 + q_dev[i, 1] * (inner ** 2 + noise)

    if a_d == 0.0:
        raise ValueError("deviation-gain recovery needs a nonzero deviation coefficient")

    def dev_br(i, w):
        others = w.copy()
        others[i] = 0.0
        scale = max(abs(a_d), 2.0 * float(np.max(np.abs(w))))
        return _minimize_convex(lambda t: dev_objective(i, t, others), rough=scale)

    w, dev_converged = _iterate_best_responses(
        dev_br, agents, max_rounds, damping, tol
    )
    dev_gain = -w / a_d
    inner = a_d + b_d @ w
    if general:
        tail = q_dev[:, 1] * inner ** mo * noise
    else:
        tail = q_dev[:, 1] * (inner ** 2 + noise)
    dev_value = q_dev[:, 0] + r_dev0 * w ** mo + tail

    return OneStepSolution(
        mean_gain=mean_gain,
        mean_value=mean_value,
        probe_mean=xb,
        dev_gain=dev_gain,
        dev_value=dev_value,
        converged=converged and dev_converged,
    )


# ---------------------------------------------------------------------------
# quadratic (p = 1) reduction


@dataclass(frozen=True)
class LqReduction:
    passed: bool
    max_discrepancy: float


def _scalar_riccati(a, b, q_run, q_term, r) -> np.ndarray:
    """Textbook scalar finite-horizon Riccati recursion, coded independently."""
    n = len(a)
    value = np.empty(n + 1)
    value[n] = q_term
    for k in range(n - 1, -1, -1):
        nxt = value[k + 1]
        gain = a[k] * nxt * b[k] / (r[k] + b[k] * nxt * b[k])
        value[k] = q_run[k] + a[k] * nxt * a[k] - gain * b[k] * nxt * a[k]
    return value


def lq_reduction_check(sc: Scenario) -> LqReduction:
    """For p = 1, the odd-root gain formula must collapse to the quadratic
    one, and (single agent) the mean coefficients must follow the scalar
    Riccati recursion."""
    if sc.p != 1:
        raise ValueError("lq_reduction_check requires p = 1")
    table, gains = solve(sc)
    n = sc.horizon
    b_bar, r_bar = sc.b_bar, sc.r_bar
    worst = 0.0
    for k in range(n):
        nxt = table.alpha_bar[:, k + 1]
        quad = nxt * b_bar[:, k] / (r_bar[:, k] + nxt * b_bar[:, k] ** 2)
        gap = np.max(np.abs(quad - gains.c_bar[:, k]) / np.maximum(1.0, np.abs(quad)))
        worst = max(worst, float(gap))
    if sc.agents == 1:
        riccati = _scalar_riccati(sc.a_bar, b_bar[0], sc.q_bar[0, :n], sc.q_bar[0, n], r_bar[0])
        gap = np.max(np.abs(riccati - table.alpha_bar[0]) / np.maximum(1.0, np.abs(riccati)))
        worst = max(worst, float(gap))
    return LqReduction(passed=worst <= 1e-12, max_discrepancy=worst)


# ---------------------------------------------------------------------------
# one-step value identity


def _clf_mean(sc: Scenario, gains: GainSchedule, k: int) -> float:
    return sc.a_bar[k] * (1.0 - gains.mean_gain[:, k] @ sc.b_bar[:, k])


def _clf_dev(sc: Scenario, gains: GainSchedule, k: int) -> float:
    a, b = sc.deviation_dynamics
    return a[k] * (1.0 - gains.dev_gain[:, k] @ b[:, k])


DEFAULT_PROBES = tuple(
    (x_bar, moment) for x_bar in (-2.0, -0.5, 1.0, 3.0) for moment in (0.0, 0.5, 2.0)
)


def bellman_identity_check(
    sc: Scenario, table: CoefficientTable, gains: GainSchedule, k: int,
    probes=None,
) -> float:
    """Max residual of the one-step cost-to-go identity at step k.

    For each probe state (mean, deviation moment), the cost-to-go must equal
    the equilibrium stage cost plus the cost-to-go of the exactly pushed
    forward state.  Pushforward factors are recomputed from the gains, and
    the noise enters through its exact moments, so residuals beyond roundoff
    indicate a recursion that prices the noise wrongly.
    """
    if probes is None:
        probes = DEFAULT_PROBES
    if len(probes) == 0:
        raise SchemaError("the cost-to-go identity needs at least one probe state")
    p2 = 2 * sc.p
    mo = sc.moment_order
    clf_m = _clf_mean(sc, gains, k)
    if sc.family.stochastic:
        clf_d = _clf_dev(sc, gains, k)
        a_d = sc.deviation_dynamics[0][k]
    worst = 0.0
    for i in range(sc.agents):
        for x_bar, moment in probes:
            value = table.alpha_bar[i, k] * x_bar ** p2
            stage = (
                sc.q_bar[i, k] * x_bar ** p2
                + sc.r_bar[i, k] * (gains.mean_gain[i, k] * sc.a_bar[k] * x_bar) ** p2
            )
            nxt = table.alpha_bar[i, k + 1] * (clf_m * x_bar) ** p2
            if sc.family.stochastic:
                value += table.alpha[i, k] * moment
                stage += (
                    sc.q_dev[i, k] * moment
                    + sc.r_dev[i, k] * (gains.dev_gain[i, k] * a_d) ** mo * moment
                )
                nxt += table.alpha[i, k + 1] * _push_dev_moment(sc, k, clf_d, moment)
            if table.gamma_bar is not None:
                value += table.gamma_bar[i, k]
                nxt += table.gamma_bar[i, k + 1]
            residual = abs(value - (stage + nxt)) / max(abs(value), 1.0)
            worst = max(worst, residual)
    return worst


# ---------------------------------------------------------------------------
# convexity sampling and the aggregate report


def _min_curvature(order: int, a, b, r, weight, gain) -> float:
    """Minimum sampled second derivative, over agents and steps, of the
    one-step objectives r*w**order + weight*(rest + b*w)**order of one
    channel at unit state, where ``weight`` is alpha_{k+1} times any noise
    moment the channel carries.  Samples lie around the equilibrium control
    and at the points where either curvature term vanishes.

    When rest or weight is zero the objective is a single even power
    centred at 0: strictly convex, although its curvature vanishes at the
    centre, so the centre is not sampled.
    """
    worst = np.inf
    for k in range(len(a)):
        w_eq = -gain[:, k] * a[k]
        for i in range(len(w_eq)):
            if b[i, k] == 0.0:
                continue
            rest = a[k] + b[:, k] @ w_eq - b[i, k] * w_eq[i]
            width = 2.0 * max(1.0, abs(w_eq[i]))
            grid = np.concatenate([
                np.linspace(w_eq[i] - width, w_eq[i] + width, 9),
                [0.0, -rest / b[i, k]],
            ])
            if rest == 0.0 or weight[i, k] == 0.0:
                grid = grid[grid != 0.0]
            curvature = order * (order - 1) * (
                r[i, k] * grid ** (order - 2)
                + weight[i, k] * b[i, k] ** 2 * (rest + b[i, k] * grid) ** (order - 2)
            )
            worst = min(worst, float(np.min(curvature)))
    return worst


def sample_convexity(sc: Scenario, table: CoefficientTable, gains: GainSchedule) -> float:
    """Minimum sampled second derivative of the per-agent best-response
    objectives of every channel."""
    worst = _min_curvature(2 * sc.p, sc.a_bar, sc.b_bar, sc.r_bar,
                           table.alpha_bar[:, 1:], gains.mean_gain)
    if sc.family.stochastic:
        general = sc.family is Family.GENERAL_MOMENT
        noise = [noise_even_moment(sc.noise, k + 1, sc.moment_order) if general else 1.0
                 for k in range(sc.horizon)]
        worst = min(worst, _min_curvature(
            sc.moment_order, *sc.deviation_dynamics, sc.r_dev,
            table.alpha[:, 1:] * np.asarray(noise), gains.dev_gain,
        ))
    return worst


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate pass/fail evidence for one solved scenario."""

    deviation: list[DeviationReport]
    stationarity_max: float
    positivity_alpha_bar: bool
    positivity_alpha: bool | None
    positivity_gamma: bool | None
    convexity_min: float
    bellman_max_per_step: np.ndarray

    @property
    def positivity_ok(self) -> bool:
        return (self.positivity_alpha_bar
                and self.positivity_alpha is not False
                and self.positivity_gamma is not False)

    @property
    def passed(self) -> bool:
        return (
            all(report.passed for report in self.deviation)
            and self.stationarity_max <= STATIONARITY_TOL
            and self.positivity_ok
            and self.convexity_min > 0.0
            and float(np.max(self.bellman_max_per_step)) <= BELLMAN_TOL
        )

    def failures(self) -> list[str]:
        out = []
        for report in self.deviation:
            if not report.passed:
                out.append(
                    f"deviation margin {report.margin:.3e} above tolerance "
                    f"{report.tolerance:.3e} for agent {report.agent + 1} ({report.worst_mode})"
                )
        if self.stationarity_max > STATIONARITY_TOL:
            out.append(f"stationarity residual {self.stationarity_max:.3e} above {STATIONARITY_TOL:g}")
        if not self.positivity_ok:
            out.append("coefficient positivity violated")
        if not self.convexity_min > 0.0:
            out.append(f"sampled convexity minimum {self.convexity_min:.3e} not positive")
        bellman = float(np.max(self.bellman_max_per_step))
        if bellman > BELLMAN_TOL:
            out.append(f"cost-to-go identity residual {bellman:.3e} above {BELLMAN_TOL:g}")
        return out


def run_verification(
    sc: Scenario,
    table: CoefficientTable,
    gains: GainSchedule,
    grid: DeviationGrid | None = None,
    probes=None,
) -> VerificationReport:
    """Run every oracle against a solved scenario and collect the evidence."""
    deviation = [unilateral_deviation_test(sc, gains, i, grid) for i in range(sc.agents)]
    stationarity = max(
        stationarity_residual(sc, table, gains, i, k)
        for i in range(sc.agents) for k in range(sc.horizon)
    )
    bellman = np.array([
        bellman_identity_check(sc, table, gains, k, probes) for k in range(sc.horizon)
    ])
    pos_alpha_bar = bool(np.all(table.alpha_bar > 0.0))
    pos_alpha = None if table.alpha is None else bool(np.all(table.alpha > 0.0))
    pos_gamma = None if table.gamma_bar is None else bool(np.all(table.gamma_bar >= 0.0))
    return VerificationReport(
        deviation=deviation,
        stationarity_max=float(stationarity),
        positivity_alpha_bar=pos_alpha_bar,
        positivity_alpha=pos_alpha,
        positivity_gamma=pos_gamma,
        convexity_min=sample_convexity(sc, table, gains),
        bellman_max_per_step=bellman,
    )
