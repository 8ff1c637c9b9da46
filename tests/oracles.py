"""Test-side references that the solver is compared against: a brute-force
one-step solver and the scalar Riccati reduction of the quadratic case.

Neither reuses the backward-recursion formulas.  The one-step solver
minimizes each agent's objective numerically from the raw problem data;
the quadratic (p = 1) reduction is checked against a separately coded
scalar Riccati recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mftg.numerics import even_power
from mftg.recursion import solve
from mftg.scenario import Scenario
from mftg.verify import _push

LQ_TOL = 1e-12
BEST_RESPONSE_TOL = 1e-10


# ---------------------------------------------------------------------------
# brute-force one-step best responses


@dataclass(frozen=True)
class OneStepSolution:
    """Numerically solved one-step equilibrium, in gain form.

    ``mean_value`` is each agent's full mean-channel cost at the fixed point
    from the probe mean state; ``dev_value`` the deviation-channel cost with
    a unit initial deviation moment.
    """

    mean_gain: np.ndarray
    mean_value: np.ndarray
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


# Best-response rounds: at most BEST_RESPONSE_ROUNDS, each moving every
# control BEST_RESPONSE_DAMPING of the way to its best response, until no
# control moves more than BEST_RESPONSE_TOL.
BEST_RESPONSE_ROUNDS = 100
BEST_RESPONSE_DAMPING = 0.5


def _iterate_best_responses(br, agents: int):
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
    for _ in range(BEST_RESPONSE_ROUNDS):
        previous = u.copy()
        for i in range(agents):
            u[i] = (1.0 - BEST_RESPONSE_DAMPING) * u[i] + BEST_RESPONSE_DAMPING * br(i, u)
        if np.max(np.abs(u - previous)) <= BEST_RESPONSE_TOL:
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


def brute_force_one_step(sc: Scenario) -> OneStepSolution:
    """Solve a one-step instance by per-agent numeric best responses.

    Each agent's objective is assembled per channel from the raw dynamics
    and cost definitions (never from the recursion formulas): its control
    per unit state w is priced with the channel's push of its probe moment,
    x0.mean^2p (1 when the mean is 0) for the mean and 1 for the deviation,
    and minimized by bisection on the sign of its complex-step slope; best
    responses are iterated with damping until the controls stop moving.
    Gains are recovered as -w / a.
    """
    if sc.horizon != 1:
        raise ValueError("brute_force_one_step requires a one-step instance")
    moments = [even_power(sc.x0.mean if sc.x0.mean != 0.0 else 1.0, 2 * sc.p), 1.0]
    solved, converged = [], []
    for (order, a, b, q, r), rows, m, name in zip(
            sc.channels, sc.push_rows[:, :, 0], moments, ("mean", "deviation")):
        a, b, r = a[0], b[:, 0], r[:, 0]
        if a == 0.0:
            raise ValueError(f"{name}-gain recovery needs a nonzero dynamics coefficient")

        def objective(i, w_i, w_other):
            clf = a + np.add.reduce(b * w_other) + b[i] * w_i
            return r[i] * w_i ** order * m + q[i, 1] * _push(rows, clf, order, m)

        def best_response(i, w):
            others = w.copy()
            others[i] = 0.0
            scale = max(abs(a), 2.0 * float(np.max(np.abs(w))))
            return _minimize_convex(lambda t: objective(i, t, others), rough=scale)

        w, ok = _iterate_best_responses(best_response, sc.agents)
        clf = a + np.add.reduce(b * w)
        value = (q[:, 0] + r * even_power(w, order)) * m + q[:, 1] * _push(rows, clf, order, m)
        solved += [-w / a, value]
        converged.append(ok)
    # gain then value of each channel: the field order of OneStepSolution
    return OneStepSolution(*solved, converged=all(converged))


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
        quad = nxt * b_bar[:, k] / (r_bar[:, k] + nxt * even_power(b_bar[:, k], 2))
        gap = np.max(np.abs(quad - gains.c_bar[:, k]) / np.maximum(1.0, np.abs(quad)))
        worst = max(worst, float(gap))
    if sc.agents == 1:
        riccati = _scalar_riccati(sc.a_bar, b_bar[0], sc.q_bar[0, :n], sc.q_bar[0, n], r_bar[0])
        gap = np.max(np.abs(riccati - table.alpha_bar[0]) / np.maximum(1.0, np.abs(riccati)))
        worst = max(worst, float(gap))
    return LqReduction(passed=worst <= LQ_TOL, max_discrepancy=worst)
