"""Backward-in-time coefficient tables and feedback-gain schedules.

Every family runs the same backward channel for the mean and, when
stochastic, for the deviation; both channels run in one backward loop, as
stacked rows of per-step (rows, I) arrays.  Per step, each agent's best
response reduces, via a signed odd root, to a linear relation between the
agents' controls; the coupling matrix that ties those relations together is
a diagonal plus a rank-one term, so the simultaneous gains have the closed
form g = eta / (1 + b^T eta) and need no linear solve.  The gains give the
closed-loop factor that drives the coefficient recursion one step back.

The channels differ only in their moment order (2p for the mean, 2 for the
additive and multiplicative deviation, 2o for the general-moment deviation),
their dynamics and weight rows, and where the per-step noise moment enters:
the general-moment family puts it on the best-response argument and on the
closed-loop term, the multiplicative family folds it into alpha, and the
additive family accumulates it in the constant gamma_bar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CoefficientOverflowError
from .numerics import _odd_root, even_power, noise_even_moment
from .scenario import Family, Scenario, _freeze

OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class CoefficientTable:
    """Per-agent backward coefficients, column k = 0..N.

    alpha_bar weighs the mean power term, alpha (stochastic families) the
    deviation moment, gamma_bar (additive noise only) is the constant picked
    up from the noise variance.  Terminal columns equal the terminal weights
    exactly; gamma_bar ends at zero.
    """

    alpha_bar: np.ndarray
    alpha: np.ndarray | None = None
    gamma_bar: np.ndarray | None = None


@dataclass(frozen=True)
class GainSchedule:
    """Feedback gains and their audit trail, columns k = 0..N-1.

    The equilibrium control of agent i is
        u_ik = -dev_gain[i,k] * a[k] * (x_k - xbar_k)
               - mean_gain[i,k] * a_bar[k] * xbar_k,
    where a is the state coefficient of the scenario's
    ``deviation_dynamics`` (a_bar for the variance families, a_dev for the
    general-moment family).  c_bar / c are the per-agent best-response
    vectors; closed_loop_* are the one-step multipliers of the mean and of
    the deviation (before any noise scaling).
    """

    mean_gain: np.ndarray
    c_bar: np.ndarray
    closed_loop_mean: np.ndarray
    dev_gain: np.ndarray | None = None
    c: np.ndarray | None = None
    closed_loop_dev: np.ndarray | None = None


def _check_overflow(names, k: int, alpha_k: np.ndarray, arg=None) -> None:
    """Raise CoefficientOverflowError when a step-k coefficient is non-finite
    or above OVERFLOW_LIMIT, naming the channel, the agent and the step.

    A non-finite best-response argument ``arg`` always leaves a NaN in its
    row of alpha_k, so one reduction per step catches it too; the argument
    is read only to name the cause.  The terminal step has no argument.
    """
    # alpha is a sum of non-negative terms; the comparison is False on NaN
    if alpha_k.max() <= OVERFLOW_LIMIT:
        return
    for row, name in enumerate(names):
        if arg is not None and not np.all(np.isfinite(arg[row])):
            agent = np.flatnonzero(~np.isfinite(arg[row]))[0] + 1
            raise CoefficientOverflowError(
                f"{name} best-response argument alpha_{{k+1}} b / r (times the noise "
                f"moment, if any) is not finite for agent {agent} at step {k}"
            )
        if not np.all(alpha_k[row] <= OVERFLOW_LIMIT):
            agent = np.flatnonzero(~(alpha_k[row] <= OVERFLOW_LIMIT))[0] + 1
            cause = ("terminal weight too large" if arg is None else
                     "closed loop too unstable for this cost order and horizon")
            raise CoefficientOverflowError(
                f"{name} coefficient exceeded {OVERFLOW_LIMIT:g} for agent {agent} "
                f"at step {k}; {cause}"
            )


def _per_row(kernel, x: np.ndarray, orders) -> np.ndarray:
    """kernel(row, order) for each row of x with its own order: one call over
    all rows when they share the order, one call per row otherwise.  Either
    way each row gets exactly what a lone row would."""
    if len(set(orders)) == 1:
        return kernel(x, orders[0])
    out = np.empty_like(x)
    for row, order in enumerate(orders):
        out[row] = kernel(x[row], order)
    return out


def _channel(names, orders, a, b, q, r, factor=None, noise_on=()):
    """The backward channels ``names``, stacked one row each, in one loop
    over k.

    Row j has even moment order ``orders[j]``, dynamics ``a[j]`` (N) and
    ``b[j]`` (I x N), and weights ``q[j]`` (I x N+1) and ``r[j]`` (I x N).
    ``factor[j]`` (N) is row j's per-step noise moment E[eps_{k+1}^order];
    ``noise_on`` names where it enters: "gain" scales each best-response
    argument, "closed_loop" scales the closed-loop term of alpha, "alpha"
    adds alpha_{k+1} * factor to alpha, and "gamma" accumulates the same
    product in a separate constant.  A row without noise carries one neutral
    factor for every placement: 1 when the placements scale ("gain",
    "closed_loop"), 0 when they add ("alpha", "gamma"), which leaves its
    arithmetic that of a noise-free channel bit for bit.  That needs the
    placements to be all of one kind, as they are in every family.

    Per step, eta_i is the signed (order-1)-th root of
    alpha_{k+1,i} b_i / r_i (times the factor on "gain"); agent i's best
    response is c_i = eta_i / (1 + eta_i b_i).  The coupling matrix
    diag(1 / (1 + eta_i b_i)) + c b^T has the Sherman-Morrison solution
    g = eta / (1 + b^T eta).  With alpha, r and the moment non-negative,
    eta_i b_i >= 0, so both denominators are at least 1.

    Each row follows the operation order of a lone channel, element for
    element, and the sums b^T eta and b^T g run along the agent axis of each
    row, so a row's results do not depend on the rows stacked with it.  Step
    k of every input and output table is a (rows, I) view, so the loop copies
    no table.  The alpha table starts as q: column k holds q_k until step k
    reads it and writes alpha_k over it.  Returns one (alpha, gamma or None,
    gains, c, closed-loop factors) tuple per row.  The additive and
    multiplicative channels share every term, so they agree bit for bit when
    the moment vanishes.
    """
    a, b, r = (np.asarray(v, dtype=float) for v in (a, b, r))
    alpha = np.array(q, dtype=float)
    rows, agents, n = b.shape
    gamma = np.zeros_like(alpha) if "gamma" in noise_on else None
    gain = np.empty((rows, agents, n))
    c = np.empty((rows, agents, n))
    clf = np.empty((rows, n))
    # (N, rows, I) views: step k of each table is one (rows, I) block
    steps_b, steps_r, steps_alpha, steps_gain, steps_c = (
        v.transpose(2, 0, 1) for v in (b, r, alpha, gain, c))
    steps_a = a.T[:, :, None]
    if factor is not None:
        steps_f = np.asarray(factor, dtype=float).T[:, :, None]
    roots = [order - 1 for order in orders]

    nxt = steps_alpha[n]
    _check_overflow(names, n, nxt)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            b_k = steps_b[k]
            arg = nxt * b_k
            if "gain" in noise_on:
                arg *= steps_f[k]
            arg /= steps_r[k]
            eta = _per_row(_odd_root, arg, roots)
            np.divide(eta, 1.0 + eta * b_k, out=steps_c[k])
            g = eta / (1.0 + np.add.reduce(b_k * eta, axis=1, keepdims=True))
            steps_gain[k] = g
            clf_k = steps_a[k] * (1.0 - np.add.reduce(b_k * g, axis=1, keepdims=True))
            clf[:, k] = clf_k[:, 0]
            term = nxt * _per_row(even_power, clf_k, orders)
            if "closed_loop" in noise_on:
                term *= steps_f[k]
            # column k of alpha still holds q_k here
            alpha_k = steps_alpha[k] + steps_r[k] * _per_row(even_power, g * steps_a[k], orders)
            alpha_k += term
            if "alpha" in noise_on:
                alpha_k += nxt * steps_f[k]
            if gamma is not None:
                gamma[:, :, k] = gamma[:, :, k + 1] + nxt * steps_f[k]
            _check_overflow(names, k, alpha_k, arg)
            steps_alpha[k] = alpha_k
            nxt = alpha_k

    return [(alpha[j], None if gamma is None else gamma[j], gain[j], c[j], clf[j])
            for j in range(rows)]


# Where each family's per-step noise moment enters the deviation channel (see
# _channel).  The general-moment deviation pushforward satisfies
#     E[(x' - xbar')^{2o}] = (closed-loop dev factor)^{2o}
#                            * E[(x - xbar)^{2o}] * E[eps'^{2o}],
# so that family carries the order-2o moment on the best-response argument
# and on the closed-loop term; the one-step value identity and the
# brute-force oracle in mftg.verify confirm that placement.
_NOISE_ON = {
    Family.DETERMINISTIC: (),
    Family.ADDITIVE: ("gamma",),
    Family.MULTIPLICATIVE: ("alpha",),
    Family.GENERAL_MOMENT: ("gain", "closed_loop"),
}


def _solve(sc: Scenario, noise_on=()) -> tuple[CoefficientTable, GainSchedule]:
    """The mean channel and (stochastic families) the deviation channel, in
    one stacked backward loop, with the noise moment placed as ``noise_on``
    says."""
    names, orders = ["alpha_bar"], [2 * sc.p]
    a, b, q, r = [sc.a_bar], [sc.b_bar], [sc.q_bar], [sc.r_bar]
    factor = None
    if sc.family.stochastic:
        dev_a, dev_b = sc.deviation_dynamics
        order = sc.moment_order
        names.append("alpha")
        orders.append(order)
        a.append(dev_a)
        b.append(dev_b)
        q.append(sc.q_dev)
        r.append(sc.r_dev)
        scales = {"gain", "closed_loop"} & set(noise_on)
        assert not (scales and {"alpha", "gamma"} & set(noise_on)), noise_on
        neutral = 1.0 if scales else 0.0
        factor = [[neutral] * sc.horizon,
                  [noise_even_moment(sc.noise, k + 1, order) for k in range(sc.horizon)]]
    channels = _channel(names, orders, a, b, q, r, factor, noise_on)

    alpha_bar, _, mean_gain, c_bar, clf_mean = channels[0]
    table = CoefficientTable(alpha_bar=_freeze(alpha_bar))
    gains = GainSchedule(
        mean_gain=_freeze(mean_gain),
        c_bar=_freeze(c_bar),
        closed_loop_mean=_freeze(clf_mean),
    )
    if not sc.family.stochastic:
        return table, gains

    alpha, gamma, dev_gain, c, clf_dev = channels[1]
    table = replace(table, alpha=_freeze(alpha), gamma_bar=_freeze(gamma))
    gains = replace(
        gains,
        dev_gain=_freeze(dev_gain),
        c=_freeze(c),
        closed_loop_dev=_freeze(clf_dev),
    )
    return table, gains


def solve(sc: Scenario) -> tuple[CoefficientTable, GainSchedule]:
    """Coefficient tables and gains of the scenario's family: alpha_bar for
    every family, plus alpha for the stochastic ones and gamma_bar for
    additive noise."""
    return _solve(sc, _NOISE_ON[sc.family])


def _normalized(t1: float, t2: float) -> float:
    top = abs(t1 + t2)
    bottom = max(abs(t1), abs(t2))
    return 0.0 if bottom == 0.0 else top / bottom


def stationarity_residual(
    sc: Scenario, table: CoefficientTable, gains: GainSchedule, i: int, k: int
) -> float:
    """First-order-condition residual of agent i at step k, normalized by the
    largest term.

    The mean channel is probed at unit mean state; the deviation channel
    (when present) at unit deviation.  Zero at the computed gains up to
    roundoff; grows quickly when a gain is perturbed.
    """
    root = 2 * sc.p - 1
    a = sc.a_bar[k]
    b = sc.b_bar[:, k]
    u = -gains.mean_gain[:, k] * a
    inner = a + np.add.reduce(b * u)
    t1 = sc.r_bar[i, k] * u[i] ** root
    t2 = table.alpha_bar[i, k + 1] * b[i] * inner ** root
    residual = _normalized(t1, t2)

    if gains.dev_gain is None:
        return residual

    # Only the general-moment family carries the noise moment on the argument
    # of the best response.  The variance families have m = 1 and root = 1,
    # which round nothing: x * 1.0 and x ** 1 are x.
    root = sc.moment_order - 1
    m = noise_even_moment(sc.noise, k + 1, root + 1) if sc.family is Family.GENERAL_MOMENT else 1.0
    a_dev, b_dev = sc.deviation_dynamics
    a, b = a_dev[k], b_dev[:, k]
    v = -gains.dev_gain[:, k] * a
    inner = a + np.add.reduce(b * v)
    t1 = sc.r_dev[i, k] * v[i] ** root
    t2 = table.alpha[i, k + 1] * m * b[i] * inner ** root
    return max(residual, _normalized(t1, t2))
