"""Backward-in-time coefficient tables and feedback-gain schedules.

Every family runs the same backward channel for the mean and, when
stochastic, for the deviation; both channels run in one backward loop, as
stacked rows of per-step (rows, I) arrays.  Per step, each agent's best
response reduces, via a signed odd root, to a linear relation between the
agents' controls; the coupling matrix that ties those relations together is
a diagonal plus a rank-one term, so the simultaneous gains have the closed
form g = eta / (1 + b^T eta) and need no linear solve.  The gains give the
closed-loop factor that drives the coefficient recursion one step back.
``stationarity_residual`` checks the gains over whole tables, per unit of a.

The channels differ only in their moment order (2p for the mean, 2 for the
additive and multiplicative deviation, 2o for the general-moment deviation),
their dynamics and weight rows (``Scenario.channels``), and, for the
deviation channel, the ``Family.noise_slot`` where the per-step noise moment
enters: a scale multiplies the best-response argument and the closed-loop
term, a lift adds alpha_{k+1} times the moment to alpha, and a shift
accumulates that product in the constant gamma_bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientOverflowError
from .numerics import _odd_root, even_power
from .scenario import PUSH_SLOTS, Scenario, _freeze

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


def _channel(names, channels, slot=None, moments=None):
    """The backward ``channels``, (order, a, b, q, r) each, stacked one row
    each, in one loop over k.

    Row j has even moment order ``order``, dynamics ``a`` (N) and ``b``
    (I x N), and weights ``q`` (I x N+1) and ``r`` (I x N).  ``moments[j]``
    (N) is row j's per-step noise moment E[eps_{k+1}^order], and ``slot``
    (see Family) says where it enters: "scale" multiplies each best-response
    argument and the closed-loop term of alpha, "lift" adds
    alpha_{k+1} * moment to alpha, and "shift" accumulates the same product
    in a separate constant.  A row without noise carries the slot's neutral
    value (PUSH_SLOTS), which leaves its arithmetic that of a noise-free
    channel bit for bit.

    Per step, eta_i is the signed (order-1)-th root of
    alpha_{k+1,i} b_i / r_i (times a scale); agent i's best response is
    c_i = eta_i / (1 + eta_i b_i).  The coupling matrix
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
    orders, a, b, q, r = zip(*channels)
    a, b, r = (np.asarray(v, dtype=float) for v in (a, b, r))
    alpha = np.array(q, dtype=float)
    rows, agents, n = b.shape
    gamma = np.zeros_like(alpha) if slot == "shift" else None
    gain = np.empty((rows, agents, n))
    c = np.empty((rows, agents, n))
    clf = np.empty((rows, n))
    # (N, rows, I) views: step k of each table is one (rows, I) block
    steps_b, steps_r, steps_alpha, steps_gain, steps_c = (
        v.transpose(2, 0, 1) for v in (b, r, alpha, gain, c))
    steps_a = a.T[:, :, None]
    if slot is not None:
        steps_m = np.asarray(moments, dtype=float).T[:, :, None]
    roots = [order - 1 for order in orders]

    nxt = steps_alpha[n]
    _check_overflow(names, n, nxt)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            b_k = steps_b[k]
            arg = nxt * b_k
            if slot == "scale":
                arg *= steps_m[k]
            arg /= steps_r[k]
            eta = _per_row(_odd_root, arg, roots)
            np.divide(eta, 1.0 + eta * b_k, out=steps_c[k])
            g = eta / (1.0 + np.add.reduce(b_k * eta, axis=1, keepdims=True))
            steps_gain[k] = g
            clf_k = steps_a[k] * (1.0 - np.add.reduce(b_k * g, axis=1, keepdims=True))
            clf[:, k] = clf_k[:, 0]
            term = nxt * _per_row(even_power, clf_k, orders)
            if slot == "scale":
                term *= steps_m[k]
            # column k of alpha still holds q_k here
            alpha_k = steps_alpha[k] + steps_r[k] * _per_row(even_power, g * steps_a[k], orders)
            alpha_k += term
            if slot == "lift":
                alpha_k += nxt * steps_m[k]
            if gamma is not None:
                gamma[:, :, k] = gamma[:, :, k + 1] + nxt * steps_m[k]
            _check_overflow(names, k, alpha_k, arg)
            steps_alpha[k] = alpha_k
            nxt = alpha_k

    return [(alpha[j], None if gamma is None else gamma[j], gain[j], c[j], clf[j])
            for j in range(rows)]


def solve(sc: Scenario) -> tuple[CoefficientTable, GainSchedule]:
    """Coefficient tables and gains: alpha_bar for every family, plus alpha
    for the stochastic ones and gamma_bar for a shift slot.  The mean
    channel and (stochastic families) the deviation channel run in one
    stacked backward loop, the mean row with its slot's neutral value."""
    slot = sc.family.noise_slot
    moments = None if slot is None else sc.push_rows[:, list(PUSH_SLOTS).index(slot)]
    channels = sc.channels
    names = ["alpha_bar", "alpha"][:len(channels)]
    rows = [[_freeze(v) for v in row] for row in _channel(names, channels, slot, moments)]
    alpha_bar, _, mean_gain, c_bar, clf_mean = rows[0]
    if len(rows) == 1:
        return (CoefficientTable(alpha_bar),
                GainSchedule(mean_gain, c_bar, clf_mean))
    alpha, gamma, dev_gain, c, clf_dev = rows[1]
    return (CoefficientTable(alpha_bar, alpha, gamma),
            GainSchedule(mean_gain, c_bar, clf_mean, dev_gain, c, clf_dev))


def stationarity_residual(sc: Scenario, table: CoefficientTable, gains: GainSchedule,
                          i: int | slice = slice(None), k: int | slice = slice(None)):
    """First-order-condition residual |t1 + t2| / max(|t1|, |t2|) (0 where both
    terms are), worst over the channels: the (agent, step) table indexed
    [i, k], so a float for one pair, of which only step k is computed.

    At unit state agent i's condition is t1 + t2 = 0, t1 = r_i u_i^(o-1) and
    t2 = alpha_{k+1,i} s_k b_i (a + sum_j b_j u_j)^(o-1) with u_j = -g_j a and
    s_k the ``Scenario.push_rows`` scale row.  Both carry a^(o-1), which
    cancels, so they are taken per unit of a, as u/a = -g and
    1 - sum_j b_j g_j (summed along a contiguous agent row, as in the solver),
    and cannot underflow with a.  Zero at the computed gains up to roundoff.
    """
    steps = np.arange(sc.horizon)[k]
    residuals = []
    for (order, _, b, _, r), alpha, gain, scale in zip(
            sc.channels, (table.alpha_bar, table.alpha), (gains.mean_gain, gains.dev_gain),
            sc.push_rows[:, 1, steps]):
        b, g = b[:, steps], gain[:, steps]
        coupling = np.add.reduce(np.multiply(b.T, g.T, order="C"), axis=-1)
        t1 = -r[:, steps] * even_power(g, order - 1)
        t2 = alpha[:, steps + 1] * scale * b * even_power(1.0 - coupling, order - 1)
        top, bottom = np.abs(t1 + t2), np.maximum(np.abs(t1), np.abs(t2))
        residuals.append(np.divide(top, bottom, out=np.zeros_like(top), where=bottom != 0.0))
    return np.maximum.reduce(residuals)[i]
