"""Backward-in-time coefficient tables and feedback-gain schedules.

Every family runs the same backward channel for the mean and, when
stochastic, for the deviation; both channels run in one backward loop, as
stacked rows of per-step (rows, I) arrays, staged step-major in blocks of
STAGE steps, bit-identical to lone channels.  Per step, each agent's best
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
from .numerics import _odd_root, _power, _root_work, agent_sum, even_power
from .scenario import PUSH_SLOTS, Scenario, _freeze

OVERFLOW_LIMIT = 1e300
STAGE = 64  # steps per staged block of the backward loop


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


def _check_overflow(names, channels, scale, k: int, alpha: np.ndarray) -> None:
    """Raise CoefficientOverflowError for step k, where a coefficient is NaN
    or above OVERFLOW_LIMIT, naming the channel, the agent and the step.

    A non-finite best-response argument alpha_{k+1} b / r (times ``scale``)
    leaves a NaN in its row of alpha_k; it is recomputed with the loop's
    operations only to name the cause.  The terminal step has no argument.
    """
    for row, (name, (_, _, b, _, r)) in enumerate(zip(names, channels)):
        if k < r.shape[1]:
            arg = alpha[row, :, k + 1] * b[:, k] * scale[row, k] / r[:, k]
            if not np.all(np.isfinite(arg)):
                agent = np.flatnonzero(~np.isfinite(arg))[0] + 1
                raise CoefficientOverflowError(
                    f"{name} best-response argument alpha_{{k+1}} b / r (times the noise "
                    f"moment, if any) is not finite for agent {agent} at step {k}"
                )
        if not np.all(alpha[row, :, k] <= OVERFLOW_LIMIT):
            agent = np.flatnonzero(~(alpha[row, :, k] <= OVERFLOW_LIMIT))[0] + 1
            cause = ("terminal weight too large" if k == r.shape[1] else
                     "closed loop too unstable for this cost order and horizon")
            raise CoefficientOverflowError(
                f"{name} coefficient exceeded {OVERFLOW_LIMIT:g} for agent {agent} "
                f"at step {k}; {cause}"
            )


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
    row, so the tables are bit-identical to lone channels.  The loop stages
    b, r, q (alpha in place), and a and the moment repeated along the agent
    axis, STAGE steps at a time as contiguous step-major (rows, I) rows; a
    step works in them and in preallocated scratch rows, through row views
    made once per call, with positional ``out`` and a row of ones for 1.0.
    The odd root has its own scratch, and the closed-loop factor and g a
    are raised to the order together, as one (rows, I + 1) row.
    c, which no later step reads, is taken once per block; gamma's running
    sum and one overflow scan, which raises the first failure from the end,
    run after the loop, which runs on through inf and NaN silently.  Returns
    one (alpha, gamma or None, gains, c, closed-loop factors) tuple per row.
    The additive and multiplicative channels share every term, so they agree
    bit for bit when the moment vanishes.
    """
    orders = [channel[0] for channel in channels]
    rows, (agents, n) = len(channels), np.shape(channels[0][4])
    alpha, clf = np.empty((rows, agents, n + 1)), np.empty((rows, n))
    gain, c = np.empty((rows, agents, n)), np.empty((rows, agents, n))
    moments = np.asarray(moments if slot else np.ones((rows, n)), dtype=float)
    size = min(STAGE, n)
    # staged rows: alpha_[i + 1] is alpha_{k+1} of staged step i, k = lo + i;
    # pc_[i] holds the closed-loop factor and then g * a: one row to raise
    b_, r_, a_, m_, eta_, g_ = np.empty((6, size, rows, agents))
    alpha_, pc_ = np.empty((size + 1, rows, agents)), np.empty((size, rows, agents + 1))
    arg, tmp, term = np.empty((3, rows, agents))
    pw, (s, one) = np.empty((rows, agents + 1)), np.ones((2, rows, 1))
    # per group of rows of one order: its rows, root order, root scratch and power bits
    groups = [(sl, order - 1, _root_work(arg[sl].shape, order - 1), bin(order)[3:])
              for sl, order in ([(slice(None), orders[0])] if len(set(orders)) == 1 else
                                [(slice(j, j + 1), order) for j, order in enumerate(orders)])]
    # per staged step, its row views, made once, and per group the views of
    # its root (argument, order, scratch, eta) and of its power (base, out, bits)
    views = [(alpha_[i + 1], alpha_[i], b_[i], r_[i], a_[i], a_[i, :, :1], m_[i], eta_[i], g_[i],
              pc_[i, :, :1], pc_[i, :, 1:],
              [(arg[sl], root, work, eta_[i, sl]) for sl, root, work, _ in groups],
              [(pc_[i, sl], pw[sl], bits) for sl, _, _, bits in groups])
             for i in range(size)]
    pc, pga = pw[:, :1], pw[:, 1:]
    alpha[:, :, n] = alpha_[0] = [channel[3][:, n] for channel in channels]
    scale, lift = slot == "scale", slot == "lift"
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(n, 0, -size):
            lo, w = max(hi - size, 0), min(size, hi)
            alpha_[w] = alpha_[0]
            for j, (_, a, b, q, r) in enumerate(channels):
                b_[:w, j], r_[:w, j], alpha_[:w, j] = b[:, lo:hi].T, r[:, lo:hi].T, q[:, lo:hi].T
                a_[:w, j], m_[:w, j] = a[lo:hi, None], moments[j, lo:hi, None]
            for step in views[w - 1::-1]:
                nxt, alpha_k, b_k, r_k, a_k, a_col, m_k, eta, g, clf_k, ga, roots, powers = step
                np.multiply(nxt, b_k, arg)
                if scale:
                    np.multiply(arg, m_k, arg)
                np.divide(arg, r_k, arg)
                for arg_g, root, work, eta_g in roots:
                    _odd_root(arg_g, root, eta_g, work)
                np.multiply(b_k, eta, tmp)
                np.add(one, np.add.reduce(tmp, 1, None, s, True), s)
                np.divide(eta, s, g)
                np.multiply(b_k, g, tmp)
                np.subtract(one, np.add.reduce(tmp, 1, None, s, True), s)
                np.multiply(a_col, s, clf_k)
                np.multiply(g, a_k, ga)
                for pc_g, pw_g, bits in powers:
                    _power(pc_g, bits, pw_g)
                np.multiply(nxt, pc, term)
                if scale:
                    np.multiply(term, m_k, term)
                # alpha_k still holds q_k here
                np.add(alpha_k, np.multiply(r_k, pga, pga), alpha_k)
                np.add(alpha_k, term, alpha_k)
                if lift:
                    np.add(alpha_k, np.multiply(nxt, m_k, tmp), alpha_k)
            # c = eta / (1 + eta b) for the block, in b_'s rows (restaged next block)
            np.multiply(eta_[:w], b_[:w], out=b_[:w])
            np.divide(eta_[:w], np.add(1.0, b_[:w], out=b_[:w]), out=eta_[:w])
            alpha[:, :, lo:hi], gain[:, :, lo:hi] = (v[:w].transpose(1, 2, 0) for v in (alpha_, g_))
            c[:, :, lo:hi], clf[:, lo:hi] = eta_[:w].transpose(1, 2, 0), pc_[:w, :, 0].T
        gamma = None
        if slot == "shift":
            # gamma_k = gamma_{k+1} + alpha_{k+1} * moment_k from gamma_N = 0,
            # added in place (a sum has the same bits in either order): the
            # same adds by np.add.accumulate, or by np.add with out= its
            # second operand, raised a process's peak RSS by 0.4-0.5 MB.
            gamma = np.zeros_like(alpha)
            np.multiply(alpha[:, :, 1:], moments[:, None, :], out=gamma[:, :, :n])
            for k in range(n - 1, -1, -1):
                gamma[:, :, k] += gamma[:, :, k + 1]
        # max keeps a NaN, and NaN <= OVERFLOW_LIMIT is False
        bad = np.flatnonzero(~(alpha.max(axis=(0, 1)) <= OVERFLOW_LIMIT))
        if bad.size:
            _check_overflow(names, channels, moments if scale else np.ones_like(moments),
                            bad[-1], alpha)
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
    1 - sum_j b_j g_j (``agent_sum``, with the bits of the solver's sum),
    and cannot underflow with a.  Zero at the computed gains up to roundoff.
    """
    steps = np.arange(sc.horizon)[k]
    residuals = []
    for (order, _, b, _, r), alpha, gain, scale in zip(
            sc.channels, (table.alpha_bar, table.alpha), (gains.mean_gain, gains.dev_gain),
            sc.push_rows[:, 1, steps]):
        b, g = b[:, steps], gain[:, steps]
        coupling = agent_sum(b, g)
        t1 = -r[:, steps] * even_power(g, order - 1)
        t2 = alpha[:, steps + 1] * scale * b * even_power(1.0 - coupling, order - 1)
        top, bottom = np.abs(t1 + t2), np.maximum(np.abs(t1), np.abs(t2))
        residuals.append(np.divide(top, bottom, out=np.zeros_like(top), where=bottom != 0.0))
    return np.maximum.reduce(residuals)[i]
