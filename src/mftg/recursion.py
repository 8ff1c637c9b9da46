"""Backward-in-time coefficient tables and feedback-gain schedules.

Every family runs the same backward channel once for the mean and, when
stochastic, once more for the deviation.  Per step, each agent's best
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
from .numerics import noise_even_moment, signed_root
from .scenario import Family, Scenario

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
        u_ik = -dev_gain[i,k] * dev_scale[k] * (x_k - xbar_k)
               - mean_gain[i,k] * a_bar[k] * xbar_k,
    where dev_scale is the deviation-dynamics coefficient the gain multiplies
    (a_bar for the variance families, a_dev for the general-moment family).
    c_bar / c are the per-agent best-response vectors; closed_loop_* are the
    one-step multipliers of the mean and of the deviation (before any noise
    scaling).
    """

    mean_gain: np.ndarray
    c_bar: np.ndarray
    closed_loop_mean: np.ndarray
    dev_gain: np.ndarray | None = None
    c: np.ndarray | None = None
    closed_loop_dev: np.ndarray | None = None
    dev_scale: np.ndarray | None = None


def _freeze(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is not None:
        arr.setflags(write=False)
    return arr


def _check_overflow(values: np.ndarray, k: int, name: str) -> None:
    if not np.all(np.isfinite(values)) or np.max(np.abs(values)) > OVERFLOW_LIMIT:
        raise CoefficientOverflowError(
            f"{name} coefficient exceeded {OVERFLOW_LIMIT:g} at step {k}; "
            "closed loop too unstable for this cost order and horizon"
        )


def _channel(name: str, order: int, a, b, q, r, moment=None, noise_on=()):
    """One backward channel of even moment order ``order``.

    ``a`` (N) and ``b`` (I x N) are the channel's dynamics, ``q`` (I x N+1)
    and ``r`` (I x N) its weights.  ``moment`` (N) is the per-step noise
    moment E[eps_{k+1}^order]; ``noise_on`` names where it enters:
    "gain" scales each best-response argument, "closed_loop" scales the
    closed-loop term of alpha, "alpha" adds alpha_{k+1} * moment to alpha,
    and "gamma" accumulates the same product in a separate constant.

    Per step, eta_i is the signed (order-1)-th root of
    alpha_{k+1,i} b_i / r_i (times the moment on "gain"); agent i's best
    response is c_i = eta_i / (1 + eta_i b_i).  The coupling matrix
    diag(1 / (1 + eta_i b_i)) + c b^T has the Sherman-Morrison solution
    g = eta / (1 + b^T eta).  With alpha, r and the moment non-negative,
    eta_i b_i >= 0, so both denominators are at least 1.

    Returns (alpha, gamma or None, gains, c, closed-loop factors).  The
    additive and multiplicative channels share every term, so they agree
    bit for bit when the moment vanishes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    agents, n = r.shape

    alpha = np.empty((agents, n + 1))
    alpha[:, n] = q[:, n]
    gamma = np.zeros((agents, n + 1)) if "gamma" in noise_on else None
    gain = np.empty((agents, n))
    c = np.empty((agents, n))
    clf = np.empty(n)

    with np.errstate(over="ignore"):
        for k in range(n - 1, -1, -1):
            nxt = alpha[:, k + 1]
            arg = nxt * b[:, k]
            if "gain" in noise_on:
                arg = arg * moment[k]
            eta = signed_root(arg / r[:, k], order - 1)
            c[:, k] = eta / (1.0 + eta * b[:, k])
            g = eta / (1.0 + b[:, k] @ eta)
            gain[:, k] = g
            clf[k] = a[k] * (1.0 - g @ b[:, k])
            term = nxt * clf[k] ** order
            if "closed_loop" in noise_on:
                term = term * moment[k]
            alpha[:, k] = q[:, k] + r[:, k] * (g * a[k]) ** order + term
            if "alpha" in noise_on:
                alpha[:, k] += nxt * moment[k]
            if gamma is not None:
                gamma[:, k] = gamma[:, k + 1] + nxt * moment[k]
            _check_overflow(alpha[:, k], k, name)
    return alpha, gamma, gain, c, clf


def _solve(sc: Scenario, family: Family, noise_on=()) -> tuple[CoefficientTable, GainSchedule]:
    """Mean channel, then (stochastic families) the deviation channel with
    the noise moment placed as ``noise_on`` says."""
    if sc.family is not family:
        raise ValueError(f"expected {family.value} scenario, got {sc.family.value}")
    alpha_bar, _, mean_gain, c_bar, clf_mean = _channel(
        "alpha_bar", 2 * sc.p, sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar
    )
    table = CoefficientTable(alpha_bar=_freeze(alpha_bar))
    gains = GainSchedule(
        mean_gain=_freeze(mean_gain),
        c_bar=_freeze(c_bar),
        closed_loop_mean=_freeze(clf_mean),
    )
    if not family.stochastic:
        return table, gains

    a, b = (sc.a_dev, sc.b_dev) if family.uses_dev_dynamics else (sc.a_bar, sc.b_bar)
    order = sc.moment_order
    moment = np.array([noise_even_moment(sc.noise, k + 1, order) for k in range(sc.horizon)])
    alpha, gamma, dev_gain, c, clf_dev = _channel(
        "alpha", order, a, b, sc.q_dev, sc.r_dev, moment, noise_on
    )
    table = replace(table, alpha=_freeze(alpha), gamma_bar=_freeze(gamma))
    gains = replace(
        gains,
        dev_gain=_freeze(dev_gain),
        c=_freeze(c),
        closed_loop_dev=_freeze(clf_dev),
        dev_scale=_freeze(np.array(a, dtype=float)),
    )
    return table, gains


def solve_deterministic(sc: Scenario) -> tuple[CoefficientTable, GainSchedule]:
    """Mean-only 2p game: alpha_bar table and mean-field gains."""
    return _solve(sc, Family.DETERMINISTIC)


def solve_additive(sc: Scenario) -> tuple[CoefficientTable, GainSchedule]:
    """Additive-noise variance-aware 2p game: alpha_bar, alpha, gamma_bar."""
    return _solve(sc, Family.ADDITIVE, noise_on=("gamma",))


def solve_multiplicative(sc: Scenario) -> tuple[CoefficientTable, GainSchedule]:
    """Deviation-scaling-noise variance-aware 2p game: alpha_bar and alpha,
    with the noise variance folded into the alpha recursion."""
    return _solve(sc, Family.MULTIPLICATIVE, noise_on=("alpha",))


def solve_general_moment(
    sc: Scenario, *, noise_factor_on_closed_loop: bool = True
) -> tuple[CoefficientTable, GainSchedule]:
    """General 2o-moment game with noise scaling both deviation channels.

    The deviation pushforward satisfies
        E[(x' - xbar')^{2o}] = (closed-loop dev factor)^{2o}
                               * E[(x - xbar)^{2o}] * E[eps'^{2o}],
    so the alpha recursion carries the order-2o noise moment on the
    closed-loop term.  ``noise_factor_on_closed_loop=False`` drops that
    factor; the one-step value identity only holds with it on, which is why
    True is the default (the verification oracles pin this down).
    """
    noise_on = ("gain", "closed_loop") if noise_factor_on_closed_loop else ("gain",)
    return _solve(sc, Family.GENERAL_MOMENT, noise_on=noise_on)


_SOLVERS = {
    Family.DETERMINISTIC: solve_deterministic,
    Family.ADDITIVE: solve_additive,
    Family.MULTIPLICATIVE: solve_multiplicative,
    Family.GENERAL_MOMENT: solve_general_moment,
}


def solve(sc: Scenario) -> tuple[CoefficientTable, GainSchedule]:
    """Dispatch to the family's backward solver."""
    return _SOLVERS[sc.family](sc)


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
    p = sc.p
    a = sc.a_bar[k]
    b = np.asarray(sc.b_bar)[:, k]
    u = -gains.mean_gain[:, k] * a
    inner = a + b @ u
    t1 = sc.r_bar[i][k] * u[i] ** (2 * p - 1)
    t2 = table.alpha_bar[i, k + 1] * b[i] * inner ** (2 * p - 1)
    residual = _normalized(t1, t2)

    if gains.dev_gain is None:
        return residual

    if sc.family is Family.GENERAL_MOMENT:
        o = sc.o
        a_d = sc.a_dev[k]
        b_d = np.asarray(sc.b_dev)[:, k]
        v = -gains.dev_gain[:, k] * a_d
        inner_d = a_d + b_d @ v
        m = noise_even_moment(sc.noise, k + 1, 2 * o)
        t1 = sc.r_dev[i][k] * v[i] ** (2 * o - 1)
        t2 = table.alpha[i, k + 1] * m * b_d[i] * inner_d ** (2 * o - 1)
    else:
        v = -gains.dev_gain[:, k] * a
        inner_d = a + b @ v
        t1 = sc.r_dev[i][k] * v[i]
        t2 = table.alpha[i, k + 1] * b[i] * inner_d
    return max(residual, _normalized(t1, t2))
