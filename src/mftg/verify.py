"""Independent correctness oracles for solved scenarios.

``run_verification`` reports five sections, and nothing here reuses the
backward-recursion formulas: the unilateral-deviation scan prices
perturbed policies by pushing each channel's moment forward exactly; the
first-order conditions are checked at the solved gains; the coefficient
tables must be positive; the best-response objectives are sampled for
convexity; and the one-step value identity is evaluated with the same
exact moment push, recomputed from the gains.  These oracles are what
certify the solver.  Two references that only the tests run, a
brute-force one-step solver and a scalar Riccati recursion, live in
tests/oracles.py.

Every oracle runs one body per channel of ``Scenario.channels``.  A channel
of order o carries a moment m: x_bar^2p for the mean, E[d^mo] of the
deviation d = x - x_bar for the deviation.  It is pushed one step by the
channel's rows (lift, scale, shift) in ``Scenario.push_rows``,

    m_{k+1} = (clf_k^o + lift_k) * m_k * scale_k + shift_k,

where the stochastic families put E[eps^mo], the step-(k+1) noise moment,
in the family's ``Family.noise_slot``, and every other row, the mean
channel's three among them, holds its neutral value.  Nothing here names a
family or branches on the channel.

The closed-loop factor clf_k = a_k (1 - sum_j b_jk g_jk) comes from one
layer, ``_closed_loop``, built from the gains and the raw scenario data
only: never from ``alpha`` and never from the solver's ``closed_loop_*``
audit fields, which a gain injection leaves stale.  The deviation scan is
one pass over every agent, on (agent, factor) tables.  The first-order
conditions are one whole-table ``stationarity_residual`` call, per unit of
the dynamics coefficient; its verdict row names the worst agent and step.
The convexity scan is taken per unit of that coefficient too, one
(agent, step) table per sample.  The one-step value identity is one
whole-table ``bellman_identity_check`` call on the 12 fixed probe states,
one (agent, step) table per state: it is affine in each channel's moment,
so a nonzero defect cannot vanish on them.

Scope: the deviation tests perturb within the linear-feedback class the
equilibrium lives in; they certify no profitable deviation inside that
class, not over all measurable policies.  They price absolute costs: at a
tiny dynamics coefficient every cost after step 0 underflows, and only the
stationarity row sees a corrupted gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, groupby
from typing import NamedTuple

import numpy as np

from .errors import SchemaError
from .numerics import agent_sum, even_power
from .recursion import CoefficientTable, GainSchedule, stationarity_residual
from .scenario import Scenario
from .simulate import initial_central_moment, predicted_cost

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
    middle index, and the factors must not round together.
    """

    points: int = 101
    span: float = 0.2
    per_step: bool = True

    def __post_init__(self):
        if self.points < 3 or self.points % 2 == 0:
            raise SchemaError(f"deviation grid needs an odd point count >= 3, got {self.points}")
        if not 0.0 < self.span < float("inf"):
            raise SchemaError(f"deviation grid span must be positive and finite, got {self.span}")
        if not np.all(np.diff(self.factors()) > 0.0):
            raise SchemaError(f"deviation grid factors {self.points}x{self.span:g} are not "
                              "strictly increasing")

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
    uniform_argmin_factor: float
    worst_mode: str
    equilibrium_cost: float

    @property
    def passed(self) -> bool:
        return bool(self.margin <= self.tolerance)  # a NaN margin fails


def _push(rows, clf, order: int, m):
    """A channel's next moment from m under the closed-loop factor clf,
    given its push rows (lift, scale, shift) at one step or at several."""
    lift, scale, shift = rows
    return (even_power(clf, order) + lift) * m * scale + shift


def _closed_loop(sc: Scenario, gains: GainSchedule, steps):
    """The closed loop at K steps (a slice or an index array), from the
    gains and the raw data: (coupling, factor, push), where coupling and
    factor hold one (K,) row per channel and push is each channel's (3, K)
    push rows.  Each step's coupling is summed along a contiguous agent
    row (``agent_sum``), so it has the bits of the solver's.
    """
    channels = list(zip(sc.channels, (gains.mean_gain, gains.dev_gain)))
    coupling = np.array([agent_sum(b[:, steps], g[:, steps]) for (_, _, b, _, _), g in channels])
    factor = np.array([a[steps] for (_, a, *_), _ in channels]) * (1.0 - coupling)
    return coupling, factor, sc.push_rows[:, :, steps]


def _initial_moments(sc: Scenario) -> list[float]:
    """Each channel's moment at step 0: x0.mean^2p, then E[d_0^mo], taken
    only with a deviation channel, as ``predicted_cost`` takes it."""
    moments = [float(even_power(sc.x0.mean, 2 * sc.p))]
    if sc.family.stochastic:
        moments.append(initial_central_moment(sc.x0, sc.moment_order))
    return moments


def _channel_costs(sc: Scenario, gains: GainSchedule, agents: np.ndarray,
                   factors: np.ndarray, per_step: bool):
    """Exact costs of ``agents`` in each channel, per mode and factor.

    Every perturbed policy stays linear in the state, so each channel is
    carried by its moment m_k (x_bar^2p for the mean, E[d_k^mo] for the
    deviation), which its push rows move one step; the channels' costs are
    separable, so each is scanned with its own gain.  Yields (channel, k,
    costs), costs an (agent, factor) table: with ``per_step``, the mode
    scaling each agent's gain at step k only, for k = 0..N-1, then k = None,
    the mode scaling it at every step.

    One forward loop carries the k = None mode; its factor-1 column gives
    each step's equilibrium moment and prefix cost.  Mode k is that prefix,
    plus the perturbed stage cost, plus the equilibrium cost-to-go of the
    perturbed next moment, A_{k+1} m + B_{k+1}.  The (agent, N+1) tails A
    and B are taken backward from the gains and the raw data, never from
    ``alpha``, which an injected gain leaves stale.
    """
    n = sc.horizon
    eq = factors.size // 2
    coupling, factor, push = _closed_loop(sc, gains, slice(None))
    for (order, a, b, q, r), gain, m0, rows, c, clf_eq, name in zip(
            sc.channels, (gains.mean_gain, gains.dev_gain), _initial_moments(sc), push,
            coupling, factor, ("mean", "deviation")):
        g, q, r, b_g = gain[agents], q[agents], r[agents], b[agents] * gain[agents]

        def stage(steps, f):
            return q[:, steps] + r[:, steps] * even_power(f * g[:, steps] * a[steps], order)

        if per_step:
            tail, constant = np.empty((agents.size, n + 1)), np.zeros((agents.size, n + 1))
            tail[:, n] = q[:, n]
            grow = (even_power(clf_eq, order) + rows[0]) * rows[1]
            stage_eq = stage(slice(n), 1.0)
            for k in range(n - 1, -1, -1):
                tail[:, k] = stage_eq[:, k] + grow[k] * tail[:, k + 1]
                constant[:, k] = constant[:, k + 1] + tail[:, k + 1] * rows[2, k]
        cost = np.zeros((agents.size, factors.size))
        m = np.full_like(cost, m0)
        for k in range(n):
            step_cost = stage(slice(k, k + 1), factors)
            # a (1 - sum_j b_j g_j) with the agent's b_j g_j scaled by f; written
            # around f - 1 so the factor-1 column is the equilibrium loop exactly
            clf = a[k] - a[k] * (c[k] + b_g[:, k, None] * (factors - 1.0))
            if per_step:
                m_eq = m[:, eq, None]
                yield name, k, (cost[:, eq, None] + step_cost * m_eq
                                + tail[:, k + 1, None] * _push(rows[:, k], clf, order, m_eq)
                                + constant[:, k + 1, None])
            cost += step_cost * m
            m = _push(rows[:, k], clf, order, m)
        cost += q[:, n, None] * m
        yield name, None, cost


def unilateral_deviation_test(
    sc: Scenario, gains: GainSchedule, agent: int | slice, grid: DeviationGrid | None = None
) -> DeviationReport | list[DeviationReport]:
    """Scan multiplicative perturbations of one agent's gains, all other
    agents held at equilibrium, and report the best cost improvement found:
    one report for an agent index, a list in agent order for a slice.

    Each channel's gain is scanned on its own, so the mean channel's
    curvature cannot hide an error in the deviation gain.  A channel's
    (agent, mode) margins are reduced by argmax: the uniform mode wins a
    tie, the first NaN wins, and a later channel wins only with a larger
    margin.
    """
    agents = np.arange(sc.agents)[agent]
    grid = grid or DeviationGrid()
    factors, eq = grid.factors(), grid.points // 2
    margins = np.empty((agents.size, 1 + sc.horizon if grid.per_step else 1))
    eq_cost, worst = 0.0, [None] * agents.size
    for name, k, cost in _channel_costs(sc, gains, agents.reshape(-1), factors, grid.per_step):
        margins[:, 0 if k is None else 1 + k] = cost[:, eq] - cost.min(axis=1)
        if k is not None:
            continue
        eq_cost = eq_cost + cost[:, eq]
        argmin = factors[np.argmin(cost, axis=1)]
        for j, row in enumerate(np.argmax(margins, axis=1)):
            if worst[j] is None or margins[j, row] > worst[j][0]:
                mode = "uniform" if row == 0 else f"step {row - 1}"
                worst[j] = (float(margins[j, row]), f"{name} {mode}", float(argmin[j]))
    reports = [DeviationReport(int(i), margin, DEVIATION_TOL * max(abs(c), 1e-12), argmin, mode, c)
               for i, c, (margin, mode, argmin) in zip(agents.flat, eq_cost.tolist(), worst)]
    return reports if agents.ndim else reports[0]


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


# ---------------------------------------------------------------------------
# one-step value identity


DEFAULT_PROBES = tuple((x, m) for x in (-2.0, -0.5, 1.0, 3.0) for m in (0.0, 0.5, 2.0))


def bellman_identity_check(sc: Scenario, table: CoefficientTable, gains: GainSchedule,
                           k: int | slice = slice(None), probes=None):
    """Per-step max residual, over agents and probe states, of the one-step
    cost-to-go identity: a (steps,) array, or a float for one step k, of
    which only step k is computed.

    For each probe state (mean, deviation moment), the channels carry the
    moments (mean^2p, deviation moment), and the cost-to-go must equal the
    equilibrium stage cost plus the cost-to-go of the exactly pushed
    moments.  Pushforward factors are recomputed from the gains, and the
    noise enters through its exact moments, so residuals beyond roundoff
    indicate a recursion that prices the noise wrongly.  ``probes`` is a
    sequence of (mean, moment) pairs or a (P, 2) array.  The probe states
    are taken one at a time, each an (agent, step) table, into a running
    maximum that keeps a NaN; one step k is that table's column k alone.
    """
    probes = DEFAULT_PROBES if probes is None else probes
    if len(probes) == 0:
        raise SchemaError("the cost-to-go identity needs at least one probe state")
    steps = np.arange(sc.horizon)[k]
    cols = np.atleast_1d(steps)
    _, factor, push = _closed_loop(sc, gains, cols)
    # per channel, the (agent, step) tables that no probe state changes
    channels = [(order, alpha[:, cols], q[:, cols],
                 r[:, cols] * even_power(gain[:, cols] * a[cols], order),
                 alpha[:, 1:][:, cols], clf, rows)
                for (order, a, _, q, r), alpha, gain, clf, rows in zip(
                    sc.channels, (table.alpha_bar, table.alpha),
                    (gains.mean_gain, gains.dev_gain), factor, push)]
    worst = 0.0
    for mean, dev in np.array(probes, dtype=float):
        value = stage = nxt = 0.0
        for (order, alpha, q, r_u_pow, alpha_next, clf, rows), m in zip(
                channels, (even_power(mean, 2 * sc.p), dev)):
            value = value + alpha * m
            stage = stage + q * m + r_u_pow * m
            nxt = nxt + alpha_next * _push(rows, clf, order, m)
        if table.gamma_bar is not None:
            value += table.gamma_bar[:, cols]
            nxt += table.gamma_bar[:, 1:][:, cols]
        worst = np.maximum(worst, np.abs(value - (stage + nxt)) / np.maximum(np.abs(value), 1.0))
    worst = np.max(worst, axis=0)
    return worst if steps.ndim else float(worst[0])


# ---------------------------------------------------------------------------
# convexity sampling and the aggregate report


def _min_curvature(order: int, b, r, weight, gain) -> float:
    """Minimum sampled second derivative, over agents and steps, of the
    one-step objectives r*w**order + weight*(rest + b*w)**order of one
    channel at unit state, where ``weight`` is alpha_{k+1} times any noise
    moment the channel carries.  Samples lie around the equilibrium control
    and at the points where either curvature term vanishes.

    The control w = -g a and rest = a (1 - sum_j b_j g_j + b g) both carry
    the dynamics coefficient a, which scales the curvature by a**(order-2):
    no change of sign, but an underflow for tiny a.  So w, rest and the
    samples are taken per unit of a, as w/a = -g and rest/a.

    Each sample is one (agent, step) table, folded into a running
    np.minimum, so no (agent, step, sample) table is held.  The first nine
    are np.linspace(w - width, w + width, 9) entry for entry: start + j *
    step, and the end point itself.  Agents with b = 0 have no best-response
    problem and are masked out.  When rest or weight is zero the objective
    is a single even power centred at 0: strictly convex, although its
    curvature vanishes at the centre, so the centre is masked out too.
    """
    w_eq = -gain
    rest = 1.0 + agent_sum(b, w_eq) - b * w_eq
    width = 2.0 * np.maximum(1.0, np.abs(w_eq))
    pivot = np.divide(-rest, b, out=np.zeros_like(rest), where=b != 0.0)
    start, stop = w_eq - width, w_eq + width
    step = (stop - start) / 8
    b2_weight, flat = weight * even_power(b, 2), (rest == 0.0) | (weight == 0.0)
    lowest = np.full_like(rest, np.inf)
    for w in chain((j * step + start for j in range(8)), (stop, 0.0, pivot)):
        curvature = order * (order - 1) * (
            r * w ** (order - 2) + b2_weight * (rest + b * w) ** (order - 2))
        np.minimum(lowest, np.where((b == 0.0) | (flat & (w == 0.0)), np.inf, curvature),
                   out=lowest)
    return float(np.min(lowest))


def sample_convexity(sc: Scenario, table: CoefficientTable, gains: GainSchedule) -> float:
    """Minimum sampled second derivative of the per-agent best-response
    objectives of every channel.  A channel's next-step weight is
    alpha_{k+1} times its push's scale row: the noise moment that the
    general-moment family puts on its best response, 1 otherwise."""
    return min(_min_curvature(order, b, r, alpha[:, 1:] * scale, gain)
               for (order, _, b, _, r), alpha, gain, (_, scale, _) in zip(
                   sc.channels, (table.alpha_bar, table.alpha),
                   (gains.mean_gain, gains.dev_gain), sc.push_rows))


class Check(NamedTuple):
    """One verdict: a value against its tolerance, every field but
    ``passed`` as the text report.csv writes (agent and step may be empty)."""

    section: str
    metric: str
    agent: str
    step: str
    value: str
    tolerance: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate pass/fail evidence for one solved scenario."""

    deviation: list[DeviationReport]
    stationarity: np.ndarray  # the (agent, step) residual table
    positivity_ok: bool
    convexity_min: float
    bellman_max_per_step: np.ndarray

    @property
    def checks(self) -> list[Check]:
        """The verdict table, one row per decision in report.csv order.
        Each value is compared with its tolerance here and nowhere else."""
        worst = np.unravel_index(np.argmax(self.stationarity), self.stationarity.shape)
        return [
            *(Check("deviation", "margin", str(d.agent + 1), "", f"{d.margin:.17g}",
                    f"{d.tolerance:.17g}", d.passed) for d in self.deviation),
            Check("stationarity", "max_residual", str(worst[0] + 1), str(worst[1]),
                  f"{self.stationarity[worst]:.17g}", f"{STATIONARITY_TOL:g}",
                  bool(self.stationarity[worst] <= STATIONARITY_TOL)),
            Check("positivity", "tables_positive", "", "", str(self.positivity_ok).lower(),
                  "true", bool(self.positivity_ok)),
            Check("convexity", "sampled_min", "", "", f"{self.convexity_min:.17g}",
                  "> 0", self.convexity_min > 0.0),
            *(Check("bellman", "residual", "", str(k), f"{value:.17g}", f"{BELLMAN_TOL:g}",
                    bool(value <= BELLMAN_TOL))
              for k, value in enumerate(self.bellman_max_per_step)),
        ]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[str]:
        """One line per failing section: its first failing row, and how
        many of its rows fail."""
        out = []
        for _, rows in groupby(self.checks, key=lambda check: check.section):
            rows = list(rows)
            failed = [check for check in rows if not check.passed]
            if failed:
                c = failed[0]
                where = f" for agent {c.agent}" if c.agent else ""
                where += f" at step {c.step}" if c.step else ""
                out.append(f"{c.section} {c.metric} {c.value} (tolerance {c.tolerance}){where}: "
                           f"{len(failed)} of {len(rows)} rows fail")
        return out


def run_verification(
    sc: Scenario,
    table: CoefficientTable,
    gains: GainSchedule,
    grid: DeviationGrid | None = None,
) -> VerificationReport:
    """Run every oracle against a solved scenario and collect the evidence.

    Each oracle prices costs from the initial state, so a cost-to-go beyond
    the float range raises CoefficientOverflowError before any of them runs.
    """
    predicted_cost(sc, table, sc.family.stochastic)
    deviation = unilateral_deviation_test(sc, gains, slice(None), grid)
    positivity = (all(bool(np.all(t > 0.0)) for t in (table.alpha_bar, table.alpha) if t is not None)
                  and (table.gamma_bar is None or bool(np.all(table.gamma_bar >= 0.0))))
    return VerificationReport(
        deviation=deviation,
        stationarity=stationarity_residual(sc, table, gains),
        positivity_ok=positivity,
        convexity_min=sample_convexity(sc, table, gains),
        bellman_max_per_step=bellman_identity_check(sc, table, gains),
    )
