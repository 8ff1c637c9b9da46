import re
import warnings

import numpy as np
import pytest

from mftg import CoefficientOverflowError, solve, stationarity_residual
from mftg.numerics import noise_even_moment
from mftg.recursion import STAGE
from mftg.scenario import build_scenario
from mftg.verify import inject_gain_scaling
from conftest import (NOISE_ON, lone_channel, lone_solve, make_scenario, random_deterministic,
                      scenario_doc)


class TestDeterministic:
    def test_one_step_unit_game(self, one_step_unit):
        table, gains = solve(one_step_unit)
        np.testing.assert_allclose(gains.mean_gain[:, 0], 1 / 3, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.alpha_bar[:, 0], 83 / 81, rtol=0, atol=1e-12)

    def test_zero_control_channel(self):
        sc = make_scenario(agents=2, horizon=5, p=3, a_bar=1.1,
                           b_bar=[0.0, 0.0], q_bar=[2.0, 3.0], r_bar=[1.0, 1.0])
        table, gains = solve(sc)
        assert np.all(gains.mean_gain == 0.0)
        expected = np.empty(6)
        expected[5] = 2.0
        for k in range(4, -1, -1):
            expected[k] = 2.0 + expected[k + 1] * 1.1 ** 6
        np.testing.assert_allclose(table.alpha_bar[0], expected, rtol=1e-14)

    def test_terminal_condition_bit_exact(self, det_two_agent):
        table, _ = solve(det_two_agent)
        assert table.alpha_bar[0, 7] == 4.0
        assert table.alpha_bar[1, 7] == 5.0

    def test_two_agent_example_positive_and_decaying(self, det_two_agent):
        for p in (2, 3, 4):
            sc = make_scenario(agents=2, horizon=7, p=p, b_bar=[-2.0, 2.0],
                               q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
                               initial={"mean": 10.0})
            table, gains = solve(sc)
            assert np.all(table.alpha_bar > 0.0)
            assert np.all(np.abs(gains.closed_loop_mean) < 1.0)

    def test_symmetric_agents_get_identical_schedules(self):
        # identical agents must get identical schedules, up to roundoff
        sc = make_scenario(agents=3, horizon=6, p=2, b_bar=[1.5, 1.5, 1.5],
                           q_bar=[2.0, 2.0, 2.0], r_bar=[3.0, 3.0, 3.0])
        table, gains = solve(sc)
        for i in (1, 2):
            np.testing.assert_allclose(table.alpha_bar[i], table.alpha_bar[0], rtol=1e-13)
            np.testing.assert_allclose(gains.mean_gain[i], gains.mean_gain[0], rtol=1e-13)

    def test_overflow_guard(self):
        sc = make_scenario(agents=1, horizon=4, p=4, a_bar=1e30, b_bar=[0.0])
        with pytest.raises(CoefficientOverflowError):
            solve(sc)

    def test_overflow_names_agent_and_step(self):
        # only agent 2's terminal weight is large enough to overflow
        sc = make_scenario(agents=2, horizon=3, p=2, a_bar=20.0, b_bar=[0.0, 0.0],
                           q_bar=[[1.0] * 4, [1.0, 1.0, 1.0, 1e299]])
        with pytest.raises(CoefficientOverflowError,
                           match=r"alpha_bar coefficient exceeded .* agent 2 at step 2;"):
            solve(sc)

    def test_terminal_weight_above_limit_overflows(self):
        # a terminal weight is the coefficient alpha_N itself
        sc = make_scenario(agents=1, horizon=2, p=1, a_bar=1e-3, b_bar=[1.0],
                           q_bar=[[1.0, 1.0, 1e305]])
        with pytest.raises(CoefficientOverflowError,
                           match=r"alpha_bar coefficient exceeded .* agent 1 at step 2;"):
            solve(sc)

    def test_tables_are_read_only(self, det_two_agent):
        table, gains = solve(det_two_agent)
        with pytest.raises(ValueError):
            table.alpha_bar[0, 0] = 1.0
        with pytest.raises(ValueError):
            gains.mean_gain[0, 0] = 1.0


class TestAdditive:
    def test_scalar_quadratic_one_step(self):
        sc = make_scenario(family="additive_variance_2p", agents=1, horizon=1,
                           p=1, noise={"kind": "gaussian", "sigma": 0.0})
        table, gains = solve(sc)
        assert gains.c[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert table.alpha[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_gamma_accumulates_noise_through_alpha(self):
        sc = make_scenario(family="additive_variance_2p", agents=1, horizon=3,
                           p=2, noise={"kind": "gaussian", "sigma": [0.5, 1.0, 2.0]})
        table, _ = solve(sc)
        # gamma_k = gamma_{k+1} + alpha_{k+1} * E[eps_{k+1}^2]
        gamma = np.zeros(4)
        for k in (2, 1, 0):
            gamma[k] = gamma[k + 1] + table.alpha[0, k + 1] * sc.noise.sigma[k] ** 2
        np.testing.assert_allclose(table.gamma_bar[0], gamma, rtol=1e-14)
        assert table.gamma_bar[0, 3] == 0.0
        assert np.all(table.gamma_bar >= 0.0)

    def test_zero_noise_reduces_to_deterministic_bitwise(self, additive_two_agent):
        sc = make_scenario(
            family="additive_variance_2p", agents=2, horizon=10, p=2,
            b_bar=[-2.0, 3.0], q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
            q_dev=[4.0, 5.0], r_dev=[6.0, 7.0],
            noise={"kind": "gaussian", "sigma": 0.0},
            initial={"mean": 20.25},
        )
        det = make_scenario(
            family="deterministic_2p", agents=2, horizon=10, p=2,
            b_bar=[-2.0, 3.0], q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
            initial={"mean": 20.25},
        )
        t_add, g_add = solve(sc)
        t_det, g_det = solve(det)
        np.testing.assert_array_equal(t_add.alpha_bar, t_det.alpha_bar)
        np.testing.assert_array_equal(g_add.mean_gain, g_det.mean_gain)
        assert np.all(t_add.gamma_bar == 0.0)

    def test_dev_tables_independent_of_p(self):
        outputs = []
        for p in (2, 3, 4):
            sc = make_scenario(
                family="additive_variance_2p", agents=2, horizon=10, p=p,
                b_bar=[-2.0, 3.0], q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
                q_dev=[4.0, 5.0], r_dev=[6.0, 7.0],
                noise={"kind": "gaussian", "sigma": 1.0},
                initial={"mean": 20.25},
            )
            table, gains = solve(sc)
            outputs.append((table.alpha, table.gamma_bar, gains.dev_gain))
        for alpha, gamma, dev in outputs[1:]:
            np.testing.assert_array_equal(alpha, outputs[0][0])
            np.testing.assert_array_equal(gamma, outputs[0][1])
            np.testing.assert_array_equal(dev, outputs[0][2])


class TestMultiplicative:
    def test_scalar_one_step_with_unit_noise(self):
        sc = make_scenario(family="multiplicative_variance_2p", agents=1,
                           horizon=1, p=1, noise={"kind": "gaussian", "sigma": 1.0})
        table, gains = solve(sc)
        assert gains.c[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert table.alpha[0, 0] == pytest.approx(2.5, abs=1e-15)

    def test_zero_noise_alpha_matches_additive_bitwise(self):
        kwargs = dict(agents=2, horizon=8, p=2, b_bar=[1.5, -1.1],
                      q_bar=[4.0, 5.0], r_bar=[1.0, 1.0],
                      q_dev=[5.0, 4.0], r_dev=[1.0, 1.0],
                      noise={"kind": "gaussian", "sigma": 0.0},
                      initial={"mean": 20.5})
        t_mult, g_mult = solve(
            make_scenario(family="multiplicative_variance_2p", **kwargs))
        t_add, g_add = solve(
            make_scenario(family="additive_variance_2p", **kwargs))
        np.testing.assert_array_equal(t_mult.alpha, t_add.alpha)
        np.testing.assert_array_equal(g_mult.dev_gain, g_add.dev_gain)

    def test_example_tables_positive(self, multiplicative_two_agent):
        for p in (2, 3, 4):
            sc = make_scenario(
                family="multiplicative_variance_2p", agents=2, horizon=10, p=p,
                b_bar=[1.5, -1.1], q_bar=[4.0, 5.0], r_bar=[1.0, 1.0],
                q_dev=[5.0, 4.0], r_dev=[1.0, 1.0],
                noise={"kind": "gaussian", "sigma": 1.0},
                initial={"mean": 20.5, "atom": 20.0},
            )
            table, _ = solve(sc)
            assert np.all(table.alpha_bar > 0.0)
            assert np.all(table.alpha > 0.0)


    def test_deviation_overflow_names_its_channel(self):
        # the mean channel is stable; the noise moment blows up alpha alone
        sc = make_scenario(family="multiplicative_variance_2p", agents=2, horizon=3,
                           p=2, a_bar=0.5, noise={"kind": "gaussian", "sigma": 1e100})
        with pytest.raises(CoefficientOverflowError,
                           match=r"^alpha coefficient exceeded .* agent 1 at step 1;"):
            solve(sc)


class TestGeneralMoment:
    def test_scalar_first_moment_order(self):
        sc = make_scenario(family="general_moment_2o2p", agents=1, horizon=1,
                           p=1, o=1, noise={"kind": "gaussian", "sigma": 1.0})
        table, gains = solve(sc)
        assert gains.c[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert gains.dev_gain[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert table.alpha[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_all_zero_moments_drop_the_deviation_gain(self):
        sc = make_scenario(
            family="general_moment_2o2p", agents=2, horizon=3, p=2, o=2,
            noise={"kind": "explicit_moments",
                   "moments": {2: 0.0, 4: 0.0}},
        )
        table, gains = solve(sc)
        assert np.all(gains.c == 0.0)
        assert np.all(gains.dev_gain == 0.0)
        # zero noise transfer: deviations die after one step, so each alpha
        # is the running deviation weight alone
        expected = np.array([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(table.alpha[0], expected, rtol=0, atol=0)

    def test_mean_block_shared_with_deterministic(self, general_two_agent):
        det = make_scenario(agents=2, horizon=8, p=2, b_bar=[-2.0, 2.0],
                            q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
                            initial={"mean": 5.0})
        t_gen, g_gen = solve(general_two_agent)
        t_det, g_det = solve(det)
        np.testing.assert_array_equal(t_gen.alpha_bar, t_det.alpha_bar)
        np.testing.assert_array_equal(g_gen.mean_gain, g_det.mean_gain)

    def test_noise_factor_switch_changes_alpha(self, general_two_agent):
        # negative control: the lone-channel reference without the
        # closed-loop factor
        on, _ = solve(general_two_agent)
        off, _ = lone_solve(general_two_agent, noise_on=("gain",))
        assert not np.array_equal(on.alpha, off.alpha)


class TestSharedStructure:
    def test_mean_block_identical_across_families(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            base = random_deterministic(rng, max_agents=3, max_horizon=8)
            t_det, g_det = solve(base)
            common = dict(
                agents=base.agents, horizon=base.horizon, p=base.p,
                a_bar=base.a_bar.tolist(), b_bar=base.b_bar.tolist(),
                q_bar=base.q_bar.tolist(), r_bar=base.r_bar.tolist(),
                initial={"mean": base.x0.mean},
                noise={"kind": "gaussian", "sigma": 1.0},
            )
            for family in ("additive_variance_2p", "multiplicative_variance_2p"):
                sc = make_scenario(family=family, **common)
                table, gains = solve(sc)
                np.testing.assert_array_equal(table.alpha_bar, t_det.alpha_bar)
                np.testing.assert_array_equal(gains.mean_gain, g_det.mean_gain)

    def test_p1_mean_gain_collapses_to_quadratic_form(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            sc = random_deterministic(rng, max_p=1)
            table, gains = solve(sc)
            b = np.asarray(sc.b_bar)
            r = np.asarray(sc.r_bar)
            for k in range(sc.horizon):
                nxt = table.alpha_bar[:, k + 1]
                quad = nxt * b[:, k] / (r[:, k] + nxt * b[:, k] ** 2)
                np.testing.assert_allclose(gains.c_bar[:, k], quad, rtol=1e-12)

    def test_closed_form_gains_match_dense_solve(self):
        # The coupling matrix E has a unit diagonal and e_ij = c_i b_j; the
        # solver's closed form must agree with a dense solve of E g = c.
        rng = np.random.default_rng(23)
        for _ in range(300):
            agents = int(rng.integers(1, 30))
            p = int(rng.choice([1, 2, 3]))
            sign = rng.choice([-1.0, 1.0], agents)
            sc = make_scenario(
                agents=agents, horizon=int(rng.integers(1, 4)), p=p,
                a_bar=float(rng.uniform(0.5, 1.3)),
                b_bar=(rng.uniform(0.1, 3.0, agents) * sign).tolist(),
                q_bar=rng.uniform(0.1, 5.0, agents).tolist(),
                r_bar=rng.uniform(0.1, 5.0, agents).tolist(),
            )
            table, gains = solve(sc)
            b = np.asarray(sc.b_bar)
            r = np.asarray(sc.r_bar)
            for k in range(sc.horizon):
                y = table.alpha_bar[:, k + 1] * b[:, k] / r[:, k]
                eta = np.sign(y) * np.abs(y) ** (1.0 / (2 * p - 1))
                c = eta / (1.0 + eta * b[:, k])
                e = np.outer(c, b[:, k])
                np.fill_diagonal(e, 1.0)
                np.testing.assert_allclose(gains.c_bar[:, k], c, rtol=1e-12)
                np.testing.assert_allclose(gains.mean_gain[:, k], np.linalg.solve(e, c),
                                           rtol=1e-12)

    def test_p1_deterministic_gain_equals_additive_dev_gain(self):
        sc = make_scenario(
            family="additive_variance_2p", agents=2, horizon=5, p=1,
            b_bar=[1.2, 1.2], q_bar=[2.0, 2.0], r_bar=[3.0, 3.0],
            q_dev=[2.0, 2.0], r_dev=[3.0, 3.0],
            noise={"kind": "gaussian", "sigma": 1.0},
        )
        table, gains = solve(sc)
        np.testing.assert_allclose(gains.mean_gain, gains.dev_gain, rtol=1e-12)


class TestStackedLoop:
    @pytest.mark.parametrize("family", ["deterministic_2p", *NOISE_ON])
    def test_bit_identical_to_lone_channels(self, family):
        # Up to 20 agents, so the b^T eta sums reach the eight-way unrolled
        # part of NumPy's pairwise summation.
        rng = np.random.default_rng(31)
        for _ in range(12):
            agents = int(rng.integers(1, 21))
            horizon = int(rng.integers(1, 15))
            coef = lambda size: (rng.uniform(0.3, 1.4, size)
                                 * rng.choice([-1.0, 1.0], size)).tolist()
            weight = lambda: rng.uniform(0.5, 5.0, (agents, horizon + 1)).tolist()
            kwargs = dict(family=family, agents=agents, horizon=horizon,
                          p=int(rng.integers(1, 5)), a_bar=coef(horizon),
                          b_bar=[coef(horizon) for _ in range(agents)],
                          q_bar=weight(), r_bar=[w[:-1] for w in weight()],
                          q_dev=weight(), r_dev=[w[:-1] for w in weight()],
                          noise={"kind": "gaussian",
                                 "sigma": rng.uniform(0.0, 1.2, horizon).tolist()})
            if family == "general_moment_2o2p":
                kwargs.update(o=int(rng.integers(1, 5)), a_dev=coef(horizon),
                              b_dev=[coef(horizon) for _ in range(agents)])
            sc = make_scenario(**kwargs)
            table, gains = solve(sc)
            mean = lone_channel(2 * sc.p, sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar)
            got = (table.alpha_bar, None, gains.mean_gain, gains.c_bar,
                   gains.closed_loop_mean)
            for want, have in zip(mean, got):
                np.testing.assert_array_equal(have, want)
            if family == "deterministic_2p":
                continue
            want_table, want_gains = lone_solve(sc, NOISE_ON[family])
            for name in ("alpha", "gamma_bar"):
                np.testing.assert_array_equal(getattr(table, name), getattr(want_table, name))
            for name in ("dev_gain", "c", "closed_loop_dev"):
                np.testing.assert_array_equal(getattr(gains, name), getattr(want_gains, name))

    @pytest.mark.parametrize("horizon", [STAGE - 1, STAGE, STAGE + 1, 1000])
    @pytest.mark.parametrize("family", ["deterministic_2p", *NOISE_ON])
    def test_twenty_agents_at_length(self, family, horizon):
        # The staged blocks, the per-block c and the gamma running sum over
        # one block less a step, one block, one block and a step, and
        # wide's I=20, N=1000; the channels take different root orders.
        sc = _twenty_agents(family, horizon, seed=horizon)
        _assert_lone_bits(sc, family, *solve(sc))

    @pytest.mark.parametrize("case", ["mean coefficient", "deviation coefficient",
                                      "mean argument"])
    def test_interior_overflow_names_the_lone_channel_step(self, case):
        # One step halfway through a 1000-step, 20-agent run overflows.  The
        # loop runs on through inf and NaN without a RuntimeWarning, and the
        # error names the channel, agent, step and cause that a lone-channel
        # run shows at the first failing step from the end.
        sc = _twenty_agents("general_moment_2o2p", 1000, seed=3)
        doc, k, agent = _doc(sc), 500, 6
        if case == "mean argument":
            doc["dynamics"]["b_bar"][agent][k] = 1e10
            doc["weights"]["r_bar"][agent][k] = 1e-10
            doc["weights"]["q_bar"][agent][k + 1] = 1e290
        else:
            # a^order = 1e302 at step k overflows agent 7 alone, after its
            # weight at step k + 1 grows by 1e10; at step 200 every agent's
            # coefficient becomes inf, and the NaN runs on to step 0
            row, a, q = (0, "a_bar", "q_bar") if case == "mean coefficient" else (1, "a_dev", "q_dev")
            doc["dynamics"][a][k] = 10.0 ** (302 / sc.channels[row][0])
            doc["weights"][q][agent][k + 1] *= 1e10
            doc["dynamics"][a][200] = 1e200
        sc = build_scenario(doc)
        message = _lone_overflow(sc)
        assert f"for agent {agent + 1} at step {k}" in message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoefficientOverflowError, match=f"^{re.escape(message)}$"):
                solve(sc)


def _twenty_agents(family, horizon, seed):
    """A random 20-agent scenario of ``family`` whose mean and deviation
    channels take different root orders (p != o, and p > 1 where the
    deviation order is 2)."""
    rng = np.random.default_rng(seed)
    agents = 20
    coef = lambda size: (rng.uniform(0.3, 1.4, size) * rng.choice([-1.0, 1.0], size)).tolist()
    weight = lambda: rng.uniform(0.5, 5.0, (agents, horizon + 1)).tolist()
    p = int(rng.integers(2, 5))
    kwargs = dict(family=family, agents=agents, horizon=horizon, p=p, a_bar=coef(horizon),
                  b_bar=[coef(horizon) for _ in range(agents)],
                  q_bar=weight(), r_bar=[w[:-1] for w in weight()],
                  q_dev=weight(), r_dev=[w[:-1] for w in weight()],
                  noise={"kind": "gaussian", "sigma": rng.uniform(0.0, 0.7, horizon).tolist()})
    if family == "general_moment_2o2p":
        kwargs.update(o=int(rng.choice([o for o in range(1, 5) if o != p])),
                      a_dev=coef(horizon), b_dev=[coef(horizon) for _ in range(agents)])
    return build_scenario(scenario_doc(**kwargs))


def _doc(sc):
    """The scenario_doc of a _twenty_agents scenario, with its tables as lists."""
    doc = scenario_doc(family=sc.family.value, agents=sc.agents, horizon=sc.horizon, p=sc.p,
                       o=sc.o, noise={"kind": sc.noise.kind, "sigma": sc.noise.sigma.tolist()})
    for section, names in (("dynamics", ("a_bar", "b_bar", "a_dev", "b_dev")),
                           ("weights", ("q_bar", "r_bar", "q_dev", "r_dev"))):
        doc[section].update({name: getattr(sc, name).tolist() for name in names})
    return doc


def _assert_lone_bits(sc, family, table, gains):
    """Every solve table equals its lone-channel reference bit for bit."""
    mean = lone_channel(2 * sc.p, sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar)
    got = (table.alpha_bar, None, gains.mean_gain, gains.c_bar, gains.closed_loop_mean)
    for want, have in zip(mean, got):
        np.testing.assert_array_equal(have, want)
    if family == "deterministic_2p":
        return
    want_table, want_gains = lone_solve(sc, NOISE_ON[family])
    for name in ("alpha", "gamma_bar"):
        np.testing.assert_array_equal(getattr(table, name), getattr(want_table, name))
    for name in ("dev_gain", "c", "closed_loop_dev"):
        np.testing.assert_array_equal(getattr(gains, name), getattr(want_gains, name))


def _lone_overflow(sc):
    """The overflow message of a lone-channel run of the stochastic ``sc``:
    at the last step k, counting back from N, where a coefficient is above
    1e300 or NaN, the first channel (mean, then deviation) with a
    non-finite best-response argument at k or a failing coefficient, and
    its first such agent."""
    noise_on = NOISE_ON[sc.family.value]
    moment = [noise_even_moment(sc.noise, k + 1, sc.moment_order) for k in range(sc.horizon)]
    a, b = sc.deviation_dynamics
    with np.errstate(all="ignore"):
        rows = [("alpha_bar", sc.b_bar, sc.r_bar, [1.0] * sc.horizon,
                 lone_channel(2 * sc.p, sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar)[0]),
                ("alpha", b, sc.r_dev, moment if "gain" in noise_on else [1.0] * sc.horizon,
                 lone_channel(sc.moment_order, a, b, sc.q_dev, sc.r_dev, moment, noise_on)[0])]
        fails = [~(alpha <= 1e300) for *_, alpha in rows]
        k = int(np.flatnonzero(np.any(fails[0] | fails[1], axis=0))[-1])
        for (name, b, r, scale, alpha), fail in zip(rows, fails):
            arg = alpha[:, k + 1] * b[:, k] * scale[k] / r[:, k] if k < sc.horizon else 0.0
            if not np.all(np.isfinite(arg)):
                agent = np.flatnonzero(~np.isfinite(arg))[0] + 1
                return (f"{name} best-response argument alpha_{{k+1}} b / r (times the noise "
                        f"moment, if any) is not finite for agent {agent} at step {k}")
            if fail[:, k].any():
                agent = np.flatnonzero(fail[:, k])[0] + 1
                return (f"{name} coefficient exceeded 1e+300 for agent {agent} at step {k}; "
                        "closed loop too unstable for this cost order and horizon")


def _pair_residual(sc, table, gains, i, k):
    """Reference: agent i's residual at step k alone, at unit state, with the
    dynamics coefficient kept in both terms."""
    residuals = []
    for (order, a, b, _, r), alpha, gain, scale in zip(
            sc.channels, (table.alpha_bar, table.alpha), (gains.mean_gain, gains.dev_gain),
            sc.push_rows[:, 1, k]):
        u = -gain[:, k] * a[k]
        inner = a[k] + np.add.reduce(b[:, k] * u)
        t1 = r[i, k] * u[i] ** (order - 1)
        t2 = alpha[i, k + 1] * scale * b[i, k] * inner ** (order - 1)
        bottom = max(abs(t1), abs(t2))
        residuals.append(0.0 if bottom == 0.0 else abs(t1 + t2) / bottom)
    return max(residuals)


class TestStationarity:
    def test_table_matches_pair_reference(self, det_two_agent, additive_two_agent,
                                          multiplicative_two_agent, general_two_agent):
        # a != 0 throughout, so the reference's a^(o-1) factor cancels too
        for sc in (det_two_agent, additive_two_agent, multiplicative_two_agent,
                   general_two_agent, make_scenario(agents=3, horizon=4, p=3, a_bar=-0.7,
                                                    b_bar=[1.2, -0.5, 0.8])):
            table, gains = solve(sc)
            for schedule in (gains, inject_gain_scaling(gains, 0, None, 1.2),
                             inject_gain_scaling(gains, 1, 3, 0.9)):
                want = [[_pair_residual(sc, table, schedule, i, k) for k in range(sc.horizon)]
                        for i in range(sc.agents)]
                np.testing.assert_allclose(stationarity_residual(sc, table, schedule), want,
                                           rtol=1e-12, atol=1e-13, err_msg=str(sc.family))

    def test_zero_at_solution(self, one_step_unit):
        table, gains = solve(one_step_unit)
        assert stationarity_residual(one_step_unit, table, gains, 0, 0) <= 1e-12

    def test_all_families_below_tolerance(self, det_two_agent, additive_two_agent,
                                          multiplicative_two_agent, general_two_agent):
        for sc in (det_two_agent, additive_two_agent, multiplicative_two_agent,
                   general_two_agent):
            table, gains = solve(sc)
            worst = max(
                stationarity_residual(sc, table, gains, i, k)
                for i in range(sc.agents) for k in range(sc.horizon)
            )
            assert worst <= 1e-9

    def test_pairs_index_the_whole_table(self, multiplicative_two_agent):
        sc = multiplicative_two_agent
        table, gains = solve(sc)
        for schedule in (gains, inject_gain_scaling(gains, 1, 3, 1.2)):
            whole = stationarity_residual(sc, table, schedule)
            assert whole.shape == (sc.agents, sc.horizon)
            pairs = [[stationarity_residual(sc, table, schedule, i, k) for k in range(sc.horizon)]
                     for i in range(sc.agents)]
            assert all(isinstance(value, float) for row in pairs for value in row)
            np.testing.assert_array_equal(whole, pairs)
        assert np.unravel_index(np.argmax(whole), whole.shape) == (1, 3)

    def test_perturbed_gains_detected(self, one_step_unit):
        table, gains = solve(one_step_unit)
        corrupted = inject_gain_scaling(gains, 0, None, 1.1)
        assert stationarity_residual(one_step_unit, table, corrupted, 0, 0) > 1e-3

    def test_zero_control_exactly_stationary(self):
        sc = make_scenario(agents=2, horizon=3, p=2, b_bar=[0.0, 0.0])
        table, gains = solve(sc)
        assert stationarity_residual(sc, table, gains, 0, 0) == 0.0
