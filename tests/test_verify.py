import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from mftg import (
    DeviationGrid,
    bellman_identity_check,
    evaluate_cost,
    inject_gain_scaling,
    load_scenario,
    propagate_mean,
    run_ensemble,
    run_verification,
    sample_convexity,
    solve,
    unilateral_deviation_test,
)
from mftg.errors import CoefficientOverflowError, SchemaError
from mftg.numerics import even_power, noise_even_moment
from mftg.scenario import Family
from mftg.simulate import initial_central_moment
from mftg.verify import BELLMAN_TOL, _channel_costs, _closed_loop, _min_curvature, _push
from conftest import SCENARIOS, lone_solve, make_scenario, random_deterministic
from oracles import brute_force_one_step, lq_reduction_check
from test_properties import scenario_docs
from test_variants import EXPLICIT_GENERAL


SMALL_GRID = DeviationGrid(points=41, span=0.2, per_step=True)


class TestUnilateralDeviation:
    def test_one_step_equilibrium_is_grid_optimal(self, one_step_unit):
        _, gains = solve(one_step_unit)
        report = unilateral_deviation_test(one_step_unit, gains, 0)
        assert report.margin <= 1e-12
        assert report.passed

    def test_corrupted_gain_is_detected(self, one_step_unit):
        _, gains = solve(one_step_unit)
        corrupted = inject_gain_scaling(gains, 0, None, 1.2)
        report = unilateral_deviation_test(one_step_unit, corrupted, 0)
        assert report.margin > report.tolerance
        assert not report.passed

    def test_grid_middle_is_exactly_one(self):
        for span in (0.2, 1.3):
            assert DeviationGrid(points=3, span=span).factors()[1] == 1.0

    def test_zero_control_channel_margin_zero(self):
        sc = make_scenario(agents=2, horizon=3, p=2, b_bar=[0.0, 0.0])
        _, gains = solve(sc)
        report = unilateral_deviation_test(sc, gains, 0)
        assert report.margin == 0.0

    def test_stochastic_families_pass_with_common_noise(
            self, additive_two_agent, multiplicative_two_agent, general_two_agent):
        for sc in (additive_two_agent, multiplicative_two_agent, general_two_agent):
            _, gains = solve(sc)
            for agent in range(sc.agents):
                report = unilateral_deviation_test(sc, gains, agent, SMALL_GRID)
                assert report.passed, (sc.family, agent, report)

    def test_stochastic_corruption_detected(self, additive_two_agent):
        _, gains = solve(additive_two_agent)
        corrupted = inject_gain_scaling(gains, 1, None, 1.2)
        report = unilateral_deviation_test(additive_two_agent, corrupted, 1, SMALL_GRID)
        assert not report.passed

    def test_equilibrium_cost_is_cost_to_go(
            self, det_two_agent, additive_two_agent, multiplicative_two_agent,
            general_two_agent):
        for sc in (det_two_agent, additive_two_agent, multiplicative_two_agent,
                   general_two_agent):
            table, gains = solve(sc)
            if sc.family.stochastic:
                data = run_ensemble(sc, gains, paths=2)
            else:
                data = propagate_mean(sc, gains)
            for b in evaluate_cost(sc, data, table):
                report = unilateral_deviation_test(sc, gains, b.agent, SMALL_GRID)
                assert report.equilibrium_cost == pytest.approx(b.predicted, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["additive_two_agent", "multiplicative_two_agent",
                                         "general_two_agent"])
    def test_exact_scan_matches_sampled_dynamics(self, fixture, request):
        # Agent 1's gains are scaled off equilibrium, so the forward model is
        # checked against simulated paths rather than the backward tables.
        sc = request.getfixturevalue(fixture)
        table, gains = solve(sc)
        scaled = replace(
            gains,
            mean_gain=gains.mean_gain * np.array([[0.9], [1.0]]),
            dev_gain=gains.dev_gain * np.array([[0.9], [1.0]]),
        )
        ensemble = run_ensemble(sc, scaled, paths=10_000)
        for b in evaluate_cost(sc, ensemble, table):
            report = unilateral_deviation_test(sc, scaled, b.agent, SMALL_GRID)
            assert abs(report.equilibrium_cost - b.total) <= 3.0 * b.std_error, (b, report)


class TestBruteForceOneStep:
    def test_derived_deterministic_game(self, one_step_unit):
        sol = brute_force_one_step(one_step_unit)
        np.testing.assert_allclose(sol.mean_gain, 1 / 3, atol=1e-8)
        np.testing.assert_allclose(sol.mean_value, 83 / 81, atol=1e-8)

    def test_additive_scalar_quadratic(self):
        sc = make_scenario(family="additive_variance_2p", agents=1, horizon=1,
                           p=1, noise={"kind": "gaussian", "sigma": 0.0})
        sol = brute_force_one_step(sc)
        assert sol.dev_gain[0] == pytest.approx(0.5, abs=1e-8)
        assert sol.dev_value[0] == pytest.approx(1.5, abs=1e-8)

    def test_general_family_unit_second_moment(self):
        sc = make_scenario(family="general_moment_2o2p", agents=1, horizon=1,
                           p=1, o=1, noise={"kind": "gaussian", "sigma": 1.0})
        sol = brute_force_one_step(sc)
        assert sol.dev_gain[0] == pytest.approx(0.5, abs=1e-8)
        assert sol.dev_value[0] == pytest.approx(1.5, abs=1e-8)

    def test_general_family_needs_only_its_own_moment(self):
        # An explicit table without order 2: the general family prices E[eps^4] only.
        sc = make_scenario(family="general_moment_2o2p", agents=2, horizon=1, p=2, o=2,
                           a_dev=0.9, noise={"kind": "explicit_moments", "sigma": 1.0,
                                             "moments": {4: 3.0}})
        _, gains = solve(sc)
        sol = brute_force_one_step(sc)
        assert sol.converged
        np.testing.assert_allclose(sol.dev_gain, gains.dev_gain[:, 0], atol=1e-6)

    def test_rejects_longer_horizons(self, det_two_agent):
        with pytest.raises(ValueError):
            brute_force_one_step(det_two_agent)

    @pytest.mark.parametrize("family", [
        "deterministic_2p", "additive_variance_2p",
        "multiplicative_variance_2p", "general_moment_2o2p",
    ])
    def test_oracle_agreement_on_random_instances(self, family):
        # crc32, unlike hash(), does not change with PYTHONHASHSEED
        rng = np.random.default_rng(zlib.crc32(family.encode()))
        for _ in range(50):
            p = int(rng.integers(1, 4))
            coef = lambda: float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            weight = lambda: [float(rng.uniform(0.5, 5.0)) for _ in range(2)]
            kwargs = dict(
                family=family, agents=2, horizon=1, p=p,
                a_bar=coef(), b_bar=[coef(), coef()],
                q_bar=weight(), r_bar=weight(),
                initial={"mean": 1.0},
            )
            if family != "deterministic_2p":
                kwargs["q_dev"] = weight()
                kwargs["r_dev"] = weight()
                kwargs["noise"] = {"kind": "gaussian",
                                   "sigma": float(rng.uniform(0.1, 1.5))}
            if family == "general_moment_2o2p":
                kwargs["o"] = int(rng.integers(1, 4))
                kwargs["a_dev"] = coef()
                kwargs["b_dev"] = [coef(), coef()]
            sc = make_scenario(**kwargs)
            _, gains = solve(sc)
            sol = brute_force_one_step(sc)
            assert sol.converged
            np.testing.assert_allclose(sol.mean_gain, gains.mean_gain[:, 0], atol=1e-6)
            if gains.dev_gain is not None:
                np.testing.assert_allclose(sol.dev_gain, gains.dev_gain[:, 0], atol=1e-6)

    def test_slow_additive_instance_converges(self):
        # A draw on which a minimizer working from function values alone
        # stalled near sqrt(eps): 100 unconverged rounds, dev_gain 1.3e-6 off.
        sc = make_scenario(
            family="additive_variance_2p", agents=2, horizon=1, p=3,
            a_bar=0.9224757677062101, b_bar=[-0.7325336854422237, 0.9878093161953807],
            q_bar=[2.6808649731049097, 1.051708032214096],
            r_bar=[2.842019090856849, 1.185818452973289],
            q_dev=[4.744335683773478, 1.840588339662054],
            r_dev=[0.5446130351281463, 4.328310067217451],
            noise={"kind": "gaussian", "sigma": 1.2425642816681992},
            initial={"mean": 1.0},
        )
        _, gains = solve(sc)
        sol = brute_force_one_step(sc)
        assert sol.converged
        np.testing.assert_allclose(sol.mean_gain, gains.mean_gain[:, 0], atol=1e-6)
        np.testing.assert_allclose(sol.dev_gain, gains.dev_gain[:, 0], atol=1e-6)

    def test_weight_scaling_leaves_gains_unchanged(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            sc = random_deterministic(rng, max_agents=3, max_horizon=6)
            _, gains = solve(sc)
            lam = float(rng.uniform(0.1, 10.0))
            scaled = make_scenario(
                family="deterministic_2p", agents=sc.agents, horizon=sc.horizon,
                p=sc.p, a_bar=sc.a_bar.tolist(), b_bar=sc.b_bar.tolist(),
                q_bar=[[lam * v for v in row] if i == 0 else row
                       for i, row in enumerate(sc.q_bar.tolist())],
                r_bar=[[lam * v for v in row] if i == 0 else row
                       for i, row in enumerate(sc.r_bar.tolist())],
                initial={"mean": sc.x0.mean},
            )
            _, gains2 = solve(scaled)
            np.testing.assert_allclose(gains2.mean_gain[0], gains.mean_gain[0],
                                       rtol=1e-12)


class TestLqReduction:
    def test_scalar_riccati_agreement(self):
        sc = make_scenario(agents=1, horizon=5, p=1, a_bar=1.1, b_bar=[1.0])
        result = lq_reduction_check(sc)
        assert result.passed
        assert result.max_discrepancy <= 1e-12

    def test_long_horizon_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            sc = make_scenario(
                agents=1, horizon=50, p=1,
                a_bar=[float(rng.uniform(0.8, 1.2)) for _ in range(50)],
                b_bar=[[float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
                        for _ in range(50)]],
                q_bar=[[float(rng.uniform(0.5, 5.0)) for _ in range(51)]],
                r_bar=[[float(rng.uniform(0.5, 5.0)) for _ in range(50)]],
            )
            result = lq_reduction_check(sc)
            assert result.passed, result

    def test_two_agent_gain_collapse(self):
        sc = make_scenario(agents=2, horizon=4, p=1, b_bar=[1.2, -0.7],
                           q_bar=[2.0, 3.0], r_bar=[1.0, 2.0])
        assert lq_reduction_check(sc).passed

    def test_refuses_higher_order(self, det_two_agent):
        with pytest.raises(ValueError):
            lq_reduction_check(det_two_agent)


class TestBellmanIdentity:
    def test_deterministic_below_tolerance(self, det_two_agent):
        table, gains = solve(det_two_agent)
        for k in range(det_two_agent.horizon):
            assert bellman_identity_check(det_two_agent, table, gains, k) <= 1e-10

    def test_additive_gamma_isolation_probe(self, additive_two_agent):
        sc = additive_two_agent
        table, gains = solve(sc)
        for k in range(sc.horizon):
            residual = bellman_identity_check(sc, table, gains, k,
                                              probes=[(0.0, 0.0)])
            assert residual <= 1e-12

    def test_no_probe_states_rejected(self, multiplicative_two_agent):
        # An empty probe set would report residual 0 and pass vacuously.
        table, gains = solve(multiplicative_two_agent)
        with pytest.raises(SchemaError):
            bellman_identity_check(multiplicative_two_agent, table, gains, 0, probes=())

    @pytest.mark.parametrize("name", ["deterministic_two_agent", "additive_two_agent",
                                      "multiplicative_two_agent", "general_moment_two_agent"])
    def test_steps_index_the_whole_table(self, name):
        sc = load_scenario((SCENARIOS / f"{name}.yaml").read_text())
        table, gains = solve(sc)
        for schedule in (gains, inject_gain_scaling(gains, 1, 3, 1.2)):
            whole = bellman_identity_check(sc, table, schedule)
            steps = [bellman_identity_check(sc, table, schedule, k) for k in range(sc.horizon)]
            assert all(type(value) is float for value in steps)
            assert np.array(steps).tobytes() == whole.tobytes()
        # a NaN gain fails its own step's row and no other
        mean_gain = np.array(gains.mean_gain)
        mean_gain[0, 2] = np.nan
        whole = bellman_identity_check(sc, table, replace(gains, mean_gain=mean_gain))
        assert [not value <= BELLMAN_TOL for value in whole] == \
            [k == 2 for k in range(sc.horizon)]

    def test_all_families_below_tolerance(self, additive_two_agent,
                                          multiplicative_two_agent,
                                          general_two_agent):
        for sc in (additive_two_agent, multiplicative_two_agent, general_two_agent):
            table, gains = solve(sc)
            worst = np.max(bellman_identity_check(sc, table, gains))
            assert worst <= 1e-10, sc.family

    def test_arbitrates_noise_factor_placement(self, general_two_agent):
        # Gaussian noise with o=2 separates the two candidate recursions:
        # only the one carrying the order-2o moment satisfies the identity.
        sc = general_two_agent
        # The negative control is the lone-channel reference without the
        # closed-loop factor.
        residuals = {}
        for shipped, (table, gains) in ((True, solve(sc)),
                                        (False, lone_solve(sc, noise_on=("gain",)))):
            residuals[shipped] = np.max(bellman_identity_check(sc, table, gains))
        assert residuals[True] <= 1e-10
        assert residuals[False] > 1e-3


class TestAggregateReport:
    def test_report_passes_on_examples(self, det_two_agent, additive_two_agent):
        for sc in (det_two_agent, additive_two_agent):
            table, gains = solve(sc)
            report = run_verification(sc, table, gains, grid=SMALL_GRID)
            assert report.passed, report.failures()
            assert report.stationarity.shape == (sc.agents, sc.horizon)
            assert np.max(report.stationarity) <= 1e-9
            assert report.convexity_min > 0.0

    def test_report_fails_with_injected_corruption(self, det_two_agent):
        table, gains = solve(det_two_agent)
        corrupted = inject_gain_scaling(gains, 0, None, 1.2)
        report = run_verification(det_two_agent, table, corrupted, grid=SMALL_GRID)
        assert not report.passed
        assert any("deviation margin" in msg for msg in report.failures())

    def test_passed_reads_the_verdict_table(self, det_two_agent):
        table, gains = solve(det_two_agent)
        for schedule in (gains, inject_gain_scaling(gains, 0, None, 1.2)):
            report = run_verification(det_two_agent, table, schedule, grid=SMALL_GRID)
            assert report.passed == all(check.passed for check in report.checks)

    @pytest.mark.parametrize("section, field, value", [
        ("deviation", "deviation", 1.0),  # agent 1's margin only
        ("stationarity", "stationarity", 2e-9),  # agent 2 at step 2 only
        ("positivity", "positivity_ok", False),
        ("convexity", "convexity_min", 0.0),
        ("bellman", "bellman_max_per_step", 2e-10),  # at step 2 only
    ])
    def test_each_section_fails_alone(self, det_two_agent, section, field, value):
        table, gains = solve(det_two_agent)
        report = run_verification(det_two_agent, table, gains, grid=SMALL_GRID)
        assert report.passed
        where = {"deviation": ("1", ""), "stationarity": ("2", "2"),
                 "bellman": ("", "2")}.get(section, ("", ""))
        if section == "deviation":
            # a stored verdict would keep the pass of the replaced margin
            value = [replace(d, margin=value) if d.agent == 0 else d for d in report.deviation]
        if section == "stationarity":
            value = np.where((np.arange(det_two_agent.agents)[:, None] == 1)
                             & (np.arange(det_two_agent.horizon) == 2), value, report.stationarity)
        if section == "bellman":
            value = np.where(np.arange(det_two_agent.horizon) == 2, value,
                             report.bellman_max_per_step)
        broken = replace(report, **{field: value})
        assert not broken.passed
        failures = broken.failures()
        assert len(failures) == 1 and failures[0].startswith(f"{section} ")
        rows = {"deviation": det_two_agent.agents, "bellman": det_two_agent.horizon}
        shown = {"deviation": " for agent 1", "stationarity": " for agent 2 at step 2",
                 "bellman": " at step 2"}.get(section, "")
        assert failures[0].endswith(f"){shown}: 1 of {rows.get(section, 1)} rows fail")
        assert [line for line in broken.summary() if line.startswith(f"{section} ")] == failures
        assert [(check.section, check.agent, check.step)
                for check in broken.checks if not check.passed] == [(section, *where)]

    def test_single_power_objectives_verify(self):
        # a_bar = 0 (p = 2) and zero general-moment noise (o = 2) leave
        # single even powers centred at 0: strictly convex, with zero
        # curvature only at the centre
        for sc in (
            make_scenario(agents=2, horizon=3, p=2, a_bar=0.0, b_bar=[1.0, -0.5]),
            make_scenario(family="general_moment_2o2p", agents=2, horizon=3, p=1, o=2,
                          noise={"kind": "gaussian", "sigma": 0.0},
                          initial={"mean": 1.0, "kind": "gaussian_around_mean",
                                   "variance": 1.0}),
        ):
            table, gains = solve(sc)
            report = run_verification(sc, table, gains, grid=SMALL_GRID)
            assert report.passed, report.failures()

    def test_convexity_sampler_positive_across_families(
            self, multiplicative_two_agent, general_two_agent):
        for sc in (multiplicative_two_agent, general_two_agent):
            table, gains = solve(sc)
            assert sample_convexity(sc, table, gains) > 0.0


# ---------------------------------------------------------------------------
# the closed-loop layer against the per-step and per-pair code it replaced


def _push_dev_moment(sc, k, clf, m):
    """Reference: E[d_{k+1}^mo] from m = E[d_k^mo] under the deviation
    closed-loop factor clf, one family formula each."""
    mo = sc.moment_order
    if sc.family is Family.ADDITIVE:
        return even_power(clf, 2) * m + noise_even_moment(sc.noise, k + 1, 2)
    if sc.family is Family.MULTIPLICATIVE:
        return (even_power(clf, 2) + noise_even_moment(sc.noise, k + 1, 2)) * m
    return even_power(clf, mo) * m * noise_even_moment(sc.noise, k + 1, mo)


def _min_curvature_per_pair(order, b, r, weight, gain):
    """Reference: the convexity sampler as one loop over (step, agent), per
    unit of the dynamics coefficient."""
    worst = np.inf
    for k in range(b.shape[1]):
        w_eq = -gain[:, k]
        for i in range(len(w_eq)):
            if b[i, k] == 0.0:
                continue
            rest = 1.0 + np.add.reduce(b[:, k] * w_eq) - b[i, k] * w_eq[i]
            width = 2.0 * max(1.0, abs(w_eq[i]))
            grid = np.concatenate([
                np.linspace(w_eq[i] - width, w_eq[i] + width, 9),
                [0.0, -rest / b[i, k]],
            ])
            if rest == 0.0 or weight[i, k] == 0.0:
                grid = grid[grid != 0.0]
            curvature = order * (order - 1) * (
                r[i, k] * grid ** (order - 2)
                + weight[i, k] * even_power(b[i, k], 2) * (rest + b[i, k] * grid) ** (order - 2)
            )
            worst = min(worst, float(np.min(curvature)))
    return worst


def _assert_layer_matches_references(sc):
    table, gains = solve(sc)
    _, factor, push = _closed_loop(sc, gains, slice(None))
    weights = [table.alpha_bar[:, 1:]]
    if sc.family.stochastic:
        moments = np.array([0.0, 0.5, 2.0])
        want = np.array([[_push_dev_moment(sc, k, factor[1, k], m) for m in moments]
                         for k in range(sc.horizon)])
        got = np.array([_push(push[1, :, k], factor[1, k], sc.moment_order, moments)
                        for k in range(sc.horizon)])
        np.testing.assert_array_equal(got, want)
        weights.append(table.alpha[:, 1:] * push[1, 1])
    for (order, _, b, _, r), gain, weight in zip(sc.channels, (gains.mean_gain, gains.dev_gain),
                                                 weights):
        np.testing.assert_array_equal(_min_curvature(order, b, r, weight, gain),
                                      _min_curvature_per_pair(order, b, r, weight, gain))


class TestClosedLoopLayer:
    @pytest.mark.parametrize("name", ["deterministic_two_agent", "additive_two_agent",
                                      "multiplicative_two_agent", "general_moment_two_agent"])
    def test_shipped_scenarios_match_references(self, name):
        _assert_layer_matches_references(
            load_scenario((SCENARIOS / f"{name}.yaml").read_text()))

    @pytest.mark.parametrize("family", ["deterministic_2p", "additive_variance_2p",
                                        "multiplicative_variance_2p", "general_moment_2o2p"])
    def test_zero_control_and_zero_rest_match_references(self, family):
        # agent 2 has b = 0 at every step, and a = 0 leaves each rest term 0
        general = {}
        if family == "general_moment_2o2p":
            general = dict(o=2, a_dev=0.0, b_dev=[0.8, 0.0, 1.1])
        for a_bar in (0.0, 0.9):
            sc = make_scenario(family=family, agents=3, horizon=4, p=2, a_bar=a_bar,
                               b_bar=[1.2, 0.0, -0.7], **general)
            _assert_layer_matches_references(sc)

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(scenario_docs())
    def test_bounded_draws_match_references(self, doc):
        sc = load_scenario(yaml.safe_dump(doc))
        try:
            _assert_layer_matches_references(sc)
        except CoefficientOverflowError:
            pass

    def test_factor_read_from_gains_not_audit_fields(self, det_two_agent):
        # An injected gain leaves closed_loop_mean as solved; the layer
        # follows the gains.
        sc = det_two_agent
        _, gains = solve(sc)
        _, factor, _ = _closed_loop(sc, gains, slice(None))
        np.testing.assert_array_equal(factor[0], gains.closed_loop_mean)
        corrupted = inject_gain_scaling(gains, 0, None, 1.2)
        _, factor, _ = _closed_loop(sc, corrupted, slice(None))
        want = sc.a_bar * (1.0 - np.sum(sc.b_bar * corrupted.mean_gain, axis=0))
        np.testing.assert_allclose(factor[0], want, rtol=1e-14)
        assert not np.any(factor[0] == gains.closed_loop_mean)


# ---------------------------------------------------------------------------
# the deviation scan against a forward replay of every row


def _replay_channel_costs(sc, gains, agent, factors):
    """Reference: each channel's (1 + N, factors) scan costs, every row
    replayed forward from the initial state, O(N^2) per factor.  The mean
    is carried as the state, the deviation as its moment."""
    n = sc.horizon
    shape = (1 + n, factors.size)
    p2 = 2 * sc.p
    mo = sc.moment_order
    a_bar, b_bar, q_bar, r_bar = sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar
    stochastic = sc.family.stochastic
    coupling = [np.add.reduce(b_bar * gains.mean_gain, axis=0)]
    if stochastic:
        a_d, b_d = sc.deviation_dynamics
        coupling.append(np.add.reduce(b_d * gains.dev_gain, axis=0))
        q_dev, r_dev = sc.q_dev, sc.r_dev
        m = np.full(shape, initial_central_moment(sc.x0, mo))
        dev = np.zeros(shape)
    xb = np.full(shape, float(sc.x0.mean))
    mean = np.zeros(shape)

    def closed_loop(a, b_g_sum, b_g, f):
        return a - a * (b_g_sum + b_g * (f - 1.0))

    for k in range(n):
        f = np.ones(shape)
        f[0] = factors
        f[1 + k] = factors
        g, s = gains.mean_gain[agent, k], a_bar[k]
        mean += (q_bar[agent, k] * even_power(xb, p2)
                 + r_bar[agent, k] * even_power(f * g * s * xb, p2))
        xb = closed_loop(s, coupling[0][k], b_bar[agent, k] * g, f) * xb
        if stochastic:
            g, s = gains.dev_gain[agent, k], a_d[k]
            dev += (q_dev[agent, k] + r_dev[agent, k] * even_power(f * g * s, mo)) * m
            clf = closed_loop(s, coupling[1][k], b_d[agent, k] * g, f)
            m = _push_dev_moment(sc, k, clf, m)
    mean += q_bar[agent, n] * even_power(xb, p2)
    if not stochastic:
        return [("mean", mean)]
    dev += q_dev[agent, n] * m
    return [("mean", mean), ("deviation", dev)]


def _gain_variants(sc):
    """The equilibrium gains, every mean gain scaled by 1.2, and (with a
    deviation channel) every deviation gain scaled by 1.3."""
    _, gains = solve(sc)
    variants = [gains, inject_gain_scaling(gains, 0, None, 1.2)]
    if gains.dev_gain is not None:
        variants.append(replace(gains, dev_gain=gains.dev_gain * 1.3))
    return variants


def _scan_tables(sc, gains, factors):
    """Each channel's (agent, 1 + N, factors) scan costs, built from the
    yielded (agent, factors) tables: row 0 uniform, row 1 + k step k."""
    tables = {}
    for name, k, cost in _channel_costs(sc, gains, np.arange(sc.agents), factors, True):
        table = tables.setdefault(name, np.empty((sc.agents, 1 + sc.horizon, factors.size)))
        table[:, 0 if k is None else 1 + k] = cost
    return list(tables.items())


def _assert_scan_matches_replay(sc, grid=SMALL_GRID):
    factors = grid.factors()
    for gains in _gain_variants(sc):
        tables = _scan_tables(sc, gains, factors)
        for agent in range(sc.agents):
            got = [(name, table[agent]) for name, table in tables]
            want = _replay_channel_costs(sc, gains, agent, factors)
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, cost), (_, reference) in zip(got, want):
                np.testing.assert_allclose(cost, reference, rtol=1e-12, atol=0.0,
                                           err_msg=f"{name} channel, agent {agent}")


class TestScanAgainstReplay:
    @pytest.mark.parametrize("name", ["deterministic_two_agent", "additive_two_agent",
                                      "multiplicative_two_agent", "general_moment_two_agent"])
    def test_shipped_scenarios(self, name):
        _assert_scan_matches_replay(load_scenario((SCENARIOS / f"{name}.yaml").read_text()),
                                    DeviationGrid())

    def test_explicit_general_moments(self):
        _assert_scan_matches_replay(make_scenario(**EXPLICIT_GENERAL, initial={
            "mean": 3.0, "kind": "gaussian_around_mean", "variance": 1.0}))

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(scenario_docs(max_horizon=12))
    def test_bounded_draws(self, doc):
        sc = load_scenario(yaml.safe_dump(doc))
        try:
            solve(sc)
        except CoefficientOverflowError:
            return
        _assert_scan_matches_replay(sc)


SHIPPED = ["deterministic_two_agent", "additive_two_agent", "multiplicative_two_agent",
           "general_moment_two_agent"]


class TestSingleStepCorruption:
    """A gain corrupted at one step is found by that step's row.  Only the
    first steps are checked: the mean state decays, so the cost is flat in
    the gains of later steps."""

    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("step", [0, 1])
    def test_mean_gain(self, name, step):
        sc = load_scenario((SCENARIOS / f"{name}.yaml").read_text())
        _, gains = solve(sc)
        for agent in range(sc.agents):
            corrupted = inject_gain_scaling(gains, agent, step, 1.2)
            report = unilateral_deviation_test(sc, corrupted, agent)
            assert not report.passed, (agent, report)
            assert (report.channel, report.step) == ("mean", step), (agent, report)
            assert report.check[1:4] == ("margin_mean", str(agent + 1), str(step)), report

    @pytest.mark.parametrize("name", SHIPPED[1:])
    def test_deviation_gain(self, name):
        sc = load_scenario((SCENARIOS / f"{name}.yaml").read_text())
        _, gains = solve(sc)
        for agent in range(sc.agents):
            dev_gain = np.array(gains.dev_gain)
            dev_gain[agent, 1] *= 1.2
            report = unilateral_deviation_test(sc, replace(gains, dev_gain=dev_gain), agent)
            assert not report.passed, (agent, report)
            assert (report.channel, report.step) == ("deviation", 1), (agent, report)
            assert report.check[1:4] == ("margin_deviation", str(agent + 1), "1"), report


# The sections of `verify` that fail with agent 1's deviation gain scaled
# by 1.2 over the whole schedule, at step 0 or at the last step.
# Stationarity and the one-step identity catch every case.  The deviation
# scan misses step 0 of the additive scenario, whose deviation starts at
# d_0 = 0, so that gain is never used; and the last step of the
# general-moment scenario, where E[d**mo] is about 1e-16 and the cost is
# flat in that gain to roundoff.
DEV_INJECTION_MISSES_SCAN = {("additive_two_agent", "first"),
                             ("general_moment_two_agent", "last")}


@pytest.mark.parametrize("name", SHIPPED[1:])
@pytest.mark.parametrize("where", ["whole", "first", "last"])
def test_deviation_gain_injection_fails_verify(name, where):
    sc = load_scenario((SCENARIOS / f"{name}.yaml").read_text())
    table, gains = solve(sc)
    step = {"whole": None, "first": 0, "last": sc.horizon - 1}[where]
    corrupted = inject_gain_scaling(gains, 0, step, 1.2, channel="dev")
    assert corrupted.mean_gain is gains.mean_gain
    scaled = np.zeros(gains.dev_gain.shape, dtype=bool)
    scaled[0, slice(None) if step is None else step] = True
    np.testing.assert_array_equal(corrupted.dev_gain != gains.dev_gain, scaled)
    report = run_verification(sc, table, corrupted)
    failing = list(dict.fromkeys(check[0] for check in report.checks if not check.passed))
    want = ["deviation", "stationarity", "bellman"]
    if (name, where) in DEV_INJECTION_MISSES_SCAN:
        want.remove("deviation")
    assert failing == want


@pytest.mark.parametrize("name", SHIPPED[1:])
def test_nan_deviation_gain_names_the_deviation_channel(name):
    # The mean channel's margins are numbers and the deviation channel's
    # are NaN: the worst row is the deviation channel's first NaN, its
    # uniform mode, never a mean-channel number.
    sc = load_scenario((SCENARIOS / f"{name}.yaml").read_text())
    _, gains = solve(sc)
    corrupted = inject_gain_scaling(gains, 0, 2, float("nan"), channel="dev")
    report = unilateral_deviation_test(sc, corrupted, 0)
    assert (report.channel, report.step) == ("deviation", None), report
    assert report.check[1:5] == ("margin_deviation", "1", "", "nan"), report
    assert not report.passed


def test_injection_channel_is_checked(det_two_agent):
    _, gains = solve(det_two_agent)
    with pytest.raises(ValueError, match="channel"):
        inject_gain_scaling(gains, 0, None, 1.2, channel="deviation")
    with pytest.raises(ValueError, match="no deviation gains"):
        inject_gain_scaling(gains, 0, None, 1.2, channel="dev")


class TestWholeTableScan:
    """``slice(None)`` scans every agent in one pass, and holds (agent,
    factor) tables only."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_reports_equal_the_per_agent_calls(self, name):
        sc = load_scenario((SCENARIOS / f"{name}.yaml").read_text())
        _, gains = solve(sc)
        for variant in (gains, inject_gain_scaling(gains, 0, None, 1.2),
                        inject_gain_scaling(gains, 0, 2, float("nan"))):
            reports = unilateral_deviation_test(sc, variant, slice(None))
            assert [report.agent for report in reports] == list(range(sc.agents))
            assert [repr(report) for report in reports] == [
                repr(unilateral_deviation_test(sc, variant, agent)) for agent in range(sc.agents)]
        assert np.isnan(reports[0].margin) and not reports[0].passed

    def test_no_agent_step_factor_table(self):
        sc = make_scenario(family="general_moment_2o2p", agents=8, horizon=400, o=2, a_bar=0.9,
                           a_dev=0.9, noise={"kind": "gaussian", "sigma": 0.5},
                           initial={"mean": 2.0, "kind": "gaussian_around_mean",
                                    "variance": 1.0})
        _, gains = solve(sc)
        grid = DeviationGrid()
        tracemalloc.start()
        try:
            unilateral_deviation_test(sc, gains, slice(None), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = sc.agents * sc.horizon * grid.points * np.dtype(float).itemsize
        assert peak < table / 2, (peak, table)
