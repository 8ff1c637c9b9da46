import numpy as np
import pytest

import mftg.simulate
from mftg import (
    NumericDomainError,
    ResourceLimitError,
    evaluate_cost,
    initial_central_moment,
    propagate_mean,
    run_ensemble,
    solve,
)
from mftg.cli import main
from mftg.numerics import even_power
from mftg.scenario import Family, InitialLaw
from mftg.simulate import CHUNK_SIZE
from conftest import SCENARIOS, make_scenario, random_deterministic

STATISTICS = ("emp_mean", "dev_m2", "dev_m2o", "u_mean", "u_dev_m2", "u_dev_m2o")


# The path-major block kernel that run_ensemble's step-major kernel replaced,
# kept as its reference: paths (B, N+1), controls (I, B, N) and per-path
# costs must agree with it bit for bit.
def _reference_draws(sc, seed, lo, hi):
    rows, n = hi - lo, sc.horizon
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
        eps = rng.standard_normal((rows, n))
    elif kind == "rademacher":
        eps = 2.0 * rng.integers(0, 2, (rows, n)) - 1.0
    else:
        eps = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (rows, n))
    eps *= sc.noise.sigma
    return x0, eps


def _reference_chunk(sc, gains, mean, seed, lo, hi):
    x = np.empty((hi - lo, sc.horizon + 1))
    u = np.empty((sc.agents, hi - lo, sc.horizon))
    x0, eps = _reference_draws(sc, seed, lo, hi)
    x[:, 0] = x0
    g_dev = gains.dev_gain
    a, b = sc.deviation_dynamics
    for k in range(sc.horizon):
        gain = g_dev[:, k] * a[k]
        d = x[:, k] - mean.x_bar[k]
        u[:, :, k] = mean.u_bar[:, k][:, None] - gain[:, None] * d[None, :]
        dev_next = a[k] * d - (b[:, k] @ gain) * d
        if sc.family is Family.ADDITIVE:
            dev_next += eps[:, k]
        elif sc.family is Family.MULTIPLICATIVE:
            dev_next += d * eps[:, k]
        else:
            dev_next *= eps[:, k]
        x[:, k + 1] = mean.x_bar[k + 1] + dev_next
    return x, u


def _reference_path_cost(sc, mean, x, u):
    n, mo, p2 = sc.horizon, sc.moment_order, 2 * sc.p
    d_pow = even_power(x - mean.x_bar[None, :], mo)
    out = d_pow[:, :n] @ sc.q_dev[:, :n].T
    out += np.outer(d_pow[:, n], sc.q_dev[:, n])
    v_pow = even_power(u - mean.u_bar[:, None, :], mo)
    out += np.einsum("ibk,ik->bi", v_pow, sc.r_dev)
    mean_const = (
        sc.q_bar[:, :n] @ mean.x_bar[:n] ** p2
        + (sc.r_bar * mean.u_bar ** p2).sum(axis=1)
        + sc.q_bar[:, n] * mean.x_bar[n] ** p2
    )
    return out.T + mean_const[:, None]


def _kernel_case(family, o, noise, initial):
    general = family == "general_moment_2o2p"
    return make_scenario(
        family=family, agents=3, horizon=5, p=2, o=o,
        a_bar=[1.1, 0.9, 1.0, 0.8, 1.2], b_bar=[0.5, -0.7, 1.0],
        q_bar=[4.0, 5.0, 3.0], r_bar=[6.0, 7.0, 2.0],
        q_dev=[2.0, 3.0, 1.5], r_dev=[2.0, 1.0, 0.5],
        a_dev=0.9 if general else None, b_dev=[1.0, 0.8, -0.6] if general else None,
        noise={"kind": noise, "sigma": [0.3, 0.5, 0.7, 0.4, 0.6]},
        initial=initial,
    )


class TestMeanPath:
    def test_one_step_unit_game(self, one_step_unit):
        _, gains = solve(one_step_unit)
        mean = propagate_mean(one_step_unit, gains)
        assert mean.x_bar[1] == pytest.approx(1 / 3, abs=1e-15)
        np.testing.assert_allclose(mean.u_bar[:, 0], -1 / 3, rtol=1e-15)

    def test_uncontrolled_channel_is_plain_linear_recursion(self):
        sc = make_scenario(agents=2, horizon=4, p=2, a_bar=[1.1, 0.9, 1.2, 0.8],
                           b_bar=[0.0, 0.0], initial={"mean": 3.0})
        _, gains = solve(sc)
        mean = propagate_mean(sc, gains)
        expected = 3.0 * np.cumprod([1.0, 1.1, 0.9, 1.2, 0.8])
        np.testing.assert_allclose(mean.x_bar, expected, rtol=1e-15)

    def test_dynamics_identity_holds_exactly(self, additive_two_agent):
        sc = additive_two_agent
        _, gains = solve(sc)
        mean = propagate_mean(sc, gains)
        b = np.asarray(sc.b_bar)
        for k in range(sc.horizon):
            step = sc.a_bar[k] * mean.x_bar[k] + b[:, k] @ mean.u_bar[:, k]
            assert mean.x_bar[k + 1] == step

    def test_closed_loop_factor_matches_dynamics_form(self, det_two_agent):
        _, gains = solve(det_two_agent)
        mean = propagate_mean(det_two_agent, gains)
        for k in range(det_two_agent.horizon):
            np.testing.assert_allclose(
                mean.x_bar[k + 1], gains.closed_loop_mean[k] * mean.x_bar[k],
                rtol=1e-12,
            )

    def test_example_states_decay_toward_zero(self, det_two_agent,
                                              additive_two_agent,
                                              multiplicative_two_agent):
        for sc in (det_two_agent, additive_two_agent, multiplicative_two_agent):
            _, gains = solve(sc)
            mean = propagate_mean(sc, gains)
            magnitudes = np.abs(mean.x_bar)
            assert np.all(np.diff(magnitudes) < 0.0), sc.family
            assert magnitudes[-1] < 1e-2 * magnitudes[0]


class TestInitialMoments:
    def test_deterministic_atom(self):
        law = InitialLaw(mean=20.5, kind="deterministic", atom=20.0)
        assert initial_central_moment(law, 2) == pytest.approx(0.25)
        assert initial_central_moment(law, 4) == pytest.approx(0.0625)

    def test_gaussian(self):
        law = InitialLaw(mean=0.0, kind="gaussian_around_mean", variance=2.0)
        assert initial_central_moment(law, 2) == pytest.approx(2.0)
        assert initial_central_moment(law, 4) == pytest.approx(12.0)

    def test_samples(self):
        law = InitialLaw(mean=1.0, kind="empirical_samples", samples=np.array([0.0, 2.0]))
        assert initial_central_moment(law, 2) == pytest.approx(1.0)
        assert initial_central_moment(law, 4) == pytest.approx(1.0)


class TestEnsemble:
    def test_zero_noise_paths_collapse_to_mean(self):
        sc = make_scenario(
            family="additive_variance_2p", agents=2, horizon=6, p=2,
            b_bar=[-2.0, 3.0], q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
            q_dev=[4.0, 5.0], r_dev=[6.0, 7.0],
            noise={"kind": "gaussian", "sigma": 0.0},
            initial={"mean": 20.25}, mc={"paths": 64, "seed": 3},
        )
        _, gains = solve(sc)
        ens = run_ensemble(sc, gains)
        np.testing.assert_array_equal(
            ens.x, np.broadcast_to(ens.mean.x_bar, ens.x.shape))
        assert np.all(ens.dev_m2 == 0.0)

    def test_multiplicative_unexcited_deviation_stays_zero(self):
        sc = make_scenario(
            family="multiplicative_variance_2p", agents=2, horizon=6, p=2,
            b_bar=[1.5, -1.1], q_bar=[4.0, 5.0], r_bar=[1.0, 1.0],
            q_dev=[5.0, 4.0], r_dev=[1.0, 1.0],
            noise={"kind": "gaussian", "sigma": 1.0},
            initial={"mean": 20.5}, mc={"paths": 128, "seed": 5},
        )
        _, gains = solve(sc)
        ens = run_ensemble(sc, gains)
        assert np.all(ens.dev_m2 == 0.0)
        np.testing.assert_array_equal(
            ens.x, np.broadcast_to(ens.mean.x_bar, ens.x.shape))

    def test_variance_matches_independent_propagation(self, additive_two_agent):
        sc = additive_two_agent
        _, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=10_000)
        # independent variance recursion: var' = clf^2 var + sigma^2
        b = np.asarray(sc.b_bar)
        var = np.zeros(sc.horizon + 1)
        for k in range(sc.horizon):
            clf = sc.a_bar[k] * (1.0 - gains.dev_gain[:, k] @ b[:, k])
            var[k + 1] = clf ** 2 * var[k] + sc.noise.sigma[k] ** 2
        for k in range(1, sc.horizon + 1):
            se = var[k] * np.sqrt(2.0 / ens.n_paths)  # gaussian chi^2 spread
            assert abs(ens.dev_m2[k] - var[k]) <= 5 * se

    def test_control_means_converge_to_equilibrium_controls(self, additive_two_agent):
        sc = additive_two_agent
        _, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=4000)
        for i in range(sc.agents):
            for k in range(sc.horizon):
                se = np.sqrt(ens.u_dev_m2[i, k] / ens.n_paths)
                gap = abs(ens.u_mean[i, k] - ens.mean.u_bar[i, k])
                assert gap <= 5 * se + 1e-12

    def test_bit_identical_reruns_and_thread_invariance(self, additive_two_agent):
        sc = additive_two_agent
        _, gains = solve(sc)
        runs = [run_ensemble(sc, gains, paths=6000, seed=9, threads=t)
                for t in (1, 2, 8)]
        again = run_ensemble(sc, gains, paths=6000, seed=9)
        for ens in runs[1:] + [again]:
            np.testing.assert_array_equal(ens.x, runs[0].x)
            np.testing.assert_array_equal(ens.u, runs[0].u)
            np.testing.assert_array_equal(ens.emp_mean, runs[0].emp_mean)
            np.testing.assert_array_equal(ens.path_cost, runs[0].path_cost)

    @pytest.mark.parametrize("fixture", ["additive_two_agent", "general_two_agent"])
    def test_streamed_thread_invariance(self, fixture, request):
        # 9000 paths: two full blocks and a partial one, reduced without a store.
        sc = request.getfixturevalue(fixture)
        _, gains = solve(sc)
        runs = [run_ensemble(sc, gains, paths=9000, seed=9, threads=t, store_cap=100)
                for t in (1, 2, 8)]
        assert runs[0].x is None
        for ens in runs[1:]:
            for name in STATISTICS + ("path_cost",):
                np.testing.assert_array_equal(getattr(ens, name), getattr(runs[0], name))

    def test_streaming_mode_matches_stored_statistics(self, request):
        # One path, one row into the second block, and two full blocks plus
        # a partial one: a kept store changes no statistic's bits.
        for fixture in ("additive_two_agent", "multiplicative_two_agent", "general_two_agent"):
            sc = request.getfixturevalue(fixture)
            _, gains = solve(sc)
            for paths in (1, 4097, 9000):
                for threads in (1, 2):
                    stored = run_ensemble(sc, gains, paths=paths, seed=4, threads=threads)
                    streamed = run_ensemble(sc, gains, paths=paths, seed=4, threads=threads,
                                            store_cap=0)
                    assert stored.x is not None and streamed.x is None
                    for name in STATISTICS + ("path_cost",):
                        np.testing.assert_array_equal(
                            getattr(streamed, name), getattr(stored, name),
                            err_msg=f"{fixture} {paths} paths {threads} threads {name}")

    @pytest.mark.parametrize("fixture", ["additive_two_agent", "multiplicative_two_agent",
                                         "general_two_agent"])
    def test_prefix_property_across_block_boundary(self, fixture, request):
        # 4097 paths end one row into the second 4096-path block.  A rounding
        # difference in the one-row chunk shows on some seeds only.
        sc = request.getfixturevalue(fixture)
        _, gains = solve(sc)
        for seed in range(4):
            short = run_ensemble(sc, gains, paths=4097, seed=seed)
            longer = run_ensemble(sc, gains, paths=5000, seed=seed)
            np.testing.assert_array_equal(short.x, longer.x[:4097])
            np.testing.assert_array_equal(short.u, longer.u[:, :4097])
            np.testing.assert_array_equal(short.path_cost, longer.path_cost[:, :4097])

    def test_stats_are_exact_statistics_of_stored_paths(self, request):
        """Each block's step rows are summed over its paths, and the block
        sums are added in block order.  The squared deviations are summed as
        products when the moment order is above 2."""
        for fixture in ("additive_two_agent", "general_two_agent"):
            sc = request.getfixturevalue(fixture)
            _, gains = solve(sc)
            ens = run_ensemble(sc, gains, paths=9000, seed=2)
            mo = sc.moment_order
            sums = None
            for lo in range(0, ens.n_paths, CHUNK_SIZE):
                x = np.ascontiguousarray(ens.x[lo:lo + CHUNK_SIZE].T)
                u = np.ascontiguousarray(ens.u[:, lo:lo + CHUNK_SIZE].transpose(2, 0, 1))
                part = []
                for z, dev in ((x, x - ens.mean.x_bar[:, None]),
                               (u, u - ens.mean.u_bar.T[:, :, None])):
                    sq = ((dev * dev).sum(axis=-1) if mo == 2
                          else np.einsum("...b,...b->...", dev, dev))
                    part += [z.sum(axis=-1), sq, even_power(dev, mo).sum(axis=-1)]
                sums = part if sums is None else [acc + val for acc, val in zip(sums, part)]
            want = [s / ens.n_paths for s in sums[:3]] + [s.T / ens.n_paths for s in sums[3:]]
            for name, val in zip(STATISTICS, want):
                np.testing.assert_array_equal(getattr(ens, name), val,
                                              err_msg=f"{fixture} {name}")

    def test_deterministic_family_rejected(self, det_two_agent):
        _, gains = solve(det_two_agent)
        with pytest.raises(ValueError):
            run_ensemble(det_two_agent, gains, paths=10)

    def test_explicit_moment_noise_cannot_be_sampled(self):
        sc = make_scenario(
            family="additive_variance_2p",
            noise={"kind": "explicit_moments", "moments": {2: 1.0}},
            mc={"paths": 8, "seed": 0},
        )
        _, gains = solve(sc)
        with pytest.raises(NumericDomainError):
            run_ensemble(sc, gains)

    def test_resource_guard(self, additive_two_agent):
        _, gains = solve(additive_two_agent)
        with pytest.raises(ResourceLimitError):
            run_ensemble(additive_two_agent, gains, paths=10 ** 12)

    def test_memory_budget_limits_workers(self, additive_two_agent, monkeypatch):
        sc = additive_two_agent
        _, gains = solve(sc)
        want = run_ensemble(sc, gains, paths=9000, seed=9, store_cap=100)
        _, held, per_worker = mftg.simulate._memory_plan(sc, 9000, 100)
        pools = []

        class RecordingPool(mftg.simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(mftg.simulate, "ThreadPoolExecutor", RecordingPool)
        for workers in (1, 2):
            monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + workers * per_worker)
            got = run_ensemble(sc, gains, paths=9000, seed=9, threads=8, store_cap=100)
            for name in STATISTICS + ("path_cost",):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert pools == [2]  # one worker runs the blocks in the calling thread

    def test_store_kept_exactly_when_it_fits_beside_one_worker(self, additive_two_agent,
                                                                 monkeypatch):
        """At a budget of held + store + one worker the run keeps its store;
        one float less streams it, with the same statistics bits."""
        sc = additive_two_agent
        _, gains = solve(sc)
        _, held, per_worker = mftg.simulate._memory_plan(sc, 20000, 0)
        store = 20000 * (sc.horizon + 1 + sc.agents * sc.horizon)
        budget = held + store + per_worker
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", budget)
        kept = run_ensemble(sc, gains, paths=20000, seed=4)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", budget - 1)
        streamed = run_ensemble(sc, gains, paths=20000, seed=4)
        assert kept.x is not None and kept.u is not None
        assert streamed.x is None and streamed.u is None
        for name in STATISTICS + ("path_cost",):
            np.testing.assert_array_equal(getattr(streamed, name), getattr(kept, name))

    def test_budget_below_one_block_exits_5(self, additive_two_agent, monkeypatch, tmp_path):
        sc = additive_two_agent
        _, held, per_worker = mftg.simulate._memory_plan(sc, 9000, 0)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + per_worker - 1)
        _, gains = solve(sc)
        with pytest.raises(ResourceLimitError):
            run_ensemble(sc, gains, paths=9000, threads=8)
        out = tmp_path / "out"
        assert main(["simulate", str(SCENARIOS / "additive_two_agent.yaml"), "--out", str(out),
                     "--paths", "9000", "--threads", "8"]) == 5

    def test_gaussian_initial_law_and_rademacher_noise(self):
        sc = make_scenario(
            family="multiplicative_variance_2p", agents=1, horizon=4, p=1,
            noise={"kind": "rademacher", "sigma": 0.5},
            initial={"mean": 2.0, "kind": "gaussian_around_mean", "variance": 1.0},
            mc={"paths": 20000, "seed": 21},
        )
        table, gains = solve(sc)
        ens = run_ensemble(sc, gains)
        predicted = evaluate_cost(sc, ens, table)[0]
        z = (predicted.total - predicted.predicted) / predicted.std_error
        assert abs(z) <= 3.0


@pytest.mark.parametrize("initial", [
    {"mean": 2.0, "kind": "deterministic", "atom": 2.5},
    {"mean": 2.0, "kind": "gaussian_around_mean", "variance": 0.5},
    {"mean": 2.0, "kind": "empirical_samples", "samples": [1.0, 2.5, 3.0, 0.5]},
], ids=["deterministic", "gaussian_around_mean", "empirical_samples"])
@pytest.mark.parametrize("noise", ["gaussian", "rademacher", "uniform"])
@pytest.mark.parametrize("family,o", [
    ("additive_variance_2p", None),
    ("multiplicative_variance_2p", None),
    ("general_moment_2o2p", 2),
    ("general_moment_2o2p", 3),  # moment order 6 is not a power of two
])
def test_block_kernel_matches_reference(family, o, noise, initial):
    """Full blocks of 4096, the 1808-path last block of a 10,000-path run
    and a one-path block, against the path-major reference kernel."""
    sc = _kernel_case(family, o, noise, initial)
    _, gains = solve(sc)
    for paths, blocks in ((10_000, ((0, 4096), (4096, 8192), (8192, 10_000))),
                          (1, ((0, 1),))):
        ens = run_ensemble(sc, gains, paths=paths, seed=6, threads=2)
        for lo, hi in blocks:
            x, u = _reference_chunk(sc, gains, ens.mean, 6, lo, hi)
            np.testing.assert_array_equal(ens.x[lo:hi], x)
            np.testing.assert_array_equal(ens.u[:, lo:hi], u)
            np.testing.assert_array_equal(ens.path_cost[:, lo:hi],
                                          _reference_path_cost(sc, ens.mean, x, u))


class TestCostEvaluation:
    def test_deterministic_realized_equals_leading_coefficient(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sc = random_deterministic(rng)
            table, gains = solve(sc)
            mean = propagate_mean(sc, gains)
            breakdown = evaluate_cost(sc, mean, table)
            for b in breakdown:
                assert b.total == pytest.approx(b.predicted, rel=1e-9)

    def test_one_step_unit_game_total(self, one_step_unit):
        table, gains = solve(one_step_unit)
        mean = propagate_mean(one_step_unit, gains)
        for b in evaluate_cost(one_step_unit, mean, table):
            assert b.total == pytest.approx(83 / 81, rel=1e-12)

    def test_parts_sum_to_total(self, additive_two_agent):
        sc = additive_two_agent
        table, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=2000)
        for b in evaluate_cost(sc, ens, table):
            parts = (b.run_state_mean + b.run_state_dev + b.run_control_mean
                     + b.run_control_dev + b.terminal_mean + b.terminal_dev)
            assert b.total == pytest.approx(parts, rel=1e-12)

    def test_additive_cost_within_three_standard_errors(self, additive_two_agent):
        sc = additive_two_agent
        table, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=10_000)
        for b in evaluate_cost(sc, ens, table):
            assert abs(b.total - b.predicted) <= 3.0 * b.std_error

    def test_multiplicative_atom_initial_cost_consistency(self, multiplicative_two_agent):
        sc = multiplicative_two_agent
        table, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=10_000)
        for b in evaluate_cost(sc, ens, table):
            assert abs(b.total - b.predicted) <= 3.0 * b.std_error

    def test_general_moment_cost_consistency(self, general_two_agent):
        sc = general_two_agent
        table, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=8000)
        for b in evaluate_cost(sc, ens, table):
            assert abs(b.total - b.predicted) <= 4.0 * b.std_error

    def test_path_costs_average_to_total(self, additive_two_agent):
        sc = additive_two_agent
        table, gains = solve(sc)
        ens = run_ensemble(sc, gains, paths=1500)
        breakdown = evaluate_cost(sc, ens, table)
        for b in breakdown:
            assert np.mean(ens.path_cost[b.agent]) == pytest.approx(b.total, rel=1e-12)
