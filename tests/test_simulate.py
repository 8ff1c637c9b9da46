import threading
import tracemalloc

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
from mftg.simulate import CHUNK_SIZE, SLAB_BLOCKS, predicted_cost
from conftest import SCENARIOS, make_scenario, random_deterministic

STATISTICS = ("emp_mean", "dev_m2", "dev_m2o", "u_dev_m2o")


# A path-major block kernel, kept as the reference of run_ensemble's
# step-at-a-time kernel: paths (B, N+1), controls (I, B, N) and per-path
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
    """Paths (B, N+1), controls (I, B, N), and their deviations d from the
    exact mean path and v from the mean controls.  Each path is carried as
    d; x = x_bar + d and u = u_bar + v are formed from it."""
    n = sc.horizon
    d = np.empty((hi - lo, n + 1))
    v = np.empty((sc.agents, hi - lo, n))
    x0, eps = _reference_draws(sc, seed, lo, hi)
    d[:, 0] = x0 - mean.x_bar[0]
    g_dev = gains.dev_gain
    a, b = sc.deviation_dynamics
    for k in range(n):
        gain = g_dev[:, k] * a[k]
        dev = d[:, k]
        v[:, :, k] = -gain[:, None] * dev[None, :]
        dev_next = a[k] * dev - np.add.reduce(b[:, k] * gain) * dev
        if sc.family is Family.ADDITIVE:
            dev_next += eps[:, k]
        elif sc.family is Family.MULTIPLICATIVE:
            dev_next += dev * eps[:, k]
        else:
            dev_next *= eps[:, k]
        d[:, k + 1] = dev_next
    x = mean.x_bar[None, :] + d
    x[:, 0] = x0
    return x, mean.u_bar[:, None, :] + v, d, v


def _control_moments(sc, gains):
    """(g a)**mo (I, N), the factor that prices each control's moment from
    the state's: every control is v = -g a d."""
    return even_power(gains.dev_gain * sc.deviation_dynamics[0], sc.moment_order)


def _mean_constant(sc, mean):
    """Each agent's cost on the exact mean path, (I,)."""
    n, p2 = sc.horizon, 2 * sc.p
    x_pow = even_power(mean.x_bar, p2)
    return (np.add.reduce(sc.q_bar[:, :n] * x_pow[:n], axis=1)
            + np.add.reduce(sc.r_bar * even_power(mean.u_bar, p2), axis=1)
            + sc.q_bar[:, n] * x_pow[n])


def _reference_path_cost(sc, gains, mean, d):
    """Per-path costs (I, B) from path-major deviations d (B, N+1), in the
    kernel's order: the stage costs w_k d_k**mo, w_k = q_k + r_k (g_k a_k)**mo,
    added for k = 0..N-1, then the terminal q_N d_N**mo, then the mean
    terms.  Each moment power is taken as (d**2)**(mo/2)."""
    n = sc.horizon
    weight = sc.q_dev[:, :n] + sc.r_dev * _control_moments(sc, gains)
    d_pow = even_power(d * d, sc.moment_order // 2)
    out = np.zeros((sc.agents, d.shape[0]))
    for k in range(n):
        out += weight[:, k, None] * d_pow[:, k]
    out += sc.q_dev[:, n, None] * d_pow[:, n]
    return out + _mean_constant(sc, mean)[:, None]


def _per_path_cost(sc, mean, d, v):
    """Per-path costs (I, B) from the formed controls: r_k v_k**mo +
    q_k d_k**mo per step, then q_N d_N**mo and the mean terms.  The kernel
    prices v**mo through d**mo instead, so this agrees with it to roundoff."""
    n, mo = sc.horizon, sc.moment_order
    d_pow, v_pow = even_power(d * d, mo // 2), even_power(v * v, mo // 2)
    out = np.zeros((sc.agents, d.shape[0]))
    for k in range(n):
        out += sc.r_dev[:, k, None] * v_pow[:, :, k] + sc.q_dev[:, k, None] * d_pow[:, k]
    out += sc.q_dev[:, n, None] * d_pow[:, n]
    return out + _mean_constant(sc, mean)[:, None]


def _block_sums(sc, x, d):
    """One block's step sums over its paths (B, N+1) and their deviations d
    (B, N+1): x, d**2 and d**mo per step, d**mo taken as (d**2)**(mo/2)."""
    dev_x = np.ascontiguousarray(d.T)
    sq_x = dev_x * dev_x
    return [np.ascontiguousarray(x.T).sum(axis=-1), sq_x.sum(axis=-1),
            even_power(sq_x, sc.moment_order // 2).sum(axis=-1)]


def _reference_run(sc, gains, seed, paths):
    """A run made one block at a time from the path-major references: each
    block's paths, controls and per-path costs, and its step sums of x,
    d**2 and d**mo added to the running sums in block order; the controls'
    moment is (g a)**mo times d's, 0 where a gain is.  Returns the Ensemble
    fields it checks, by name."""
    mean = propagate_mean(sc, gains)
    sums, xs, us, costs = [0.0] * 3, [], [], []
    for lo in range(0, paths, CHUNK_SIZE):
        x, u, d, _ = _reference_chunk(sc, gains, mean, seed, lo, min(lo + CHUNK_SIZE, paths))
        xs.append(x)
        us.append(u)
        costs.append(_reference_path_cost(sc, gains, mean, d))
        sums = [acc + val for acc, val in zip(sums, _block_sums(sc, x, d))]
    stats = [s / paths for s in sums]
    pw = _control_moments(sc, gains)
    stats.append(np.where(pw != 0.0, pw * stats[2][:sc.horizon], 0.0))
    return dict(zip(STATISTICS, stats), path_cost=np.concatenate(costs, axis=1),
                x=np.concatenate(xs), u=np.concatenate(us, axis=1))


def _kernel_case(family, o, noise, initial, horizon=5):
    general = family == "general_moment_2o2p"
    return make_scenario(
        family=family, agents=3, horizon=horizon, p=2, o=o,
        a_bar=np.resize([1.1, 0.9, 1.0, 0.8, 1.2], horizon).tolist(), b_bar=[0.5, -0.7, 1.0],
        q_bar=[4.0, 5.0, 3.0], r_bar=[6.0, 7.0, 2.0],
        q_dev=[2.0, 3.0, 1.5], r_dev=[2.0, 1.0, 0.5],
        a_dev=0.9 if general else None, b_dev=[1.0, 0.8, -0.6] if general else None,
        noise={"kind": noise, "sigma": np.resize([0.3, 0.5, 0.7, 0.4, 0.6], horizon).tolist()},
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
            step = sc.a_bar[k] * mean.x_bar[k] + np.add.reduce(b[:, k] * mean.u_bar[:, k])
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
        # The run keeps its paths: the control means and their spread come
        # from the stored controls (I, paths, N).
        u_mean = ens.u.mean(axis=1)
        u_dev_m2 = np.mean((ens.u - ens.mean.u_bar[:, None, :]) ** 2, axis=1)
        for i in range(sc.agents):
            for k in range(sc.horizon):
                se = np.sqrt(u_dev_m2[i, k] / ens.n_paths)
                gap = abs(u_mean[i, k] - ens.mean.u_bar[i, k])
                assert gap <= 5 * se + 1e-12

    def test_bit_identical_reruns(self, additive_two_agent):
        sc = additive_two_agent
        _, gains = solve(sc)
        first, again = (run_ensemble(sc, gains, paths=6000, seed=9) for _ in range(2))
        for name in STATISTICS + ("path_cost", "x", "u"):
            np.testing.assert_array_equal(getattr(again, name), getattr(first, name))

    def test_streaming_mode_matches_stored_statistics(self, request):
        # One path, one row into the second block, and two full blocks plus
        # a partial one: a kept store changes no statistic's bits.
        for fixture in ("additive_two_agent", "multiplicative_two_agent", "general_two_agent"):
            sc = request.getfixturevalue(fixture)
            _, gains = solve(sc)
            for paths in (1, 4097, 9000):
                stored = run_ensemble(sc, gains, paths=paths, seed=4)
                streamed = run_ensemble(sc, gains, paths=paths, seed=4, store_cap=0)
                assert stored.x is not None and streamed.x is None
                for name in STATISTICS + ("path_cost",):
                    np.testing.assert_array_equal(
                        getattr(streamed, name), getattr(stored, name),
                        err_msg=f"{fixture} {paths} paths {name}")

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
        """emp_mean is the plain average of the stored states: each block's
        step rows summed over its paths, the block sums added in block
        order.  The moments are statistics of the carried deviations, which
        the reference kernel pins (test_slabs_match_one_block_reference)."""
        for fixture in ("additive_two_agent", "general_two_agent"):
            sc = request.getfixturevalue(fixture)
            _, gains = solve(sc)
            ens = run_ensemble(sc, gains, paths=9000, seed=2)
            total = sum(np.ascontiguousarray(ens.x[lo:lo + CHUNK_SIZE].T).sum(axis=-1)
                        for lo in range(0, ens.n_paths, CHUNK_SIZE))
            np.testing.assert_array_equal(ens.emp_mean, total / ens.n_paths, err_msg=fixture)

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

    def test_store_kept_exactly_when_it_fits_beside_one_worker(self, additive_two_agent,
                                                                 monkeypatch):
        """At a budget of held + store + one block the run keeps its store;
        one float less streams it, with the same statistics bits."""
        sc = additive_two_agent
        _, gains = solve(sc)
        _, held, per_block, _ = mftg.simulate._memory_plan(sc, 20000, 0, 1)
        store = 20000 * (sc.horizon + 1 + sc.agents * sc.horizon)
        budget = held + store + per_block
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", budget)
        kept = run_ensemble(sc, gains, paths=20000, seed=4)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", budget - 1)
        streamed = run_ensemble(sc, gains, paths=20000, seed=4)
        assert kept.x is not None and kept.u is not None
        assert streamed.x is None and streamed.u is None
        for name in STATISTICS + ("path_cost",):
            np.testing.assert_array_equal(getattr(streamed, name), getattr(kept, name))

    def test_budget_below_one_block_exits_5(self, additive_two_agent, monkeypatch, tmp_path):
        """A budget of held + one block streams the run in one-block slabs,
        with the same bits as two-block slabs; one float less exits 5."""
        sc = additive_two_agent
        _, held, per_block, _ = mftg.simulate._memory_plan(sc, 9000, 0, 1)
        _, gains = solve(sc)
        assert mftg.simulate._memory_plan(sc, 9000, 0)[3] == 2
        wide = run_ensemble(sc, gains, paths=9000)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + per_block)
        assert mftg.simulate._memory_plan(sc, 9000, 0)[3] == 1
        narrow = run_ensemble(sc, gains, paths=9000)
        assert narrow.x is None
        for name in STATISTICS + ("path_cost",):
            np.testing.assert_array_equal(getattr(narrow, name), getattr(wide, name))
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + per_block - 1)
        with pytest.raises(ResourceLimitError):
            run_ensemble(sc, gains, paths=9000)
        out = tmp_path / "out"
        assert main(["simulate", str(SCENARIOS / "additive_two_agent.yaml"), "--out", str(out),
                     "--paths", "9000", "--threads", "8"]) == 5

    def test_memory_plan_takes_the_widest_slab_that_fits(self, additive_two_agent,
                                                         monkeypatch):
        sc = additive_two_agent
        paths = 25 * CHUNK_SIZE
        assert mftg.simulate._memory_plan(sc, paths, 0)[3] == SLAB_BLOCKS
        _, held, per_block, _ = mftg.simulate._memory_plan(sc, paths, 0, 2)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + per_block)
        assert mftg.simulate._memory_plan(sc, paths, 0)[1:] == (held, per_block, 2)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + per_block - 1)
        assert mftg.simulate._memory_plan(sc, paths, 0)[3] == 1

    def test_block_memory_does_not_grow_with_agents_times_horizon(self):
        """A streamed block holds its noise and a few (I, B) rows: at I=8,
        N=400 the traced peak stays under what _memory_plan counts, and
        beyond the noise that count grows with I x N only by the run's
        tables: the statistics' running sums, one slab's per-block step
        sums, the feedback gains and the mean path."""
        def scenario(agents, horizon):
            return make_scenario(family="additive_variance_2p", agents=agents,
                                 horizon=horizon, a_bar=0.9, b_bar=[0.5] * agents,
                                 noise={"kind": "gaussian", "sigma": 0.5})

        def count(agents, horizon):
            _, held, per_block, _ = mftg.simulate._memory_plan(
                scenario(agents, horizon), CHUNK_SIZE, 0)
            return held + per_block

        sc = scenario(8, 400)
        _, gains = solve(sc)
        # A first draw imports NumPy's random modules; keep that out of the peak.
        run_ensemble(sc, gains, paths=1, seed=1, store_cap=0)
        tracemalloc.start()
        try:
            run_ensemble(sc, gains, paths=CHUNK_SIZE, seed=1, store_cap=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count(8, 400)
        # The noise is N x B floats, step-major in the slab and path-major
        # in the draw buffer.
        noise = 2 * CHUNK_SIZE * 200
        # Eight tables of a float per agent and step, and one per step.
        assert count(8, 400) - count(8, 200) <= noise + 8 * (8 + 1) * 200
        assert count(8, 400) - count(8, 200) - count(4, 400) + count(4, 200) <= 8 * 4 * 200

    def test_draw_error_surfaces_and_leaves_no_thread(self, additive_two_agent, monkeypatch):
        sc = additive_two_agent
        _, gains = solve(sc)
        draw = mftg.simulate._draw_paths

        def failing(sc, seed, lo, eps):
            if lo == 3 * CHUNK_SIZE:
                raise RuntimeError("draw failed on block 3")
            return draw(sc, seed, lo, eps)

        monkeypatch.setattr(mftg.simulate, "_draw_paths", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 3"):
            run_ensemble(sc, gains, paths=5 * CHUNK_SIZE, seed=1, store_cap=0)
        assert threading.active_count() == before

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


def kernel_cases(test):
    """Parametrize `test` over the 36 block-kernel cases: each family (and
    two general moment orders) under each noise law and initial law."""
    marks = [
        pytest.mark.parametrize("family,o", [
            ("additive_variance_2p", None),
            ("multiplicative_variance_2p", None),
            ("general_moment_2o2p", 2),
            ("general_moment_2o2p", 3),  # moment order 6 is not a power of two
        ]),
        pytest.mark.parametrize("noise", ["gaussian", "rademacher", "uniform"]),
        pytest.mark.parametrize("initial", [
            {"mean": 2.0, "kind": "deterministic", "atom": 2.5},
            {"mean": 2.0, "kind": "gaussian_around_mean", "variance": 0.5},
            {"mean": 2.0, "kind": "empirical_samples", "samples": [1.0, 2.5, 3.0, 0.5]},
        ], ids=["deterministic", "gaussian_around_mean", "empirical_samples"]),
    ]
    for mark in marks:
        test = mark(test)
    return test


@kernel_cases
def test_block_kernel_matches_reference(family, o, noise, initial):
    """Full blocks of 4096, the 1808-path last block of a 10,000-path run
    and a one-path block, against the path-major reference kernel."""
    sc = _kernel_case(family, o, noise, initial)
    _, gains = solve(sc)
    for paths, blocks in ((10_000, ((0, 4096), (4096, 8192), (8192, 10_000))),
                          (1, ((0, 1),))):
        ens = run_ensemble(sc, gains, paths=paths, seed=6)
        for lo, hi in blocks:
            x, u, d, _ = _reference_chunk(sc, gains, ens.mean, 6, lo, hi)
            np.testing.assert_array_equal(ens.x[lo:hi], x)
            np.testing.assert_array_equal(ens.u[:, lo:hi], u)
            np.testing.assert_array_equal(ens.path_cost[:, lo:hi],
                                          _reference_path_cost(sc, gains, ens.mean, d))


# The kernel prices each control through d**mo; forming v = -g a d path by
# path and pricing it directly agrees to roundoff.  In a survey of the 36
# kernel cases (10,000 and one path, seed 6; 4,096 paths, seeds 0-9) and
# the three shipped stochastic scenarios (102,400 paths, seeds 1-3 and
# their own), the worst gap was 3.4e-16 for a path cost and 1.2e-15 for a
# control moment, each relative to the formed-control value.
FORMED_CONTROL_RTOL = 1e-14


def _formed_control_gap(sc, gains, ens, seed):
    """Worst relative gaps of ens.path_cost and ens.u_dev_m2o from the
    formed controls: each path's r_k v_k**mo + q_k d_k**mo, and the path
    mean of v**mo per agent and step, one block at a time in block order.
    Where the formed value is 0 the kernel's must be 0 too."""
    worst, v_sum = 0.0, 0.0
    for lo in range(0, ens.n_paths, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, ens.n_paths)
        _, _, d, v = _reference_chunk(sc, gains, ens.mean, seed, lo, hi)
        want = _per_path_cost(sc, ens.mean, d, v)
        worst = max(worst, np.max(np.abs(ens.path_cost[:, lo:hi] - want) / np.abs(want)))
        # step-major (N, I, B), so each sum runs along contiguous paths
        v_sq = np.ascontiguousarray(v.transpose(2, 0, 1)) ** 2
        v_sum = v_sum + even_power(v_sq, sc.moment_order // 2).sum(axis=-1)
    want = v_sum.T / ens.n_paths
    zero = want == 0.0
    np.testing.assert_array_equal(ens.u_dev_m2o[zero], 0.0)
    gap = np.abs(ens.u_dev_m2o[~zero] - want[~zero]) / want[~zero]
    return worst, np.max(gap, initial=0.0)


@kernel_cases
def test_controls_priced_through_the_deviation(family, o, noise, initial):
    """The kernel's path costs and control moments, priced through d**mo,
    agree with controls formed path by path, at 10,000 paths and one."""
    sc = _kernel_case(family, o, noise, initial)
    _, gains = solve(sc)
    for paths in (10_000, 1):
        ens = run_ensemble(sc, gains, paths=paths, seed=6, store_cap=0)
        assert max(_formed_control_gap(sc, gains, ens, 6)) <= FORMED_CONTROL_RTOL


@pytest.mark.parametrize("fixture", ["additive_two_agent", "multiplicative_two_agent",
                                     "general_two_agent"])
def test_shipped_controls_priced_through_the_deviation(fixture, request):
    sc = request.getfixturevalue(fixture)
    _, gains = solve(sc)
    ens = run_ensemble(sc, gains, paths=102_400, store_cap=0)
    assert max(_formed_control_gap(sc, gains, ens, sc.mc.seed)) <= FORMED_CONTROL_RTOL


@pytest.mark.parametrize("family,o", [("additive_variance_2p", None), ("general_moment_2o2p", 3)])
def test_zero_gains_price_no_control(family, o):
    """With no control channel (b = 0) every deviation gain is 0: the
    controls' moment and realized cost are exactly 0, also where d**mo
    overflows (an atom 1e60 from the mean, moment order 6), with no 0 * inf
    NaN."""
    general = family == "general_moment_2o2p"
    b = {"b_bar": [0.5, -0.7, 1.0], "b_dev": [0.0] * 3} if general else {"b_bar": [0.0] * 3}
    for atom in (2.5, 1e60) if general else (2.5,):
        sc = make_scenario(
            family=family, agents=3, horizon=5, p=2, o=o, a_bar=0.9, **b,
            q_dev=[2.0, 3.0, 1.5], r_dev=[2.0, 1.0, 0.5], a_dev=0.9 if general else None,
            noise={"kind": "gaussian", "sigma": 0.5},
            initial={"mean": 2.0, "kind": "deterministic", "atom": atom})
        table, gains = solve(sc)
        assert np.all(gains.dev_gain == 0.0)
        with np.errstate(over="ignore"):
            ens = run_ensemble(sc, gains, paths=5000, seed=3)
        assert np.all(ens.u_dev_m2o == 0.0) and not np.signbit(ens.u_dev_m2o).any()
        np.testing.assert_array_equal(ens.u, np.broadcast_to(ens.mean.u_bar[:, None, :],
                                                             ens.u.shape))
        if atom < 1e60:
            assert [b.run_control_dev for b in evaluate_cost(sc, ens, table)] == [0.0] * 3
        else:
            assert np.all(np.isinf(ens.dev_m2o))


S = SLAB_BLOCKS * CHUNK_SIZE


@pytest.mark.parametrize("paths", [1, 4095, 4096, 4097, S - 1, S, S + 1, 2 * S + 4097, 102_400])
@pytest.mark.parametrize("fixture", ["additive_two_agent", "multiplicative_two_agent",
                                     "general_two_agent"])
def test_slabs_match_one_block_reference(fixture, paths, request):
    """Slabs of whole blocks, stored and streamed, give every statistic,
    per-path cost, path and control the bits of a run made one block at a
    time."""
    sc = request.getfixturevalue(fixture)
    _, gains = solve(sc)
    want = _reference_run(sc, gains, 4, paths)
    stored = run_ensemble(sc, gains, paths=paths, seed=4, store_cap=paths)
    streamed = run_ensemble(sc, gains, paths=paths, seed=4, store_cap=0)
    assert streamed.x is None and streamed.u is None
    for name, value in want.items():
        np.testing.assert_array_equal(getattr(stored, name), value, err_msg=f"stored {name}")
        if name not in ("x", "u"):
            np.testing.assert_array_equal(getattr(streamed, name), value,
                                          err_msg=f"streamed {name}")


@pytest.mark.parametrize("paths", [1, 1000, 4097])
@pytest.mark.parametrize("family,o", [
    ("additive_variance_2p", None),
    ("general_moment_2o2p", 2),
    ("general_moment_2o2p", 3),
], ids=["mo2", "mo4", "mo6"])
def test_memory_plan_bounds_the_traced_peak(family, o, paths):
    """What _memory_plan counts bounds a streamed run's traced peak at
    I=8, N=400 and moment orders 2, 4 and 6: one path, 1,000 paths (where
    the transposed noise draw takes NumPy's ufunc buffers) and one row
    into a second block."""
    sc = make_scenario(family=family, agents=8, horizon=400, o=o, a_bar=0.9,
                       b_bar=[0.5] * 8, noise={"kind": "gaussian", "sigma": 0.5})
    _, gains = solve(sc)
    _, held, per_block, _ = mftg.simulate._memory_plan(sc, paths, 0)
    # A first draw imports NumPy's random modules; keep that out of the peak.
    run_ensemble(sc, gains, paths=1, seed=1, store_cap=0)
    tracemalloc.start()
    try:
        run_ensemble(sc, gains, paths=paths, seed=1, store_cap=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (held + per_block)


def _enumerated_draws(sc):
    """A stand-in for simulate._draw_paths whose ensemble is the whole
    support of a Rademacher noise law and a finite initial law: path j
    starts at initial sample j // 2**N and takes the sign of bit k of
    j % 2**N at step k.  Returns it with the number of paths."""
    n, law = sc.horizon, sc.x0
    starts = law.samples if law.kind == "empirical_samples" else np.array([law.start_value()])
    bits = np.arange(n)[:, None]

    def draw(_sc, _seed, lo, out):
        eps = out[0]
        path = lo + np.arange(eps.shape[1])
        signs = 1.0 - 2.0 * (((path % 2 ** n)[None, :] >> bits) & 1)
        np.multiply(signs, sc.noise.sigma[:, None], out=eps)
        return starts[path >> n].astype(float)

    return draw, len(starts) << n


def _exact_moments(sc, gains, order):
    """E[d_k**order] (k = 0..N) and E[v_k**order] (I, N) of the deviation
    channel, pushed step by step through the closed loop under Rademacher
    noise (E[eps**j] = sigma**j), from the initial law's central moment."""
    a, b = sc.deviation_dynamics
    gain = gains.dev_gain * a
    clf = a - np.add.reduce(b * gain, axis=0)
    noise = sc.noise.sigma ** order
    m = [initial_central_moment(sc.x0, order)]
    for k in range(sc.horizon):
        if sc.family is Family.ADDITIVE:
            m.append(clf[k] ** 2 * m[k] + noise[k])
        elif sc.family is Family.MULTIPLICATIVE:
            m.append((clf[k] ** 2 + noise[k]) * m[k])
        else:
            m.append(clf[k] ** order * m[k] * noise[k])
    m = np.array(m)
    return m, gain ** order * m[:-1]


# The enumeration test's relative bound: roundoff only.  In a survey of its
# twelve cases and 800 random draws (N <= 10, up to three agents and five
# initial samples), the worst gap was 7.8e-16 for a cost and 4.9e-15 for a
# moment, each relative to the expectation alone.
EXACT_RTOL = 1e-13


@pytest.mark.parametrize("initial", [
    {"mean": 2.0, "kind": "deterministic", "atom": 2.5},
    {"mean": 2.0, "kind": "empirical_samples", "samples": [1.0, 2.5, 3.0, 0.5, 2.25]},
    {"mean": 1.0e4, "kind": "deterministic", "atom": 10000.5},
], ids=["atom", "five_samples", "far_atom"])
@pytest.mark.parametrize("family,o", [
    ("additive_variance_2p", None),
    ("multiplicative_variance_2p", None),
    ("general_moment_2o2p", 2),
    ("general_moment_2o2p", 3),
])
def test_enumerated_ensemble_is_exact(family, o, initial, monkeypatch):
    """Over every noise sign sequence times every initial sample, each
    with equal weight, the ensemble average is the exact expectation: the
    realized cost equals predicted_cost, and the deviation statistics the
    moments pushed through the closed loop, up to roundoff.  The 1,024 or
    5,120 paths are one or two blocks of run_ensemble's own kernel.  The
    kernel carries each path as its deviation d alone, so each moment's
    roundoff is relative to the moment, however far the mean is from 0."""
    sc = _kernel_case(family, o, "rademacher", initial, horizon=10)
    table, gains = solve(sc)
    draw, paths = _enumerated_draws(sc)
    monkeypatch.setattr(mftg.simulate, "_draw_paths", draw)
    ens = run_ensemble(sc, gains, paths=paths, store_cap=0)

    def close(got, want, what):
        gap = np.max(np.abs(got - want) / np.abs(want))
        assert gap <= EXACT_RTOL, f"{what}: relative gap {gap:.3g}"

    predicted = predicted_cost(sc, table, True)
    close(np.mean(ens.path_cost, axis=1), predicted, "mean path cost")
    close(np.array([b.total for b in evaluate_cost(sc, ens, table)]), predicted, "total")
    close(ens.dev_m2, _exact_moments(sc, gains, 2)[0], "dev_m2")
    dev, u_dev = _exact_moments(sc, gains, sc.moment_order)
    close(ens.dev_m2o, dev, "dev_m2o")
    close(ens.u_dev_m2o, u_dev, "u_dev_m2o")


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
