"""Cross-cutting coverage: noise kinds, per-step schedules, single agents."""

from dataclasses import replace

import numpy as np
import pytest

from mftg import (
    DeviationGrid,
    bellman_identity_check,
    evaluate_cost,
    run_ensemble,
    run_verification,
    solve,
    unilateral_deviation_test,
)
from conftest import make_scenario

VARIANT_GRID = DeviationGrid(points=41, span=0.2, per_step=True)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_noise_kinds_through_full_pipeline(kind):
    sc = make_scenario(
        family="additive_variance_2p", agents=2, horizon=6, p=2,
        b_bar=[-1.0, 1.5], q_bar=[2.0, 3.0], r_bar=[2.0, 2.0],
        q_dev=[2.0, 3.0], r_dev=[2.0, 2.0],
        noise={"kind": kind, "sigma": 0.8},
        initial={"mean": 8.0}, mc={"paths": 6000, "seed": 13},
    )
    table, gains = solve(sc)
    ens = run_ensemble(sc, gains)
    for b in evaluate_cost(sc, ens, table):
        assert abs(b.total - b.predicted) <= 3.5 * b.std_error, (kind, b)
    worst = np.max(bellman_identity_check(sc, table, gains))
    assert worst <= 1e-10


def test_rademacher_multiplicative_moment_recursion():
    sc = make_scenario(
        family="multiplicative_variance_2p", agents=1, horizon=5, p=1,
        noise={"kind": "rademacher", "sigma": 0.7},
        initial={"mean": 4.0, "atom": 3.0}, mc={"paths": 40000, "seed": 17},
    )
    table, gains = solve(sc)
    ens = run_ensemble(sc, gains)
    # path by path, dev' = dev * (clf +- sigma) exactly under rademacher noise
    dev = ens.x - ens.mean.x_bar[None, :]
    clf = np.asarray(gains.closed_loop_dev)
    sigma = np.asarray(sc.noise.sigma)
    for k in range(sc.horizon):
        ratio = dev[:, k + 1] / dev[:, k]
        gap = np.minimum(np.abs(ratio - (clf[k] + sigma[k])),
                         np.abs(ratio - (clf[k] - sigma[k])))
        assert np.max(gap) <= 1e-12
    # and the second moment follows var' = (clf^2 + sigma^2) var in expectation
    factor = clf ** 2 + sigma ** 2
    expected = np.cumprod(np.concatenate([[1.0], factor]))
    np.testing.assert_allclose(ens.dev_m2, expected, rtol=0.05)


EXPLICIT_GENERAL = dict(
    family="general_moment_2o2p", agents=2, horizon=4, p=2, o=2,
    b_bar=[1.0, -0.8], a_dev=0.9, b_dev=[0.7, 0.5],
    q_bar=[2.0, 2.0], r_bar=[3.0, 3.0],
    q_dev=[1.0, 1.5], r_dev=[1.0, 1.0],
    noise={"kind": "explicit_moments",
           "moments": {2: [0.5, 1.0, 1.5, 2.0], 4: [1.0, 3.5, 6.0, 9.0]}},
)


def test_explicit_moments_solve_and_verify_general_family():
    sc = make_scenario(**EXPLICIT_GENERAL, initial={"mean": 3.0})
    table, gains = solve(sc)
    assert np.all(table.alpha > 0.0)
    worst = np.max(bellman_identity_check(sc, table, gains))
    assert worst <= 1e-10
    for agent in range(sc.agents):
        # moments-only noise is scanned exactly; with the initial atom at the
        # mean the deviation moment stays 0, so the equilibrium cost is the
        # mean cost-to-go alone
        report = unilateral_deviation_test(sc, gains, agent, VARIANT_GRID)
        assert report.equilibrium_cost == pytest.approx(
            table.alpha_bar[agent, 0] * 3.0 ** 4, rel=1e-12)
        assert report.passed


@pytest.mark.parametrize("name", ["additive", "multiplicative", "general_moment",
                                  "explicit_moments"])
def test_deviation_gain_corruption_detected(name, request):
    # Scaling only the deviation gain leaves the mean channel at its
    # equilibrium; the scan must still find the profitable deviation.
    if name == "explicit_moments":
        sc = make_scenario(**EXPLICIT_GENERAL, initial={
            "mean": 3.0, "kind": "gaussian_around_mean", "variance": 1.0})
    else:
        fixture = "general_two_agent" if name == "general_moment" else f"{name}_two_agent"
        sc = request.getfixturevalue(fixture)
    _, gains = solve(sc)
    for agent in range(sc.agents):
        dev_gain = np.array(gains.dev_gain)
        dev_gain[agent] *= 1.3
        corrupted = replace(gains, dev_gain=dev_gain)
        report = unilateral_deviation_test(sc, corrupted, agent, VARIANT_GRID)
        assert not report.passed, (name, agent, report)
        assert report.channel == "deviation", report


def test_per_step_schedules_all_families():
    n = 5
    rng = np.random.default_rng(23)
    a_seq = [float(v) for v in rng.uniform(0.7, 1.2, n)]
    b1 = [float(v) for v in rng.uniform(0.5, 1.5, n)]
    b2 = [float(-v) for v in rng.uniform(0.5, 1.5, n)]
    sigma = [float(v) for v in rng.uniform(0.2, 1.0, n)]
    common = dict(
        agents=2, horizon=n, p=2, a_bar=a_seq, b_bar=[b1, b2],
        q_bar=[3.0, 4.0], r_bar=[2.0, 2.5], initial={"mean": 6.0},
    )
    families = {
        "deterministic_2p": {},
        "additive_variance_2p": {"noise": {"kind": "gaussian", "sigma": sigma},
                                 "q_dev": [1.0, 2.0], "r_dev": [1.0, 1.0]},
        "multiplicative_variance_2p": {"noise": {"kind": "gaussian", "sigma": sigma},
                                       "q_dev": [1.0, 2.0], "r_dev": [1.0, 1.0]},
        "general_moment_2o2p": {"o": 2, "a_dev": a_seq, "b_dev": [b1, b2],
                                "noise": {"kind": "gaussian", "sigma": sigma},
                                "q_dev": [1.0, 2.0], "r_dev": [1.0, 1.0]},
    }
    for family, extra in families.items():
        sc = make_scenario(family=family, **common, **extra)
        table, gains = solve(sc)
        assert np.all(table.alpha_bar > 0.0), family
        worst = np.max(bellman_identity_check(sc, table, gains))
        assert worst <= 1e-10, family


@pytest.mark.parametrize("family,extra", [
    ("deterministic_2p", {}),
    ("additive_variance_2p", {"noise": {"kind": "gaussian", "sigma": 0.5}}),
    ("multiplicative_variance_2p", {"noise": {"kind": "gaussian", "sigma": 0.5}}),
    ("general_moment_2o2p", {"o": 2, "noise": {"kind": "gaussian", "sigma": 0.5}}),
])
def test_single_agent_reduces_to_control_problem(family, extra):
    # one agent exercises the same formulas with 1x1 coupling matrices
    sc = make_scenario(family=family, agents=1, horizon=6, p=2,
                       b_bar=[1.3], initial={"mean": 2.0,
                                             "kind": "gaussian_around_mean",
                                             "variance": 0.5},
                       mc={"paths": 800, "seed": 29}, **extra)
    table, gains = solve(sc)
    report = run_verification(sc, table, gains, grid=VARIANT_GRID)
    assert report.passed, report.failures()
