"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.
"""

import csv
import time

import numpy as np
import pytest

from mftg import (
    DeviationGrid,
    bellman_identity_check,
    brute_force_one_step,
    evaluate_cost,
    inject_gain_scaling,
    load_scenario_file,
    lq_reduction_check,
    propagate_mean,
    run_ensemble,
    solve,
    unilateral_deviation_test,
)
from mftg.verify import _min_curvature
from mftg.cli import main
from conftest import SCENARIOS, lone_solve, make_scenario, random_deterministic

DET = SCENARIOS / "deterministic_two_agent.yaml"
ADD = SCENARIOS / "additive_two_agent.yaml"
MULT = SCENARIOS / "multiplicative_two_agent.yaml"
GEN = SCENARIOS / "general_moment_two_agent.yaml"

ACCEPTANCE_GRID = DeviationGrid(points=101, span=0.2, per_step=True)


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_hand_derived_one_step_game():
    start = time.time()
    sc = make_scenario(agents=2, horizon=1, p=2, b_bar=[1.0, 1.0])
    table, gains = solve(sc)
    ok = bool(
        np.max(np.abs(gains.mean_gain[:, 0] - 1 / 3)) <= 1e-12
        and np.max(np.abs(table.alpha_bar[:, 0] - 83 / 81)) <= 1e-12
    )
    oracle = brute_force_one_step(sc)
    ok = ok and np.max(np.abs(oracle.mean_gain - gains.mean_gain[:, 0])) <= 1e-6
    elapsed = time.time() - start
    _criterion(1, f"one-step game gains 1/3, value 83/81, oracle agreement "
                  f"({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_deterministic_cost_identity():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        sc = random_deterministic(rng, max_agents=4, max_horizon=12, max_p=4)
        table, gains = solve(sc)
        mean = propagate_mean(sc, gains)
        for b in evaluate_cost(sc, mean, table):
            gap = abs(b.total - b.predicted) / max(abs(b.predicted), 1e-300)
            worst = max(worst, gap)
    elapsed = time.time() - start
    _criterion(2, f"50 random deterministic scenarios: realized cost matches "
                  f"leading coefficient, worst rel gap {worst:.2e} "
                  f"({elapsed:.2f}s < 10s)", worst <= 1e-9 and elapsed < 10.0)


def test_criterion_3_riccati_reduction():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 51))
        sc = make_scenario(
            agents=1, horizon=n, p=1,
            a_bar=[float(rng.uniform(0.8, 1.2)) for _ in range(n)],
            b_bar=[[float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
                    for _ in range(n)]],
            q_bar=[[float(rng.uniform(0.5, 5.0)) for _ in range(n + 1)]],
            r_bar=[[float(rng.uniform(0.5, 5.0)) for _ in range(n)]],
        )
        result = lq_reduction_check(sc)
        worst = max(worst, result.max_discrepancy)
    _criterion(3, f"p=1 coefficients match the independent scalar Riccati "
                  f"recursion, worst discrepancy {worst:.2e}", worst <= 1e-12)


def test_criterion_4_monte_carlo_cost_consistency():
    start = time.time()
    sc = load_scenario_file(ADD)
    table, gains = solve(sc)
    ens = run_ensemble(sc, gains, paths=10_000, seed=42)
    three_se = all(
        abs(b.total - b.predicted) <= 3.0 * b.std_error
        for b in evaluate_cost(sc, ens, table)
    )
    covered = 0
    for seed in range(100, 120):
        ens = run_ensemble(sc, gains, paths=10_000, seed=seed)
        if all(abs(b.total - b.predicted) <= 2.5758 * b.std_error
               for b in evaluate_cost(sc, ens, table)):
            covered += 1
    elapsed = time.time() - start
    _criterion(4, f"additive example: realized cost within 3 SE at seed 42, "
                  f"99% CI covered the prediction in {covered}/20 seeds "
                  f"({elapsed:.1f}s < 60s)",
               three_se and covered >= 19 and elapsed < 60.0)


def test_criterion_5_dev_tables_invariant_in_p(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", str(ADD), "--out", str(out), "--sweep", "p=2,3,4"])
    blocks = {}
    with open(out / "sweep_coefficients.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            blocks.setdefault(row["value"], []).append(
                (row["k"], row["agent"], row["alpha"], row["gamma_bar"])
            )
    identical = blocks["2"] == blocks["3"] == blocks["4"]
    _criterion(5, "alpha and gamma_bar tables are serialization-identical "
                  "across p in {2,3,4}", code == 0 and identical)


def test_criterion_6_unilateral_deviation_nash_tests():
    ok = True
    for path in (DET, ADD, MULT):
        sc = load_scenario_file(path)
        _, gains = solve(sc)
        for agent in range(sc.agents):
            report = unilateral_deviation_test(sc, gains, agent, ACCEPTANCE_GRID)
            ok = ok and report.passed
    # negative control: corrupting one agent's mean gains must be detected
    sc = load_scenario_file(ADD)
    _, gains = solve(sc)
    corrupted = inject_gain_scaling(gains, 0, None, 1.2)
    control = unilateral_deviation_test(sc, corrupted, 0, ACCEPTANCE_GRID)
    _criterion(6, "no 101-point +-20% gain deviation improves any agent on the "
                  "three example scenarios; injected x1.2 corruption fails",
               ok and not control.passed)


def test_criterion_7_zero_noise_reductions():
    kwargs = dict(agents=2, horizon=10, p=2, b_bar=[-2.0, 3.0],
                  q_bar=[4.0, 5.0], r_bar=[6.0, 7.0],
                  initial={"mean": 20.25})
    det = make_scenario(family="deterministic_2p", **kwargs)
    stoch_kwargs = dict(kwargs, q_dev=[4.0, 5.0], r_dev=[6.0, 7.0],
                        noise={"kind": "gaussian", "sigma": 0.0})
    add = make_scenario(family="additive_variance_2p", **stoch_kwargs)
    mult = make_scenario(family="multiplicative_variance_2p", **stoch_kwargs)
    t_det, g_det = solve(det)
    t_add, g_add = solve(add)
    t_mult, g_mult = solve(mult)
    ok = (
        np.array_equal(t_add.alpha_bar, t_det.alpha_bar)
        and np.array_equal(t_mult.alpha_bar, t_det.alpha_bar)
        and np.array_equal(g_add.mean_gain, g_det.mean_gain)
        and np.array_equal(g_mult.mean_gain, g_det.mean_gain)
        and np.array_equal(t_add.alpha, t_mult.alpha)
        and np.all(t_add.gamma_bar == 0.0)
    )
    _criterion(7, "zero-noise additive and multiplicative solves reproduce the "
                  "deterministic tables exactly and agree on alpha", ok)


def test_criterion_8_convexity_of_power_law_objectives():
    # 1000 one-agent objectives w**2p + (rest + b w)**2p, with random b and
    # equilibrium gain, as the steps of one table per p, through the verify
    # convexity sampler.  It takes them per unit of the state coefficient,
    # so the rest term is 1.  Its samples include the two points where a
    # term's curvature vanishes, 0 and -rest/b, which cannot coincide while
    # rest != 0.
    rng = np.random.default_rng(8)
    draws = 1000
    p = rng.integers(1, 6, draws)
    b = rng.uniform(0.1, 3.0, draws) * rng.choice([-1.0, 1.0], draws)
    gain = rng.uniform(-2.0, 2.0, draws)
    worst = np.inf
    for half in np.unique(p):
        at = p == half
        ones = np.ones((1, np.count_nonzero(at)))
        worst = min(worst, _min_curvature(2 * int(half), b[None, at], ones, ones,
                                          gain[None, at]))
    _criterion(8, f"1000 random power-law objectives: sampled second "
                  f"derivative stays positive (min {worst:.3e})", worst > 0.0)


def test_criterion_9_moment_factor_arbitration():
    sc = load_scenario_file(GEN)
    assert sc.o == 2 and sc.noise.kind == "gaussian"
    # negative control: the lone-channel reference without the closed-loop
    # factor
    residuals = {}
    for name, (table, gains) in (("shipped", solve(sc)),
                                 ("without", lone_solve(sc, noise_on=("gain",)))):
        residuals[name] = np.max(bellman_identity_check(sc, table, gains))
    exactly_one = residuals["shipped"] <= 1e-10 and residuals["without"] > 1e-10
    _criterion(9, f"one-step value identity selects the noise-moment-weighted "
                  f"recursion the solver ships (residuals {residuals['shipped']:.1e} "
                  f"vs {residuals['without']:.1e} without the closed-loop factor)",
               exactly_one)


def test_criterion_10_simulation_determinism(tmp_path):
    blobs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"threads-{threads}"
        code = main(["simulate", str(ADD), "--out", str(out),
                     "--paths", "10000", "--seed", "42", "--threads", threads])
        assert code == 0
        blobs.append((out / "ensemble_stats.csv").read_bytes())
    _criterion(10, "ensemble statistics CSV is identical for any `--threads` value",
               blobs[0] == blobs[1] == blobs[2])
