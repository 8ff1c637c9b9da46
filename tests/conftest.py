from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import mftg.scenario
from mftg import load_scenario
from mftg.numerics import _odd_root, even_power, noise_even_moment
from mftg.recursion import CoefficientTable, GainSchedule
from mftg.scenario import Family

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

# The pure-Python loader always; libyaml's when PyYAML was built with it.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def load_with(loader, text):
    """load_scenario with its YAML loader class replaced by ``loader``."""
    with mock.patch.object(mftg.scenario, "_LOADER", loader):
        return load_scenario(text)


def scenario_doc(family="deterministic_2p", agents=2, horizon=1, p=2, o=None,
                 a_bar=1.0, b_bar=None, q_bar=1.0, r_bar=1.0,
                 q_dev=1.0, r_dev=1.0, a_dev=None, b_dev=None,
                 noise=None, initial=None, mc=None):
    """Dict-form scenario builder used all over the tests."""
    doc = {
        "family": family,
        "agents": agents,
        "horizon": horizon,
        "p": p,
        "dynamics": {"a_bar": a_bar, "b_bar": b_bar if b_bar is not None else 1.0},
        "weights": {"q_bar": q_bar, "r_bar": r_bar},
        "initial": initial or {"mean": 1.0},
    }
    if o is not None:
        doc["o"] = o
    if family != "deterministic_2p":
        doc["weights"]["q_dev"] = q_dev
        doc["weights"]["r_dev"] = r_dev
        doc["noise"] = noise or {"kind": "gaussian", "sigma": 1.0}
    if family == "general_moment_2o2p":
        doc["dynamics"]["a_dev"] = a_dev if a_dev is not None else 1.0
        doc["dynamics"]["b_dev"] = b_dev if b_dev is not None else 1.0
    if mc is not None:
        doc["monte_carlo"] = mc
    return doc


def make_scenario(**kwargs):
    return load_scenario(yaml.safe_dump(scenario_doc(**kwargs)))


def random_deterministic(rng, max_agents=4, max_horizon=12, max_p=4):
    """Well-behaved random deterministic instance."""
    agents = int(rng.integers(1, max_agents + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    p = int(rng.integers(1, max_p + 1))
    sign = lambda: float(rng.choice([-1.0, 1.0]))
    return make_scenario(
        family="deterministic_2p",
        agents=agents,
        horizon=horizon,
        p=p,
        a_bar=float(rng.uniform(0.5, 1.3)) * sign(),
        b_bar=[float(rng.uniform(0.3, 2.0)) * sign() for _ in range(agents)],
        q_bar=[float(rng.uniform(0.5, 5.0)) for _ in range(agents)],
        r_bar=[float(rng.uniform(0.5, 5.0)) for _ in range(agents)],
        initial={"mean": float(rng.uniform(0.5, 5.0)) * sign()},
    )


@pytest.fixture(scope="session")
def det_two_agent():
    return load_scenario((SCENARIOS / "deterministic_two_agent.yaml").read_text())


@pytest.fixture(scope="session")
def additive_two_agent():
    return load_scenario((SCENARIOS / "additive_two_agent.yaml").read_text())


@pytest.fixture(scope="session")
def multiplicative_two_agent():
    return load_scenario((SCENARIOS / "multiplicative_two_agent.yaml").read_text())


@pytest.fixture(scope="session")
def general_two_agent():
    return load_scenario((SCENARIOS / "general_moment_two_agent.yaml").read_text())


@pytest.fixture(scope="session")
def one_step_unit():
    """Hand-derived quartic one-step game: gains 1/3, leading coefficient 83/81."""
    return make_scenario(agents=2, horizon=1, p=2, b_bar=[1.0, 1.0])


def assert_close(actual, expected, rtol=0.0, atol=0.0):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


# Where each stochastic family's noise moment enters the deviation channel,
# in the tests' own words, independent of the solver's Family.noise_slot:
# "gain" scales the best-response argument, "closed_loop" the closed-loop
# term, "alpha" adds alpha_{k+1} times the moment, and "gamma" accumulates
# that product in a separate constant.
NOISE_ON = {"additive_variance_2p": ("gamma",), "multiplicative_variance_2p": ("alpha",),
            "general_moment_2o2p": ("gain", "closed_loop")}


def lone_channel(order, a, b, q, r, moment=None, noise_on=()):
    """Reference: one backward channel on its own, one loop per channel."""
    a, b, q, r = (np.asarray(v, dtype=float) for v in (a, b, q, r))
    agents, n = r.shape
    alpha = np.empty((agents, n + 1))
    alpha[:, n] = q[:, n]
    gamma = np.zeros((agents, n + 1)) if "gamma" in noise_on else None
    gain, c, clf = np.empty((agents, n)), np.empty((agents, n)), np.empty(n)
    for k in range(n - 1, -1, -1):
        nxt = alpha[:, k + 1]
        arg = nxt * b[:, k]
        if "gain" in noise_on:
            arg = arg * moment[k]
        eta = _odd_root(arg / r[:, k], order - 1)
        c[:, k] = eta / (1.0 + eta * b[:, k])
        g = eta / (1.0 + np.add.reduce(b[:, k] * eta))
        gain[:, k] = g
        clf[k] = a[k] * (1.0 - np.add.reduce(g * b[:, k]))
        term = nxt * even_power(clf[k], order)
        if "closed_loop" in noise_on:
            term = term * moment[k]
        alpha[:, k] = q[:, k] + r[:, k] * even_power(g * a[k], order) + term
        if "alpha" in noise_on:
            alpha[:, k] += nxt * moment[k]
        if gamma is not None:
            gamma[:, k] = gamma[:, k + 1] + nxt * moment[k]
    return alpha, gamma, gain, c, clf


def lone_solve(sc, noise_on):
    """Reference solve of a stochastic scenario from lone channels, with the
    deviation channel's noise moment placed as ``noise_on`` says; a wrong
    placement gives a negative control.  Returns (table, gains)."""
    general = sc.family is Family.GENERAL_MOMENT
    a, b = (sc.a_dev, sc.b_dev) if general else (sc.a_bar, sc.b_bar)
    moment = [noise_even_moment(sc.noise, k + 1, sc.moment_order) for k in range(sc.horizon)]
    alpha_bar, _, mean_gain, c_bar, clf_mean = lone_channel(
        2 * sc.p, sc.a_bar, sc.b_bar, sc.q_bar, sc.r_bar)
    alpha, gamma, dev_gain, c, clf_dev = lone_channel(
        sc.moment_order, a, b, sc.q_dev, sc.r_dev, moment, noise_on)
    return (CoefficientTable(alpha_bar, alpha, gamma),
            GainSchedule(mean_gain, c_bar, clf_mean, dev_gain, c, clf_dev))
