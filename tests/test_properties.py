"""Property-based checks over random valid scenarios of every family.

Each drawn scenario must survive serialization unchanged and load alike
under libyaml and the pure-Python loader, its canonical text must equal
PyYAML's safe_dump of the same document, and a scenario that solves must
pass every verification oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mftg import (
    CoefficientOverflowError,
    ScenarioValidationError,
    load_scenario,
    run_verification,
    serialize_scenario,
    solve,
)
from mftg.scenario import _yaml_scalar, scenario_to_doc
from conftest import LOADERS, load_with

FAMILIES = ("deterministic_2p", "additive_variance_2p",
            "multiplicative_variance_2p", "general_moment_2o2p")
NOISE_KINDS = ("gaussian", "rademacher", "uniform", "explicit_moments")
INITIAL_KINDS = ("deterministic", "gaussian_around_mean", "empirical_samples")

# Magnitudes are well scaled or exactly zero: a zero coefficient or noise
# scale is a degenerate but valid scenario.
magnitude = st.floats(0.2, 1.5)
coefficient = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
weight = st.floats(0.1, 5.0)
scale = st.one_of(st.just(0.0), st.floats(0.05, 1.5))


def _steps(draw, elements, n):
    """A scalar (broadcast to every step) or one value per step."""
    if draw(st.booleans()):
        return draw(elements)
    return draw(st.lists(elements, min_size=n, max_size=n))


def _per_agent(draw, elements, agents, n):
    return [_steps(draw, elements, n) for _ in range(agents)]


@st.composite
def scenario_docs(draw, max_horizon=30):
    family = draw(st.sampled_from(FAMILIES))
    agents = draw(st.integers(1, 8))
    n = draw(st.integers(1, max_horizon))
    doc = {
        "family": family,
        "agents": agents,
        "horizon": n,
        "p": draw(st.integers(1, 4)),
        "dynamics": {"a_bar": _steps(draw, coefficient, n),
                     "b_bar": _per_agent(draw, coefficient, agents, n)},
        "weights": {"q_bar": _per_agent(draw, weight, agents, n + 1),
                    "r_bar": _per_agent(draw, weight, agents, n)},
    }
    moment_order = 2
    if family == "general_moment_2o2p":
        doc["o"] = draw(st.integers(1, 4))
        moment_order = 2 * doc["o"]
        doc["dynamics"]["a_dev"] = _steps(draw, coefficient, n)
        doc["dynamics"]["b_dev"] = _per_agent(draw, coefficient, agents, n)
    if family != "deterministic_2p":
        doc["weights"]["q_dev"] = _per_agent(draw, weight, agents, n + 1)
        doc["weights"]["r_dev"] = _per_agent(draw, weight, agents, n)
        kind = draw(st.sampled_from(NOISE_KINDS))
        if kind == "explicit_moments":
            orders = sorted({2, moment_order})
            doc["noise"] = {"kind": kind, "moments": {
                order: _steps(draw, scale, n) for order in orders}}
        else:
            doc["noise"] = {"kind": kind, "sigma": _steps(draw, scale, n)}

    mean = draw(st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
    law = draw(st.sampled_from(INITIAL_KINDS))
    if law == "deterministic":
        initial = {"mean": mean, "kind": law}
        if draw(st.booleans()):
            initial["atom"] = mean + draw(st.floats(-2.0, 2.0))
    elif law == "gaussian_around_mean":
        initial = {"mean": mean, "kind": law, "variance": draw(st.floats(0.0, 2.0))}
    else:
        samples = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6))
        initial = {"kind": law, "samples": samples}
        if draw(st.booleans()):
            initial["mean"] = mean
    doc["initial"] = initial
    doc["monte_carlo"] = {"paths": draw(st.integers(0, 100)),
                          "seed": draw(st.integers(0, 2 ** 64 - 1))}
    return doc


def pyyaml_text(sc):
    """The reference canonical form: PyYAML's emitter on the same document."""
    return yaml.safe_dump(scenario_to_doc(sc), sort_keys=True, default_flow_style=False)


# Values at the edges of float formatting: signed zero (also next to an
# unsigned one, which compares equal but is written differently), the smallest
# subnormal, exponents without a decimal point, the largest finite weight,
# the largest seed and an explicit moment table of orders 2 and 10.
# Infinities are invalid in a scenario; test_scalars_match_pyyaml covers them.
EDGE_DOC = {
    "family": "general_moment_2o2p",
    "agents": 2,
    "horizon": 3,
    "p": 2,
    "o": 5,
    "dynamics": {"a_bar": [-0.0, 5e-324, 1e16], "b_bar": [[1e300, -0.0, 0.5], 2.5e-7],
                 "a_dev": [0.0, -0.0, -0.0], "b_dev": [-1e16, 0.1]},
    "weights": {"q_bar": [[1.0, 1.7976931348623157e308, 1e300, 2.0], 1.0],
                "r_bar": [5e-324, 1e16], "q_dev": 1.0, "r_dev": [0.1, 1e-300]},
    "noise": {"kind": "explicit_moments", "moments": {2: [0.0, 1e16, -0.0], 10: 945.0}},
    "initial": {"mean": -0.0, "kind": "gaussian_around_mean", "variance": 1e300},
    "monte_carlo": {"paths": 0, "seed": 2 ** 64 - 1},
}


def test_edge_values_serialize_like_pyyaml():
    sc = load_scenario(yaml.safe_dump(EDGE_DOC))
    text = serialize_scenario(sc)
    assert text == pyyaml_text(sc)
    assert "- -0.0\n" in text and "5.0e-324" in text and "1.7976931348623157e+308" in text
    assert load_scenario(text) == sc


def _run_doc(horizon, dynamics=None, weights=None, **top):
    """A valid two-agent general-moment document; the keyword arguments
    replace entries of its dynamics, its weights and its top level."""
    doc = {
        "family": "general_moment_2o2p", "agents": 2, "horizon": horizon, "p": 2, "o": 1,
        "dynamics": {"a_bar": 0.9, "b_bar": 1.0, "a_dev": 0.8, "b_dev": 0.5, **(dynamics or {})},
        "weights": {"q_bar": 1.0, "r_bar": 1.0, "q_dev": 2.0, "r_dev": 0.5, **(weights or {})},
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "initial": {"mean": 1.0, "kind": "deterministic"},
        "monte_carlo": {"paths": 0, "seed": 0},
    }
    doc.update(top)
    return doc


# The serializer writes one line per run of equal bit patterns in a row;
# these documents put runs where a boundary could go wrong.
RUN_DOCS = {
    "row end equals next row start": _run_doc(
        3, {"b_bar": [[1.0, 2.0, 3.0], [3.0, 3.0, 1.0]], "b_dev": [[0.5, 0.5, 0.5], 0.5]},
        {"q_bar": [[1.0, 2.0, 2.0, 2.5], [2.5, 2.5, 1.0, 1.0]]}),
    "signed zeros": _run_doc(
        4, {"a_bar": [-0.0, -0.0, -0.0, 0.0], "b_bar": [[0.0, -0.0, 0.0, -0.0], -0.0],
            "a_dev": [0.0, 0.0, -0.0, -0.0]},
        initial={"mean": -0.0, "kind": "deterministic", "atom": 0.0}),
    "smallest subnormal": _run_doc(
        4, {"a_bar": 5e-324, "b_dev": [[5e-324, 5e-324, 1.0, 5e-324], 1.0]},
        {"r_bar": [5e-324, [1.0, 5e-324, 5e-324, 5e-324]]}),
    "one step": _run_doc(1, {"b_bar": [[2.0], 2.0]}, {"q_bar": [[1.0, 1.0], [1.0, 3.0]]}),
    "explicit moments of orders 2 and 10": _run_doc(
        3, o=5, noise={"kind": "explicit_moments",
                       "moments": {2: [1.0, 1.0, 0.25], 10: [945.0, 945.0, 945.0]}}),
    "repeated empirical samples": _run_doc(
        2, initial={"kind": "empirical_samples", "samples": [1.0, 1.0, 2.0, 2.0, 2.0, -0.5]}),
}


@pytest.mark.parametrize("doc", RUN_DOCS.values(), ids=RUN_DOCS.keys())
def test_runs_serialize_like_pyyaml(doc):
    sc = load_scenario(yaml.safe_dump(doc))
    text = serialize_scenario(sc)
    assert text == pyyaml_text(sc)
    assert load_scenario(text) == sc
    # Scenario equality takes 0.0 for -0.0; the text keeps them apart.
    assert serialize_scenario(load_scenario(text)) == text


def test_empty_horizon_serializes_like_pyyaml():
    """Horizon 0 is invalid, but its empty tables and empty rows are
    written as PyYAML writes them, and the text parses back to the document."""
    sc = load_scenario(yaml.safe_dump(_run_doc(1)))
    empty_rows = np.empty((sc.agents, 0))
    sc = dataclasses.replace(
        sc, horizon=0, a_bar=np.empty(0), a_dev=np.empty(0), b_bar=empty_rows, b_dev=empty_rows,
        r_bar=empty_rows, r_dev=empty_rows, q_bar=sc.q_bar[:, :1], q_dev=sc.q_dev[:, :1],
        noise=dataclasses.replace(sc.noise, sigma=np.empty(0)))
    text = serialize_scenario(sc)
    assert text == pyyaml_text(sc)
    assert "a_bar: []\n" in text and "  b_bar:\n  - []\n  - []\n" in text
    assert yaml.safe_load(text) == scenario_to_doc(sc)
    with pytest.raises(ScenarioValidationError, match="horizon must be >= 1"):
        load_scenario(text)


def test_wide_shaped_scenario_serializes_like_pyyaml():
    """Twenty agents over 200 steps: per-agent scalars broadcast to long
    runs, and a per-step a_bar with no runs at all."""
    rng = np.random.default_rng(7)
    agents, n = 20, 200

    def draw(lo, hi, size):
        return rng.uniform(lo, hi, size).tolist()

    doc = {
        "family": "general_moment_2o2p", "agents": agents, "horizon": n, "p": 2, "o": 2,
        "dynamics": {"a_bar": draw(0.95, 1.05, n), "b_bar": draw(0.5, 1.5, agents),
                     "a_dev": draw(0.85, 0.95, n), "b_dev": draw(0.5, 1.5, agents)},
        "weights": {"q_bar": draw(1.0, 5.0, agents), "r_bar": draw(1.0, 5.0, agents),
                    "q_dev": draw(1.0, 3.0, agents), "r_dev": draw(1.0, 3.0, agents)},
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "initial": {"mean": 4.0, "kind": "gaussian_around_mean", "variance": 1.0},
        "monte_carlo": {"paths": 0, "seed": 29},
    }
    sc = load_scenario(yaml.safe_dump(doc))
    text = serialize_scenario(sc)
    assert text == pyyaml_text(sc)
    assert load_scenario(text) == sc


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                   1e16, -1e300, 1.5e-7, 123.0, 0.1, 2 ** 64 - 1, 7])
def test_scalars_match_pyyaml(value):
    assert _yaml_scalar(value) == yaml.safe_dump([value]).strip()[2:]


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(scenario_docs())
def test_valid_scenarios_round_trip_and_verify(doc):
    sc = load_scenario(yaml.safe_dump(doc))
    assert serialize_scenario(sc) == pyyaml_text(sc)
    assert load_scenario(serialize_scenario(sc)) == sc
    try:
        table, gains = solve(sc)
    except CoefficientOverflowError:
        return
    report = run_verification(sc, table, gains)
    assert report.passed, (report.failures(), doc)


@pytest.mark.skipif(len(LOADERS) < 2, reason="PyYAML built without libyaml")
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(scenario_docs())
def test_loaders_build_equal_scenarios(doc):
    text = yaml.safe_dump(doc)
    assert load_with(yaml.CSafeLoader, text) == load_with(yaml.SafeLoader, text)
