"""Property-based checks over random valid scenarios of every family.

Each drawn scenario must survive serialization unchanged, and a scenario that
solves must pass every verification oracle.
"""

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mftg import (
    CoefficientOverflowError,
    load_scenario,
    run_verification,
    serialize_scenario,
    solve,
)

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
def scenario_docs(draw):
    family = draw(st.sampled_from(FAMILIES))
    agents = draw(st.integers(1, 8))
    n = draw(st.integers(1, 30))
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


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(scenario_docs())
def test_valid_scenarios_round_trip_and_verify(doc):
    sc = load_scenario(yaml.safe_dump(doc))
    assert load_scenario(serialize_scenario(sc)) == sc
    try:
        table, gains = solve(sc)
    except CoefficientOverflowError:
        return
    report = run_verification(sc, table, gains)
    assert report.passed, (report.failures(), doc)
