"""Generator and solution check for the `wide` workload's scenario.

The scenario is a general-moment game (o = 2, p = 2) with I = 20 agents and
N = 1000 steps.  The sizes are fixed; the seed only draws the coefficients,
from ranges that keep every coefficient far below the overflow limit.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import yaml

AGENTS = 20
HORIZON = 1000
ARRAY_FIELDS = ("a_bar", "b_bar", "q_bar", "r_bar", "a_dev", "b_dev", "q_dev", "r_dev")


def scenario_yaml(seed: int) -> str:
    """YAML text of the wide scenario drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57DE]))
    signs = np.where(rng.random(AGENTS) < 0.5, -1.0, 1.0)

    def draw(lo, hi, size, scale=1.0):
        return [float(v) for v in scale * rng.uniform(lo, hi, size)]

    doc = {
        "family": "general_moment_2o2p",
        "agents": AGENTS,
        "horizon": HORIZON,
        "p": 2,
        "o": 2,
        "dynamics": {
            "a_bar": draw(0.95, 1.05, HORIZON),
            "b_bar": draw(0.5, 1.5, AGENTS, signs),
            "a_dev": draw(0.85, 0.95, HORIZON),
            "b_dev": draw(0.5, 1.5, AGENTS),
        },
        "weights": {
            "q_bar": draw(1.0, 5.0, AGENTS),
            "r_bar": draw(1.0, 5.0, AGENTS),
            "q_dev": draw(1.0, 3.0, AGENTS),
            "r_dev": draw(1.0, 3.0, AGENTS),
        },
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "initial": {
            "mean": float(rng.uniform(2.0, 8.0)),
            "kind": "gaussian_around_mean",
            "variance": 1.0,
        },
        "monte_carlo": {"paths": 0, "seed": int(seed)},
    }
    return yaml.safe_dump(doc, sort_keys=True)


def write_scenario(seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(scenario_yaml(seed), encoding="utf-8")
    return path


def check_solution(path: Path) -> list[str]:
    """Solve the scenario and sweep the stationarity and one-step value
    oracles over every (agent, step); return one message per failed oracle."""
    from mftg.recursion import solve, stationarity_residual
    from mftg.scenario import load_scenario_file
    from mftg.verify import BELLMAN_TOL, STATIONARITY_TOL, bellman_identity_check

    sc = load_scenario_file(path)
    table, gains = solve(sc)
    # The oracles convert the scenario's nested tuples to arrays on every
    # call; handing them arrays gives the same numbers without repeating
    # that conversion for each of the 20k (agent, step) pairs.
    sc = dataclasses.replace(sc, **{f: np.asarray(getattr(sc, f)) for f in ARRAY_FIELDS})
    stationarity = max(
        stationarity_residual(sc, table, gains, i, k)
        for i in range(sc.agents) for k in range(sc.horizon)
    )
    bellman = max(bellman_identity_check(sc, table, gains, k) for k in range(sc.horizon))
    failures = []
    if not stationarity <= STATIONARITY_TOL:
        failures.append(f"wide stationarity residual {stationarity:.3e} above {STATIONARITY_TOL:g}")
    if not bellman <= BELLMAN_TOL:
        failures.append(f"wide one-step value residual {bellman:.3e} above {BELLMAN_TOL:g}")
    return failures
