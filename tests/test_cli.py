import contextlib
import copy
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mftg.cli
import mftg.simulate
from mftg import (csvformat, inject_gain_scaling, load_scenario_file, propagate_mean,
                  run_verification, serialize_scenario, solve)
from mftg.cli import main
from mftg.errors import CoefficientOverflowError
from conftest import SCENARIOS, make_scenario, scenario_doc

DET = str(SCENARIOS / "deterministic_two_agent.yaml")
ADD = str(SCENARIOS / "additive_two_agent.yaml")
MULT = str(SCENARIOS / "multiplicative_two_agent.yaml")
GEN = str(SCENARIOS / "general_moment_two_agent.yaml")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_doc(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _spy_on_path_store(monkeypatch):
    """Record, for each ensemble the CLI runs, whether it kept its paths."""
    stored, run = [], mftg.simulate.run_ensemble

    def spy(*args, **kwargs):
        ensemble = run(*args, **kwargs)
        stored.append(ensemble.x is not None)
        return ensemble

    monkeypatch.setattr(mftg.cli, "run_ensemble", spy)
    return stored


class TestSolve:
    def test_example_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", DET, "--out", str(out)]) == 0
        rows = read_csv(out / "coefficients.csv")
        assert len(rows) == 2 * 8  # two agents, k = 0..7
        assert all(float(r["alpha_bar"]) > 0 for r in rows)
        assert all(r["alpha"] == "" for r in rows)
        gains = read_csv(out / "gains.csv")
        assert len(gains) == 2 * 7
        manifest = (out / "manifest.txt").read_text()
        assert "scenario_digest = sha256:" in manifest
        assert "file coefficients.csv = sha256:" in manifest

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 1

    def test_empty_file_exit_2(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_coefficient_overflow_exit_4(self, tmp_path, capsys):
        doc = scenario_doc(agents=1, horizon=4, p=4, a_bar=1e30, b_bar=[0.0])
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: alpha_bar coefficient exceeded 1e+300 for agent 1 at step 2;")

    def test_nonfinite_best_response_argument_exit_4(self, tmp_path, capsys):
        doc = scenario_doc(agents=1, horizon=2, p=2, a_bar=1.0, b_bar=[1e10],
                           q_bar=[1e300], r_bar=[1e-10])
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: alpha_bar best-response argument alpha_{k+1} b / r (times the noise "
            "moment, if any) is not finite for agent 1 at step 1")

    def test_zero_weight_exit_3(self, tmp_path, capsys):
        doc = scenario_doc(q_bar=[0.0, 1.0])
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 3
        assert "positivity" in capsys.readouterr().err

    def test_infinite_weight_exit_3(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(ADD).read_text())
        doc["weights"]["q_bar"] = [math.inf, 5.0]
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["validation error [coefficient-bounded]: boundedness violated: q_bar "
                       "for agent 1 has an infinite entry (cost weights must be finite)"]

    @pytest.mark.parametrize("noise", [
        {"kind": "gaussian", "sigma": math.inf},
        {"kind": "uniform", "sigma": math.nan},
        {"kind": "explicit_moments", "sigma": 1.0, "moments": {4: math.inf}},
    ])
    def test_nonfinite_noise_exit_3(self, tmp_path, capsys, noise):
        doc = yaml.safe_load(Path(GEN).read_text())
        doc["noise"] = noise
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "boundedness violated: noise." in err and "non-finite" in err

    def test_noise_moment_overflow_exit_4(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(GEN).read_text())
        doc["noise"]["sigma"] = 1.0e100
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: noise moment E[eps^4] at step 1 overflows for sigma 1e+100"]

    def test_huge_moment_order_exit_4_at_once(self, tmp_path, capsys):
        # (2o - 1)!! stops growing at its first infinite partial product, so
        # this order overflows at once rather than after 1e20 factors.
        doc = yaml.safe_load(Path(GEN).read_text())
        doc["o"] = 10 ** 20
        assert main(["solve", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: noise moment E[eps^200000000000000000000] at step 1 overflows for sigma 0.5"]

    def test_solve_manifest_hashes_reproduce(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", DET, "--out", str(out1)])
        main(["solve", DET, "--out", str(out2)])
        lines1 = [l for l in (out1 / "manifest.txt").read_text().splitlines()
                  if l.startswith("file ")]
        lines2 = [l for l in (out2 / "manifest.txt").read_text().splitlines()
                  if l.startswith("file ")]
        assert lines1 == lines2

    def test_usage_without_subcommand(self):
        assert main([]) == 1


class TestSimulate:
    def test_deterministic_warns_and_ignores_paths(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", DET, "--out", str(out), "--paths", "100"]) == 0
        assert "ignored" in capsys.readouterr().err
        assert (out / "meanpath.csv").exists()
        assert not (out / "ensemble_stats.csv").exists()

    @pytest.mark.parametrize("scenario, paths, argv, warning", [
        (DET, 0, [], None),
        (DET, 5, [], "warning: deterministic scenario; monte_carlo.paths ignored, mean path only"),
        (DET, 0, ["--paths", "100"],
         "warning: deterministic scenario; --paths ignored, mean path only"),
        (DET, 5, ["--paths", "0"], None),
        (ADD, 0, [], "warning: monte_carlo.paths is 0; mean path only"),
        (ADD, 10, ["--paths", "0"], "warning: --paths is 0; mean path only"),
        (ADD, 0, ["--paths", "10"], None),
    ])
    def test_paths_warning_names_its_source(self, tmp_path, capsys, scenario, paths, argv,
                                            warning):
        doc = yaml.safe_load(Path(scenario).read_text())
        doc["monte_carlo"]["paths"] = paths
        assert main(["simulate", write_doc(tmp_path, doc), "--out", str(tmp_path / "out"),
                     *argv]) == 0
        assert capsys.readouterr().err.splitlines() == ([warning] if warning else [])

    def test_stochastic_outputs_and_cost_band(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out), "--paths", "4000",
                     "--seed", "42"]) == 0
        stats = read_csv(out / "ensemble_stats.csv")
        assert len(stats) == 11
        costs = read_csv(out / "costs.csv")
        assert len(costs) == 2
        for row in costs:
            gap = abs(float(row["total"]) - float(row["predicted"]))
            assert gap <= 3.0 * float(row["std_error"])

    @pytest.mark.parametrize("argv, runs", [
        (["simulate", "--paths", "50"], [""]),
        (["sweep", "--sweep", "p=2,3"], ["p=2/", "p=3/"]),
    ], ids=["simulate", "sweep"])
    def test_mean_path_propagated_once(self, tmp_path, monkeypatch, argv, runs):
        """An ensemble run, of `simulate` or of each `sweep` value, writes
        meanpath.csv from the ensemble's own mean path, first in the
        manifest's file list after solve's files."""
        calls, propagate = [], mftg.simulate.propagate_mean

        def counted(sc, gains):
            calls.append(sc)
            return propagate(sc, gains)

        monkeypatch.setattr(mftg.simulate, "propagate_mean", counted)
        monkeypatch.setattr(mftg.cli, "propagate_mean", counted)
        out = tmp_path / "out"
        assert main([argv[0], ADD, "--out", str(out), *argv[1:]]) == 0
        assert len(calls) == len(runs)
        for run in runs:
            files = [line for line in (out / run / "manifest.txt").read_text().splitlines()
                     if line.startswith("file ")
                     and line.split()[1] not in ("coefficients.csv", "gains.csv")]
            assert files[0].startswith("file meanpath.csv = "), run

    def test_path_store_kept_only_when_trajectories_are_written(self, tmp_path, monkeypatch):
        """A run whose trajectories.csv would pass the row limit streams its
        paths instead of keeping a store that nothing reads."""
        stored = _spy_on_path_store(monkeypatch)
        horizon_rows = 11  # additive_two_agent: N = 10
        monkeypatch.setattr(mftg.cli, "TRAJECTORY_ROW_LIMIT", 90 * horizon_rows)
        for paths, written in ((90, True), (91, False)):
            out = tmp_path / str(paths)
            assert main(["simulate", ADD, "--out", str(out), "--paths", str(paths)]) == 0
            assert (out / "trajectories.csv").exists() is written
        assert stored == [True, False]

    def test_store_past_the_budget_warns(self, tmp_path, capsys, monkeypatch):
        """A run at or below the store cap whose store does not fit beside
        one-block slabs streams its paths, and says that it writes no
        trajectories.csv."""
        sc = load_scenario_file(ADD)
        _, held, per_block, _ = mftg.simulate._memory_plan(sc, 1000, store_cap=0)
        monkeypatch.setattr(mftg.simulate, "MAX_PATH_FLOATS", held + per_block)
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out), "--paths", "1000"]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "costs.csv", "ensemble_stats.csv", "manifest.txt", "meanpath.csv"]
        assert capsys.readouterr().err.splitlines() == [
            "warning: the path store does not fit the in-memory budget; "
            "trajectories.csv not written"]

    def test_seed_repeatability_bytes(self, tmp_path):
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            assert main(["simulate", ADD, "--out", str(out), "--paths", "2000",
                         "--seed", "7"]) == 0
        first = (outs[0] / "ensemble_stats.csv").read_bytes()
        assert (outs[1] / "ensemble_stats.csv").read_bytes() == first

    def test_thread_count_does_not_change_output(self, tmp_path):
        """--threads is accepted and ignored: every file has the same bytes,
        the manifest too once its created_utc line is dropped."""
        outputs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}"
            assert main(["simulate", ADD, "--out", str(out), "--paths", "5000",
                         "--seed", "11", "--threads", threads]) == 0
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            files["manifest.txt"] = b"".join(
                line for line in files["manifest.txt"].splitlines(keepends=True)
                if not line.startswith(b"created_utc = "))
            outputs.append(files)
        assert "ensemble_stats.csv" in outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_plots_written(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out), "--paths", "500",
                     "--seed", "1", "--plot"]) == 0
        for name in ("state.svg", "controls.svg", "coefficients.svg"):
            body = (out / name).read_text()
            assert body.startswith("<svg") and "polyline" in body

    def test_trajectories_written_when_stored(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out), "--paths", "50",
                     "--seed", "3"]) == 0
        rows = read_csv(out / "trajectories.csv")
        assert len(rows) == 50 * 11

    def test_explicit_moment_noise_exit_3(self, tmp_path, capsys):
        doc = scenario_doc(family="additive_variance_2p", horizon=3,
                           noise={"kind": "explicit_moments", "moments": {2: 1.0}},
                           mc={"paths": 8, "seed": 0})
        code = main(["simulate", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_old_stream_scheme_exit_2(self, tmp_path, capsys):
        doc = scenario_doc(family="additive_variance_2p", horizon=3,
                           mc={"paths": 8, "seed": 0, "stream_scheme": "per-path substream"})
        code = main(["simulate", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "stream_scheme" in capsys.readouterr().err

    def test_negative_paths_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out), "--paths", "-5"]) == 1
        assert "--paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_exit_1(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out), "--paths", "50",
                     f"--threads={threads}"]) == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, initial", [
        ("mean", {"mean": math.nan}),
        ("variance", {"mean": 1.0, "kind": "gaussian_around_mean", "variance": math.inf}),
        ("atom", {"mean": 1.0, "atom": math.nan}),
        ("samples", {"kind": "empirical_samples", "mean": 1.0, "samples": [1.0, math.inf]}),
        ("samples", {"kind": "empirical_samples", "samples": [-math.inf, math.inf]}),
    ])
    def test_nonfinite_initial_law_exit_3(self, tmp_path, capsys, field, initial):
        doc = yaml.safe_load(Path(ADD).read_text())
        doc["initial"] = initial
        out = tmp_path / "o"
        assert main(["simulate", write_doc(tmp_path, doc), "--out", str(out),
                     "--paths", "100"]) == 3
        assert (f"validation error [initial-law]: initial.{field} must be finite"
                in capsys.readouterr().err.splitlines())
        assert not (out / "costs.csv").exists()

    def test_resource_error_exit_5(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", ADD, "--out", str(out),
                     "--paths", str(10 ** 12)]) == 5


class TestVerify:
    def test_one_step_game_passes(self, tmp_path):
        doc = scenario_doc(agents=2, horizon=1, p=2, b_bar=[1.0, 1.0])
        out = tmp_path / "out"
        code = main(["verify", write_doc(tmp_path, doc), "--out", str(out)])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "PASSED" in summary

    def test_injected_corruption_exit_6(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", DET, "--out", str(out), "--grid", "41x0.2",
                     "--inject-gain", "1:*:1.2"])
        assert code == 6
        assert "deviation margin" in capsys.readouterr().err
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("inject", [None, "1:*:1.2"])
    def test_summary_renders_each_section(self, tmp_path, capsys, inject):
        # summary.txt holds one line per report.checks section, in order,
        # each showing the section's first failing row, or else its largest
        # value; stderr repeats the failing ones.
        out = tmp_path / "out"
        code = main(["verify", DET, "--out", str(out),
                     *(["--inject-gain", inject] if inject else [])])
        sc = load_scenario_file(DET)
        table, gains = solve(sc)
        if inject:
            gains = inject_gain_scaling(gains, 0, None, 1.2)
        checks = run_verification(sc, table, gains).checks
        lines = (out / "summary.txt").read_text().splitlines()
        head = (["verification FAILED", f"gain corruption injected: {inject}"] if inject
                else ["verification PASSED"])
        assert code == (6 if inject else 0)
        assert lines[:len(head)] == head
        body = lines[len(head):]
        sections = list(dict.fromkeys(check.section for check in checks))
        assert [line.split()[0] for line in body] == sections
        for section, line in zip(sections, body):
            rows = [check for check in checks if check.section == section]
            failed = [check for check in rows if not check.passed]
            shown = failed[0] if failed else max(
                rows, key=lambda check: float(check.value) if len(rows) > 1 else 0.0)
            where = (f" for agent {shown.agent}" if shown.agent else "") + (
                f" at step {shown.step}" if shown.step else "")
            verdict = f"{len(failed)} of {len(rows)} rows fail" if failed else "ok"
            assert line == (f"{section} {shown.metric} {shown.value} (tolerance "
                            f"{shown.tolerance}){where}: {verdict}")
        failing = {check.section for check in checks if not check.passed}
        assert failing == ({"deviation", "stationarity", "bellman"} if inject else set())
        assert capsys.readouterr().err.splitlines() == [
            f"verification failed: {line}" for section, line in zip(sections, body)
            if section in failing]

    def test_multiplicative_example_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", MULT, "--out", str(out), "--grid", "41x0.2"])
        assert code == 0
        rows = read_csv(out / "report.csv")
        sections = {row["section"] for row in rows}
        assert {"deviation", "stationarity", "positivity", "convexity",
                "bellman"} <= sections

    def test_bad_grid_spec_exit_2(self, tmp_path):
        assert main(["verify", DET, "--out", str(tmp_path / "o"),
                     "--grid", "banana"]) == 2

    @pytest.mark.parametrize("spec", ["0x0.2", "-3x0.2", "11x0", "11x-0.1", "11xnan", "11xinf",
                                      "1x0.2", "2x0.2", "40x0.2"])
    def test_empty_or_degenerate_grid_exit_2(self, tmp_path, spec):
        assert main(["verify", DET, "--out", str(tmp_path / "o"),
                     f"--grid={spec}"]) == 2

    @pytest.mark.parametrize("spec", ["3x1e-300", "5x1e-17", "101x1e-15"])
    def test_collapsed_grid_exit_2(self, tmp_path, capsys, spec):
        # Every factor rounds to 1.0, so every margin would read 0 and even a
        # corrupted gain would pass the scan.
        out = tmp_path / "o"
        assert main(["verify", ADD, "--out", str(out), f"--grid={spec}",
                     "--inject-gain", "1:*:1.5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: deviation grid factors")
        assert "not strictly increasing" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("scenario, injection, status, where", [
        *((path, "2:3:1.2", "fail", ("2", "3")) for path in (DET, ADD, MULT, GEN)),
        # p = 4 and a tiny a_bar: at unit state both terms of the residual
        # carry a_bar^7, which underflows
        (1.0e-45, None, "pass", None),
        (1.0e-46, "1:1:1.01", "fail", ("1", "1")),
    ], ids=["deterministic", "additive", "multiplicative", "general-moment",
            "tiny-a-solved", "tiny-a-injected"])
    def test_stationarity_row_names_the_worst_pair(self, tmp_path, capsys, scenario,
                                                   injection, status, where):
        if isinstance(scenario, float):
            scenario = write_doc(tmp_path, scenario_doc(
                agents=2, horizon=3, p=4, a_bar=scenario, b_bar=[0.8, -1.1], q_bar=1.3,
                r_bar=[0.9, 1.4], initial={"mean": 1.0}))
        out = tmp_path / "out"
        injected = ["--inject-gain", injection] if injection else []
        assert main(["verify", scenario, "--out", str(out), *injected]) == \
            (0 if status == "pass" else 6)
        row, = [row for row in read_csv(out / "report.csv") if row["section"] == "stationarity"]
        assert row["status"] == status
        if where:
            assert (row["agent"], row["step"]) == where
            assert (f"verification failed: stationarity max_residual {row['value']} (tolerance "
                    f"1e-09) for agent {where[0]} at step {where[1]}: 1 of 1 rows fail") \
                in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("injection", [None, "1:*:1.2"])
    def test_convexity_is_scale_free(self, tmp_path, injection):
        # At unit state the curvature carries a_bar^(2p-2): with a_bar 1e-294
        # it underflowed to 0 and failed a correct solve.  Per unit of a it
        # reads as at a_bar 1, and an injected gain still fails the run.
        doc = yaml.safe_load(Path(DET).read_text())
        doc["dynamics"]["a_bar"] = 1.0e-294
        out = tmp_path / "out"
        injected = ["--inject-gain", injection] if injection else []
        assert main(["verify", write_doc(tmp_path, doc), "--out", str(out), *injected]) == \
            (6 if injection else 0)
        row, = [row for row in read_csv(out / "report.csv") if row["section"] == "convexity"]
        assert row["status"] == "pass" and float(row["value"]) > 1.0

    @pytest.mark.parametrize("option", ["--paths=5", "--seed=3", "--probes=7"])
    def test_retired_replay_options_exit_1(self, tmp_path, option):
        assert main(["verify", ADD, "--out", str(tmp_path / "o"), option]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["grid", "grid-huge"])
    def test_size_options_past_the_budget_exit_5(self, tmp_path, capsys, monkeypatch, option):
        # Just past the budget, and the --grid of a bug report; either is
        # refused before the scenario is solved or any table is built.
        def unreachable(sc):
            raise AssertionError("solve reached past a size check")

        monkeypatch.setattr(mftg.cli, "solve", unreachable)
        sc = load_scenario_file(ADD)
        budget = mftg.simulate.MAX_PATH_FLOATS
        points = budget // (sc.horizon + 1) + 1
        size = {"grid": f"--grid={points + 1 - points % 2}x0.2",
                "grid-huge": "--grid=100000000000001x0.2"}[option]
        out = tmp_path / "out"
        assert main(["verify", ADD, "--out", str(out), size]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --{option.split('-')[0]} ")
        assert str(budget) in err[0]
        assert not out.exists()

    def test_grid_past_the_budget_over_agents_exit_5(self, tmp_path, capsys, monkeypatch):
        # The scan holds (agent, factor) tables: with more agents than steps,
        # the agents bound the grid.
        def unreachable(sc):
            raise AssertionError("solve reached past a size check")

        monkeypatch.setattr(mftg.cli, "solve", unreachable)
        budget = 101 * 3
        monkeypatch.setattr(mftg.cli, "MAX_PATH_FLOATS", budget)
        path = write_doc(tmp_path, scenario_doc(agents=8, horizon=2))
        out = tmp_path / "out"
        assert main(["verify", path, "--out", str(out), "--grid=101x0.2"]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --grid 101 points over 8 agents ")
        assert str(budget) in err[0]
        assert not out.exists()

    def test_bad_injection_spec_exit_2(self, tmp_path):
        assert main(["verify", DET, "--out", str(tmp_path / "o"),
                     "--inject-gain", "9:*:1.2"]) == 2

    @pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
    def test_nonfinite_injection_factor_exit_2(self, tmp_path, capsys, factor):
        out = tmp_path / "o"
        assert main(["verify", DET, "--out", str(out), "--inject-gain", f"1:*:{factor}"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --inject-gain factor must be finite, got '{factor}'"]
        assert not (out / "report.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("change, message", [
    ({"p": 600},
     "error: predicted cost of agent 1 overflows at the initial state (mean 5, "
     "cost orders [1200, 4])"),
    ({"o": 40, "noise": {"kind": "gaussian", "sigma": 0.01},
      "initial": {"kind": "gaussian_around_mean", "mean": 1.0, "variance": 1.0e10}},
     "error: predicted cost of agent 1 overflows at the initial state (mean 1, "
     "cost orders [4, 80])"),
], ids=["mean-power", "initial-moment"])
def test_overflowing_cost_exit_4(tmp_path, capsys, command, change, message):
    # Each solves, but a cost priced from the initial state overflows.
    doc = yaml.safe_load(Path(GEN).read_text())
    doc.update(change)
    out = tmp_path / "o"
    assert main([command, write_doc(tmp_path, doc), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


class TestSweep:
    def test_p_sweep_blocks(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", DET, "--out", str(out), "--sweep", "p=2,3,4"]) == 0
        rows = read_csv(out / "sweep_coefficients.csv")
        assert {row["value"] for row in rows} == {"2", "3", "4"}
        assert len(rows) == 3 * 2 * 8
        # alpha_bar tables must differ across p
        by_p = {p: [r["alpha_bar"] for r in rows if r["value"] == p]
                for p in ("2", "3", "4")}
        assert by_p["2"] != by_p["3"]
        assert (out / "p=2" / "manifest.txt").exists()

    def test_additive_dev_tables_identical_across_p(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", ADD, "--out", str(out), "--sweep", "p=2,3,4"]) == 0
        rows = read_csv(out / "sweep_coefficients.csv")
        by_p = {}
        for row in rows:
            by_p.setdefault(row["value"], []).append((row["alpha"], row["gamma_bar"]))
        assert by_p["2"] == by_p["3"] == by_p["4"]

    def test_o_sweep_on_non_general_family_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", ADD, "--out", str(out), "--sweep", "o=2,3"]) == 3
        assert "o is only valid" in capsys.readouterr().err
        assert not (out / "o=2" / "costs.csv").exists()

    def test_overflowing_cost_fails_before_any_path(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(GEN).read_text())
        doc.update(o=40, noise={"kind": "gaussian", "sigma": 0.01},
                   initial={"kind": "gaussian_around_mean", "mean": 1.0, "variance": 1.0e10})
        assert main(["sweep", write_doc(tmp_path, doc), "--sweep", "p=2",
                     "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "sweep p=2 failed: predicted cost of agent 1 overflows at the initial state "
            "(mean 1, cost orders [4, 80])"]

    @pytest.mark.parametrize("fail_first", [False, True], ids=["all_run", "first_fails"])
    @pytest.mark.parametrize("scenario, paths, warning", [
        (DET, 5, "warning: deterministic scenario; monte_carlo.paths ignored, mean path only"),
        (ADD, 0, "warning: monte_carlo.paths is 0; mean path only"),
    ])
    def test_paths_warning_once_per_sweep(self, tmp_path, capsys, monkeypatch, scenario, paths,
                                          warning, fail_first):
        """The warning is printed once, also when the first value fails
        after the point where its simulate body used to print it."""
        if fail_first:
            evaluate, calls = mftg.cli.evaluate_cost, []

            def fails_once(*args):
                calls.append(args)
                if len(calls) == 1:
                    raise CoefficientOverflowError("cost overflows")
                return evaluate(*args)

            monkeypatch.setattr(mftg.cli, "evaluate_cost", fails_once)
        doc = yaml.safe_load(Path(scenario).read_text())
        doc["monte_carlo"]["paths"] = paths
        assert main(["sweep", write_doc(tmp_path, doc), "--out", str(tmp_path / "out"),
                     "--sweep", "p=2,3,4"]) == (4 if fail_first else 0)
        err = capsys.readouterr().err.splitlines()
        assert err == [warning] + (["sweep p=2 failed: cost overflows"] if fail_first else [])

    def test_sweep_keeps_no_path_store(self, tmp_path, monkeypatch):
        """sweep writes no trajectories.csv, so its ensembles keep no store."""
        stored = _spy_on_path_store(monkeypatch)
        assert main(["sweep", ADD, "--out", str(tmp_path / "out"), "--sweep", "p=2,3"]) == 0
        assert stored == [False, False]

    def test_empty_sweep_exit_1(self, tmp_path):
        assert main(["sweep", DET, "--out", str(tmp_path / "o"), "--sweep", "p="]) == 1

    def test_unknown_parameter_exit_1(self, tmp_path):
        assert main(["sweep", DET, "--out", str(tmp_path / "o"),
                     "--sweep", "sigma=1,2"]) == 1


@pytest.mark.parametrize("argv", [
    ["solve", DET],
    ["simulate", ADD, "--paths", "10"],
    ["verify", DET, "--grid", "3x0.2"],
    ["sweep", DET, "--sweep", "p=1,2"],
], ids=["solve", "simulate", "verify", "sweep"])
def test_out_naming_a_file_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("a regular file\n")
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert out.read_text() == "a regular file\n"


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
@pytest.mark.parametrize("horizon", [10 ** 30, 2 ** 62, 10 ** 12])
def test_huge_horizon_exit_5_before_any_table(tmp_path, capsys, command, horizon):
    doc = yaml.safe_load(Path(DET).read_text())
    doc["horizon"] = horizon
    out = tmp_path / "o"
    assert main([command, write_doc(tmp_path, doc), "--out", str(out)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: 2 agents over {horizon} steps")
    assert not out.exists()


def test_float_overflow_exit_4(tmp_path, capsys):
    # The gains cancel a huge a_bar only to roundoff, so the simulated
    # deviations leave the float range; nothing is written with an inf.
    doc = yaml.safe_load(Path(ADD).read_text())
    doc["dynamics"]["a_bar"] = 1e30
    out = tmp_path / "o"
    assert main(["simulate", write_doc(tmp_path, doc), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    # The operation NumPy names (square or multiply) depends on its version.
    assert len(err) == 1 and err[0].startswith("error: floating-point overflow encountered in ")
    assert not (out / "ensemble_stats.csv").exists()


# One field of a shipped scenario deleted or replaced by one of these.
_DELETE = object()
_NEAR_VALID = [_DELETE, None, True, False, "x", "1", [], {}, -1, -0.5, 0, 0.0, 10 ** 30,
               2 ** 62, 10 ** 12, math.inf, -math.inf, math.nan, 5e-324, 1e-310]


def _fields(node, path=()):
    """The path of every mapping entry and list item of a document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


_SHIPPED = {path.name: yaml.safe_load(path.read_text())
            for path in sorted(SCENARIOS.glob("*.yaml"))}
_SHIPPED_FIELDS = [(name, field) for name, doc in _SHIPPED.items() for field in _fields(doc)]
# stderr lines a run may print, by exit code; a sweep also names each
# value that failed, and a usage error (exit 1) prints the usage first.
_ERRORS = ("error:", "validation error", "sweep ")
_STDERR = {0: ("warning:",), 1: _ERRORS + ("usage: mftg", " ", "mftg "),
           6: ("verification failed:",)}


def _assert_documented_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(7)
    lines = err.getvalue().splitlines()
    assert all(line.startswith(_STDERR.get(code, _ERRORS)) for line in lines), lines
    return code, lines


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.sampled_from(_SHIPPED_FIELDS), st.sampled_from(_NEAR_VALID),
       st.sampled_from([("solve",), ("simulate",), ("verify",), ("sweep", "--sweep", "p=1,2")]))
def test_near_valid_documents_end_in_an_exit_code(tmp_path_factory, field, value, command):
    name, path = field
    doc = copy.deepcopy(_SHIPPED[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("near_valid")
    _assert_documented_exit([command[0], write_doc(tmp, doc), "--out", str(tmp / "o"),
                             *command[1:]])


# Each option with the command that takes it and the small, valid options
# it is given after, so that a run stays cheap.  A later option wins.
_OPTIONS = {
    "--paths": ("simulate", "--paths=64"), "--seed": ("simulate", "--paths=64"),
    "--threads": ("simulate", "--paths=64"), "--grid": ("verify", "--grid=5x0.2"),
    "--inject-gain": ("verify", "--grid=5x0.2"),
    "--sweep": ("sweep", "--sweep=p=2"),
}
# "\u0663" is an Arabic-Indic three, which int() reads as 3.
_ODD_VALUES = ["", " ", "x", "-1", "0", "1", "+2", " 7", "1.5", "1e3", "0x10", "1_000", "\u0663",
               "nan", "inf", "-inf", "1e300", "18446744073709551615", "18446744073709551616",
               "1000000000000", "3x0.2", "101x1e-300", "5x1e308", "1:1:1", "2:*:1.2",
               "*:*:*", "0:0:1", "1:99:1", "1:0:nan", "1:*:1e308", "p=", "p=0", "p=-1",
               "o=1,2", "p=1,,2", "q=1", "=", "p=1e3", "p=2,x"]


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.sampled_from(sorted(_OPTIONS)), st.sampled_from(_ODD_VALUES),
       st.sampled_from(sorted(_SHIPPED)))
def test_odd_option_values_end_in_an_exit_code(tmp_path_factory, option, value, scenario):
    # --threads is ignored; keep even its ignored value small.
    if option == "--threads" and value.strip().lstrip("+").isdigit():
        value = str(min(int(value), 2))
    command, base = _OPTIONS[option]
    tmp = tmp_path_factory.mktemp("odd_option")
    _assert_documented_exit([command, str(SCENARIOS / scenario), "--out", str(tmp / "o"),
                             base, f"{option}={value}"])


def wide_scenario(horizon, agents=20):
    """The shape of the `wide` benchmark scenario: a drift per step and a
    scalar per agent for every other table."""
    rng = np.random.default_rng(horizon)

    def draw(lo, hi, size):
        return [float(v) for v in rng.uniform(lo, hi, size)]

    return make_scenario(
        family="general_moment_2o2p", agents=agents, horizon=horizon, p=2, o=2,
        a_bar=draw(0.95, 1.05, horizon), b_bar=draw(0.5, 1.5, agents),
        a_dev=draw(0.85, 0.95, horizon), b_dev=draw(0.5, 1.5, agents),
        q_bar=draw(1.0, 5.0, agents), r_bar=draw(1.0, 5.0, agents),
        q_dev=draw(1.0, 3.0, agents), r_dev=draw(1.0, 3.0, agents),
        noise={"kind": "gaussian", "sigma": 0.5},
        initial={"mean": 5.0, "kind": "gaussian_around_mean", "variance": 1.0},
        mc={"paths": 0, "seed": 1},
    )


def traced_peak(write):
    """Bytes that `write()` allocates at its peak, above what it found."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_module_runs_as_a_script(tmp_path):
    # `python -m mftg.cli` is the entry point without an install.
    env = {**os.environ, "PYTHONPATH": str(Path(mftg.cli.__file__).parents[1])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "mftg.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "out"
    solved = run("solve", DET, "--out", str(out))
    assert solved.returncode == 0, solved.stderr
    assert (out / "manifest.txt").is_file()
    usage = run("solve")
    assert usage.returncode == 1 and usage.stderr.startswith("usage:")


class TestOutputMemory:
    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("memory")
        peaks = {}
        for horizon in (1000, 4000):
            sc = wide_scenario(horizon)
            table, gains = solve(sc)
            mean = propagate_mean(sc, gains)
            peaks[horizon] = {
                "manifest": traced_peak(lambda: mftg.cli._write_manifest(
                    out, "solve", sc, Path("wide.yaml"), {})),
                "gains.csv": traced_peak(lambda: mftg.cli._write_csv(
                    out / "gains.csv", mftg.cli.GAIN_HEADER, mftg.cli._gain_blocks(sc, gains))),
                "meanpath.csv": traced_peak(lambda: mftg.cli._write_csv(
                    out / "meanpath.csv", mftg.cli._meanpath_header(sc.agents),
                    mftg.cli._meanpath_blocks(sc, mean), (horizon + 1, 2))),
            }
        return peaks

    @pytest.mark.parametrize("output", ["manifest", "gains.csv", "meanpath.csv"])
    def test_peak_does_not_grow_with_the_horizon(self, peaks, output):
        assert peaks[4000][output] <= 1.25 * peaks[1000][output], peaks

    def test_manifest_keeps_no_copy_of_the_scenario_text(self, peaks):
        # The canonical text is 3 MB at N = 1000, and its bytes as much again.
        assert peaks[1000]["manifest"] < 1_000_000, peaks


def test_trajectory_csv_peak_is_bounded(tmp_path):
    # Writing a 10,000-path trajectories.csv holds one block at a time: its
    # float temporaries, its words and its bytes.  Its traced peak was about
    # 2.19 MB on every shipped stochastic scenario and path count surveyed;
    # the lookup tables are built once per process, before it.
    sc = load_scenario_file(SCENARIOS / "multiplicative_two_agent.yaml")
    _, gains = solve(sc)
    ensemble = mftg.simulate.run_ensemble(sc, gains, paths=10_000, seed=sc.mc.seed,
                                          store_cap=10_000)
    header = ["path", "k", "x"] + [f"u_{i + 1}" for i in range(sc.agents)]
    csvformat._tables()
    peak = traced_peak(lambda: mftg.cli._write_csv(
        tmp_path / "trajectories.csv", header, mftg.cli._trajectory_blocks(sc, ensemble),
        (sc.horizon + 1, 3)))
    assert peak < 3_000_000, peak


@pytest.mark.parametrize("name", [*_SHIPPED, "wide"])
def test_streamed_digest_hashes_the_canonical_text(tmp_path, name):
    sc = wide_scenario(1000) if name == "wide" else load_scenario_file(SCENARIOS / name)
    mftg.cli._write_manifest(tmp_path, "solve", sc, Path(name), {})
    digest = hashlib.sha256(serialize_scenario(sc).encode("utf-8")).hexdigest()
    assert f"\nscenario_digest = sha256:{digest}\n" in (tmp_path / "manifest.txt").read_text()
