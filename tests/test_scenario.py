import ast
import dataclasses
import importlib.util
import sys

import numpy as np
import pytest
import yaml

import mftg.scenario as mftg_scenario
from mftg import (
    ConfigSyntaxError,
    Family,
    ScenarioValidationError,
    SchemaError,
    load_scenario,
    serialize_scenario,
    validate,
    with_params,
)
from mftg import numerics, run_verification, solve
from mftg.scenario import load_scenario_file
from mftg.verify import DeviationGrid, stationarity_residual
from conftest import LOADERS, REPO, SCENARIOS, load_with, make_scenario, scenario_doc


def _wide_yaml(seed):
    spec = importlib.util.spec_from_file_location("wide", REPO / "bench" / "wide.py")
    wide = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wide)
    return wide.scenario_yaml(seed)


needs_libyaml = pytest.mark.skipif(len(LOADERS) < 2, reason="PyYAML built without libyaml")


@needs_libyaml
class TestLoaders:
    def test_default_is_libyaml(self):
        assert issubclass(mftg_scenario._LOADER, yaml.CSafeLoader)

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.yaml")))
    def test_shipped_scenarios_load_alike(self, name):
        text = (SCENARIOS / name).read_text()
        assert load_with(yaml.CSafeLoader, text) == load_with(yaml.SafeLoader, text)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wide_scenarios_load_alike(self, seed):
        text = _wide_yaml(seed)
        assert load_with(yaml.CSafeLoader, text) == load_with(yaml.SafeLoader, text)

    # The float-row shortcut, on libyaml and on the pure-Python parser,
    # against PyYAML's own loaders: floats of every plain form, forms the
    # shortcut leaves to PyYAML, mixed and nested rows, anchors and aliases.
    FAST = [mftg_scenario._LOADER,
            type("PyFloatRows", (mftg_scenario._FloatRows, yaml.SafeLoader), {})]

    @pytest.mark.parametrize("text", [
        "[-0.0, +1.5, 1., .5, 1.5E+3, 0.0, -1.5e-3, 2.5e+300, 4.9406564584124654e-324]",
        "[1_000.5, 2.5]", "[1:30.5, 2.5]", "[.inf, 2.5]", "[-.Inf, 2.5]", "[.NaN, 2.5]",
        "[1e5, 2.5]", "[1, 2.5]", "[2.5, 1, true, null, x]",
        "[[1.0, 2.0], [3.5, -0.0], 4.5, [1, 2.0]]", "[]", "[[]]",
        "a: &row [1.5, 2.5]\nb: *row\nc: [&x 3.5, *x, 1.0]",
        '[!!float "2", !!float 3, "1.5", \'2.5\']',
    ])
    def test_float_rows_load_as_pyyaml(self, text):
        want = [repr(yaml.load(text, Loader=plain)) for plain in LOADERS]
        assert want[0] == want[1]
        for fast in self.FAST:
            assert repr(yaml.load(text, Loader=fast)) == want[0]

    def test_plain_float_rows_skip_the_constructor(self):
        for fast in self.FAST:
            calls = []
            spy = type("Spy", (fast,), {})
            spy.add_constructor("tag:yaml.org,2002:float",
                                lambda loader, node: calls.append(node.value))
            assert yaml.load("[1.5, -0.0, 2.5e-300]", Loader=spy) == [1.5, -0.0, 2.5e-300]
            assert calls == []
            yaml.load("[1.5, .inf]", Loader=spy)
            assert calls == ["1.5", ".inf"]

    @pytest.mark.parametrize("text", ["[!!float 0X1, 2.5]", "[!!float [1.5], 2.5]",
                                      "[!!float , 2.5]"])
    def test_float_row_errors_are_pyyaml_errors(self, text):
        want = []
        for loader in [*LOADERS, *self.FAST]:
            with pytest.raises(Exception) as err:
                yaml.load(text, Loader=loader)
            want.append((type(err.value), str(err.value).split(" in ")[0]))
        assert len(set(want)) == 1

    def test_exponent_without_dot_stays_a_schema_error(self):
        text = yaml.safe_dump(scenario_doc(a_bar=[1.0])).replace("- 1.0", "- 1e5")
        assert "1e5" in text
        for loader in [*LOADERS, *self.FAST]:
            with pytest.raises(SchemaError, match="a_bar"):
                load_with(loader, text)

    def test_syntax_error_position_agrees(self):
        where = []
        for loader in LOADERS:
            with pytest.raises(ConfigSyntaxError) as err:
                load_with(loader, "family: [unclosed\nagents: 2")
            where.append(str(err.value).split(":")[0])
        assert where == ["invalid scenario document at line 2, column 7"] * 2


class TestLoading:
    def test_two_agent_quartic_example(self, det_two_agent):
        sc = det_two_agent
        assert sc.family is Family.DETERMINISTIC
        assert (sc.agents, sc.horizon, sc.p) == (2, 7, 2)
        assert sc.a_bar.tolist() == [1.0] * 7
        assert sc.b_bar.tolist() == [[-2.0] * 7, [2.0] * 7]
        assert sc.q_bar.tolist() == [[4.0] * 8, [5.0] * 8]
        assert sc.r_bar.tolist() == [[6.0] * 7, [7.0] * 7]
        assert sc.x0.mean == 10.0
        assert validate(sc) == []

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigSyntaxError) as err:
            load_scenario("family: [unclosed\nagents: 2")
        assert "line" in str(err.value)

    def test_empty_document(self):
        with pytest.raises(SchemaError):
            load_scenario("")

    def test_deterministic_forbids_noise_block(self):
        doc = scenario_doc()
        doc["noise"] = {"kind": "gaussian", "sigma": 1.0}
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))

    def test_stochastic_requires_noise_block(self):
        doc = scenario_doc(family="additive_variance_2p")
        del doc["noise"]
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))

    def test_general_requires_dev_dynamics_and_o(self):
        doc = scenario_doc(family="general_moment_2o2p", o=2)
        del doc["dynamics"]["a_dev"]
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))
        doc = scenario_doc(family="general_moment_2o2p", o=2)
        del doc["o"]
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))

    def test_o_rejected_outside_general_family(self):
        doc = scenario_doc()
        doc["o"] = 2
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))

    def test_zero_weight_is_a_validation_error(self):
        doc = scenario_doc(q_bar=[0.0, 5.0])
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(yaml.safe_dump(doc))
        assert any(d.code == "weight-positivity" for d in err.value.diagnostics)

    def test_wrong_sequence_length(self):
        doc = scenario_doc(horizon=7)
        doc["dynamics"]["b_bar"] = [[1.0] * 6, 1.0]
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))

    def test_terminal_weight_defaults_to_last_running_entry(self):
        doc = scenario_doc(horizon=3, q_bar=[[1.0, 2.0, 3.0], 4.0])
        sc = load_scenario(yaml.safe_dump(doc))
        assert sc.q_bar[0].tolist() == [1.0, 2.0, 3.0, 3.0]
        assert sc.q_bar[1].tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_explicit_moments_requires_cost_order(self):
        doc = scenario_doc(family="general_moment_2o2p", o=2,
                           noise={"kind": "explicit_moments",
                                  "moments": {2: 1.0}})
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(yaml.safe_dump(doc))
        assert any(d.code == "missing-moment" for d in err.value.diagnostics)

    def test_explicit_moments_sigma_derived_from_order_two(self):
        doc = scenario_doc(family="additive_variance_2p",
                           noise={"kind": "explicit_moments", "moments": {2: 4.0}})
        sc = load_scenario(yaml.safe_dump(doc))
        assert sc.noise.sigma.tolist() == [2.0]

    def test_deterministic_atom_initial_law(self):
        doc = scenario_doc(initial={"mean": 20.5, "kind": "deterministic", "atom": 20.0})
        sc = load_scenario(yaml.safe_dump(doc))
        assert sc.x0.start_value() == 20.0
        assert sc.x0.mean == 20.5

    def test_empirical_samples_are_recentred(self):
        doc = scenario_doc(initial={"kind": "empirical_samples", "mean": 1.0,
                                    "samples": [0.0, 1.0]})
        sc = load_scenario(yaml.safe_dump(doc))
        assert sc.x0.sample_offset == pytest.approx(0.5)
        assert sum(sc.x0.samples) / 2 == pytest.approx(1.0)

    def test_sample_sum_beyond_float_range(self):
        doc = scenario_doc(initial={"kind": "empirical_samples", "samples": [1e308, 1e308]})
        sc = load_scenario(yaml.safe_dump(doc))
        assert sc.x0.mean == 1e308 and sc.x0.samples.tolist() == [1e308, 1e308]

    def test_zero_horizon_with_empty_rows(self):
        doc = scenario_doc(horizon=0, a_bar=[], q_bar=[[], []])
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(yaml.safe_dump(doc))
        assert [d.code for d in err.value.diagnostics] == ["shape"]

    def test_unknown_keys_rejected(self):
        doc = scenario_doc()
        doc["mystery"] = 1
        with pytest.raises(SchemaError):
            load_scenario(yaml.safe_dump(doc))


class TestValidateDiagnostics:
    def test_negative_weight_diagnostic(self, det_two_agent):
        broken = dataclasses.replace(
            det_two_agent, r_bar=np.array([[-1.0] * 7, det_two_agent.r_bar[1]])
        )
        diags = validate(broken)
        assert any(d.code == "weight-positivity" for d in diags)

    def test_length_mismatch_diagnostic(self, det_two_agent):
        broken = dataclasses.replace(
            det_two_agent, b_bar=np.array([[-2.0] * 6, [2.0] * 6])
        )
        diags = validate(broken)
        assert any(d.code == "length-mismatch" for d in diags)

    def test_non_finite_coefficient_diagnostic(self, det_two_agent):
        broken = dataclasses.replace(det_two_agent, a_bar=np.full(7, np.inf))
        assert any(d.code == "coefficient-bounded" for d in validate(broken))

    def test_validation_is_pure(self, additive_two_agent):
        before = serialize_scenario(additive_two_agent)
        assert validate(additive_two_agent) == []
        assert serialize_scenario(additive_two_agent) == before


def _tables(sc):
    """(name, array, documented shape) for every numeric table of a scenario."""
    n, agents = sc.horizon, sc.agents
    for name in ("a_bar", "a_dev"):
        yield name, getattr(sc, name), (n,)
    for name in ("b_bar", "r_bar", "b_dev", "r_dev"):
        yield name, getattr(sc, name), (agents, n)
    for name in ("q_bar", "q_dev"):
        yield name, getattr(sc, name), (agents, n + 1)
    yield "noise.sigma", sc.noise.sigma, (n,)
    for order, row in sc.noise.moments.items():
        yield f"noise.moments[{order}]", row, (n,)
    yield "initial.samples", sc.x0.samples, (3,)


class TestArrays:
    """Every numeric table is a read-only float64 array built once at load."""

    @pytest.fixture
    def sc(self):
        return make_scenario(
            family="general_moment_2o2p", o=2, agents=2, horizon=3,
            b_bar=[1.0, [0.5, 0.25, 2.0]], q_bar=[[1.0, 2.0, 3.0], 4.0],
            noise={"kind": "explicit_moments", "moments": {2: [1.0, 1.5, 2.0], 4: 3.0}},
            initial={"kind": "empirical_samples", "samples": [1.0, 2.5, 3.0]},
        )

    def test_tables_are_read_only_float64_arrays(self, sc):
        names = set()
        for name, table, shape in _tables(sc):
            names.add(name)
            assert isinstance(table, np.ndarray) and table.dtype == np.float64, name
            assert table.shape == shape, name
            assert table.flags.c_contiguous and table.flags.owndata, name
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0
        assert len(names) == 12

    def test_with_params_keeps_the_arrays(self, sc):
        changed = with_params(sc, p=3)
        assert changed.p == 3
        for (name, table, _), (_, kept, _) in zip(_tables(sc), _tables(changed)):
            assert kept is table, name

    def test_equality_sees_one_ulp(self, sc):
        b_bar = sc.b_bar.copy()
        assert dataclasses.replace(sc, b_bar=b_bar) == sc
        b_bar[1, 2] = np.nextafter(b_bar[1, 2], np.inf)
        assert dataclasses.replace(sc, b_bar=b_bar) != sc

    def test_equality_never_raises(self, sc):
        assert sc != dataclasses.replace(sc, b_bar=sc.b_bar[:, :2])
        assert sc != dataclasses.replace(sc, a_dev=None)
        assert sc.noise != dataclasses.replace(sc.noise, moments=None)
        assert sc.noise != dataclasses.replace(sc.noise, moments={2: sc.noise.moments[2]})
        assert sc.x0 != dataclasses.replace(sc.x0, samples=None)
        assert sc != "scenario" and sc.noise != 1.0 and sc.x0 != sc


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", [
        "det_two_agent", "additive_two_agent", "multiplicative_two_agent",
        "general_two_agent",
    ])
    def test_serialize_reload_identity(self, fixture, request):
        sc = request.getfixturevalue(fixture)
        again = load_scenario(serialize_scenario(sc))
        assert again == sc

    def test_round_trip_with_samples(self):
        sc = make_scenario(
            family="additive_variance_2p",
            initial={"kind": "empirical_samples", "mean": 2.0,
                     "samples": [1.0, 2.5, 3.0]},
        )
        again = load_scenario(serialize_scenario(sc))
        assert again == sc

    def test_round_trip_with_explicit_moments(self):
        sc = make_scenario(
            family="general_moment_2o2p", o=2, horizon=3,
            noise={"kind": "explicit_moments",
                   "moments": {2: [1.0, 1.5, 2.0], 4: [3.0, 5.0, 7.0]}},
        )
        again = load_scenario(serialize_scenario(sc))
        assert again == sc

    def test_broadcast_idempotence(self, additive_two_agent):
        once = serialize_scenario(additive_two_agent)
        twice = serialize_scenario(load_scenario(once))
        assert once == twice

    def test_text_does_not_depend_on_the_chunk(self, monkeypatch, general_two_agent):
        # Pieces cut runs, rows and tables anywhere; zeros of both signs
        # keep their own runs.
        rng = np.random.default_rng(31)
        mixed = make_scenario(agents=3, horizon=5, a_bar=[0.0, -0.0, -0.0, 1.5, 0.0],
                              b_bar=[[0.0, -0.0, 2.0, 2.0, 2.0], 1.0,
                                     [float(v) for v in rng.standard_normal(5)]])
        # Tables larger than the default piece, in runs of 20 equal entries
        # that cross its edges.
        runs = lambda size: np.repeat(rng.standard_normal(-(-size // 20)), 20)[:size].tolist()
        large = make_scenario(agents=3, horizon=4000, b_bar=[runs(4000) for _ in range(3)],
                              q_bar=[np.abs(runs(4001)).tolist() for _ in range(3)])
        piece, flat = mftg_scenario._TABLE_CHUNK, large.b_bar.reshape(-1)
        assert flat.size > piece and flat[piece - 1] == flat[piece]
        for sc, chunks in ((general_two_agent, (1, 2, 3, 4, 5, 6, 7, 11)),
                           (mixed, (1, 2, 3, 4, 5, 6, 7, 11)),
                           (large, (19, 20, 4001, piece - 1, piece + 1, 2 * piece))):
            want = serialize_scenario(sc)
            assert load_scenario(want) == sc
            for chunk in chunks:
                monkeypatch.setattr(mftg_scenario, "_TABLE_CHUNK", chunk)
                assert serialize_scenario(sc) == want
                pieces = []
                assert serialize_scenario(sc, pieces.append) is None
                assert "".join(pieces) == want


# ---------------------------------------------------------------------------
# each noise family is described once, in scenario.py


STOCHASTIC_MEMBERS = {f.name for f in Family if f.stochastic} | {f.value for f in Family
                                                                 if f.stochastic}


def _family_names(tree):
    """Line numbers where tree names a stochastic Family member, as
    Family.NAME (also qualified, as module.Family.NAME), Family["NAME"] or
    Family("value")."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base, key = node.value, node.attr
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            base, key = node.value, node.slice.value
        elif (isinstance(node, ast.Call) and len(node.args) == 1
              and isinstance(node.args[0], ast.Constant)):
            base, key = node.func, node.args[0].value
        else:
            continue
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        if name == "Family" and key in STOCHASTIC_MEMBERS:
            found.append(node.lineno)
    return sorted(found)


class TestOneNoiseDescription:
    """Each stochastic family's noise is stated once, next to Family: its
    push slot and each scenario's moment row.  The solver, the simulator
    and the oracles read those and never branch on the family."""

    def test_detector_finds_each_form(self):
        code = ("Family.ADDITIVE\nscenario.Family.MULTIPLICATIVE\nx is Family.GENERAL_MOMENT\n"
                "{Family.ADDITIVE: 1}\nFamily['MULTIPLICATIVE']\nFamily('general_moment_2o2p')\n"
                "Family.DETERMINISTIC; sc.family.stochastic; Family('deterministic_2p')\n"
                "noise_slot == 'scale'; other.ADDITIVE\n")
        assert _family_names(ast.parse(code)) == [1, 2, 3, 4, 5, 6]

    def test_family_names_only_in_scenario(self):
        sources = sorted((REPO / "src" / "mftg").glob("*.py"))
        assert any(path.name == "scenario.py" for path in sources)
        found = {path.name: _family_names(ast.parse(path.read_text()))
                 for path in sources if path.name != "scenario.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_each_stochastic_family_has_one_slot(self):
        slots = {f: f.noise_slot for f in Family if f.stochastic}
        assert sorted(slots.values()) == sorted(mftg_scenario.PUSH_SLOTS)
        assert Family.DETERMINISTIC.noise_slot is None

    def test_moment_row_is_read_only_and_kept(self, general_two_agent, det_two_agent):
        sc = general_two_agent
        row = sc.noise_moments
        assert row is sc.noise_moments
        assert row.shape == (sc.horizon,) and not row.flags.writeable
        want = [numerics.noise_even_moment(sc.noise, k + 1, sc.moment_order)
                for k in range(sc.horizon)]
        np.testing.assert_array_equal(row, want)
        assert det_two_agent.noise_moments is None

    @pytest.mark.parametrize("fixture", ["additive_two_agent", "multiplicative_two_agent",
                                         "general_two_agent"])
    def test_push_rows_put_the_moments_in_the_deviation_slot(self, fixture, request):
        sc = request.getfixturevalue(fixture)
        rows = sc.push_rows
        assert rows is sc.push_rows and not rows.flags.writeable
        assert rows.shape == (2, 3, sc.horizon)
        neutral = np.array(list(mftg_scenario.PUSH_SLOTS.values()))[:, None]
        np.testing.assert_array_equal(rows[0], np.broadcast_to(neutral, (3, sc.horizon)))
        slot = list(mftg_scenario.PUSH_SLOTS).index(sc.family.noise_slot)
        np.testing.assert_array_equal(rows[1, slot], sc.noise_moments)
        others = [j for j in range(3) if j != slot]
        np.testing.assert_array_equal(rows[1, others],
                                      np.broadcast_to(neutral[others], (2, sc.horizon)))

    def test_deterministic_push_rows_have_one_neutral_channel(self, det_two_agent):
        rows = det_two_agent.push_rows
        assert rows.shape == (1, 3, det_two_agent.horizon)
        assert [set(row) for row in rows[0].tolist()] == \
            [{value} for value in mftg_scenario.PUSH_SLOTS.values()]

    def test_moment_row_is_built_once(self, monkeypatch):
        # solve, run_verification and the per-pair stationarity sweep of
        # bench/wide.py on one scenario object compute each moment once.
        original = numerics.noise_even_moment
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if (name == "mftg" or name.startswith("mftg.")) and \
                    getattr(module, "noise_even_moment", None) is original:
                monkeypatch.setattr(module, "noise_even_moment", counting)
        sc = load_scenario_file(SCENARIOS / "general_moment_two_agent.yaml")
        table, gains = solve(sc)
        assert run_verification(sc, table, gains, grid=DeviationGrid(points=5)).passed
        max(stationarity_residual(sc, table, gains, i, k)
            for i in range(sc.agents) for k in range(sc.horizon))
        solve(sc)
        assert 0 < len(calls) <= sc.horizon
