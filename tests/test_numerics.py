import ast
from dataclasses import replace

import numpy as np
import pytest

from mftg import MissingMomentError, noise_even_moment, sample_convexity, solve
from mftg.numerics import _odd_root, _root_work, even_power
from mftg.scenario import NoiseSpec
from mftg.verify import _min_curvature
from conftest import REPO, make_scenario


def _roots(ys, m):
    """_odd_root of all values as one array, checked against each value
    alone.  Vectorised pow may round differently from scalar pow, so the two
    forms agree to within two ulps rather than bit for bit."""
    ys = np.asarray(ys, dtype=float)
    together = _odd_root(ys, m)
    assert together.shape == ys.shape
    singles = np.array([_odd_root(float(y), m) for y in ys])
    np.testing.assert_allclose(together, singles, rtol=4.5e-16, atol=0)
    return together


class TestSignedRoot:
    """The signed odd root the backward solver takes, ``_odd_root``."""

    def test_integer_cases(self):
        assert _odd_root(8.0, 3) == 2.0
        assert _odd_root(-8.0, 3) == -2.0
        assert _odd_root(0.0, 5) == 0.0
        np.testing.assert_array_equal(_roots([8.0, -8.0, 0.0, 27.0], 3), [2.0, -2.0, 0.0, 3.0])

    def test_identity_order_one(self):
        assert _odd_root(-3.7, 1) == -3.7
        np.testing.assert_array_equal(_roots([-3.7, 0.0, 2.5], 1), [-3.7, 0.0, 2.5])

    def test_round_trip_relative_accuracy(self):
        rng = np.random.default_rng(7)
        cases = {m: [] for m in (1, 3, 5, 7, 9)}
        for _ in range(500):
            y = float(10.0 ** rng.uniform(-6, 6)) * float(rng.choice([-1.0, 1.0]))
            m = int(rng.choice([1, 3, 5, 7, 9]))
            t = _odd_root(y, m)
            assert abs(t ** m - y) <= 1e-12 * abs(y)
            cases[m].append(y)
        for m, ys in cases.items():
            ys = np.array(ys)
            assert np.all(np.abs(_roots(ys, m) ** m - ys) <= 1e-12 * np.abs(ys))

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(8)
        cases = {m: [] for m in (3, 5, 7)}
        for _ in range(200):
            y = float(rng.normal()) * 10.0 ** int(rng.integers(-4, 5))
            m = int(rng.choice([3, 5, 7]))
            assert _odd_root(-y, m) == -_odd_root(y, m)
            cases[m].append(y)
        for m, ys in cases.items():
            ys = np.array(ys)
            np.testing.assert_array_equal(_roots(-ys, m), -_roots(ys, m))


class TestEvenPower:
    @staticmethod
    def _samples():
        rng = np.random.default_rng(17)
        x = rng.uniform(0.5, 2.0, 4000) * 10.0 ** rng.uniform(-40, 40, 4000)
        x *= rng.choice([-1.0, 1.0], x.size)
        return np.concatenate([x, [0.0, -0.0, 1.0, -1.0, 3.0, -0.5]])

    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_identical_to_power_operator(self, m):
        x = self._samples()
        np.testing.assert_array_equal(even_power(x, m), x ** m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_close_to_power_operator_where_normal(self, m):
        x = self._samples()
        with np.errstate(over="ignore", under="ignore"):
            want = x ** m
            got = even_power(x, m)
        normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
        assert np.all(np.abs(got[normal] - want[normal]) <= 4e-16 * m * np.abs(want[normal]))
        zero = x == 0.0
        np.testing.assert_array_equal(got[zero], want[zero])
        assert np.array_equal(np.signbit(got[normal]), np.signbit(want[normal]))

    def test_leaves_input_untouched_and_accepts_lists(self):
        x = np.array([-2.0, 3.0])
        np.testing.assert_array_equal(even_power(x, 4), [16.0, 81.0])
        np.testing.assert_array_equal(x, [-2.0, 3.0])
        np.testing.assert_array_equal(even_power([-2.0, 0.5], 3), [-8.0, 0.125])

    @pytest.mark.parametrize("m", range(1, 10))
    def test_out_and_in_place_match_bit_for_bit(self, m):
        x = self._samples()
        with np.errstate(over="ignore", under="ignore"):
            want = even_power(x, m)
            out = np.empty_like(x)
            assert even_power(x, m, out=out) is out
            inplace = x.copy()
            even_power(inplace, m, out=inplace)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(inplace, want)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            even_power(np.ones(3), 0)


# Signed zeros, the smallest and largest subnormals, values near the float
# range's ends, infinities and NaN, with a few ordinary values between.
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 1e300,
                  -1e300, np.inf, -np.inf, np.nan, -np.nan, 8.0, -0.3])


class TestCallerOwnedOut:
    """The backward loop calls both kernels with its own scratch rows as
    ``out``; that must give the bits of the allocating call."""

    @staticmethod
    def _check(kernel, m):
        for x in (EDGES, EDGES.reshape(2, -1)):
            with np.errstate(all="ignore"):
                want = np.array(kernel(x, m))
                # a row block of a larger scratch array, as the loop passes it
                scratch = np.full((3, *x.shape), 7.0)
                row = scratch[1]
                assert kernel(x, m, out=row) is row
            np.testing.assert_array_equal(row.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(scratch[[0, 2]], 7.0)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_odd_root(self, m):
        self._check(_odd_root, m)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_even_power(self, m):
        self._check(even_power, m)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_odd_root_in_reused_scratch(self, m):
        # The loop's form: one scratch for every call, as many roots as
        # steps; each call gives the bits of the allocating call.
        rng = np.random.default_rng(m)
        work, out = _root_work(EDGES.shape, m), np.empty_like(EDGES)
        for x in (EDGES, -EDGES, rng.standard_normal(EDGES.size) * 1e3, EDGES[::-1].copy()):
            with np.errstate(all="ignore"):
                want = np.array(_odd_root(x, m))
                assert _odd_root(x, m, out, work) is out
            np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))


def _spec(kind, sigma, moments=None, n=1):
    return NoiseSpec(kind=kind, sigma=(sigma,) * n, moments=moments)


class TestNoiseEvenMoment:
    def test_gaussian_orders(self):
        spec = _spec("gaussian", 1.0)
        assert noise_even_moment(spec, 1, 2) == 1.0
        assert noise_even_moment(spec, 1, 4) == 3.0
        assert noise_even_moment(spec, 1, 6) == 15.0

    def test_gaussian_fourth_moment_against_monte_carlo(self):
        rng = np.random.default_rng(123)
        draws = rng.standard_normal(1_000_000)
        m4 = float(np.mean(draws ** 4))
        se = float(np.std(draws ** 4, ddof=1) / np.sqrt(draws.size))
        assert abs(noise_even_moment(_spec("gaussian", 1.0), 1, 4) - m4) <= 5 * se

    def test_rademacher(self):
        assert noise_even_moment(_spec("rademacher", 2.0), 1, 4) == 16.0

    def test_uniform_fourth_moment(self):
        # Uniform on [-w, w], w = sigma*sqrt(3): fourth moment w^4/5.
        spec = _spec("uniform", 1.0)
        assert noise_even_moment(spec, 1, 4) == pytest.approx(9.0 / 5.0, rel=1e-15)
        rng = np.random.default_rng(321)
        draws = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), 1_000_000)
        se = float(np.std(draws ** 4, ddof=1) / np.sqrt(draws.size))
        assert abs(noise_even_moment(spec, 1, 4) - np.mean(draws ** 4)) <= 5 * se

    def test_order_two_equals_variance_for_all_kinds(self):
        for kind in ("gaussian", "rademacher", "uniform"):
            for sigma in (0.0, 0.3, 1.0, 2.5):
                assert noise_even_moment(_spec(kind, sigma), 1, 2) == sigma ** 2

    def test_step_zero_is_degenerate(self):
        assert noise_even_moment(_spec("gaussian", 1.0), 0, 2) == 0.0

    def test_explicit_moments_lookup_and_missing_order(self):
        spec = _spec("explicit_moments", 1.0, moments={2: (1.0,), 4: (2.5,)})
        assert noise_even_moment(spec, 1, 4) == 2.5
        with pytest.raises(MissingMomentError):
            noise_even_moment(spec, 1, 6)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            noise_even_moment(_spec("gaussian", 1.0), 1, 3)


class TestConvexityScan:
    """Hand-checked minima of the convexity scan, ``sample_convexity``, on
    one-agent one-step games with the equilibrium gain set to 0, so the
    samples are known: w in -2..2 in steps of 0.5, plus 0 and the point
    -rest/b where the second term's curvature vanishes.  With a = 1 the
    rest term is 1 and the next-step weight is the terminal q = 1."""

    @staticmethod
    def _min(p, b, r, family="deterministic_2p", **kwargs):
        sc = make_scenario(family=family, agents=1, horizon=1, p=p, a_bar=1.0,
                           b_bar=[b], r_bar=r, **kwargs)
        table, gains = solve(sc)
        zero = np.zeros((1, 1))
        gains = replace(gains, mean_gain=zero,
                        dev_gain=None if gains.dev_gain is None else zero)
        return sample_convexity(sc, table, gains)

    def test_quadratic_case(self):
        # f'' = 2 (r + q b^2) at every sample
        assert self._min(1, 1.0, 1.0) == 4.0

    def test_quartic_at_zero(self):
        # f'' = 12 (r w^2 + q b^2 (1 + b w)^2): with r = 100 the least sample
        # is at w = 0, 12 * 4 = 48
        assert self._min(2, 2.0, 100.0) == 48.0

    def test_quartic_one_term_vanishes(self):
        # with r = 1 it is at w = -1/2, where 1 + b w vanishes: 12 / 4 = 3
        assert self._min(2, 2.0, 1.0) == 3.0

    def test_noise_moment_scales_the_deviation_weight(self):
        # o = 2 and E[eps^4] = 3: the deviation weight is 3 q_dev = 3, so
        # f'' = 12 (100 w^2 + 3 (1 + w)^2), least at w = 0: 12 * 3 = 36.
        # The quadratic mean channel stays at 2 (100 + 1) = 202.
        assert self._min(1, 1.0, 100.0, family="general_moment_2o2p", o=2, a_dev=1.0,
                         b_dev=[1.0], r_dev=100.0,
                         noise={"kind": "gaussian", "sigma": 1.0}) == 36.0

    def test_positive_on_random_draws(self):
        # 1000 one-agent objectives w**2p + (rest + b w)**2p, as the steps of
        # one table per p, taken per unit of the state coefficient (rest =
        # 1); the samples include both points where a term's curvature
        # vanishes, 0 and -rest/b, which cannot coincide while rest != 0.
        rng = np.random.default_rng(99)
        draws = 1000
        p = rng.integers(1, 6, draws)
        b = rng.uniform(0.1, 3.0, draws) * rng.choice([-1.0, 1.0], draws)
        gain = rng.uniform(-2.0, 2.0, draws)
        for half in np.unique(p):
            at = p == half
            ones = np.ones((1, np.count_nonzero(at)))
            assert _min_curvature(2 * int(half), b[None, at], ones, ones,
                                  gain[None, at]) > 0.0


BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _blas_products(node):
    """Line numbers of each ``@`` and each np.<BLAS_CALLS> name under node."""
    found = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        found.append(node.lineno)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy") and node.attr in BLAS_CALLS):
        found.append(node.lineno)
    for child in ast.iter_child_nodes(node):
        found += _blas_products(child)
    return found


class TestOneRoundingRule:
    """Agent and path sums are np.add.reduce of elementwise products, so no
    output bit depends on which BLAS kernel the CPU gets."""

    def test_detector_finds_each_form(self):
        code = ("a @ b\nc @= d\nnp.dot(a, b)\nnumpy.einsum('i,i', a, b)\n"
                "np.vdot(a, b); np.inner(a, b); np.tensordot(a, b); np.matmul(a, b)\n"
                "np.add.reduce(a * b)\n")
        assert _blas_products(ast.parse(code)) == [1, 2, 3, 4, 5, 5, 5, 5]

    def test_no_blas_products_in_the_package(self):
        sources = sorted((REPO / "src" / "mftg").glob("*.py"))
        assert sources
        found = {path.name: _blas_products(ast.parse(path.read_text())) for path in sources}
        assert {name: lines for name, lines in found.items() if lines} == {}
