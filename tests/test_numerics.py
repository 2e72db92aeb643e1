import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.special import logsumexp

from senselink import channel as ch
from senselink import gmm
from senselink import harness
from senselink import numerics
from senselink import optimizer as opt
from senselink.numerics import (
    binomial_pmf,
    find_root,
    log_regularized_upper_gamma,
    poisson_binomial_pmf,
    q_function,
)


def regularized_upper_gamma(shape, x):
    return math.exp(log_regularized_upper_gamma(shape, x))


def enum_poisson_binomial(success_probs):
    """Subset-sum oracle: exponential in K, exact by construction."""
    p = np.asarray(success_probs, dtype=float)
    k = p.size
    pmf = np.zeros(k + 1)
    for m in range(k + 1):
        for subset in combinations(range(k), m):
            chosen = set(subset)
            prob = 1.0
            for i in range(k):
                prob *= p[i] if i in chosen else 1.0 - p[i]
            pmf[m] += prob
    return pmf


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == 0.5

    def test_unit(self):
        assert q_function(1.0) == pytest.approx(0.1586553, abs=1e-7)

    def test_matches_normal_tail(self):
        # independent oracle: scipy's survival function of the standard normal
        for x in np.linspace(-8.0, 8.0, 81):
            assert q_function(x) == pytest.approx(stats.norm.sf(x), rel=1e-12)

    @given(st.floats(-8.0, 8.0))
    def test_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        vals = q_function(np.linspace(-8.0, 8.0, 200))
        assert np.all(np.diff(vals) < 0)

    def test_array_input(self):
        out = q_function(np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestRegularizedUpperGamma:
    def test_exponential_tail(self):
        assert regularized_upper_gamma(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_term_sum(self):
        assert regularized_upper_gamma(2, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    @pytest.mark.parametrize("shape", [1, 2, 5, 40])
    def test_unit_at_zero(self, shape):
        assert regularized_upper_gamma(shape, 0.0) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            regularized_upper_gamma(0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(2, -0.5)

    def test_matches_scipy(self):
        for shape in (1, 2, 4, 10, 30):
            for x in (0.01, 0.5, 2.0, 10.0, 60.0):
                assert regularized_upper_gamma(shape, x) == pytest.approx(
                    special.gammaincc(shape, x), rel=1e-12)

    def test_decreasing_in_x_increasing_in_shape(self):
        xs = np.linspace(0.1, 20.0, 50)
        for shape in (1, 3, 8):
            vals = [regularized_upper_gamma(shape, x) for x in xs]
            assert np.all(np.diff(vals) < 0)
        for x in (0.5, 2.0, 8.0):
            vals = [regularized_upper_gamma(shape, x) for shape in range(1, 10)]
            assert np.all(np.diff(vals) > 0)

    def test_vanishes_in_tail(self):
        assert regularized_upper_gamma(4, 800.0) < 1e-300

    def test_log_form_matches_mpmath(self):
        # independent oracle: mpmath's regularized upper incomplete gamma at 50
        # digits, deep into the tail. log Q reaches about -9980 at x = 1e4,
        # where floats are 1.8e-12 apart, so past |log Q| = 1 the bound is
        # relative
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for shape in (1, 2, 4, 64, 256):
            for x in list(np.geomspace(1e-6, 1e4, 41)) + [shape - 0.5, shape, shape + 1.0]:
                expected = float(mpmath.log(mpmath.gammainc(
                    shape, mpmath.mpf(float(x)), mpmath.inf, regularized=True)))
                assert abs(log_regularized_upper_gamma(shape, float(x)) - expected) <= \
                    1e-13 * max(1.0, abs(expected))

    def test_log_form_deep_tail(self):
        # log of the exact Poisson tail sum e^(-x) * sum_{k<4} x^k / k!
        x = 800.0
        terms = [k * math.log(x) - math.lgamma(k + 1) for k in range(4)]
        expected = logsumexp(terms) - x
        assert log_regularized_upper_gamma(4, x) == pytest.approx(expected, rel=1e-10)


class TestPoissonBinomial:
    def test_two_term_enumeration(self):
        np.testing.assert_allclose(
            poisson_binomial_pmf([0.8, 0.5]), [0.1, 0.5, 0.4], atol=1e-15)

    def test_iid_reduces_to_binomial(self):
        k, p = 9, 0.3
        np.testing.assert_allclose(
            poisson_binomial_pmf([p] * k), stats.binom.pmf(np.arange(k + 1), k, p),
            atol=1e-13)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_sums_to_one(self, probs):
        pmf = poisson_binomial_pmf(probs)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0.0)

    @settings(max_examples=30)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.randoms())
    def test_matches_enumeration_small(self, probs, _):
        np.testing.assert_allclose(
            poisson_binomial_pmf(probs), enum_poisson_binomial(probs), atol=1e-12)

    def test_matches_enumeration_k12(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            probs = rng.uniform(0.0, 1.0, size=12)
            np.testing.assert_allclose(
                poisson_binomial_pmf(probs), enum_poisson_binomial(probs), atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.2])
        with pytest.raises(ValueError):
            poisson_binomial_pmf([])


class TestBinomialPmf:
    @pytest.mark.parametrize("k", [1, 2, 10, 20, 200])
    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.3, 0.9, 1.0 - 1e-9, 1.0])
    def test_matches_scipy_and_poisson_binomial(self, k, p):
        pmf = binomial_pmf(p, k)
        np.testing.assert_allclose(pmf, stats.binom.pmf(np.arange(k + 1), k, p),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(pmf, poisson_binomial_pmf([p] * k), rtol=1e-12, atol=1e-15)

    def test_one_row_per_probability(self):
        probs = np.array([0.0, 0.3, 0.9, 1.0])
        rows = binomial_pmf(probs, 6)
        assert rows.shape == (4, 7)
        for p, row in zip(probs, rows):
            np.testing.assert_array_equal(row, binomial_pmf(p, 6))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            binomial_pmf(1.2, 3)
        with pytest.raises(ValueError):
            binomial_pmf([0.5, -0.1], 3)
        with pytest.raises(ValueError):
            binomial_pmf(0.5, 0)


def cube_minus(a):
    """f(x) = x^3 - a with its slope, for Newton steps; the root is a^(1/3)."""
    return lambda x: (x ** 3 - a, 3.0 * x ** 2)


def illinois(f, lo, hi):
    return find_root(f, (lo, hi), (f(lo), f(hi)))


class TestFindRoot:
    def test_newton_known_roots(self):
        a = np.array([[0.001, 2.0, 27.0], [1e6, 5.0, 0.5]])
        np.testing.assert_allclose(find_root(cube_minus(a), np.full(a.shape, 3.0)), np.cbrt(a),
                                   rtol=1e-15)

    def test_newton_rows_independent(self):
        # a row's roots are the same to the last bit whichever rows share the call
        a = np.array([[0.001, 2.0], [27.0, 1e6], [5.0, 0.5], [8.0, 8.0]])
        stacked = find_root(cube_minus(a), np.full(a.shape, 3.0))
        for i in range(a.shape[0]):
            row = a[i:i + 1]
            assert np.array_equal(find_root(cube_minus(row), np.full(row.shape, 3.0)),
                                  stacked[i:i + 1])

    @pytest.mark.parametrize("f, lo, hi, root", [
        (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: math.exp(-x) - 0.5, 0.0, 5.0, math.log(2.0)),  # decreasing
        (lambda x: x ** 3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: x ** 3 - 27.0, 0.01, 100.0, 3.0),  # far end steep
        (lambda x: math.log(x) - 3.0, 1.0, 1e4, math.exp(3.0)),
        (lambda x: x ** 3 - 1e6, 0.01, 100.0, 100.0),  # a root at the bracket's end
    ])
    def test_illinois_known_roots(self, f, lo, hi, root):
        assert abs(illinois(f, lo, hi) - root) <= 1e-14 * root

    def test_bracket_where_f_spans_many_orders(self):
        # e^{-8x} - 1e-200 e^{8x} falls from 1 through 1e-100 at its root to
        # -3e8 at 60: a secant alone creeps along the tiny values
        got = illinois(lambda x: math.exp(-8.0 * x) - 1e-200 * math.exp(8.0 * x), 0.0, 60.0)
        assert abs(got - 200.0 * math.log(10.0) / 16.0) <= 1e-9 * got

    def test_bracket_on_a_plateau_of_zeros(self):
        # every point of [1, 3] is a root; the iteration stops at one
        got = illinois(lambda x: max(1.0 - x, 0.0) - max(x - 3.0, 0.0), 0.0, 10.0)
        assert 1.0 <= got <= 3.0

    def test_step_cap_raises(self, monkeypatch):
        # Newton on the cube root overshoots to -2x at every step and never settles
        with pytest.raises(RuntimeError, match="did not converge"):
            find_root(lambda x: (np.cbrt(x), np.cbrt(x) ** -2 / 3.0), np.array([1.0]))
        with pytest.raises(RuntimeError, match="did not converge"):
            illinois(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)
        monkeypatch.setattr(numerics, "_ROOT_MAX_STEPS", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            illinois(lambda x: math.cos(x) - x, 0.0, 1.0)


_CHANNEL = ch.ChannelConfig(4, 1.0, 100)


def _point(**fields):
    model = gmm.InferenceModel(np.full(2, 0.5), np.full(2, -0.5), np.eye(2))
    return opt.TradeoffParams(**{"model": model, "clip": 5.0, "channel": _CHANNEL,
                                 "observations": 10, **fields})


# Each entry point refuses a count that is not an integer (a bool is not
# one), a positive value with an entry that is not > 0 (NaN included) and a
# non-finite value, with one message that names the argument.
BAD_ARGUMENTS = [
    ("TradeoffParams-clip-nan", lambda: _point(clip=math.nan), "clip must be finite"),
    ("TradeoffParams-clip-inf", lambda: _point(clip=math.inf), "clip must be finite"),
    ("TradeoffParams-observations-float", lambda: _point(observations=2.5),
     "observations must be an integer, not 2.5"),
    ("TradeoffParams-observations-bool", lambda: _point(observations=True),
     "observations must be an integer, not True"),
    ("TradeoffParams-observations-nan", lambda: _point(observations=math.nan),
     "observations must be an integer, not nan"),
    ("OptimizerSettings-max_iters-float", lambda: opt.OptimizerSettings(max_iters=2.5),
     "max_iters must be an integer, not 2.5"),
    ("round_rate-inf", lambda: opt.round_rate(math.inf, _point()), "coding rate must be finite"),
    ("binomial_pmf-trials-float", lambda: binomial_pmf(0.5, 2.5),
     "trials must be an integer, not 2.5"),
    # the count reaches binomial_pmf as its number of trials
    ("sensing_error_exact-observations-float", lambda: gmm.sensing_error_exact(1.0, 0.1, 2.5),
     "trials must be an integer, not 2.5"),
    ("sensing_error_bound-observations-float", lambda: gmm.sensing_error_bound(1.0, 0.1, 2.5),
     "observations must be an integer, not 2.5"),
    ("ChannelConfig-antennas-bool", lambda: ch.ChannelConfig(True, 1.0, 100),
     "antennas must be an integer, not True"),
    ("ChannelConfig-antennas-nan", lambda: ch.ChannelConfig(math.nan, 1.0, 100),
     "antennas must be an integer, not nan"),
    ("ChannelConfig-antennas-float", lambda: ch.ChannelConfig(4.0, 1.0, 100.0),
     "antennas must be an integer, not 4.0"),
    ("ChannelConfig-blocklength-float", lambda: ch.ChannelConfig(4, 1.0, 100.0),
     "blocklength must be an integer, not 100.0"),
    ("fixed_bits_rate-bool", lambda: opt.fixed_bits_rate(True, _point()),
     "bits must be an integer, not True"),
    ("packet_loss-blocklength-float", lambda: ch.packet_loss(1.0, 2.5, 1.0),
     "blocklength must be an integer, not 2.5"),
    ("avg_packet_loss_exact-nan", lambda: ch.avg_packet_loss_exact(_CHANNEL, math.nan),
     "coding rate must be positive"),
    ("avg_packet_loss-nan", lambda: ch.avg_packet_loss(_CHANNEL, [math.nan]),
     "coding rate must be positive"),
    ("sensing_error_bound-gain-nan", lambda: gmm.sensing_error_bound(math.nan, 0.1, 3),
     "gain must be finite"),
    ("sensing_error_exact-gain-nan", lambda: gmm.sensing_error_exact(math.nan, 0.1, 3),
     "gain must be finite"),
    ("sensing_error_exact-gain-negative", lambda: gmm.sensing_error_exact(-1.0, 0.1, 3),
     "gain must be non-negative"),
    ("semi_analytic_error-gain-negative", lambda: gmm.semi_analytic_error(-1.0, [0.1, 0.2]),
     "gain must be non-negative"),
    ("ExperimentConfig-clip-negative", lambda: harness.ExperimentConfig(clip=-1.0),
     "clip must be positive"),
    ("effective_discriminant_gain-nan",
     lambda: gmm.effective_discriminant_gain(_point().model, math.nan), "nonnegative"),
    ("dg_reduction_bounds-nan", lambda: gmm.dg_reduction_bounds(_point().model, math.nan),
     "nonnegative"),
    ("log_regularized_upper_gamma-nan", lambda: log_regularized_upper_gamma(4, math.nan),
     "nonnegative"),
    ("poisson_binomial_pmf-nan", lambda: poisson_binomial_pmf([0.5, math.nan]),
     r"must lie in \[0, 1\]"),
]


@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=name)
                                           for name, call, message in BAD_ARGUMENTS])
def test_refuses_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()
