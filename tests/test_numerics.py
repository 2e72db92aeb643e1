import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.special import logsumexp

from senselink.numerics import (
    binomial_pmf,
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
