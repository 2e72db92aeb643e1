import math

import numpy as np
import pytest
from scipy import stats

from senselink import gmm
from senselink.numerics import poisson_binomial_pmf

from reference import classify, discriminant_score


def random_spd(rng, dim, lo=0.3, hi=3.0):
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return basis @ np.diag(rng.uniform(lo, hi, dim)) @ basis.T


@pytest.fixture
def default_model():
    # d = 50, centroids at +/- 0.1 per dimension, identity covariance
    mu = 0.1 * np.ones(50)
    return gmm.InferenceModel(mu, -mu, np.eye(50))


class TestInferenceModel:
    def test_rejects_singular_covariance(self):
        with pytest.raises(ValueError):
            gmm.InferenceModel(np.zeros(2), np.ones(2), np.zeros((2, 2)))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            gmm.InferenceModel(np.zeros(2), np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gmm.InferenceModel(np.zeros(3), np.ones(2), np.eye(2))

    @pytest.mark.parametrize("field", ["mu1", "mu2", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, value):
        fields = {"mu1": np.zeros(2), "mu2": np.ones(2), "sigma": np.eye(2)}
        fields[field] = fields[field].copy()
        fields[field].flat[0] = value
        with pytest.raises(ValueError, match=field):
            gmm.InferenceModel(**fields)

    @pytest.mark.parametrize("mu1, sigma, first, sizes", [
        ([0.1] * 4, np.eye(4), [0], [4]),
        ([0.1, 0.1, 0.2, 0.1], np.eye(4), [0, 2], [3, 1]),
        ([0.1] * 4, np.diag([1.0, 3.0, 1.0, 2.0]), [0, 1, 2], [1, 1, 2]),
        ([0.1] * 3, [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]], [0, 1, 2], [1, 1, 1]),
    ], ids=["identity", "one-mean-apart", "repeated-diagonal", "dense"])
    def test_groups_share_means_and_eigenvalue(self, mu1, sigma, first, sizes):
        # coordinates in the eigenbasis (eigenvalues descending) group by
        # exact equality of both class means and the eigenvalue, in the
        # order of their first coordinates
        model = gmm.InferenceModel(np.array(mu1), -np.array(mu1), np.array(sigma, dtype=float))
        got_first, got_sizes = model.groups
        assert got_first.tolist() == first and got_sizes.tolist() == sizes
        key = np.vstack([model.means, model.eigvals])
        matches = [[np.array_equal(key[:, i], key[:, j]) for j in got_first]
                   for i in range(model.dim)]
        assert all(sum(row) == 1 for row in matches)
        assert np.sum(matches, axis=0).tolist() == sizes
        assert model.groups is model.groups and not got_first.flags.writeable


class TestDiscriminantGain:
    def test_default_model_is_unit_gain(self, default_model):
        assert gmm.discriminant_gain(default_model) == pytest.approx(1.0, abs=1e-12)

    def test_identical_centroids(self):
        mu = np.ones(4)
        assert gmm.discriminant_gain(gmm.InferenceModel(mu, mu, np.eye(4))) == 0.0

    def test_unit_separation_single_axis(self):
        mu1 = np.zeros(5)
        mu2 = np.zeros(5)
        mu2[0] = -1.0
        assert gmm.discriminant_gain(gmm.InferenceModel(mu1, mu2, np.eye(5))) == pytest.approx(0.5)


class TestEffectiveGain:
    def test_zero_noise_equals_gain(self, default_model):
        assert gmm.effective_discriminant_gain(default_model, 0.0) == pytest.approx(
            gmm.discriminant_gain(default_model))

    def test_identity_covariance_closed_form(self, default_model):
        # identity covariance: D0 / (1 + s2)
        assert gmm.effective_discriminant_gain(default_model, 0.037037) == pytest.approx(
            1.0 / 1.037037, rel=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        sigma = random_spd(rng, 8)
        model = gmm.InferenceModel(rng.standard_normal(8), rng.standard_normal(8), sigma)
        for s2 in (0.05, 0.7, 4.0):
            dm = model.mu1 - model.mu2
            expected = 0.5 * dm @ np.linalg.solve(sigma + s2 * np.eye(8), dm)
            assert gmm.effective_discriminant_gain(model, s2) == pytest.approx(expected, rel=1e-12)

    def test_array_of_noise_variances(self):
        rng = np.random.default_rng(4)
        model = gmm.InferenceModel(rng.standard_normal(9), rng.standard_normal(9),
                                   random_spd(rng, 9))
        s2 = np.array([0.0, 0.05, 0.7, 4.0, 1e6])
        gains = gmm.effective_discriminant_gain(model, s2)
        assert isinstance(gains, np.ndarray) and gains.shape == s2.shape
        np.testing.assert_array_equal(gains,
                                      [gmm.effective_discriminant_gain(model, v) for v in s2])
        assert isinstance(gmm.effective_discriminant_gain(model, 0.7), float)
        with pytest.raises(ValueError):
            gmm.effective_discriminant_gain(model, [0.1, -0.1])

    def test_strictly_decreasing_in_noise(self, default_model):
        vals = [gmm.effective_discriminant_gain(default_model, s2)
                for s2 in np.linspace(0.0, 5.0, 30)]
        assert np.all(np.diff(vals) < 0)

    def test_residual_gap_decays_like_4_to_minus_r(self, default_model):
        # (D0 - D(R)) / 4^-R stays bounded: fit the constant at R = 8
        d0 = gmm.discriminant_gain(default_model)
        clip = 5.0
        ratios = []
        for bits in range(4, 13):
            s2 = clip ** 2 / (3.0 * (2 ** bits - 1) ** 2)
            ratios.append((d0 - gmm.effective_discriminant_gain(default_model, s2)) * 4.0 ** bits)
        anchor = ratios[4]  # R = 8
        assert all(r <= 1.5 * anchor for r in ratios)


class TestReductionBounds:
    def test_identity_closed_form(self):
        model = gmm.InferenceModel(np.array([1.0, 0.0]), np.zeros(2), np.eye(2))
        lo, hi = gmm.dg_reduction_bounds(model, 1.0)
        assert (lo, hi) == (pytest.approx(0.25), pytest.approx(1.0))
        d0 = gmm.discriminant_gain(model)
        rel = (d0 - gmm.effective_discriminant_gain(model, 1.0)) / d0
        assert lo <= rel <= hi
        assert rel == pytest.approx(0.5)

    def test_zero_noise(self, default_model):
        assert gmm.dg_reduction_bounds(default_model, 0.0) == (0.0, 0.0)

    def test_rejects_negative_variance(self, default_model):
        with pytest.raises(ValueError, match="nonnegative"):
            gmm.dg_reduction_bounds(default_model, -1e-3)

    def test_brackets_actual_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(2, 21))
            model = gmm.InferenceModel(
                rng.standard_normal(dim), rng.standard_normal(dim), random_spd(rng, dim))
            d0 = gmm.discriminant_gain(model)
            for s2 in (0.01, 0.1, 1.0, 10.0):
                rel = (d0 - gmm.effective_discriminant_gain(model, s2)) / d0
                lo, hi = gmm.dg_reduction_bounds(model, s2)
                assert lo - 1e-12 <= rel <= hi + 1e-12
                assert lo <= hi


class TestDiscriminantScore:
    def test_midpoint_is_zero(self, default_model):
        mid = 0.5 * (default_model.mu1 + default_model.mu2)
        assert discriminant_score(mid, default_model) == pytest.approx(0.0, abs=1e-12)

    def test_centroid_score_is_minus_gain(self, default_model):
        d0 = gmm.discriminant_gain(default_model)
        assert discriminant_score(default_model.mu1, default_model) == pytest.approx(-d0)

    def test_sample_moments(self, default_model):
        rng = np.random.default_rng(5)
        x = gmm.sample_features(default_model, 1, 100_000, rng)
        scores = discriminant_score(x, default_model)
        d0 = gmm.discriminant_gain(default_model)
        assert scores.mean() == pytest.approx(-d0, rel=0.05)
        assert scores.var() == pytest.approx(2.0 * d0, rel=0.05)


class TestSampleFeatures:
    def test_moments(self):
        rng = np.random.default_rng(6)
        mu = 0.1 * np.ones(10)
        model = gmm.InferenceModel(mu, -mu, np.eye(10))
        for label, center in ((1, mu), (2, -mu)):
            x = gmm.sample_features(model, label, 100_000, rng)
            assert np.max(np.abs(x.mean(axis=0) - center)) < 0.05
            assert np.max(np.abs(x.var(axis=0) - 1.0)) < 0.05

    def test_covariance_through_cholesky(self):
        rng = np.random.default_rng(7)
        sigma = random_spd(rng, 4)
        model = gmm.InferenceModel(np.zeros(4), np.ones(4), sigma)
        x = gmm.sample_features(model, 1, 200_000, rng)
        assert np.max(np.abs(np.cov(x.T) - sigma)) < 0.05

    def test_deterministic_under_seed(self, default_model):
        a = gmm.sample_features(default_model, 1, 10, np.random.default_rng(9))
        b = gmm.sample_features(default_model, 1, 10, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_label(self, default_model):
        with pytest.raises(ValueError):
            gmm.sample_features(default_model, 3, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("count", [0, -2])
    def test_rejects_nonpositive_count(self, default_model, count):
        with pytest.raises(ValueError, match="count must be positive"):
            gmm.sample_features(default_model, 1, count, np.random.default_rng(0))


class TestClassify:
    def test_single_negative(self):
        assert classify([-1.0]) == 1

    def test_positive_sum(self):
        assert classify([-1.0, 3.0]) == 2

    def test_zero_sum_is_class_two(self):
        assert classify([1.0, -1.0]) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            classify([])


class TestErrorFormulas:
    # one observation that always arrives: the Bayes error Q(sqrt(D/2))
    def test_bayes_error_at_zero_gain(self):
        assert gmm.semi_analytic_error(0.0, [0.0]) == 0.5

    def test_bayes_error_known_tails(self):
        assert gmm.semi_analytic_error(2.0, [0.0]) == pytest.approx(stats.norm.sf(1.0), rel=1e-12)
        assert gmm.semi_analytic_error(1.0, [0.0]) == pytest.approx(0.2397501, abs=1e-7)

    def test_bound_lossless_limit(self):
        assert gmm.sensing_error_bound(1.0, 0.0, 10) == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_bound_total_loss(self):
        assert gmm.sensing_error_bound(3.0, 1.0, 7) == pytest.approx(1.0)

    def test_bound_direct_evaluation(self):
        base = math.exp(-0.25)
        expected = (base + (1.0 - base) * 0.5) ** 20
        assert gmm.sensing_error_bound(1.0, 0.5, 20) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0960, abs=2e-4)

    def test_semi_analytic_total_loss(self):
        assert gmm.semi_analytic_error(1.0, [1.0] * 5) == 0.5

    def test_semi_analytic_lossless(self):
        assert gmm.semi_analytic_error(1.0, [0.0] * 10) == pytest.approx(
            stats.norm.sf(math.sqrt(5.0)), rel=1e-12)

    def test_semi_analytic_hand_expansion(self):
        # K = 2, losses (0.2, 0.5): P(M=0) = 0.1, P(M=1) = 0.5, P(M=2) = 0.4
        expected = 0.1 * 0.5 + 0.5 * stats.norm.sf(1.0) + 0.4 * stats.norm.sf(math.sqrt(2.0))
        assert gmm.semi_analytic_error(2.0, [0.2, 0.5]) == pytest.approx(expected, rel=1e-12)

    def test_equal_losses_elementwise(self):
        # the binomial-count error of each (gain, loss) pair, against the
        # Poisson-binomial DP mixed by hand, and the bound against its
        # scalar form
        gains = np.array([0.0, 0.3, 1.0, 4.0, 2.0])
        losses = np.array([0.4, 0.0, 0.7, 1.0, 0.05])
        k = 7
        exact = gmm.sensing_error_exact(gains, losses, k)
        bounds = gmm.sensing_error_bound(gains, losses, k)
        for gain, eps, got, bound in zip(gains, losses, exact, bounds):
            pmf = poisson_binomial_pmf([1.0 - eps] * k)
            cond = stats.norm.sf(np.sqrt(np.arange(k + 1) * gain / 2.0))
            cond[0] = 0.5
            expected = 0.5 if gain == 0.0 else min(float(pmf @ cond), 0.5)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert bound == pytest.approx(gmm.sensing_error_bound(float(gain), float(eps), k),
                                          rel=1e-14)
        with pytest.raises(ValueError):
            gmm.sensing_error_bound(gains, losses + 0.5, k)

    def test_bound_dominates_exact(self):
        for gain in (0.2, 1.0, 3.0):
            for eps in (0.0, 0.2, 0.6, 0.95):
                for k in (1, 4, 15):
                    assert gmm.semi_analytic_error(gain, [eps] * k) <= \
                        gmm.sensing_error_bound(gain, eps, k) + 1e-12
