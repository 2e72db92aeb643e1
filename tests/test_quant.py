import numpy as np
import pytest
from scipy import stats

from senselink import gmm, quant


def random_spd(rng, dim, lo=0.5, hi=2.0):
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return basis @ np.diag(rng.uniform(lo, hi, dim)) @ basis.T


class TestKltBasis:
    def test_identity_covariance(self):
        np.testing.assert_array_equal(quant.klt(np.eye(4))[1], np.eye(4))

    def test_diagonal_descending_input(self):
        np.testing.assert_allclose(quant.klt(np.diag([3.0, 1.0]))[1], np.eye(2))

    def test_diagonal_ascending_input_reorders(self):
        basis = quant.klt(np.diag([1.0, 3.0]))[1]
        np.testing.assert_allclose(basis, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_decorrelates(self):
        rng = np.random.default_rng(0)
        sigma = random_spd(rng, 10)
        basis = quant.klt(sigma)[1]
        diag = basis @ sigma @ basis.T
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) <= 1e-8
        assert np.all(np.diff(np.diag(diag)) <= 1e-12)  # descending spectrum

    def test_orthogonal_and_sign_fixed(self):
        rng = np.random.default_rng(1)
        sigma = random_spd(rng, 7)
        basis = quant.klt(sigma)[1]
        assert np.max(np.abs(basis @ basis.T - np.eye(7))) <= 1e-10
        for row in basis:
            nz = row[np.abs(row) > 1e-12]
            assert nz[0] > 0


class TestScalarQuantize:
    def test_two_point_grid(self):
        cfg = quant.QuantizerConfig(1.0, 1, np.eye(1))
        assert quant.scalar_quantize(0.3, cfg.clip, cfg.bits) == 1.0

    def test_saturation(self):
        cfg = quant.QuantizerConfig(1.0, 1, np.eye(1))
        assert quant.scalar_quantize(-2.0, cfg.clip, cfg.bits) == -1.0
        assert quant.scalar_quantize(50.0, cfg.clip, cfg.bits) == 1.0

    def test_cell_membership(self):
        cfg = quant.QuantizerConfig(3.0, 2, np.eye(1))  # grid {-3, -1, 1, 3}
        assert quant.scalar_quantize(0.2, cfg.clip, cfg.bits) == 1.0
        assert quant.scalar_quantize(-0.2, cfg.clip, cfg.bits) == -1.0

    def test_half_open_cells(self):
        cfg = quant.QuantizerConfig(3.0, 2, np.eye(1))
        # boundary at 0 belongs to the upper cell
        assert quant.scalar_quantize(0.0, cfg.clip, cfg.bits) == 1.0

    def test_input_left_unchanged(self):
        cfg = quant.QuantizerConfig(3.0, 2, np.eye(1))
        v = np.array([[0.2, -0.2], [7.0, -7.0]])
        before = v.copy()
        np.testing.assert_array_equal(quant.scalar_quantize(v, cfg.clip, cfg.bits),
                                      [[1.0, -1.0], [3.0, -3.0]])
        np.testing.assert_array_equal(v, before)

    def test_grid_points_are_fixed(self):
        cfg = quant.QuantizerConfig(5.0, 3, np.eye(1))
        grid = -5.0 + cfg.resolution * np.arange(2 ** 3)
        np.testing.assert_allclose(quant.scalar_quantize(grid, cfg.clip, cfg.bits), grid, atol=1e-12)


class TestEncodeDecode:
    def test_identity_path_zero_cell(self):
        cfg = quant.QuantizerConfig(5.0, 3, np.eye(4))
        small = np.full(4, 0.1)  # inside the cell of the 0-adjacent grid point
        out, bits = quant.encode(small, cfg)
        assert bits == 12
        np.testing.assert_allclose(out, quant.scalar_quantize(small, cfg.clip, cfg.bits))

    def test_encode_decode_idempotent(self):
        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 6)
        cfg = quant.QuantizerConfig(5.0, 4, quant.klt(sigma)[1])
        x = rng.standard_normal(6)
        once, _ = quant.encode(x, cfg)
        again, _ = quant.encode(quant.decode(once, cfg), cfg)
        np.testing.assert_allclose(once, again, atol=1e-12)

    def test_transform_preserves_energy(self):
        rng = np.random.default_rng(3)
        cfg = quant.QuantizerConfig(5.0, 4, quant.klt(random_spd(rng, 8))[1])
        y = rng.standard_normal(8)
        assert np.linalg.norm(quant.decode(y, cfg)) == pytest.approx(
            np.linalg.norm(y), abs=1e-10)

    def test_distortion_statistics(self):
        # d = 50 with a mixing transform: distortion variance ~ resolution^2/12,
        # and per-dimension distortion close to Gaussian
        rng = np.random.default_rng(4)
        sigma = random_spd(rng, 50)
        model = gmm.InferenceModel(0.1 * np.ones(50), -0.1 * np.ones(50), sigma)
        cfg = quant.QuantizerConfig(5.0, 4, quant.klt(sigma)[1])
        x = gmm.sample_features(model, 1, 100_000, rng)
        z = quant.decode(quant.encode(x, cfg)[0], cfg) - x
        target = quant.noise_variance(4, 5.0)
        assert np.max(np.abs(z.var(axis=0) / target - 1.0)) <= 0.10
        assert np.max(np.abs(z.mean(axis=0))) <= 3.0 * np.sqrt(target / 100_000)
        assert np.max(np.abs(stats.skew(z, axis=0))) <= 0.1
        assert np.max(np.abs(stats.kurtosis(z, axis=0))) <= 0.2

    def test_distortion_isotropy(self):
        rng = np.random.default_rng(5)
        sigma = random_spd(rng, 12)
        model = gmm.InferenceModel(np.zeros(12), np.ones(12), sigma)
        cfg = quant.QuantizerConfig(5.0, 3, quant.klt(sigma)[1])
        x = gmm.sample_features(model, 1, 50_000, rng)
        z = quant.decode(quant.encode(x, cfg)[0], cfg) - x
        cov = np.cov(z.T)
        diag_se = np.mean(np.diag(cov)) * np.sqrt(2.0 / 50_000)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 5.0 * diag_se


class TestNoiseVariance:
    def test_direct_formula(self):
        assert quant.noise_variance(4, 5.0) == pytest.approx(25.0 / 675.0, rel=1e-14)

    def test_two_point_grid(self):
        assert quant.noise_variance(1, 2.0) == pytest.approx(4.0 / 3.0)

    def test_equals_resolution_squared_over_12(self):
        for bits in range(1, 10):
            for clip in (0.5, 1.0, 5.0):
                cfg = quant.QuantizerConfig(clip, bits, np.eye(1))
                assert quant.noise_variance(bits, clip) == pytest.approx(
                    cfg.resolution ** 2 / 12.0, rel=1e-12)

    def test_quarters_per_added_bit(self):
        for bits in range(4, 12):
            ratio = quant.noise_variance(bits + 1, 5.0) / quant.noise_variance(bits, 5.0)
            assert ratio <= 0.27

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            quant.noise_variance(0, 1.0)
        with pytest.raises(ValueError):
            quant.noise_variance(2, -1.0)


class TestQuantizerConfig:
    def test_resolution_formula(self):
        cfg = quant.QuantizerConfig(5.0, 4, np.eye(2))
        assert cfg.resolution == pytest.approx(10.0 / 15.0)

    def test_rejects_non_orthogonal_basis(self):
        with pytest.raises(ValueError):
            quant.QuantizerConfig(1.0, 2, np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            quant.QuantizerConfig(-1.0, 2, np.eye(2))
        with pytest.raises(ValueError):
            quant.QuantizerConfig(1.0, 0, np.eye(2))

    @pytest.mark.parametrize("field", ["clip", "bits", "basis"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        basis = np.eye(2)
        basis[0, 0] = value
        fields = {"clip": 1.0, "bits": 2, "basis": np.eye(2),
                  field: basis if field == "basis" else value}
        with pytest.raises(ValueError, match=field):
            quant.QuantizerConfig(**fields)
