import inspect
import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.fft import next_fast_len

from senselink import gmm, quant

from reference import index_sum_law_unflushed


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


def cell_probabilities(mean, var, clip, bits):
    """The grid of scalar_quantize and each point's probability under
    N(mean, var), from the midpoints between grid points."""
    grid = np.linspace(-clip, clip, 2 ** bits)
    edges = 0.5 * (grid[:-1] + grid[1:])
    np.testing.assert_allclose(quant.scalar_quantize(edges - 1e-9, clip, bits), grid[:-1],
                               atol=1e-12)
    np.testing.assert_allclose(quant.scalar_quantize(edges + 1e-9, clip, bits), grid[1:],
                               atol=1e-12)
    return grid, np.diff(stats.norm.cdf(np.r_[-np.inf, edges, np.inf], mean, np.sqrt(var)))


class TestIndexPmf:
    @pytest.mark.parametrize("bits", [1, 3, 5])
    def test_matches_quantizer_frequencies(self, bits):
        # one row per (mean, variance): each grid index's frequency among
        # scalar_quantize outputs of Gaussian draws, at |Z| <= 5 per index
        means = np.array([[0.3], [-1.2], [2.0]])
        variances = np.array([[1.0], [0.25], [4.0]])
        clip, draws = 3.0, 200_000
        pmf = quant.index_pmf(means, variances, clip, bits)
        assert pmf.shape == (3, 2 ** bits)
        rng = np.random.default_rng(bits)
        values = means + np.sqrt(variances) * rng.standard_normal((3, draws))
        delta = 2.0 * clip / (2 ** bits - 1)
        index = np.rint((quant.scalar_quantize(values, clip, bits) + clip) / delta).astype(int)
        for row, p in zip(index, pmf):
            freq = np.bincount(row, minlength=2 ** bits) / draws
            assert np.all(np.abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / draws) + 1e-12)

    def test_rows_sum_to_one(self):
        # a scalar, a column and a (class, coordinate) grid of means, with
        # tails far below the float resolution at small variances
        rng = np.random.default_rng(8)
        for bits in (1, 4, 7):
            assert quant.index_pmf(0.1, 1.0, 5.0, bits).sum() == pytest.approx(1.0, abs=1e-15)
            means = rng.uniform(-6.0, 6.0, size=(2, 40, 1))
            variances = rng.uniform(1e-4, 9.0, size=(40, 1))
            pmf = quant.index_pmf(means, variances, 5.0, bits)
            assert pmf.shape == (2, 40, 2 ** bits) and pmf.min() >= 0.0
            np.testing.assert_allclose(pmf.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    def test_one_coordinate_of_the_sum_law(self):
        # the sum law of one value is its index pmf, up to the FFT's rounding
        pmf = quant.index_pmf(np.array([[0.1], [-0.1]]), 1.0, 5.0, 4)
        _, law = quant.index_sum_law(np.array([[0.1], [-0.1]]), 1.0, 5.0, 4, 1)
        np.testing.assert_allclose(law, pmf, rtol=0, atol=1e-15)


class TestIndexSumLaw:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("mean, var, clip", [(0.3, 1.0, 1.5), (-0.7, 2.5, 4.0)])
    def test_matches_enumeration(self, dim, bits, mean, var, clip):
        grid, prob = cell_probabilities(mean, var, clip, bits)
        size = dim * (2 ** bits - 1) + 1
        want_values, want_pmf = np.zeros(size), np.zeros(size)
        for cells in itertools.product(range(2 ** bits), repeat=dim):
            want_values[sum(cells)] = grid[list(cells)].sum()
            want_pmf[sum(cells)] += np.prod(prob[list(cells)])
        values, pmf = quant.index_sum_law(mean, var, clip, bits, dim)
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pmf, want_pmf, rtol=0, atol=1e-12)

    def test_moments_at_fifty_coordinates(self):
        grid, prob = cell_probabilities(0.1, 1.0, 5.0, 4)
        mean = float(prob @ grid)
        var = float(prob @ grid ** 2) - mean ** 2
        values, pmf = quant.index_sum_law(0.1, 1.0, 5.0, 4, 50)
        assert pmf.min() >= 0.0 and pmf.sum() == pytest.approx(1.0, abs=1e-14)
        assert pmf @ values == pytest.approx(50 * mean, rel=1e-10)
        assert pmf @ values ** 2 - (pmf @ values) ** 2 == pytest.approx(50 * var, rel=1e-10)

    @pytest.mark.parametrize("dim, bits", [(50, b) for b in range(6, 11)]
                             + [(d, b) for d in (1, 2, 3) for b in range(1, 5)])
    def test_floor_keeps_the_bytes(self, dim, bits):
        # the transform terms set to 0 before the power change no bit of the
        # sums or of either class's pmf; at d = 50, 73% (6 bits) to 98% (10
        # bits) of the terms' powers would underflow
        means = np.array([[0.1], [-0.1]])
        got = quant.index_sum_law(means, 1.0, 5.0, bits, dim)
        want = index_sum_law_unflushed(means, 1.0, 5.0, bits, dim)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("dim, bits", [(1, 1), (1, 3), (3, 2), (50, 4)])
    def test_doubled_is_the_self_convolution(self, dim, bits):
        # the law of two independent index sums of d values is the index sum
        # law of 2 d values, up to the FFT's rounding
        means = np.array([[0.3], [-0.7]])
        law = (quant.index_pmf(means, 1.5, 4.0, bits) if dim == 1
               else quant.index_sum_law(means, 1.5, 4.0, bits, dim)[1])
        doubled = quant.doubled(law)
        np.testing.assert_allclose(doubled, [np.convolve(row, row) for row in law],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(doubled, quant.index_sum_law(means, 1.5, 4.0, bits, 2 * dim)[1],
                                   rtol=0, atol=1e-15)
        assert doubled.min() >= 0.0 and np.all(doubled.sum(axis=1) == pytest.approx(1.0, abs=1e-15))

    def test_fast_length_matches_scipy(self):
        # the FFT length of every law is the smallest 2^a 3^b 5^c at or above
        # its size, which scipy gives for a real transform; checked up to 2^17,
        # past the 2^16 + 1 values of the widest law the table path builds
        sizes = range(1, 2 ** 17 + 1)
        assert [quant._fast_len(n) for n in sizes] == [next_fast_len(n, real=True) for n in sizes]

    def test_independent_of_the_benchmark_oracle(self):
        # perfbench/checks.py holds the benchmark's own oracle for this law
        source = inspect.getsource(quant)
        assert "perfbench" not in source and "checks" not in source


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
