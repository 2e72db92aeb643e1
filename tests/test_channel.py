import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from senselink import channel as ch


@pytest.fixture
def cfg4():
    return ch.ChannelConfig(antennas=4, snr_linear=ch.snr_from_db(1.0), blocklength=100)


class TestSnrFromDb:
    @pytest.mark.parametrize("db,linear", [(0.0, 1.0), (10.0, 10.0), (-10.0, 0.1)])
    def test_round_values(self, db, linear):
        assert ch.snr_from_db(db) == pytest.approx(linear, rel=1e-12)

    def test_two_db(self):
        assert ch.snr_from_db(2.0) == pytest.approx(1.5848932, abs=1e-7)


class TestCapacityDispersion:
    def test_capacity_values(self):
        assert ch.capacity(0.0) == 0.0
        assert ch.capacity(1.0) == pytest.approx(1.0)
        assert ch.capacity(3.0) == pytest.approx(2.0)

    def test_dispersion_zero_snr(self):
        assert ch.dispersion(0.0) == 0.0

    def test_dispersion_high_snr_limit(self):
        assert ch.dispersion(1e6) == pytest.approx(math.log2(math.e) ** 2, abs=1e-5)

    def test_dispersion_unit_snr(self):
        assert ch.dispersion(1.0) == pytest.approx(0.75 * math.log2(math.e) ** 2, rel=1e-12)
        assert ch.dispersion(1.0) == pytest.approx(1.56103, abs=1e-5)


class TestPacketLoss:
    def test_rate_at_capacity(self):
        for gamma in (0.5, 1.0, 7.0):
            assert ch.packet_loss(gamma, 100, float(ch.capacity(gamma))) == pytest.approx(0.5)

    def test_long_blocklength_limit(self):
        losses = [ch.packet_loss(1.0, n, 0.5) for n in (100, 1000, 10_000)]
        assert np.all(np.diff(losses) < 0)
        assert losses[-1] < 1e-30

    def test_direct_evaluation(self):
        # oracle: the formula recomputed with scipy's normal survival function
        arg = math.sqrt(100.0 / ch.dispersion(1.0)) * (1.0 - 0.5)
        assert ch.packet_loss(1.0, 100, 0.5) == pytest.approx(stats.norm.sf(arg), rel=1e-12)
        assert ch.packet_loss(1.0, 100, 0.5) == pytest.approx(3.14e-5, rel=1e-2)

    def test_zero_snr_is_certain_loss(self):
        assert ch.packet_loss(0.0, 100, 0.5) == 1.0

    def test_monotonicity(self):
        gammas = np.linspace(0.1, 10.0, 40)
        losses = ch.packet_loss(gammas, 100, 1.0)
        assert np.all(np.diff(losses) < 0)
        rates = np.linspace(0.2, 4.0, 40)
        losses = np.array([ch.packet_loss(1.5, 100, r) for r in rates])
        assert np.all(np.diff(losses) >= 0)
        # strictly increasing below the saturation point
        pre = np.linspace(0.2, 1.3, 20)
        strict = np.array([ch.packet_loss(1.5, 100, r) for r in pre])
        assert np.all(np.diff(strict) > 0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ch.packet_loss(1.0, 100, 0.0)


class TestPostMrcSampler:
    def test_mean(self, cfg4):
        rng = np.random.default_rng(0)
        draws = ch.sample_post_mrc_snr(cfg4, rng, size=100_000)
        mean = cfg4.antennas * cfg4.snr_linear
        se = mean / math.sqrt(cfg4.antennas * 100_000)
        assert abs(draws.mean() - mean) <= 3.0 * se

    def test_single_antenna_is_exponential(self):
        cfg = ch.ChannelConfig(1, 1.0, 100)
        rng = np.random.default_rng(1)
        draws = ch.sample_post_mrc_snr(cfg, rng, size=100_000)
        assert stats.kstest(draws, "expon").statistic <= 0.01

    def test_erlang_distribution(self, cfg4):
        rng = np.random.default_rng(2)
        draws = ch.sample_post_mrc_snr(cfg4, rng, size=100_000)
        dist = stats.gamma(a=cfg4.antennas, scale=cfg4.snr_linear)
        assert stats.kstest(draws, dist.cdf).statistic <= 0.01

    def test_deterministic_under_seed(self, cfg4):
        a = ch.sample_post_mrc_snr(cfg4, np.random.default_rng(3), size=10)
        b = ch.sample_post_mrc_snr(cfg4, np.random.default_rng(3), size=10)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self, cfg4):
        out = ch.sample_post_mrc_snr(cfg4, np.random.default_rng(4))
        assert isinstance(out, float) and out >= 0.0


class TestAveragePacketLoss:
    def test_approx_exponential_closed_form(self):
        cfg = ch.ChannelConfig(1, 1.0, 100)
        assert ch.avg_packet_loss_approx(cfg, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12)

    def test_approx_two_antennas(self):
        cfg = ch.ChannelConfig(2, 1.0, 100)
        assert ch.avg_packet_loss_approx(cfg, 1.0) == pytest.approx(
            1.0 - 2.0 / math.e, rel=1e-12)

    def test_exact_limits(self, cfg4):
        assert ch.avg_packet_loss_exact(cfg4, 1e-4) <= 1e-6
        assert ch.avg_packet_loss_exact(cfg4, 40.0) >= 1.0 - 1e-8

    def test_exact_matches_monte_carlo(self, cfg4):
        rng = np.random.default_rng(5)
        draws = ch.sample_post_mrc_snr(cfg4, rng, size=100_000)
        losses = ch.packet_loss(draws, cfg4.blocklength, 1.5)
        se = losses.std() / math.sqrt(draws.size)
        assert abs(losses.mean() - ch.avg_packet_loss_exact(cfg4, 1.5)) <= 3.0 * se

    def test_exact_matches_scipy_integrand(self):
        # reference: the same quadrature over packet_loss times the frozen
        # scipy Erlang density; L = 1 has a nonzero density at g = 0
        def reference(cfg, rate):
            dist = stats.gamma(a=cfg.antennas, scale=cfg.snr_linear)
            hi = float(dist.isf(1e-10))
            knee = 2.0 ** rate - 1.0
            points = [knee] if 0.0 < knee < hi else None
            val, _ = integrate.quad(
                lambda g: ch.packet_loss(g, cfg.blocklength, rate) * dist.pdf(g),
                0.0, hi, points=points, limit=300, epsabs=1e-10, epsrel=1e-9)
            return min(max(val, 0.0), 1.0)

        checked = 0
        for antennas in (1, 2, 4, 8, 64):
            for snr_db in (-30.0, 2.0, 40.0):
                for n in (10, 100, 2000):
                    cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), n)
                    for outage in (1e-5, 1e-2, 0.5, 0.9):
                        rate = math.log2(1.0 + cfg.snr_linear * special.gammaincinv(antennas, outage))
                        ref = reference(cfg, rate)
                        if not 1e-6 <= ref < 1.0:
                            continue
                        assert ch.avg_packet_loss_exact(cfg, rate) == pytest.approx(ref, rel=1e-12)
                        checked += 1
        assert checked >= 150

    def test_approx_tracks_exact_at_moderate_loss(self, cfg4):
        # the closed form is loose at very small losses (~20% relative near
        # 3e-3); above ~0.12 it stays within 5% of the quadrature
        for rate in np.linspace(1.75, 4.0, 10):
            approx = ch.avg_packet_loss_approx(cfg4, rate)
            if not 0.12 <= approx <= 0.99:
                continue
            exact = ch.avg_packet_loss_exact(cfg4, rate)
            assert abs(approx - exact) / exact <= 0.05

    def test_error_shrinks_like_one_over_n(self):
        g0 = ch.snr_from_db(1.0)
        rate = 2.0
        err = {}
        for n in (100, 200):
            cfg = ch.ChannelConfig(4, g0, n)
            err[n] = abs(ch.avg_packet_loss_approx(cfg, rate)
                         - ch.avg_packet_loss_exact(cfg, rate))
        assert 1.5 <= err[100] / err[200] <= 3.0

    def test_approx_monotonicities(self):
        rates = np.linspace(0.3, 5.0, 30)
        vals = [ch.avg_packet_loss_approx(ch.ChannelConfig(4, 1.5, 100), r) for r in rates]
        assert np.all(np.diff(vals) > 0)
        snrs = np.linspace(0.5, 10.0, 30)
        vals = [ch.avg_packet_loss_approx(ch.ChannelConfig(4, g, 100), 2.0) for g in snrs]
        assert np.all(np.diff(vals) < 0)
        vals = [ch.avg_packet_loss_approx(ch.ChannelConfig(l, 1.5, 100), 2.0)
                for l in range(1, 10)]
        assert np.all(np.diff(vals) < 0)

    def test_matches_lower_gamma_oracle(self):
        from scipy.special import gammainc
        for antennas, snr, rate in [(1, 1.0, 0.5), (4, 1.26, 2.0), (8, 0.8, 1.5),
                                    (20, 0.303, 1.0), (12, 3.0, 3.0)]:
            cfg = ch.ChannelConfig(antennas, snr, 100)
            beta = (2.0 ** rate - 1.0) / snr
            assert ch.avg_packet_loss_approx(cfg, rate) == pytest.approx(
                gammainc(antennas, beta), rel=1e-9)

    def test_large_antenna_leading_term(self):
        # for L >> beta the loss approaches beta^L e^(-beta) / L! from above
        l, g0, rate = 20, 0.303, 1.0
        beta = (2.0 ** rate - 1.0) / g0
        eps = ch.avg_packet_loss_approx(ch.ChannelConfig(l, g0, 100), rate)
        lead = math.exp(l * math.log(beta) - beta - math.lgamma(l + 1))
        assert lead <= eps <= 1.3 * lead

    def test_log_success_concave(self, cfg4):
        rates = np.linspace(0.3, 4.5, 200)
        vals = np.array([math.log1p(-ch.avg_packet_loss_approx(cfg4, r)) for r in rates])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-12)


class TestSimulateSlot:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(6)
        assert all(ch.simulate_slot(0.0, rng) for _ in range(100))
        assert not any(ch.simulate_slot(1.0, rng) for _ in range(100))

    def test_bernoulli_rate(self):
        rng = np.random.default_rng(7)
        hits = sum(ch.simulate_slot(0.3, rng) for _ in range(100_000))
        se = math.sqrt(0.3 * 0.7 / 100_000)
        assert abs(hits / 100_000 - 0.7) <= 3.0 * se

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ch.simulate_slot(1.5, np.random.default_rng(8))


class TestChannelConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ch.ChannelConfig(0, 1.0, 100)
        with pytest.raises(ValueError):
            ch.ChannelConfig(4, 0.0, 100)
        with pytest.raises(ValueError):
            ch.ChannelConfig(4, 1.0, 0)
