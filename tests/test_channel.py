import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from senselink import channel as ch

mpmath = pytest.importorskip("mpmath")


def mp_avg_loss(antennas, snr_db, n, rate):
    """The average loss at 30 digits: mpmath's tanh-sinh quadrature of the
    normal-approximation loss against the Erlang density, split at 0, the
    SNRs where the margin a is 0, +-1, ..., +-12, a set of Erlang quantiles
    and infinity."""
    mp = mpmath.mp
    mp.dps = 30
    g0 = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
    r, s = mp.mpf(rate), mp.sqrt(n) * mp.log(2)
    log_norm = mp.loggamma(antennas) + antennas * mp.log(g0)

    def integrand(g):
        if g == 0:
            return 1 / g0 if antennas == 1 else mp.mpf(0)
        x = mp.log1p(g) / mp.log(2)
        a = s * (x - r) / mp.sqrt(-mp.expm1(-x * mp.log(4)))
        return mp.erfc(a / mp.sqrt(2)) / 2 * mp.exp((antennas - 1) * mp.log(g) - g / g0 - log_norm)

    points = {mp.mpf(0)}
    for k in (-8, -6, -4, -3, -2, -1, -0.5, 0, 0.5, 1, 2, 3, 4, 6, 8, 10, 12):
        if r + k / s > 0:
            points.add(mp.mpf(2) ** (r + k / s) - 1)
    for q in (1e-30, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-12):
        points.add(g0 * float(special.gammaincinv(antennas, q)))
    return float(mp.quad(integrand, sorted(points) + [mp.inf]))


@pytest.fixture
def cfg4():
    return ch.ChannelConfig(antennas=4, snr_linear=ch.snr_from_db(1.0), blocklength=100)


class TestSnrFromDb:
    @pytest.mark.parametrize("db,linear", [(0.0, 1.0), (10.0, 10.0), (-10.0, 0.1)])
    def test_round_values(self, db, linear):
        assert ch.snr_from_db(db) == pytest.approx(linear, rel=1e-12)

    def test_two_db(self):
        assert ch.snr_from_db(2.0) == pytest.approx(1.5848932, abs=1e-7)

    @pytest.mark.parametrize("db", [4000.0, math.inf, math.nan])
    def test_rejects_ratio_beyond_float_range(self, db):
        # 10^(4000/10) overflows a float; NaN and inf are no ratio at all
        with pytest.raises(ValueError, match="dB"):
            ch.snr_from_db(db)


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
        # scipy Erlang density, split the same way at the capacity edge
        # 2^(R + 9 / (sqrt(N) ln 2)) - 1 with the knee 2^R - 1 as the lower
        # piece's breakpoint, and the tail past mass 1e-10 integrated over
        # its probability through scipy's inverse upper incomplete gamma;
        # L = 1 has a nonzero density at g = 0
        def reference(cfg, rate):
            dist = stats.gamma(a=cfg.antennas, scale=cfg.snr_linear)
            hi = float(dist.isf(1e-10))
            knee = 2.0 ** rate - 1.0
            edge = min(2.0 ** (rate + 9.0 / (math.sqrt(cfg.blocklength) * math.log(2.0))) - 1.0, hi)
            total = 0.0
            for lo, top in ((0.0, edge), (edge, hi)):
                if lo < top:
                    points = [knee] if lo < knee < top else None
                    total += integrate.quad(
                        lambda g: ch.packet_loss(g, cfg.blocklength, rate) * dist.pdf(g),
                        lo, top, points=points, limit=300, epsabs=1e-10, epsrel=1e-9)[0]
            total += integrate.quad(
                lambda p: ch.packet_loss(cfg.snr_linear * special.gammainccinv(cfg.antennas, p),
                                         cfg.blocklength, rate),
                0.0, 1e-10, limit=300, epsabs=1e-20, epsrel=1e-9)[0]
            return min(max(total, 0.0), 1.0)

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

    @pytest.mark.parametrize("antennas,snr_db,n,rate", [
        (1, 10.0, 400, 0.02), (1, 40.0, 10, 3.0), (2, 10.0, 100, 0.02),
    ])
    def test_exact_keeps_loss_below_the_knee(self, antennas, snr_db, n, rate):
        # gamma0 far above the knee: the loss mass sits in a sliver next to
        # the knee; a single piece over [0, Erlang tail] missed 17-90% of it
        cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), n)
        ref = mp_avg_loss(antennas, snr_db, n, rate)
        assert ch.avg_packet_loss_exact(cfg, rate) == pytest.approx(ref, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("antennas,snr_db,n,rate", [
        (4, -2.0, 100, 16.0), (1, -2.0, 100, 16.0), (2, 10.0, 10, 8.0),
    ])
    def test_exact_keeps_the_erlang_tail(self, antennas, snr_db, n, rate):
        # every packet lost over the whole law (32 bits at d = 50 for the
        # first two), and a loss near one half at the tail's 1e-10
        # quantile: truncating the law there returned 1 - 1e-10 for the first
        cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), n)
        ref = mp_avg_loss(antennas, snr_db, n, rate)
        assert ch.avg_packet_loss_exact(cfg, rate) == pytest.approx(ref, rel=1e-14, abs=0.0)

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


def envelope_rates(blocklength):
    """Rates b d / N that a policy can reach: b bits per feature, dimension d."""
    return np.unique([b * d / blocklength for b in (1, 2, 3, 4, 8, 16, 32, 64)
                      for d in (1, 2, 7, 50, 128, 512)])


def loss_tolerance(eps):
    return 2e-10 + 1e-8 * min(eps, 1.0 - eps)


class TestGaussHermiteLoss:
    @pytest.mark.parametrize("antennas", [1, 2, 4, 16, 64, 256])
    def test_matches_quadrature_over_envelope(self, antennas):
        checked = 0
        for snr_db in (-30.0, -10.0, 0.0, 2.0, 10.0, 20.0, 40.0, 60.0):
            for n in (10, 100, 400, 2000):
                cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), n)
                rates = envelope_rates(n)
                got = ch.avg_packet_loss(cfg, rates)
                for rate, value in zip(rates, got):
                    ref = ch.avg_packet_loss_exact(cfg, rate)
                    assert abs(value - ref) <= loss_tolerance(ref), (snr_db, n, rate)
                    checked += 0.0 < ref < 1.0
        assert checked >= 150

    @pytest.mark.parametrize("antennas,snr_db,n,rate,over_margin", [
        (1, 10.0, 400, 0.02, True), (1, 40.0, 10, 3.0, True), (2, 10.0, 100, 0.02, True),
        (4, 2.0, 100, 2.0, True), (8, 60.0, 10, 20.0, True), (256, 20.0, 2000, 14.6, True),
        (256, -30.0, 100, 0.36, False), (256, -30.0, 10, 0.1, False), (256, 20.0, 10, 14.6, False),
        (1, -30.0, 100, 0.01, False),
    ])
    def test_matches_mpmath(self, antennas, snr_db, n, rate, over_margin):
        # both forms, each where the knee's widths select it: a wide Erlang
        # law integrates over the margin, a narrow one over the SNR
        cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), n)
        assert ch._margin_form(cfg, np.array([rate]))[0] == over_margin
        ref = mp_avg_loss(antennas, snr_db, n, rate)
        assert abs(ch.avg_packet_loss(cfg, [rate])[0] - ref) <= loss_tolerance(ref)

    @pytest.mark.parametrize("blocklength", [1, 10, 2000])
    @pytest.mark.parametrize("rate", [5e-4, 0.3, 4.0, 300.0])
    def test_margin_inverse_round_trip(self, blocklength, rate):
        # from gamma -> 0 up to 1024 bits per channel use
        s = math.sqrt(blocklength) * math.log(2.0)
        x = np.concatenate([np.logspace(-14, 3, 120), [1024.0]])
        t = s * (x - rate) / np.sqrt(-np.expm1(-x * math.log(4.0)))
        back = ch._margin_inverse(rate, t, s)
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=0.0)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(ch, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            ch.avg_packet_loss(ch.ChannelConfig(4, ch.snr_from_db(2.0), 100), [1.0, 2.0])

    def test_extreme_rates(self, cfg4):
        # past 1024 bits per use the knee overflows and the loss is 1
        np.testing.assert_array_equal(ch.avg_packet_loss(cfg4, [2000.0, 3276.8]), [1.0, 1.0])

    @pytest.mark.parametrize("rates", [[0.0], [-1.0, 1.0], [[1.0]]])
    def test_rejects_bad_rates(self, cfg4, rates):
        with pytest.raises(ValueError):
            ch.avg_packet_loss(cfg4, rates)


class TestChannelConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ch.ChannelConfig(0, 1.0, 100)
        with pytest.raises(ValueError):
            ch.ChannelConfig(4, 0.0, 100)
        with pytest.raises(ValueError):
            ch.ChannelConfig(4, 1.0, 0)

    @pytest.mark.parametrize("field", ["antennas", "snr_linear", "blocklength"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        fields = {"antennas": 4, "snr_linear": 1.0, "blocklength": 100, field: value}
        with pytest.raises(ValueError, match=field):
            ch.ChannelConfig(**fields)
