import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

from senselink import channel as ch
from senselink import gmm
from senselink import harness
from senselink import numerics
from senselink import optimizer as opt


def make_params(snr_db=2.0, antennas=4, blocklength=100, dim=50, clip=5.0,
                observations=20, centroid=0.1):
    mu = centroid * np.ones(dim)
    model = gmm.InferenceModel(mu, -mu, np.eye(dim))
    cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), blocklength)
    return opt.TradeoffParams(model, clip, cfg, observations)


def exact_surrogate(rate, params):
    """Oracle: the surrogate rebuilt on the quadrature-evaluated average loss."""
    gain = opt.effective_discriminant_gain(params.model, opt.sigma_q2_of_rate(rate, params))
    eps = ch.avg_packet_loss_exact(params.channel, rate)
    t1 = -math.expm1(-gain / 4.0)
    t2 = 1.0 - eps
    if t1 <= 0.0 or t2 <= 0.0:
        return -math.inf
    return math.log(t1) + math.log(t2)


@pytest.fixture(scope="module")
def params():
    return make_params()


@pytest.fixture(scope="module")
def params_1db():
    return make_params(snr_db=1.0)


class TestSigmaQ2OfRate:
    def test_one_bit_floor(self, params):
        assert opt.sigma_q2_of_rate(0.5, params) == pytest.approx(25.0 / 3.0, rel=1e-12)

    def test_four_bit_level(self, params):
        assert opt.sigma_q2_of_rate(2.0, params) == pytest.approx(0.0370370, abs=1e-7)

    def test_matches_integer_bit_noise_variance(self, params):
        from senselink.quant import noise_variance
        for bits in range(1, 12):
            rate = bits * params.dim / params.channel.blocklength
            assert opt.sigma_q2_of_rate(rate, params) == pytest.approx(
                noise_variance(bits, params.clip), rel=1e-12)

    def test_decreasing_and_convex(self, params):
        # the noise variance is convex in the rate (second differences are
        # positive), despite a stated claim of concavity; concavity of the
        # gain and the surrogate does not rest on it
        grid = np.linspace(0.5, 6.0, 150)
        vals = np.array([opt.sigma_q2_of_rate(r, params) for r in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals[2:] - 2.0 * vals[1:-1] + vals[:-2] > 0)


class TestSurrogate:
    def test_channel_saturation_limit(self, params):
        assert opt.surrogate(60.0, params) == -math.inf

    def test_identity_with_error_bound(self, params):
        # bound = (1 - exp(phi))^K when both are built from the same rate
        k = params.observations
        for rate in np.linspace(0.6, 3.5, 15):
            gain = opt.effective_discriminant_gain(
                params.model, opt.sigma_q2_of_rate(rate, params))
            eps = ch.avg_packet_loss_approx(params.channel, rate)
            bound = gmm.sensing_error_bound(gain, eps, k)
            phi = opt.surrogate(rate, params)
            assert bound == pytest.approx((1.0 - math.exp(phi)) ** k, rel=1e-12)

    def test_argmax_matches_bound_argmin(self, params_1db):
        grid = np.linspace(0.5, 4.5, 801)
        phis = np.array([opt.surrogate(r, params_1db) for r in grid])
        k = params_1db.observations
        bounds = []
        for r in grid:
            gain = opt.effective_discriminant_gain(
                params_1db.model, opt.sigma_q2_of_rate(r, params_1db))
            eps = ch.avg_packet_loss_approx(params_1db.channel, r)
            bounds.append(gmm.sensing_error_bound(gain, eps, k))
        assert np.argmax(phis) == np.argmin(bounds)

    def test_concave_on_domain(self, params):
        lo, hi = opt.rate_domain(params)
        grid = np.linspace(lo, hi * 0.999, 500)
        vals = np.array([opt.surrogate(r, params) for r in grid])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-9)

    def test_concave_for_random_parameter_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            dim = int(rng.integers(5, 40))
            basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            sigma = basis @ np.diag(rng.uniform(0.3, 3.0, dim)) @ basis.T
            model = gmm.InferenceModel(rng.normal(0, 0.3, dim), rng.normal(0, 0.3, dim), sigma)
            cfg = ch.ChannelConfig(int(rng.integers(1, 9)), rng.uniform(0.5, 10.0),
                                   int(rng.integers(max(dim, 50), 400)))
            p = opt.TradeoffParams(model, rng.uniform(2.0, 8.0), cfg, 10)
            lo, hi = opt.rate_domain(p)
            grid = np.linspace(lo, hi * 0.999, 400)
            vals = np.array([opt.surrogate(r, p) for r in grid])
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.all(second <= 1e-9)

    def test_gain_and_loss_strictly_increasing(self, params):
        grid = np.linspace(0.5, 4.0, 100)
        gains = [opt.effective_discriminant_gain(
            params.model, opt.sigma_q2_of_rate(r, params)) for r in grid]
        losses = [ch.avg_packet_loss_approx(params.channel, r) for r in grid]
        assert np.all(np.diff(gains) > 0)
        assert np.all(np.diff(losses) > 0)


class TestSurrogateGradient:
    def test_distortion_term_vs_finite_differences(self, params):
        h = 1e-6
        for rate in np.linspace(0.7, 3.0, 12):
            def phi1(r):
                gain = opt.effective_discriminant_gain(
                    params.model, opt.sigma_q2_of_rate(r, params))
                return math.log(-math.expm1(-gain / 4.0))

            def phi2(r):
                return math.log1p(-ch.avg_packet_loss_approx(params.channel, r))

            fd1 = (phi1(rate + h) - phi1(rate - h)) / (2.0 * h)
            closed1 = opt.surrogate_gradient(rate, params) - \
                (phi2(rate + h) - phi2(rate - h)) / (2.0 * h)
            assert closed1 == pytest.approx(fd1, rel=1e-5)

    def test_full_gradient_vs_exact_surrogate(self, params):
        # the channel term approximates the derivative of the quadrature-based
        # surrogate with O(1/N) relative error
        h = 1e-5
        for rate in (1.0, 1.5, 2.0):
            fd = (exact_surrogate(rate + h, params) - exact_surrogate(rate - h, params)) / (2.0 * h)
            assert opt.surrogate_gradient(rate, params) == pytest.approx(fd, rel=0.05)

    def test_sign_change_around_argmax(self, params):
        grid = np.linspace(0.6, 3.5, 400)
        vals = [opt.surrogate(r, params) for r in grid]
        peak = grid[int(np.argmax(vals))]
        assert opt.surrogate_gradient(peak - 0.2, params) > 0
        assert opt.surrogate_gradient(peak + 0.2, params) < 0

    def test_large_antenna_count_no_overflow(self):
        p = make_params(antennas=200, snr_db=10.0)
        g = opt.surrogate_gradient(2.0, p)
        assert math.isfinite(g)


class TestGradientAscent:
    def test_converges_near_exact_optimum(self, params):
        # eta = 0.01 at the convergence-study parameter set; the result stays
        # within 1% of the optimizer of the quadrature-based surrogate
        rate = opt.gradient_ascent(params, opt.OptimizerSettings(step=0.01))
        from scipy import optimize as sciopt
        res = sciopt.minimize_scalar(lambda r: -exact_surrogate(r, params),
                                     bounds=(0.5, 4.0), method="bounded",
                                     options={"xatol": 1e-10})
        assert abs(rate - res.x) / res.x <= 0.01

    def test_objective_nondecreasing_along_iterates(self, params):
        trace = []
        opt.gradient_ascent(params, opt.OptimizerSettings(step=0.01), on_iterate=trace.append)
        vals = [opt.surrogate(r, params) for r in trace]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_fixed_point_terminates_immediately(self, params):
        settings = opt.OptimizerSettings(step=0.01)
        rate = opt.gradient_ascent(params, settings)
        again = opt.gradient_ascent(params, opt.OptimizerSettings(
            step=0.01, init_rate=rate, max_iters=1))
        assert again == rate
        assert abs(opt.surrogate_gradient(again, params)) <= settings.grad_tol

    def test_result_independent_of_start(self, params):
        results = [opt.gradient_ascent(params, opt.OptimizerSettings(step=0.01, init_rate=r0))
                   for r0 in (0.55, 1.0, 1.5, 2.5, 3.5)]
        assert max(results) - min(results) <= 1e-4

    def test_nonconvergence_reported(self, params):
        with pytest.raises(opt.ConvergenceError) as err:
            opt.gradient_ascent(params, opt.OptimizerSettings(step=1e-8, max_iters=5))
        assert err.value.last_rate > 0


@pytest.fixture
def gradient_calls(monkeypatch):
    """Records the rate of every surrogate_gradient call the optimizer makes."""
    calls = []
    gradient = opt.surrogate_gradient

    def counted(rate, p):
        calls.append(rate)
        return gradient(rate, p)

    monkeypatch.setattr(opt, "surrogate_gradient", counted)
    return calls


class TestSolveRate:
    def test_matches_gradient_ascent(self, params):
        # the criterion-7 operating point
        rate = opt.solve_rate(params)
        ascent = opt.gradient_ascent(params, opt.OptimizerSettings(step=0.01))
        assert abs(rate - ascent) <= 1e-4
        assert opt.round_rate(rate, params).bits_per_feature == \
            opt.round_rate(ascent, params).bits_per_feature

    @pytest.mark.parametrize("field,value,bits", [("snr_db", 40.0, 15), ("antennas", 64, 11)])
    def test_matches_brute_force_where_ascent_stalls(self, field, value, bits, gradient_calls):
        config = harness.ExperimentConfig(policy="adaptive", **{field: value})
        # this thread's CPU time, as in the envelope property below
        start = time.thread_time()
        decision = harness.decide(config)
        assert time.thread_time() - start < 1.0
        assert 0 < len(gradient_calls) <= 60
        brute = harness.decide(harness.ExperimentConfig(policy="brute", **{field: value}))
        assert decision.bits_per_feature == brute.bits_per_feature == bits

    @pytest.mark.parametrize("overrides", [{"dim": 1}, {"blocklength": 400, "dim": 4}])
    def test_many_channel_uses_per_feature(self, overrides, gradient_calls):
        # N/d = 100 puts the upper edge of the domain near 556 bits per
        # feature, where 2^b / (2^b - 1)^3 no longer fits a float; gradient
        # ascent, which never goes there, also settles on 13 bits
        p = harness.build_params(harness.ExperimentConfig(policy="adaptive", **overrides))
        _, hi = opt.rate_domain(p)
        assert p.channel.blocklength * hi / p.dim > 500
        assert math.isfinite(opt.surrogate_gradient(hi, p))
        decision = harness.decide(harness.ExperimentConfig(policy="adaptive", **overrides))
        assert decision.bits_per_feature == 13
        assert hi in gradient_calls

    def test_lower_edge_when_gradient_negative_throughout(self):
        # at -10 dB the one-bit rate already loses most packets, and a wide
        # class separation leaves the gain little to win from more bits
        p = make_params(snr_db=-10.0, centroid=0.5)
        lo, _ = opt.rate_domain(p)
        assert opt.surrogate_gradient(lo, p) < 0.0
        assert opt.solve_rate(p) == opt.gradient_ascent(p) == lo

    def test_upper_edge_when_gradient_positive_throughout(self, params, monkeypatch):
        # the real gradient turns steeply negative as the loss nears 1 at the
        # upper edge, so a constant positive gradient stands in for it
        monkeypatch.setattr(opt, "surrogate_gradient", lambda rate, p: 1.0)
        _, hi = opt.rate_domain(params)
        assert opt.solve_rate(params) == opt.gradient_ascent(params) == hi

    def test_zero_separation_is_one_bit_coin_flip(self):
        # the gain and its derivative vanish together; the distortion term
        # contributes 0 and the channel term pulls the rate to the lower edge
        config = harness.ExperimentConfig(centroid=0.0)
        params = harness.build_params(config)
        assert math.isfinite(opt.surrogate_gradient(opt.rate_domain(params)[0], params))
        decision = harness.decide(config)
        assert decision.bits_per_feature == 1
        assert decision.predicted_exact == 0.5

    def test_gradient_call_budget(self, gradient_calls):
        harness.decide(harness.ExperimentConfig(policy="adaptive"))
        assert 0 < len(gradient_calls) <= 60


class TestRounding:
    def test_nearest_level(self, params):
        decision = opt.round_rate(2.2, params)
        assert decision.bits_per_feature == 4
        assert decision.rounded_rate == pytest.approx(2.0)

    def test_floor_clamp(self, params):
        assert opt.round_rate(0.15, params).bits_per_feature == 1

    def test_half_rounds_up(self, params):
        assert opt.round_rate(2.25, params).bits_per_feature == 5  # 4.5 -> 5

    def test_rounded_rate_consistency(self, params):
        decision = opt.round_rate(1.3, params)
        assert decision.rounded_rate * params.channel.blocklength == pytest.approx(
            decision.bits_per_feature * params.dim)

    def test_predictions_ordered(self, params):
        decision = opt.round_rate(1.5, params)
        assert 0.0 <= decision.predicted_exact <= decision.predicted_bound <= 1.0


class TestBenchmarkPolicies:
    def test_brute_force_matches_adaptive_within_one_bit(self, params_1db):
        adaptive = opt.round_rate(opt.gradient_ascent(params_1db), params_1db)
        brute = opt.brute_force_rate(params_1db)
        assert abs(brute.bits_per_feature - adaptive.bits_per_feature) <= 1

    def test_brute_force_reuses_chosen_level(self, monkeypatch):
        # one average-loss call for the whole bit-level table, each level
        # once, and the chosen level's predictions are those of a fixed-bits
        # decision at that level, which computes nothing more
        params = make_params()
        calls = []
        real = opt.avg_packet_loss
        monkeypatch.setattr(opt, "avg_packet_loss",
                            lambda cfg, rates: calls.append(list(rates)) or real(cfg, rates))
        brute = opt.brute_force_rate(params)
        assert len(calls) == 1
        searched = np.arange(1, len(calls[0]) + 1)
        assert calls[0] == sorted(set(calls[0])) == list(params.level_rate(searched))
        fixed = opt.fixed_bits_rate(brute.bits_per_feature, params)
        assert len(calls) == 1
        assert (brute.predicted_bound, brute.predicted_exact) == (
            fixed.predicted_bound, fixed.predicted_exact)

    def test_brute_force_constant_evaluator_tie_break(self):
        # with no class separation every level's error is 1/2
        assert opt.brute_force_rate(make_params(centroid=0.0)).bits_per_feature == 1

    def test_brute_force_bound_evaluator_matches_surrogate(self, params_1db):
        # the level minimizing the error bound maximizes the surrogate
        levels = range(1, opt._MAX_BITS + 1)
        best = min(levels, key=lambda b: opt.fixed_bits_rate(b, params_1db).predicted_bound)
        bits = np.arange(1, 12)
        phis = [opt.surrogate(b * params_1db.dim / params_1db.channel.blocklength, params_1db)
                for b in bits]
        assert best == bits[int(np.argmax(phis))]

    def test_urllc_meets_threshold(self, params):
        decision = opt.urllc_rate(params, threshold=0.01)
        assert not decision.infeasible
        assert ch.avg_packet_loss_approx(params.channel, decision.rounded_rate) <= 0.01

    def test_urllc_strict_threshold_infeasible(self, params):
        decision = opt.urllc_rate(params, threshold=1e-5)
        assert decision.infeasible
        assert decision.bits_per_feature == 1

    def test_urllc_rate_grows_with_threshold_and_snr(self, params):
        loose = opt.urllc_rate(params, threshold=0.5)
        tight = opt.urllc_rate(params, threshold=1e-5)
        assert loose.continuous_rate > tight.continuous_rate
        strong = opt.urllc_rate(make_params(snr_db=20.0), threshold=0.01)
        weak = opt.urllc_rate(make_params(snr_db=2.0), threshold=0.01)
        assert strong.continuous_rate > weak.continuous_rate

    def test_fixed_bits(self, params):
        assert opt.fixed_bits_rate(32, params).rounded_rate == pytest.approx(16.0)
        assert opt.fixed_bits_rate(16, params).rounded_rate == pytest.approx(8.0)
        assert opt.fixed_bits_rate(1, params).rounded_rate == pytest.approx(0.5)

    @pytest.mark.parametrize("bits", [0, 65, 2.5])
    def test_fixed_bits_out_of_range(self, params, bits):
        with pytest.raises(ValueError):
            opt.fixed_bits_rate(bits, params)


POLICIES = ["adaptive", "brute", "urllc", "bits:32", "bits:16", "bits:4"]


def reference_decisions(config):
    """The decision layer as it was before the bit-level table, written out.

    Every prediction is recomputed per call: the closed-form loss as
    1 - Q(L, (2^R - 1) / gamma0), the gain by a dense solve, the exact error
    over the Poisson-binomial DP. Brute force walks the levels one by one
    (ties to fewer bits, stop after a closed-form loss past 0.999); urllc and
    the rate domain bracket by doubling and solve with brentq. Adaptive and
    urllc levels are capped at 64 bits. The exact error takes the average
    loss from adaptive quadrature. Returns
    policy -> (bits, predicted_bound, predicted_exact, quadrature loss).
    """
    params = harness.build_params(config)
    model, cfg, k = params.model, params.channel, params.observations
    n_max, d = params.channel.blocklength, params.dim

    def approx(rate):
        return 1.0 - special.gammaincc(cfg.antennas, (2.0 ** rate - 1.0) / cfg.snr_linear)

    def gain(rate):
        dm = model.mu1 - model.mu2
        cov = model.sigma + opt.sigma_q2_of_rate(rate, params) * np.eye(d)
        return 0.5 * float(dm @ np.linalg.solve(cov, dm))

    def exact_error(g, eps):
        if g == 0.0:
            # no separation: a coin flip whatever arrives. The old code mixed
            # 1/2 over the pmf, and the rounding of its sum picked brute
            # force's level at centroid 0 (6 bits there, now 1)
            return 0.5
        pmf = numerics.poisson_binomial_pmf([1.0 - eps] * k)
        cond = numerics.q_function(np.sqrt(np.arange(k + 1) * g / 2.0))
        cond[0] = 0.5
        return float(pmf @ cond)

    def predicted(bits):
        rate = bits * d / n_max
        g = gain(rate)
        eps = ch.avg_packet_loss_exact(cfg, rate)
        return (bits, gmm.sensing_error_bound(g, approx(rate), k), exact_error(g, eps), eps)

    def bracket_root(f, lo, hi):
        while f(hi) < 0.0:
            hi *= 2.0
        return brentq(f, lo, hi) if f(lo) < 0.0 else lo

    best, best_err = None, math.inf
    for bits in range(1, 65):
        err = predicted(bits)[2]
        if err < best_err:
            best, best_err = bits, err
        if approx(bits * d / n_max) > 0.999:
            break
    r_max = bracket_root(lambda r: approx(r) - 1e-5, 1e-9, 1.0)
    lo = d / cfg.blocklength
    hi = bracket_root(lambda r: approx(r) - (1.0 - 1e-9), lo, max(lo, 1.0))
    if opt.surrogate_gradient(lo, params) <= 0.0:
        rate = lo
    elif opt.surrogate_gradient(hi, params) >= 0.0:
        rate = hi
    else:
        rate = brentq(opt.surrogate_gradient, lo, hi, args=(params,))
    levels = {"adaptive": min(max(int(math.floor(rate * n_max / d + 0.5)), 1), 64),
              "brute": best, "urllc": min(max(int(math.floor(r_max * n_max / d)), 1), 64),
              "bits:32": 32, "bits:16": 16, "bits:4": 4}
    return {policy: predicted(bits) for policy, bits in levels.items()}


def dense_sigma_spec(dim=20, seed=5):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    sigma = (basis * rng.uniform(0.1, 5.0, dim)) @ basis.T
    return (0.5 * (sigma + sigma.T)).tolist()


class TestRateTable:
    @pytest.mark.parametrize("overrides", [
        {}, {"snr_db": 1.0}, {"snr_db": 40.0}, {"antennas": 1}, {"antennas": 64},
        {"dim": 1}, {"blocklength": 400, "dim": 4}, {"centroid": 0.0},
        {"dim": 20, "sigma_spec": dense_sigma_spec()},
    ], ids=["default", "1dB", "40dB", "L1", "L64", "d1", "N400d4", "centroid0", "dense20"])
    def test_matches_reference(self, overrides):
        config = harness.ExperimentConfig(**overrides)
        expected = reference_decisions(config)
        params = harness.build_params(config)
        for policy in POLICIES:
            decision = harness.decide(replace(config, policy=policy), params)
            bits, bound, exact, eps = expected[policy]
            assert decision.bits_per_feature == bits, policy
            assert decision.rounded_rate == bits * config.dim / config.blocklength
            assert decision.predicted_bound == pytest.approx(bound, rel=1e-12, abs=0.0), policy
            # the quadrature loss is accurate to its epsabs + epsrel eps =
            # 1e-10 + 1e-9 eps; the exact error E[c(M)], M ~ Bin(K, 1 - eps),
            # with c in [0, 1/2] falling in M, moves by at most K/2 per unit
            # change of eps
            tol = config.observations / 2.0 * (1e-10 + 1e-9 * eps)
            assert abs(decision.predicted_exact - exact) <= tol, policy

    def test_sweep_point_builds_once(self, monkeypatch):
        # one model per sweep, and each distinct bit level's average loss
        # computed once, for all the policies of a swept value
        rates, models = [], []
        real_loss = opt.avg_packet_loss
        monkeypatch.setattr(opt, "avg_packet_loss",
                            lambda cfg, r: rates.extend((cfg, x) for x in r) or real_loss(cfg, r))
        real_init = gmm.InferenceModel.__post_init__
        monkeypatch.setattr(gmm.InferenceModel, "__post_init__",
                            lambda model: models.append(model) or real_init(model))
        for values in ([2.0], [0.0, 2.0, 4.0]):
            rates.clear()
            models.clear()
            rows = harness.sweep(harness.ExperimentConfig(), "snr-db", values, POLICIES,
                                 trials=20, seed=0)
            assert len(models) == 1, values
            assert len(rates) == len(set(rates))
            assert {row.rate for row in rows} <= {x for _, x in rates}

    def test_sweep_point_fills_table_once(self, monkeypatch):
        # five policies at one swept value read one table, filled by one
        # average-loss call over every level
        calls = []
        real_loss = opt.avg_packet_loss
        monkeypatch.setattr(opt, "avg_packet_loss",
                            lambda cfg, r: calls.append(list(r)) or real_loss(cfg, r))
        harness.sweep(harness.ExperimentConfig(), "snr-db", [2.0],
                      ["bits:16", "adaptive", "urllc", "brute", "bits:32"], trials=20, seed=0)
        assert len(calls) == 1
        params = harness.build_params(harness.ExperimentConfig())
        assert calls[0] == list(params.level_rate(np.arange(1, opt._MAX_BITS + 1)))

    @pytest.mark.parametrize("antennas", [1, 4, 64, 256])
    def test_closed_form_inverses_round_trip(self, antennas):
        # the domain edge and the urllc rate are inverses of the closed-form loss
        for snr_db in np.linspace(-30.0, 60.0, 10):
            params = make_params(snr_db=float(snr_db), antennas=antennas)
            lo, hi = opt.rate_domain(params)
            if hi > lo:
                assert ch.avg_packet_loss_approx(params.channel, hi) == pytest.approx(
                    1.0 - 1e-9, rel=1e-12, abs=0.0)
            else:
                assert ch.avg_packet_loss_approx(params.channel, lo) >= 1.0 - 1e-9
            for threshold in (1e-5, 0.01, 0.5):
                rate = opt.urllc_rate(params, threshold).continuous_rate
                assert ch.avg_packet_loss_approx(params.channel, rate) == pytest.approx(
                    threshold, rel=1e-12, abs=0.0)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
# a gain so large that e^{D/4} overflows a float in the surrogate gradient
@example(snr_db=0.0, antennas=43, blocklength=203, dim=384, observations=1, centroid=2.0)
@given(snr_db=st.floats(-30.0, 60.0), antennas=st.integers(1, 256),
       blocklength=st.integers(10, 2000), dim=st.integers(1, 512),
       observations=st.integers(1, 200), centroid=st.floats(0.0, 2.0))
def test_decide_over_operating_envelope(snr_db, antennas, blocklength, dim, observations,
                                        centroid):
    # every policy either raises ValueError or decides within 1 s of CPU,
    # with a consistent record; brute force is never beaten on its own levels
    config = harness.ExperimentConfig(dim=dim, centroid=centroid, antennas=antennas,
                                      snr_db=snr_db, blocklength=blocklength,
                                      observations=observations)
    try:
        params = harness.build_params(config)
    except ValueError:
        return
    decisions = {}
    for policy in POLICIES:
        # this thread's CPU time: BLAS worker threads still spinning after the
        # model's eigendecomposition would otherwise be charged to decide
        start = time.thread_time()
        try:
            decision = harness.decide(replace(config, policy=policy), params)
        except ValueError:
            continue
        assert time.thread_time() - start < 1.0, policy
        assert decision.bits_per_feature >= 1
        assert decision.rounded_rate == decision.bits_per_feature * dim / blocklength
        assert 0.0 <= decision.predicted_exact <= 0.5
        # the bound at the quadrature loss dominates the exact error, since
        # Q(x) <= exp(-x^2 / 2) / 2
        rate = decision.rounded_rate
        gain = opt.effective_discriminant_gain(params.model, opt.sigma_q2_of_rate(rate, params))
        bound = gmm.sensing_error_bound(gain, ch.avg_packet_loss_exact(params.channel, rate),
                                        observations)
        assert bound >= decision.predicted_exact - 1e-12, policy
        decisions[policy] = decision
    # brute force searched every level up to the first whose closed-form loss
    # passed 0.999
    searched = "brute" in decisions and "adaptive" in decisions and \
        np.all(params.table[0][:decisions["adaptive"].bits_per_feature - 1] <= 0.999)
    if searched:
        assert decisions["brute"].predicted_exact <= \
            decisions["adaptive"].predicted_exact + 1e-12

