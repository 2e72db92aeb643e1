"""End-to-end acceptance gate.

Each test is one acceptance criterion; ``pytest -v`` therefore emits one
pass/fail line per criterion. Runtime limits are asserted where stated.

Criteria 5 and 6 assert what the closed forms provably satisfy:
- criterion 5: the closed-form average packet loss F(2^R - 1) is the outage
  limit of the averaged finite-blocklength loss, and the loss is
  F + c1(R)/N + O(N^-2) (see ``outage_correction``). The bare form is off by
  up to ~25% near a loss of 1e-3 at N=100, which no 5% tolerance covers, so
  the accuracy clause checks the form plus c1/N; c1 is computed here from
  scipy, not from senselink. The halving clause checks the bare form: its
  deviation is c1/N to first order, and adding c1/N would leave an O(N^-2)
  remainder that quarters, not halves.
- criterion 6: the effective discriminant gain is not concave on the whole
  rate domain. An eigen-direction's term is concave in the rate exactly where
  ``gain_curvature_margin`` is nonnegative, and convex where it is negative;
  the turning point is unique. The test asserts both signs of curvature
  where the condition settles them, and concavity of the surrogate's
  distortion term ln(1 - e^{-D/4}) on the whole grid.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from senselink import channel as ch
from senselink import cli
from senselink import gmm
from senselink import harness
from senselink import numerics
from senselink import optimizer as opt
from senselink import quant


def default_model(dim=50, centroid=0.1):
    mu = centroid * np.ones(dim)
    return gmm.InferenceModel(mu, -mu, np.eye(dim))


def make_params(snr_db, antennas, dim=50, clip=5.0, blocklength=100,
                observations=20, centroid=0.1, model=None):
    if model is None:
        model = default_model(dim, centroid)
    cfg = ch.ChannelConfig(antennas, ch.snr_from_db(snr_db), blocklength)
    return opt.TradeoffParams(model, clip, cfg, observations)


def random_spd(rng, dim, scale=(0.3, 3.0)):
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return basis @ np.diag(rng.uniform(*scale, dim)) @ basis.T


def test_criterion_01_discriminant_gain_reproduction():
    model = default_model()
    start = time.perf_counter()
    gain = gmm.discriminant_gain(model)
    elapsed = time.perf_counter() - start
    assert abs(gain - 1.0) <= 1e-12
    assert elapsed < 1e-3


def test_criterion_02_quantization_noise_statistics():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    dim, bits, clip, n = 50, 4, 5.0, 100_000
    sigma = random_spd(rng, dim)
    chol = np.linalg.cholesky(sigma)
    cfg = quant.QuantizerConfig(clip, bits, quant.klt(sigma)[1])
    x = rng.standard_normal((n, dim)) @ chol.T
    encoded, _ = quant.encode(x, cfg)
    noise = quant.decode(encoded, cfg) - x
    target = quant.noise_variance(bits, clip)
    assert target == pytest.approx(0.03704, abs=5e-6)
    var = noise.var(axis=0)
    assert np.all(np.abs(var - target) <= 0.10 * target)
    assert np.all(np.abs(stats.skew(noise, axis=0)) <= 0.1)
    assert np.all(np.abs(stats.kurtosis(noise, axis=0)) <= 0.2)
    assert time.perf_counter() - start < 5.0


def test_criterion_03_gain_reduction_bounds_and_decay():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    s2_grid = np.logspace(-3, 1, 7)
    for _ in range(100):
        dim = int(rng.integers(2, 21))
        model = gmm.InferenceModel(rng.normal(0, 0.5, dim), rng.normal(0, 0.5, dim),
                                   random_spd(rng, dim))
        d0 = gmm.discriminant_gain(model)
        for s2 in s2_grid:
            reduction = (d0 - gmm.effective_discriminant_gain(model, s2)) / d0
            lower, upper = gmm.dg_reduction_bounds(model, s2)
            assert lower - 1e-12 <= reduction <= upper + 1e-12

    # the gain gap decays as 4^(-R) in the bits per feature
    model = default_model()
    clip, d0 = 5.0, 1.0
    scaled = []
    for bits in range(4, 13):
        s2 = quant.noise_variance(bits, clip)
        scaled.append((d0 - gmm.effective_discriminant_gain(model, s2)) * 4.0 ** bits)
    assert max(scaled) / min(scaled) <= 2.0
    assert time.perf_counter() - start < 5.0


def test_criterion_04_error_bound_and_monte_carlo():
    start = time.perf_counter()
    for gain in (0.5, 1.0, 2.0, 4.0):
        for eps in (0.01, 0.1, 0.3, 0.6):
            for k in (1, 5, 10, 20):
                bound = gmm.sensing_error_bound(gain, eps, k)
                exact = gmm.semi_analytic_error(gain, [eps] * k)
                assert bound >= exact - 1e-12

    config = harness.ExperimentConfig()
    decision = harness.decide(config)
    row = harness.estimate_error(config, decision, 10_000, seed=0)
    sigma = math.sqrt(row.pred_exact * (1.0 - row.pred_exact) / 10_000)
    assert abs(row.error - row.pred_exact) <= 3.0 * sigma
    assert time.perf_counter() - start < 60.0


def outage_correction(antennas, snr, rate):
    """First-order blocklength term c1(R): the average loss is F(g) + c1/N + O(N^-2).

    With u = log2(1 + gamma) - R and V the dispersion, expanding
    E[Q(sqrt(N / V) u)] around the outage SNR g = 2^R - 1 gives
    F(g) + (1 / 2N) d/du [p(u) V(u)] at u = 0, where p is the density of u:
    the N^-1/2 term cancels because Q(t) - 1{t < 0} is odd, and
    2 * integral_0^inf t Q(t) dt = 1/2.
    """
    g = 2.0 ** rate - 1.0
    density = stats.gamma(a=antennas, scale=snr).pdf(g)
    dispersion_nats = g * (2.0 + g) / (1.0 + g) ** 2
    w = (1.0 + g) * dispersion_nats
    return 0.5 * (1.0 + g) * density * (
        1.0 + (1.0 + g) ** -2 + w * ((antennas - 1) / g - 1.0 / snr))


def test_criterion_05_average_loss_closed_form():
    start = time.perf_counter()
    cfg100 = ch.ChannelConfig(4, ch.snr_from_db(1.0), 100)
    worst = 0.0
    for rate in np.linspace(0.3, 4.0, 60):
        exact = ch.avg_packet_loss_exact(cfg100, rate)
        if not 1e-3 <= exact <= 0.99:
            continue
        corrected = (ch.avg_packet_loss_approx(cfg100, rate) +
                     outage_correction(4, cfg100.snr_linear, rate) / 100)
        worst = max(worst, abs(corrected - exact) / exact)

    # the deviation of the bare closed form halves when the blocklength doubles
    cfg200 = ch.ChannelConfig(4, ch.snr_from_db(1.0), 200)
    rate = 2.0
    err100 = abs(ch.avg_packet_loss_approx(cfg100, rate) -
                 ch.avg_packet_loss_exact(cfg100, rate))
    err200 = abs(ch.avg_packet_loss_approx(cfg200, rate) -
                 ch.avg_packet_loss_exact(cfg200, rate))
    assert 1.5 <= err100 / err200 <= 3.0
    assert time.perf_counter() - start < 10.0
    assert worst <= 0.05, (
        f"closed form plus c1/N has worst relative error {worst:.4f} over the "
        "stated loss range at N=100")


def gain_curvature_margin(params, grid):
    """lambda (2^{b+1} + 1) / (2^{b+1} - 1) - sigma_q^2 per eigenvalue (row) and rate.

    b = N R / d bits per feature and sigma_q^2 = (U^2 / 3) / (2^b - 1)^2. With
    x = 2^b, the gain term of an eigen-direction with eigenvalue lambda is
    proportional to (x - 1)^2 / (lambda (x - 1)^2 + U^2 / 3); its derivative
    in b is proportional to x (x - 1) / (lambda (x - 1)^2 + U^2 / 3)^2, which
    does not increase with x exactly where this margin is nonnegative.
    """
    bits = params.channel.blocklength * np.asarray(grid) / params.dim
    noise = params.clip ** 2 / 3.0 / (2.0 ** bits - 1.0) ** 2
    x2 = 2.0 ** (bits + 1.0)
    eigs = np.linalg.eigvalsh(params.model.sigma)
    return eigs[:, None] * (x2 + 1.0) / (x2 - 1.0) - noise


def second_differences(values):
    return values[2:] - 2.0 * values[1:-1] + values[:-2]


def whole_stencils(mask):
    """Stencils whose three points all lie in the masked set."""
    return mask[2:] & mask[1:-1] & mask[:-2]


def test_criterion_06_concavity_suite():
    start = time.perf_counter()
    parameter_sets = [
        make_params(2.0, 4),
        make_params(1.0, 4),
        make_params(1.0, 2),
        make_params(5.0, 8, dim=30),
        make_params(0.0, 4, clip=2.0),
    ]
    for params in parameter_sets:
        lo, hi = opt.rate_domain(params)
        grid = np.linspace(lo, hi * 0.999, 400)
        gains = np.array([opt.effective_discriminant_gain(
            params.model, opt.sigma_q2_of_rate(r, params)) for r in grid])
        phis = np.array([opt.surrogate(r, params) for r in grid])
        logsucc = np.array([math.log1p(-ch.avg_packet_loss_approx(params.channel, r))
                            for r in grid])
        assert np.all(second_differences(phis) <= 1e-9)
        assert np.all(second_differences(logsucc) <= 1e-9)
        assert np.all(second_differences(np.log(-np.expm1(-gains / 4.0))) <= 1e-9)

        # a sum of concave (convex) terms is concave (convex); the stencils that
        # straddle the turning point are left out
        margin = gain_curvature_margin(params, grid)
        d2_gain = second_differences(gains)
        concave = whole_stencils(np.all(margin >= 0.0, axis=0))
        convex = whole_stencils(np.all(margin < 0.0, axis=0))
        assert np.all(d2_gain[concave] <= 1e-9), (
            f"gain second differences reach {d2_gain[concave].max():.2e} "
            "where concavity is predicted")
        assert np.all(d2_gain[convex] > 0.0), (
            "gain not convex everywhere convexity is predicted")
    assert time.perf_counter() - start < 5.0


def test_criterion_07_gradient_ascent_convergence():
    start = time.perf_counter()
    params = make_params(2.0, 4, observations=20)
    rate = opt.gradient_ascent(params, opt.OptimizerSettings(step=0.01))

    lo, hi = opt.rate_domain(params)

    def exact_surrogate(r):
        gain = opt.effective_discriminant_gain(params.model, opt.sigma_q2_of_rate(r, params))
        eps = ch.avg_packet_loss_exact(params.channel, r)
        if eps >= 1.0:
            return -math.inf
        return math.log(-math.expm1(-gain / 4.0)) + math.log1p(-eps)

    coarse = np.linspace(lo, hi * 0.999, 60)
    peak = coarse[int(np.argmax([exact_surrogate(r) for r in coarse]))]
    from scipy import optimize as sciopt
    res = sciopt.minimize_scalar(lambda r: -exact_surrogate(r),
                                 bounds=(peak - 0.2, peak + 0.2), method="bounded",
                                 options={"xatol": 1e-8})
    best = res.x
    assert abs(rate - best) / best <= 0.01
    assert time.perf_counter() - start < 5.0


def test_criterion_08_optimum_coincides_across_metrics():
    start = time.perf_counter()
    for antennas in (2, 4):
        params = make_params(1.0, antennas, observations=20)
        bits = np.arange(1, 13)
        rates = bits * params.dim / params.channel.blocklength
        phis, bounds, exacts = [], [], []
        for rate in rates:
            gain = opt.effective_discriminant_gain(
                params.model, opt.sigma_q2_of_rate(rate, params))
            eps = ch.avg_packet_loss_approx(params.channel, rate)
            phis.append(opt.surrogate(rate, params))
            bounds.append(gmm.sensing_error_bound(gain, eps, params.observations))
            eps_exact = ch.avg_packet_loss_exact(params.channel, rate)
            exacts.append(gmm.semi_analytic_error(gain, [eps_exact] * params.observations))
        b_phi = bits[int(np.argmax(phis))]
        b_bound = bits[int(np.argmin(bounds))]
        b_exact = bits[int(np.argmin(exacts))]
        assert abs(int(b_phi) - int(b_bound)) <= 1
        assert abs(int(b_phi) - int(b_exact)) <= 1
    assert time.perf_counter() - start < 30.0


def test_criterion_09_trend_and_policy_comparison():
    start = time.perf_counter()
    base = harness.ExperimentConfig(policy="adaptive", observations=10)

    def monotone_within_ci(rows):
        for prev, cur in zip(rows, rows[1:]):
            assert cur.error <= prev.error + prev.ci95 + cur.ci95, (
                f"{rows[0].param}: {prev.value} -> {cur.value} rose "
                f"{prev.error:.4f} -> {cur.error:.4f}")

    monotone_within_ci(harness.sweep(base, "observations", [1, 2, 5, 10, 20],
                                     ["adaptive"], 10_000, seed=100))
    monotone_within_ci(harness.sweep(base, "snr-db", [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
                                     ["adaptive"], 10_000, seed=101))
    monotone_within_ci(harness.sweep(base, "antennas", [1, 2, 4, 8],
                                     ["adaptive"], 10_000, seed=102))
    monotone_within_ci(harness.sweep(base, "blocklength", [50, 100, 200, 400],
                                     ["adaptive"], 10_000, seed=103))

    results = {}
    for policy in ("adaptive", "urllc", "bits:32", "bits:16"):
        cfg = harness.ExperimentConfig(policy=policy, observations=10)
        results[policy] = harness.estimate_error(cfg, harness.decide(cfg),
                                                 10_000, seed=104)
    for policy in ("urllc", "bits:32", "bits:16"):
        assert results["adaptive"].error <= \
            results[policy].error + results[policy].ci95, (
            f"adaptive {results['adaptive'].error:.4f} vs "
            f"{policy} {results[policy].error:.4f}")
    assert time.perf_counter() - start < 600.0


def test_criterion_10_numerics():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    from itertools import product
    for k in (1, 4, 8, 12):
        probs = rng.uniform(0.0, 1.0, k)
        pmf = numerics.poisson_binomial_pmf(probs)
        brute = np.zeros(k + 1)
        for outcome in product([0, 1], repeat=k):
            weight = np.prod([p if o else 1.0 - p for p, o in zip(probs, outcome)])
            brute[sum(outcome)] += weight
        assert np.max(np.abs(pmf - brute)) <= 1e-12

    cfg = ch.ChannelConfig(4, 1.5, 100)
    draws = ch.sample_post_mrc_snr(cfg, np.random.default_rng(11), size=100_000)
    ks = stats.kstest(draws, stats.gamma(a=4, scale=1.5).cdf)
    assert ks.pvalue > 0.01

    xs = rng.normal(0.0, 3.0, 100)
    assert np.max(np.abs(numerics.q_function(xs) + numerics.q_function(-xs) - 1.0)) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_11_sweep_determinism(tmp_path, capsys):
    args = ["sweep", "--param", "snr-db", "--values=-2,2,6",
            "--policies", "adaptive,bits:4", "--trials", "2000", "--seed", "505"]
    first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith(",".join(harness.CSV_COLUMNS))
