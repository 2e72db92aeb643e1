"""The ``senselink validate`` suite: each analytical claim checked against an
oracle. It alone needs ``scipy.stats``, so it stays out of the engine in
``harness`` and is imported only when the suite runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import stats

from . import channel as ch
from . import gmm
from . import harness
from . import optimizer as opt
from . import quant
from .numerics import poisson_binomial_pmf, q_function


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def render(self) -> str:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                 for c in self.checks]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _poisson_binomial_enum(success_probs) -> np.ndarray:
    """Exponential subset-sum definition of the PMF, kept as an oracle."""
    p = np.asarray(success_probs, dtype=float)
    k = p.size
    pmf = np.zeros(k + 1)
    for m in range(k + 1):
        total = 0.0
        for subset in combinations(range(k), m):
            chosen = set(subset)
            prob = 1.0
            for i in range(k):
                prob *= p[i] if i in chosen else 1.0 - p[i]
            total += prob
        pmf[m] = total
    return pmf


def _random_spd(rng: np.random.Generator, dim: int,
                eig_range: tuple[float, float] = (0.3, 3.0)) -> np.ndarray:
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = rng.uniform(*eig_range, size=dim)
    return basis @ np.diag(eigs) @ basis.T


def _second_differences(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return vals[2:] - 2.0 * vals[1:-1] + vals[:-2]


def _outage_correction(cfg: ch.ChannelConfig, rate: float) -> float:
    """The first-order blocklength term c1(rate) / N that the closed-form average
    loss omits; see ``channel.avg_packet_loss_approx``."""
    g = 2.0 ** rate - 1.0
    ell, g0 = cfg.antennas, cfg.snr_linear
    w = g * (2.0 + g) / (1.0 + g)
    c1 = 0.5 * (1.0 + g) * stats.gamma.pdf(g, a=ell, scale=g0) * (
        1.0 + (1.0 + g) ** -2 + w * ((ell - 1) / g - 1.0 / g0))
    return c1 / cfg.blocklength


def _gain_curvature_prediction(params: opt.TradeoffParams, grid) -> tuple[np.ndarray, np.ndarray]:
    """Second-difference stencils on ``grid`` where the effective gain must be
    concave, and where it must be convex.

    A direction with eigenvalue lambda is concave where sigma_q2 <= lambda
    (2^{b+1} + 1) / (2^{b+1} - 1) (see ``optimizer.sigma_q2_of_rate``); the
    noise variance is recomputed here from U, N and d. A stencil counts when
    all three of its points have every direction on the same side.
    """
    bits = params.channel.blocklength * np.asarray(grid) / params.dim
    noise = params.clip ** 2 / 3.0 / (2.0 ** bits - 1.0) ** 2
    x2 = 2.0 ** (bits + 1.0)
    margin = params.model.eigvals[:, None] * (x2 + 1.0) / (x2 - 1.0) - noise
    concave, convex = np.all(margin >= 0.0, axis=0), np.all(margin < 0.0, axis=0)
    return (concave[2:] & concave[1:-1] & concave[:-2],
            convex[2:] & convex[1:-1] & convex[:-2])


def validate(seed: int = 0) -> ValidationReport:
    """Run the full analytical-claim suite and report per-check outcomes."""
    rng = np.random.default_rng(seed)
    report = ValidationReport()

    # Q-function symmetry.
    xs = np.linspace(-8.0, 8.0, 161)
    dev = max(abs(q_function(x) + q_function(-x) - 1.0) for x in xs)
    report.add("q_function_symmetry", dev <= 1e-12, f"max |Q(x)+Q(-x)-1| = {dev:.2e}")

    # Poisson-binomial DP vs subset enumeration.
    worst = 0.0
    for k in (1, 3, 7, 10):
        probs = rng.uniform(0.0, 1.0, size=k)
        worst = max(worst, float(np.max(np.abs(
            poisson_binomial_pmf(probs) - _poisson_binomial_enum(probs)))))
    report.add("poisson_binomial_enumeration", worst <= 1e-12, f"max dev = {worst:.2e}")

    # Erlang sampler, exponential special case, Kolmogorov-Smirnov.
    cfg1 = ch.ChannelConfig(1, 1.0, 100)
    draws = ch.sample_post_mrc_snr(cfg1, rng, size=100_000)
    ks = stats.kstest(draws, "expon").statistic
    report.add("erlang_sampler_ks", ks <= 0.01, f"KS statistic = {ks:.4f}")

    # Quantization-distortion statistics (mixing transform, d = 50).
    sigma = _random_spd(rng, 50, (0.5, 2.0))
    model = gmm.InferenceModel(0.1 * np.ones(50), -0.1 * np.ones(50), sigma)
    qc = quant.QuantizerConfig(5.0, 4, model.basis)
    x = gmm.sample_features(model, 1, 100_000, rng)
    z = quant.decode(quant.encode(x, qc)[0], qc) - x
    var_dev = float(np.max(np.abs(z.var(axis=0) / quant.noise_variance(4, 5.0) - 1.0)))
    skew = float(np.max(np.abs(stats.skew(z, axis=0))))
    kurt = float(np.max(np.abs(stats.kurtosis(z, axis=0))))
    ok = var_dev <= 0.10 and skew <= 0.1 and kurt <= 0.2
    report.add("quantization_noise_statistics", ok,
               f"var dev {var_dev:.3f}, |skew| {skew:.3f}, |ex.kurt| {kurt:.3f}")

    # Gain-reduction bracketing over random covariances.
    ok, worst_gap = True, 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 21))
        m = gmm.InferenceModel(rng.standard_normal(dim), rng.standard_normal(dim),
                               _random_spd(rng, dim))
        d0 = gmm.discriminant_gain(m)
        for s2 in (0.01, 0.1, 1.0, 10.0):
            rel = (d0 - gmm.effective_discriminant_gain(m, s2)) / d0
            lo, hi = gmm.dg_reduction_bounds(m, s2)
            if not (lo - 1e-12 <= rel <= hi + 1e-12):
                ok = False
                worst_gap = max(worst_gap, lo - rel, rel - hi)
    report.add("gain_reduction_bounds", ok,
               "bracketing holds" if ok else f"violated by {worst_gap:.2e}")

    # Error bound dominates the exact expression on a grid.
    ok = True
    for gain in (0.25, 1.0, 4.0):
        for eps in (0.0, 0.3, 0.9):
            for k in (1, 5, 20):
                bound = gmm.sensing_error_bound(gain, eps, k)
                exact = gmm.semi_analytic_error(gain, [eps] * k)
                if exact > bound + 1e-12:
                    ok = False
    report.add("error_bound_dominates_exact", ok, "bound >= exact on grid")

    # Monte Carlo agrees with the exact expression at the default setup.
    # Its point is built once and serves the curvature checks below too.
    config = harness.ExperimentConfig(seed=seed)
    params = harness.build_params(config)
    decision = harness.decide(config, params)
    row = harness.estimate_error(config, decision, 10_000, seed)
    sigma3 = 3.0 * math.sqrt(max(row.pred_exact * (1 - row.pred_exact), 1e-12) / row.trials)
    ok = abs(row.error - row.pred_exact) <= sigma3 + 1e-12
    report.add("monte_carlo_vs_exact", ok,
               f"mc {row.error:.4f} vs exact {row.pred_exact:.4f} (3-sigma {sigma3:.4f})")

    # Closed-form average loss plus its first-order blocklength term c1/N vs
    # quadrature, plus the 1/N scaling of the bare form's deviation.
    cfg100 = ch.ChannelConfig(4, ch.snr_from_db(1.0), 100)
    cfg200 = ch.ChannelConfig(4, ch.snr_from_db(1.0), 200)
    ok, worst_rel = True, 0.0
    for rate in np.linspace(0.5, 4.5, 17):
        exact = ch.avg_packet_loss_exact(cfg100, rate)
        if not 1e-3 <= exact <= 0.99:
            continue
        corrected = ch.avg_packet_loss_approx(cfg100, rate) + _outage_correction(cfg100, rate)
        rel = abs(corrected - exact) / exact
        worst_rel = max(worst_rel, rel)
        if rel > 0.05:
            ok = False
    report.add("avg_loss_closed_form", ok,
               f"worst relative error of closed form + c1/N {worst_rel:.4f} "
               "(loss range [1e-3, 0.99])")

    rate = 2.0
    e100 = abs(ch.avg_packet_loss_approx(cfg100, rate) - ch.avg_packet_loss_exact(cfg100, rate))
    e200 = abs(ch.avg_packet_loss_approx(cfg200, rate) - ch.avg_packet_loss_exact(cfg200, rate))
    if e200 > 0.0:
        ratio = e100 / e200
        report.add("avg_loss_error_scaling", 1.5 <= ratio <= 3.0,
                   f"N=100/N=200 error ratio = {ratio:.3f}")
    else:
        report.add("avg_loss_error_scaling", False,
                   f"N=200 error is 0 (N=100 error {e100:.3e}), so the ratio is undefined")

    # Curvature of the gain where its concavity condition settles the sign,
    # and concavity of the distortion term, the log success probability and
    # the surrogate on the whole grid.
    lo, hi = opt.rate_domain(params)
    grid = np.linspace(lo, min(hi, 8.0), 400)
    gains = np.array([opt.effective_discriminant_gain(params.model, opt.sigma_q2_of_rate(r, params))
                      for r in grid])
    d2_gain = _second_differences(gains)
    concave, convex = _gain_curvature_prediction(params, grid)
    d2_concave = d2_gain[concave].max(initial=-math.inf)
    d2_convex = d2_gain[convex].min(initial=math.inf)
    d2_dist = _second_differences(np.log(-np.expm1(-gains / 4.0))).max()
    d2_succ = _second_differences(
        [math.log1p(-ch.avg_packet_loss_approx(params.channel, r)) for r in grid]).max()
    d2_surr = _second_differences([opt.surrogate(r, params) for r in grid]).max()
    ok = max(d2_concave, d2_dist, d2_succ, d2_surr) <= 1e-9 and d2_convex > 0.0
    report.add("concavity_grids", ok,
               f"gain second differences: max {d2_concave:.2e} where concave, "
               f"min {d2_convex:.2e} where convex; max second differences: "
               f"distortion {d2_dist:.2e}, log-success {d2_succ:.2e}, "
               f"surrogate {d2_surr:.2e}")

    # Exponential decay of the residual gain loss in the bit depth.
    d0 = gmm.discriminant_gain(params.model)
    ratios = []
    for bits in range(4, 13):
        gap = d0 - opt.effective_discriminant_gain(
            params.model, quant.noise_variance(bits, config.clip))
        ratios.append(gap * 4.0 ** bits)
    spread = max(ratios) / min(ratios)
    report.add("gain_gap_decay", spread <= 2.0,
               f"(D0-D(R)) * 4^R spread over R=4..12 = {spread:.3f}")

    return report
