"""Coding-rate adaptation for the source-channel tradeoff.

The objective is a concave surrogate ln[(1 - e^{-D(Rc)/4})(1 - eps(Rc))]
combining the distortion-degraded discriminant gain with the closed-form
average packet loss. Its approximate gradient is available in closed form
and, since the surrogate is concave, decreases monotonically on the rate
domain. The rate is therefore the gradient's root, found by one bracketed
Brent solve (or the domain edge where the gradient keeps its sign), and is
then rounded to an integer bits-per-feature level. Fixed-step gradient
ascent on the same gradient is kept for the convergence study. Benchmark
policies (exhaustive search, reliability-first, fixed resolution) share the
same decision record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as sciopt

from .channel import ChannelConfig, avg_packet_loss_approx, avg_packet_loss_exact
from .gmm import InferenceModel, effective_discriminant_gain, semi_analytic_error, sensing_error_bound
from .numerics import log_regularized_upper_gamma

LN2 = math.log(2.0)


@dataclass(frozen=True)
class TradeoffParams:
    """Everything the surrogate and the optimizer consume."""

    model: InferenceModel
    clip: float
    dim: int
    channel: ChannelConfig
    observations: int
    max_blocklength: int

    def __post_init__(self):
        if self.clip <= 0 or self.dim < 1 or self.observations < 1:
            raise ValueError("invalid tradeoff parameters")
        if self.channel.blocklength > self.max_blocklength:
            raise ValueError("blocklength exceeds the channel-use budget")
        if self.model.dim != self.dim:
            raise ValueError("model dimension mismatch")


@dataclass(frozen=True)
class OptimizerSettings:
    step: float = 0.01
    grad_tol: float = 1e-6
    max_iters: int = 200_000
    init_rate: float | None = None

    def __post_init__(self):
        if self.step <= 0 or self.grad_tol <= 0 or self.max_iters < 1:
            raise ValueError("invalid optimizer settings")


@dataclass(frozen=True)
class RateDecision:
    """A rate choice, its integer bit level, and the predicted error at it."""

    continuous_rate: float
    bits_per_feature: int
    rounded_rate: float
    predicted_bound: float
    predicted_exact: float
    infeasible: bool = False


class ConvergenceError(RuntimeError):
    """Gradient ascent failed to meet the tolerance within the iteration budget."""

    def __init__(self, last_rate: float, last_gradient: float, iters: int):
        super().__init__(
            f"no convergence after {iters} iterations "
            f"(rate {last_rate:.6g}, |gradient| {abs(last_gradient):.3g})"
        )
        self.last_rate = last_rate
        self.last_gradient = last_gradient


def sigma_q2_of_rate(rate: float, params: TradeoffParams) -> float:
    """Quantization noise variance as a function of the coding rate.

    U^2 / (3 (2^{N Rc / d} - 1)^2), with N the per-slot channel uses.

    The effective gain built on it is not concave on the whole rate domain.
    With b = N Rc / d, the gain term of an eigen-direction of Sigma with
    eigenvalue lambda, c^2 / (2 (lambda + sigma_q2)), is concave in Rc exactly
    where sigma_q2 <= lambda (2^{b+1} + 1) / (2^{b+1} - 1). This holds above
    a unique turning point, so near the one-bit edge a wide clipping range
    makes the gain convex.
    """
    if rate <= 0:
        raise ValueError("coding rate must be positive")
    bits = params.channel.blocklength * rate / params.dim
    # past about 512 bits the denominator overflows to inf and the variance
    # is its limit, 0
    with np.errstate(over="ignore"):
        return params.clip ** 2 / (3.0 * np.expm1(bits * LN2) ** 2)


def surrogate(rate: float, params: TradeoffParams) -> float:
    """ln[(1 - e^{-D(Rc)/4})(1 - eps(Rc))]; -inf when either factor underflows."""
    gain = effective_discriminant_gain(params.model, sigma_q2_of_rate(rate, params))
    term1 = -math.expm1(-gain / 4.0)
    term2 = 1.0 - avg_packet_loss_approx(params.channel, rate)
    if term1 <= 0.0 or term2 <= 0.0:
        return -math.inf
    return math.log(term1) + math.log(term2)


def surrogate_gradient(rate: float, params: TradeoffParams) -> float:
    """Closed-form approximate derivative of the surrogate.

    The distortion term is exact; the channel term uses the incomplete-gamma
    approximation of the loss, whose relative error is O(1/N). The channel
    ratio is evaluated in log space so large antenna counts do not overflow.
    The distortion factor 2^b / (2^b - 1)^3 is written as
    2^{-2b} / (1 - 2^{-b})^3, which underflows to 0 at hundreds of bits per
    feature instead of overflowing. The distortion term is 0 wherever the
    gain derivative is 0, including at zero class separation.
    """
    n = params.channel.blocklength
    d = params.dim
    bits = n * rate / d
    s2 = sigma_q2_of_rate(rate, params)
    gain = effective_discriminant_gain(params.model, s2)

    dm = params.model.mu1 - params.model.mu2
    cov = params.model.sigma + s2 * np.eye(d)
    w = np.linalg.solve(cov, dm)
    distortion = 2.0 ** (-2.0 * bits) / (-math.expm1(-bits * LN2)) ** 3
    d_prime = (n * params.clip ** 2 * distortion * LN2) / (3.0 * d) * float(w @ w)
    # with no class separation the gain and its derivative are both 0; the
    # distortion term then contributes nothing
    phi1_prime = 0.0 if d_prime == 0.0 else d_prime / (4.0 * math.expm1(gain / 4.0))

    g0 = params.channel.snr_linear
    ell = params.channel.antennas
    beta = (2.0 ** rate - 1.0) / g0
    log_num = rate * LN2 + (ell - 1) * math.log(2.0 ** rate - 1.0) + math.log(LN2) - beta
    log_den = ell * math.log(g0) + math.lgamma(ell) + log_regularized_upper_gamma(ell, beta)
    phi2_prime = -math.exp(log_num - log_den)
    return phi1_prime + phi2_prime


def rate_domain(params: TradeoffParams) -> tuple[float, float]:
    """Feasible continuous-rate interval [d/N, R_hi].

    The lower edge is the one-bit-per-feature rate; the upper edge is where
    the closed-form average loss reaches 1 - 1e-9.
    """
    lo = params.dim / params.channel.blocklength
    target = 1.0 - 1e-9

    def excess(r):
        return avg_packet_loss_approx(params.channel, r) - target

    hi = max(lo, 1.0)
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            break
    hi = sciopt.brentq(excess, lo, hi) if excess(lo) < 0.0 else lo
    return lo, hi


def solve_rate(params: TradeoffParams) -> float:
    """Maximize the surrogate by a bracketed root-find of its gradient.

    The surrogate is concave on ``rate_domain``, so its gradient is monotone
    there: a gradient <= 0 at the lower edge or >= 0 at the upper edge puts
    the maximizer at that edge, and otherwise Brent's method finds the one
    sign change. This is the point fixed-step gradient ascent approaches.
    """
    lo, hi = rate_domain(params)
    if surrogate_gradient(lo, params) <= 0.0:
        return lo
    if surrogate_gradient(hi, params) >= 0.0:
        return hi
    return sciopt.brentq(surrogate_gradient, lo, hi, args=(params,))


def gradient_ascent(params: TradeoffParams, settings: OptimizerSettings = OptimizerSettings(),
                    on_iterate=None) -> float:
    """Maximize the surrogate by clamped gradient ascent; returns the final rate.

    Concavity of the surrogate makes the stationary point its global maximum,
    so the starting point only affects the iteration count. ``on_iterate``,
    when given, is called with each accepted iterate.
    """
    lo, hi = rate_domain(params)
    rate = settings.init_rate
    if rate is None:
        rate = 4.0 * params.dim / params.max_blocklength  # 4-bit level
    rate = min(max(rate, lo), hi)
    if on_iterate is not None:
        on_iterate(rate)
    grad = surrogate_gradient(rate, params)
    for _ in range(settings.max_iters):
        if abs(grad) <= settings.grad_tol:
            return rate
        new_rate = min(max(rate + settings.step * grad, lo), hi)
        if new_rate == rate:
            return rate  # pinned at a domain edge
        rate = new_rate
        if on_iterate is not None:
            on_iterate(rate)
        grad = surrogate_gradient(rate, params)
    raise ConvergenceError(rate, grad, settings.max_iters)


def _predictions(rounded_rate: float, params: TradeoffParams) -> tuple[float, float]:
    gain = effective_discriminant_gain(params.model, sigma_q2_of_rate(rounded_rate, params))
    eps_approx = avg_packet_loss_approx(params.channel, rounded_rate)
    eps_exact = avg_packet_loss_exact(params.channel, rounded_rate)
    bound = sensing_error_bound(gain, eps_approx, params.observations)
    exact = semi_analytic_error(gain, [eps_exact] * params.observations)
    return bound, exact


def round_rate(continuous_rate: float, params: TradeoffParams) -> RateDecision:
    """Round the continuous rate to the nearest integer bits-per-feature level.

    R* = max(round_half_up(Rc * Nmax / d), 1); the carried rate is then
    R* d / Nmax.
    """
    if continuous_rate <= 0:
        raise ValueError("coding rate must be positive")
    raw = continuous_rate * params.max_blocklength / params.dim
    bits = max(int(math.floor(raw + 0.5)), 1)
    rounded = bits * params.dim / params.max_blocklength
    bound, exact = _predictions(rounded, params)
    return RateDecision(continuous_rate, bits, rounded, bound, exact)


def brute_force_rate(params: TradeoffParams, evaluator=None) -> RateDecision:
    """Exhaustive search over integer bit levels; ties break toward fewer bits.

    ``evaluator`` maps a coding rate to an error figure; the default is the
    semi-analytic exact error at the quadrature-evaluated average loss. With
    the default, the chosen level's error and gain are reused for its
    predictions instead of being evaluated again.
    """
    k = params.observations
    best_bits, best_err, best_gain, best_eps = None, math.inf, None, None
    for bits in range(1, 65):
        rate = bits * params.dim / params.max_blocklength
        eps_approx = avg_packet_loss_approx(params.channel, rate)
        if evaluator is None:
            gain = effective_discriminant_gain(params.model, sigma_q2_of_rate(rate, params))
            err = semi_analytic_error(gain, [avg_packet_loss_exact(params.channel, rate)] * k)
        else:
            gain, err = None, evaluator(rate)
        if err < best_err:
            best_bits, best_err, best_gain, best_eps = bits, err, gain, eps_approx
        if eps_approx > 0.999:
            break
    rate = best_bits * params.dim / params.max_blocklength
    if evaluator is None:
        bound, exact = sensing_error_bound(best_gain, best_eps, k), best_err
    else:
        bound, exact = _predictions(rate, params)
    return RateDecision(rate, best_bits, rate, bound, exact)


def urllc_rate(params: TradeoffParams, threshold: float = 1e-5) -> RateDecision:
    """Largest integer-bit rate keeping the average loss under the threshold.

    Flags infeasibility (and still transmits at one bit per feature) when even
    the one-bit rate violates the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    cfg = params.channel

    def excess(r):
        return avg_packet_loss_approx(cfg, r) - threshold

    lo = 1e-9
    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    r_max = sciopt.brentq(excess, lo, hi) if excess(lo) < 0.0 else lo
    bits = int(math.floor(r_max * params.max_blocklength / params.dim))
    infeasible = bits < 1
    bits = max(bits, 1)
    rate = bits * params.dim / params.max_blocklength
    bound, exact = _predictions(rate, params)
    return RateDecision(r_max, bits, rate, bound, exact, infeasible=infeasible)


def fixed_bits_rate(bits: int, params: TradeoffParams) -> RateDecision:
    """Decision pinned at a fixed bits-per-feature resolution."""
    if bits < 1 or int(bits) != bits:
        raise ValueError("bits must be a positive integer")
    rate = bits * params.dim / params.max_blocklength
    bound, exact = _predictions(rate, params)
    return RateDecision(rate, int(bits), rate, bound, exact)


def default_log_accuracy(bits: float) -> float:
    """Fitted log-accuracy of a deep classifier vs bits per feature: -10 R^-3 - 0.2."""
    return -10.0 * bits ** -3 - 0.2


def empirical_accuracy_surrogate(rate: float, log_accuracy, params: TradeoffParams) -> float:
    """Pluggable-accuracy surrogate: log_accuracy(N Rc / d) + ln(1 - eps(Rc))."""
    bits = params.channel.blocklength * rate / params.dim
    success = 1.0 - avg_packet_loss_approx(params.channel, rate)
    if success <= 0.0:
        return -math.inf
    return log_accuracy(bits) + math.log(success)


def maximize_accuracy_surrogate(log_accuracy, params: TradeoffParams) -> float:
    """Golden-section maximization of the pluggable-accuracy surrogate."""
    lo, hi = rate_domain(params)
    res = sciopt.minimize_scalar(
        lambda r: -empirical_accuracy_surrogate(r, log_accuracy, params),
        bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-8},
    )
    return float(res.x)
