"""Coding-rate adaptation for the source-channel tradeoff.

The objective is a concave surrogate ln[(1 - e^{-D(Rc)/4})(1 - eps(Rc))]
combining the distortion-degraded discriminant gain with the closed-form
average packet loss. Its approximate gradient is available in closed form
and, since the surrogate is concave, decreases monotonically on the rate
domain. The rate is therefore the gradient's root, bracketed by the domain
(or the domain edge where the gradient keeps its sign), and is then rounded
to an integer bits-per-feature level. Fixed-step gradient ascent on the same
gradient is kept for the convergence study.

Every policy (adaptive rounding, exhaustive search, reliability-first,
fixed resolution) ends in a lookup in one bit-level table per operating
point, ``TradeoffParams.table``: every level 1..64, filled the first time
a policy reads it, its Gauss-Hermite loss and count mixing only over the
levels short of the channel's dead edge. The upper edge of the rate domain
and the reliability-first rate are closed-form inverses of the closed-form
loss through scipy's inverse incomplete gamma functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .channel import LN2, ChannelConfig, _outage_loss, avg_packet_loss, avg_packet_loss_approx
from .gmm import (InferenceModel, _count_mixed_error, _error_bound, _gains,
                  effective_discriminant_gain)
from .numerics import (_binomial_pmf, find_root, log_regularized_upper_gamma, require_counts,
                       require_finite, require_positive)

_MAX_BITS = 64  # every policy decides a bit level in 1.._MAX_BITS
_EDGE_SURVIVAL = 1e-9  # the rate domain ends where the closed-form loss is 1 - this


@dataclass(frozen=True)
class TradeoffParams:
    """Everything the surrogate and the optimizer consume, plus the operating
    point's bit-level table. The table holds numbers only, so no reference
    cycle keeps a model alive until the cycle collector runs."""

    model: InferenceModel
    clip: float
    channel: ChannelConfig
    observations: int

    def __post_init__(self):
        require_finite(clip=self.clip)
        require_positive(clip=self.clip)
        require_counts(1, observations=self.observations)

    @property
    def dim(self) -> int:
        return self.model.dim

    def level_rate(self, bits):
        """Coding rate of an integer bits-per-feature level: bits d / N."""
        return bits * self.dim / self.channel.blocklength

    @cached_property
    def sigma_q2(self) -> np.ndarray:
        """The quantization noise variance of every level 1.._MAX_BITS, level
        b at index b - 1, in one array pass; the bit-level table and the
        engine's levels read it."""
        return sigma_q2_of_rate(self.level_rate(np.arange(1, _MAX_BITS + 1)), self)

    @cached_property
    def outage_loss(self) -> np.ndarray:
        """The closed-form average packet loss of every level 1.._MAX_BITS,
        level b at index b - 1, in one array pass; the bit-level table's error
        bound reads it, and ``loss`` finds the channel's dead edge in it."""
        return _outage_loss(self.channel, self.level_rate(np.arange(1, _MAX_BITS + 1)))

    @cached_property
    def loss(self) -> np.ndarray:
        """The Gauss-Hermite average packet loss of every level 1.._MAX_BITS,
        level b at index b - 1; the bit-level table's exact error and the
        engine's received counts read it.

        Past the channel's dead edge, where the coding rate exceeds anything
        the fading channel carries, the loss is exactly 1, and the closed-form
        loss reaches 1 there or a little earlier. So the quadrature runs over
        levels 1..e, e two past the first level whose closed-form loss is
        exactly 1 (every level if there is none), and the levels past e read
        1, unless level e still reads below 1: then one more call takes the
        rest. A level past one that reads exactly 1 reads 1 too, and each
        rate's loss does not depend on the rates that share its call, so
        every level reads what a call over all 64 levels gives it, to the
        bit (checked over the declared envelope).
        """
        rates = self.level_rate(np.arange(1, _MAX_BITS + 1))
        dead = np.flatnonzero(self.outage_loss == 1.0)
        end = min(int(dead[0]) + 3, _MAX_BITS) if dead.size else _MAX_BITS
        loss = np.ones(_MAX_BITS)
        loss[:end] = avg_packet_loss(self.channel, rates[:end])
        if end < _MAX_BITS and loss[end - 1] < 1.0:
            loss[end:] = avg_packet_loss(self.channel, rates[end:])
        return loss

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The bit-level table: (error bound, exact error) of every level
        1.._MAX_BITS, level b at index b - 1, shared by every policy that
        decides with these parameters.

        One array pass: each level's rate gives the distortion-degraded gain
        (one levels x d sum over the cached eigenbasis); the error bound takes
        the closed-form loss, and the exact error the Gauss-Hermite average
        loss mixed over the binomial received count. A level whose loss is 1
        receives nothing, and its exact error is 1/2, which the mixing gives
        it to the bit, so only the levels with a loss below 1 are mixed.
        """
        gains = _gains(self.model, self.sigma_q2)
        live = self.loss < 1.0
        exact = np.full(_MAX_BITS, 0.5)
        exact[live] = _count_mixed_error(
            gains[live], _binomial_pmf(1.0 - self.loss[live], self.observations))
        return _error_bound(gains, self.outage_loss, self.observations), exact


@dataclass(frozen=True)
class OptimizerSettings:
    step: float = 0.01
    grad_tol: float = 1e-6
    max_iters: int = 200_000
    init_rate: float | None = None

    def __post_init__(self):
        require_finite(step=self.step, grad_tol=self.grad_tol, max_iters=self.max_iters)
        if self.init_rate is not None:
            require_finite(init_rate=self.init_rate)
        require_positive(step=self.step, grad_tol=self.grad_tol)
        require_counts(1, max_iters=self.max_iters)


@dataclass(frozen=True)
class RateDecision:
    """A rate choice, its integer bit level and the predicted error at it,
    made at the operating point ``params``, which is also the point the
    engine simulates it at; ``params`` takes no part in ``==``, hash or repr."""

    continuous_rate: float
    bits_per_feature: int
    rounded_rate: float
    predicted_bound: float
    predicted_exact: float
    infeasible: bool = False
    params: TradeoffParams = field(kw_only=True, compare=False, repr=False)


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
    makes the gain convex. Accepts a scalar rate or an array of rates.
    """
    require_positive(**{"coding rate": rate})
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
    if not rate > 0.0:  # NaN too
        raise ValueError("coding rate must be positive")
    n = params.channel.blocklength
    d = params.dim
    bits = n * rate / d
    # sigma_q2_of_rate in scalar arithmetic; from 511 bits on, where
    # (2^b - 1)^2 nears overflow, the variance is below clip^2 / 10^308 and
    # is taken as its limit 0
    s2 = params.clip ** 2 / (3.0 * float(np.expm1(bits * LN2)) ** 2) if bits < 511.0 else 0.0
    inflated = params.model.eigvals + s2
    gain = 0.5 * float((params.model.gap ** 2 / inflated).sum())

    # w = (Sigma + s2 I)^{-1} (mu1 - mu2) has |w|^2 = sum c_i^2 / (lambda_i + s2)^2
    w_norm2 = float(((params.model.gap / inflated) ** 2).sum())
    distortion = 2.0 ** (-2.0 * bits) / (-math.expm1(-bits * LN2)) ** 3
    d_prime = (n * params.clip ** 2 * distortion * LN2) / (3.0 * d) * w_norm2
    # d_prime / (4 expm1(D/4)) in e^{-D/4}, which underflows where e^{D/4} would
    # overflow; with no class separation the term contributes nothing
    phi1_prime = 0.0 if d_prime == 0.0 else \
        d_prime * math.exp(-gain / 4.0) / (-4.0 * math.expm1(-gain / 4.0))

    g0 = params.channel.snr_linear
    ell = params.channel.antennas
    beta = (2.0 ** rate - 1.0) / g0
    log_num = rate * LN2 + (ell - 1) * math.log(2.0 ** rate - 1.0) + math.log(LN2) - beta
    log_den = ell * math.log(g0) + math.lgamma(ell) + log_regularized_upper_gamma(ell, beta)
    phi2_prime = -math.exp(log_num - log_den)
    return phi1_prime + phi2_prime


def _rate_at_outage_threshold(channel: ChannelConfig, beta: float) -> float:
    """log2(1 + gamma0 beta), the rate whose closed-form loss is P(L, beta)."""
    return math.log1p(channel.snr_linear * beta) / LN2


def rate_domain(params: TradeoffParams) -> tuple[float, float]:
    """Feasible continuous-rate interval [d/N, R_hi].

    The lower edge is the one-bit-per-feature rate; the upper edge is where
    the closed-form average loss reaches 1 - 1e-9, or the lower edge if the
    loss there is already higher.
    """
    lo = params.dim / params.channel.blocklength
    beta = float(special.gammainccinv(params.channel.antennas, _EDGE_SURVIVAL))
    return lo, max(lo, _rate_at_outage_threshold(params.channel, beta))


def solve_rate(params: TradeoffParams) -> float:
    """Maximize the surrogate by a bracketed root-find of its gradient.

    The surrogate is concave on ``rate_domain``, so its gradient is monotone
    there: a gradient <= 0 at the lower edge or >= 0 at the upper edge puts
    the maximizer at that edge, and otherwise ``numerics.find_root`` finds
    the one sign change from the two edge gradients already at hand. This is
    the point fixed-step gradient ascent approaches.
    """
    lo, hi = rate_domain(params)
    if (g_lo := surrogate_gradient(lo, params)) <= 0.0:
        return lo
    if (g_hi := surrogate_gradient(hi, params)) >= 0.0:
        return hi
    return find_root(lambda rate: surrogate_gradient(rate, params), (lo, hi), (g_lo, g_hi))


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
        rate = params.level_rate(4.0)
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


def _level_decision(bits: int, params: TradeoffParams, continuous_rate: float | None = None,
                    infeasible: bool = False) -> RateDecision:
    """The decision at a bit level, with the predictions of ``params.table``:
    the error bound at the closed-form loss and the exact error at the
    Gauss-Hermite loss, both at the distortion-degraded gain."""
    rate = params.level_rate(bits)
    bound, exact = params.table
    return RateDecision(rate if continuous_rate is None else continuous_rate, bits, rate,
                        float(bound[bits - 1]), float(exact[bits - 1]), infeasible, params=params)


def round_rate(continuous_rate: float, params: TradeoffParams) -> RateDecision:
    """Round the continuous rate to the nearest integer bits-per-feature level.

    R* = round_half_up(Rc * N / d), clamped to 1.._MAX_BITS; the carried rate
    is then R* d / N.
    """
    require_finite(**{"coding rate": continuous_rate})
    require_positive(**{"coding rate": continuous_rate})
    raw = continuous_rate * params.channel.blocklength / params.dim
    return _level_decision(min(max(int(math.floor(raw + 0.5)), 1), _MAX_BITS), params,
                           continuous_rate)


def brute_force_rate(params: TradeoffParams) -> RateDecision:
    """Exhaustive search over integer bit levels; ties break toward fewer bits.

    The level is the argmin of the bit-level table's exact error over every
    level 1.._MAX_BITS, so no policy predicts a smaller exact error.
    """
    return _level_decision(int(np.argmin(params.table[1])) + 1, params)


def urllc_rate(params: TradeoffParams, threshold: float = 1e-5) -> RateDecision:
    """Largest integer-bit rate keeping the average loss under the threshold.

    The largest rate is the closed-form inverse of the closed-form loss, and
    the level is at most _MAX_BITS. Flags infeasibility (and still transmits
    at one bit per feature) when even the one-bit rate violates the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    beta = float(special.gammaincinv(params.channel.antennas, threshold))
    r_max = _rate_at_outage_threshold(params.channel, beta)
    bits = int(math.floor(r_max * params.channel.blocklength / params.dim))
    return _level_decision(min(max(bits, 1), _MAX_BITS), params, r_max, infeasible=bits < 1)


def fixed_bits_rate(bits: int, params: TradeoffParams) -> RateDecision:
    """Decision pinned at a fixed bits-per-feature resolution in 1.._MAX_BITS."""
    require_counts(1, bits=bits)
    if bits > _MAX_BITS:
        raise ValueError(f"bits must be an integer from 1 to {_MAX_BITS}")
    return _level_decision(int(bits), params)
