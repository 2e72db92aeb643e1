"""Coding-rate adaptation for the source-channel tradeoff.

The objective is a concave surrogate ln[(1 - e^{-D(Rc)/4})(1 - eps(Rc))]
combining the distortion-degraded discriminant gain with the closed-form
average packet loss. Its approximate gradient is available in closed form
and, since the surrogate is concave, decreases monotonically on the rate
domain. The rate is therefore the gradient's root, found by one bracketed
Brent solve (or the domain edge where the gradient keeps its sign), and is
then rounded to an integer bits-per-feature level. Fixed-step gradient
ascent on the same gradient is kept for the convergence study.

Every policy (adaptive rounding, exhaustive search, reliability-first,
fixed resolution) ends in a lookup in one bit-level table per operating
point, ``TradeoffParams.table``, filled by one array pass per request:
brute force's whole search range at once, any other level alone. The upper
edge of the rate domain and the reliability-first rate are closed-form
inverses of the closed-form loss through scipy's inverse incomplete gamma
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize as sciopt
from scipy import special

from .channel import LN2, ChannelConfig, avg_packet_loss, avg_packet_loss_approx
from .gmm import (InferenceModel, effective_discriminant_gain, effective_discriminant_gains,
                  sensing_error_bound, sensing_error_exact)
from .numerics import log_regularized_upper_gamma

_MAX_BITS = 64  # every policy decides a bit level in 1.._MAX_BITS
_BRUTE_STOP_LOSS = 0.999
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
        if self.clip <= 0 or self.observations < 1:
            raise ValueError("invalid tradeoff parameters")

    @property
    def dim(self) -> int:
        return self.model.dim

    def level_rate(self, bits):
        """Coding rate of an integer bits-per-feature level: bits d / N."""
        return bits * self.dim / self.channel.blocklength

    @cached_property
    def level_losses(self) -> np.ndarray:
        """Closed-form loss of the bit levels 1.._MAX_BITS, from one vectorised call."""
        return avg_packet_loss_approx(self.channel, self.level_rate(np.arange(1, _MAX_BITS + 1)))

    @cached_property
    def table(self) -> dict[int, tuple[float, float]]:
        """The bit-level table: (error bound, exact error) of each level a policy
        has asked for, shared by every policy that decides with these
        parameters. ``tabulate`` fills it."""
        return {}

    def tabulate(self, levels) -> None:
        """Add the bit levels missing from the table in one array pass.

        Each level's rate gives the distortion-degraded gain (one levels x d
        sum over the cached eigenbasis); the error bound takes the
        closed-form loss, and the exact error the Gauss-Hermite average loss
        mixed over the binomial received count. A level already in the table
        is not computed again.
        """
        new = np.array([bits for bits in levels if bits not in self.table], dtype=int)
        if not new.size:
            return
        rates = self.level_rate(new)
        gains = effective_discriminant_gains(self.model, sigma_q2_of_rate(rates, self))
        bounds = sensing_error_bound(gains, self.level_losses[new - 1], self.observations)
        exact = sensing_error_exact(gains, avg_packet_loss(self.channel, rates), self.observations)
        self.table.update(zip(new.tolist(), zip(bounds.tolist(), exact.tolist())))


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
    makes the gain convex. Accepts a scalar rate or an array of rates.
    """
    if np.any(np.asarray(rate) <= 0):
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

    # w = (Sigma + s2 I)^{-1} (mu1 - mu2) has |w|^2 = sum c_i^2 / (lambda_i + s2)^2
    w_norm2 = float(np.sum((params.model.gap / (params.model.eigvals + s2)) ** 2))
    distortion = 2.0 ** (-2.0 * bits) / (-math.expm1(-bits * LN2)) ** 3
    d_prime = (n * params.clip ** 2 * distortion * LN2) / (3.0 * d) * w_norm2
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
    params.tabulate([bits])
    rate = params.level_rate(bits)
    bound, exact = params.table[bits]
    return RateDecision(rate if continuous_rate is None else continuous_rate,
                        bits, rate, bound, exact, infeasible)


def round_rate(continuous_rate: float, params: TradeoffParams) -> RateDecision:
    """Round the continuous rate to the nearest integer bits-per-feature level.

    R* = round_half_up(Rc * N / d), clamped to 1.._MAX_BITS; the carried rate
    is then R* d / N.
    """
    if continuous_rate <= 0:
        raise ValueError("coding rate must be positive")
    raw = continuous_rate * params.channel.blocklength / params.dim
    return _level_decision(min(max(int(math.floor(raw + 0.5)), 1), _MAX_BITS), params,
                           continuous_rate)


def brute_force_rate(params: TradeoffParams) -> RateDecision:
    """Exhaustive search over integer bit levels; ties break toward fewer bits.

    Each level's figure is the exact error of the bit-level table, which
    one array pass fills for the whole search range. The search stops after
    the first level whose closed-form loss exceeds 0.999.
    """
    past = np.flatnonzero(params.level_losses > _BRUTE_STOP_LOSS)
    levels = range(1, int(past[0]) + 2 if past.size else _MAX_BITS + 1)
    params.tabulate(levels)
    return _level_decision(min(levels, key=lambda bits: params.table[bits][1]), params)


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
    if not 1 <= bits <= _MAX_BITS or int(bits) != bits:
        raise ValueError(f"bits must be an integer from 1 to {_MAX_BITS}")
    return _level_decision(int(bits), params)
