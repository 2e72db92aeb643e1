"""Rayleigh SIMO fading with maximal ratio combining and short-packet loss.

Packets are modeled at the success/failure level: the finite-blocklength
normal approximation gives the loss probability at the sampled post-combining
SNR. The average loss is available three ways: vectorised Gauss-Hermite
quadrature over an array of rates (what the optimizer uses), an adaptive
quadrature against the Erlang density (the oracle it is tested against), and
the closed-form incomplete-gamma approximation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .numerics import find_root, q_function, require_counts, require_finite, require_positive

LN2 = math.log(2.0)
LN4 = 2.0 * LN2
LOG2E_SQ = math.log2(math.e) ** 2
SQRT2 = math.sqrt(2.0)

_ERLANG_TAIL_MASS = 1e-10
_MAX_FINITE_DB = 10.0 * math.log10(sys.float_info.max)
# Past the capacity edge rate + 9 / (sqrt(N) ln 2) the loss is below Q(9).
_EDGE_MARGIN = 9.0


def _hermite_rule():
    """The 128-node Gauss-Hermite rule for E[f(Z)], Z ~ N(0, 1), less the
    nodes whose weight is below 1e-18: their total weight is below 1e-17,
    and every integrand averaged with them lies in [0, 1]."""
    z, w = np.polynomial.hermite_e.hermegauss(128)
    w /= math.sqrt(2.0 * math.pi)
    keep = w >= 1e-18
    return z[keep], w[keep]


_NODES, _WEIGHTS = _hermite_rule()


@dataclass(frozen=True)
class ChannelConfig:
    """Receive antenna count, linear transmit SNR, and channel uses per slot."""

    antennas: int
    snr_linear: float
    blocklength: int

    def __post_init__(self):
        require_finite(snr_linear=self.snr_linear)
        require_counts(1, antennas=self.antennas, blocklength=self.blocklength)
        require_positive(snr_linear=self.snr_linear)
        if self.snr_linear < sys.float_info.min:  # subnormal: the surrogate gradient is NaN there
            raise ValueError(f"snr_linear must be a normal float, not {self.snr_linear!r}")


def snr_from_db(db: float) -> float:
    """Convert an SNR in decibels to a linear power ratio, which must be a normal finite float."""
    # the ratio overflows above about 3082 dB and turns subnormal below about -3076.5 dB
    linear = 10.0 ** (db / 10.0) if db < _MAX_FINITE_DB else 0.0  # NaN too
    if linear < sys.float_info.min:
        raise ValueError(f"SNR of {db} dB is not a normal positive finite linear ratio")
    return linear


def sample_post_mrc_snr(cfg: ChannelConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` post-combining SNRs, each gamma0 times one unit-scale
    gamma variate of shape L: Erlang(L, 1/gamma0) distributed, the law of
    gamma0 times a sum of L unit exponentials, at one draw per SNR."""
    return cfg.snr_linear * rng.standard_gamma(cfg.antennas, size)


def capacity(gamma):
    """Shannon capacity log2(1 + gamma) in bits per channel use."""
    return np.log2(1.0 + np.asarray(gamma, dtype=float))


def dispersion(gamma):
    """Channel dispersion gamma (2 + gamma) / (1 + gamma)^2 * (log2 e)^2."""
    g = np.asarray(gamma, dtype=float)
    return g * (2.0 + g) / (1.0 + g) ** 2 * LOG2E_SQ


def packet_loss(gamma, blocklength: int, rate: float):
    """Finite-blocklength decoding failure probability at receive SNR gamma.

    Q(sqrt(N / V(gamma)) * (C(gamma) - rate)); defined as 1 at gamma = 0,
    the continuous limit from the right. Accepts scalars or arrays; an
    array of rates broadcasts against gamma, which shares the capacity and
    dispersion among the rates.
    """
    require_counts(1, blocklength=blocklength)
    require_positive(**{"coding rate": rate})
    g = np.asarray(gamma, dtype=float)
    v = dispersion(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.sqrt(blocklength / v) * (capacity(g) - rate)
    out = np.where(g > 0.0, q_function(np.where(g > 0.0, arg, 0.0)), 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def avg_packet_loss_exact(cfg: ChannelConfig, rate: float) -> float:
    """Average loss probability by adaptive quadrature against the Erlang density.

    The integral is split at the capacity edge 2^(rate + 9 / (sqrt(N) ln 2)) - 1,
    past which the loss is below Q(9), so that the loss's fall from 1 to 0
    fills one piece even when the Erlang mass lies far above the knee; the
    piece below the edge has the knee 2^rate - 1 as a breakpoint. Both pieces
    end at the SNR whose Erlang tail mass is 1e-10, gamma0 times the inverse
    regularized upper incomplete gamma at 1e-10. The tail past that point
    is integrated over its probability p = P(gamma > g) in [0, 1e-10], where
    the loss is bounded and monotone, to a tolerance scaled to that mass: a
    rate at which the whole law is lost gives a loss of 1 to rounding.
    """
    from scipy import integrate  # loaded only when this oracle runs

    require_positive(**{"coding rate": rate})
    ell, g0, n = cfg.antennas, cfg.snr_linear, cfg.blocklength
    hi = g0 * float(special.gammainccinv(ell, _ERLANG_TAIL_MASS))
    log_norm = math.lgamma(ell) + ell * math.log(g0)

    # packet_loss and the Erlang(ell, g0) density written in scalar math:
    # quad calls them a few hundred times, and the per-call overhead of
    # numpy and scipy.stats dominated the work.
    def loss(g):
        v = g * (2.0 + g) / (1.0 + g) ** 2 * LOG2E_SQ
        return 0.5 * math.erfc(math.sqrt(n / v) * (math.log2(1.0 + g) - rate) / SQRT2)

    def integrand(g):
        if g <= 0.0:
            return 1.0 / g0 if ell == 1 else 0.0
        return loss(g) * math.exp((ell - 1) * math.log(g) - g / g0 - log_norm)

    def tail(p):
        return loss(g0 * special.gammainccinv(ell, p))

    def snr_at(bits):  # 2^bits overflows a float from 1024 on
        return 2.0 ** bits - 1.0 if bits < 1024.0 else math.inf

    knee = snr_at(rate)
    edge = min(snr_at(rate + _EDGE_MARGIN / (math.sqrt(n) * LN2)), hi)
    total = 0.0
    for fn, lo, top, points, epsabs in (
            (integrand, 0.0, edge, [knee] if 0.0 < knee < edge else None, 1e-10),
            (integrand, edge, hi, [knee] if edge < knee < hi else None, 1e-10),
            (tail, 0.0, _ERLANG_TAIL_MASS, None, 1e-10 * _ERLANG_TAIL_MASS)):
        if not lo < top:
            continue
        val, err = integrate.quad(fn, lo, top, points=points, limit=300,
                                  epsabs=epsabs, epsrel=1e-9)
        if err > 1e-8:
            raise RuntimeError(f"quadrature did not converge (error estimate {err:g})")
        total += val
    return min(max(total, 0.0), 1.0)


def avg_packet_loss(cfg: ChannelConfig, rates) -> np.ndarray:
    """Average loss at each of an array of coding rates, by Gauss-Hermite quadrature.

    A packet is lost when T > a(gamma), with T ~ N(0, 1) independent of the
    post-combining SNR gamma ~ Erlang(L, gamma0) and the normalised margin
    a(gamma) = sqrt(N) ln2 (x - R) / sqrt(1 - 4^-x), x = log2(1 + gamma),
    which increases from -inf to inf. Two exact forms of the average follow:

        over the margin:  eps = E_T[F(a^-1(T))],    F the Erlang CDF;
        over the SNR:     eps = E_W[Q(a(gamma(W)))], gamma(W) = F^-1(Phi(W)).

    Each is accurate where its integrand is smooth: the margin form where
    the Erlang law is wide on the margin's scale, the SNR form where it is
    narrow. Each rate takes the form that its knee 2^R - 1 selects (see
    ``_margin_form``); both use one 128-node Gauss-Hermite rule. Against
    adaptive quadrature the result is within 2e-10 + 1e-8 min(eps, 1 - eps)
    over the operating envelope. ``avg_packet_loss_exact`` is the oracle.
    That bound is absolute in the deep tail: there, with 140 or more
    antennas, the loss can fall from one rate to a higher one (at L = 246,
    46.86 dB and N = 41, 5.8e-121 at 28 x 26 / 41 bits per use and 5.3e-159
    at 29 x 26 / 41, where quadrature reads 2.1e-119 and 1.8e-95). Over 64
    bit levels at 1,000 random envelope points it rises with the rate
    wherever it is 1e-40 or more.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if rates.ndim != 1:
        raise ValueError("rates must be a 1-D array")
    require_positive(**{"coding rate": rates})
    out = np.empty(rates.size)
    over_margin = _margin_form(cfg, rates)
    s = math.sqrt(cfg.blocklength) * LN2
    if over_margin.any():
        x = _margin_inverse(rates[over_margin, None], _NODES, s)
        with np.errstate(over="ignore"):  # from 1024 bits per use on, gamma is inf and F 1
            gamma = np.expm1(x * LN2)
        out[over_margin] = np.sum(special.gammainc(cfg.antennas, gamma / cfg.snr_linear) * _WEIGHTS,
                                  axis=1)
    if not over_margin.all():
        # the Erlang quantile at Phi(z) for each node z, taken from the upper
        # tail for z > 0 so that both tails keep their relative precision
        lower = special.gammaincinv(cfg.antennas, special.ndtr(_NODES))
        upper = special.gammainccinv(cfg.antennas, special.ndtr(-_NODES))
        x = np.log1p(cfg.snr_linear * np.where(_NODES <= 0.0, lower, upper)) / LN2
        margin = s * (x - rates[~over_margin, None]) / np.sqrt(-np.expm1(-x * LN4))
        out[~over_margin] = np.sum(special.ndtr(-margin) * _WEIGHTS, axis=1)
    return out


def _margin_form(cfg: ChannelConfig, rates: np.ndarray) -> np.ndarray:
    """Where ``avg_packet_loss`` integrates over the margin T.

    Both widths are taken at the knee gamma_k = 2^R - 1, where a = 0: the
    margin's, d gamma / dT = sqrt(gamma_k (2 + gamma_k) / N), and the Erlang
    law's, d gamma / dW = phi(W_k) / f(gamma_k) with Phi(W_k) = F(gamma_k).
    Their ratio is the slope of either form's integrand in its variable, so
    the margin form is taken unless the Erlang width is below half the
    margin's. A knee so deep in a tail that F(gamma_k) or 1 - F(gamma_k)
    underflows gives the SNR form, which is accurate there.
    """
    ell, g0 = cfg.antennas, cfg.snr_linear
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        knee = np.expm1(rates * LN2)
        below = special.gammainc(ell, knee / g0)
        w_knee = np.where(below < 0.5, special.ndtri(below),
                          -special.ndtri(special.gammaincc(ell, knee / g0)))
        log_density = (ell - 1) * np.log(knee) - knee / g0 - math.lgamma(ell) - ell * math.log(g0)
        log_erlang = -0.5 * w_knee ** 2 - 0.5 * math.log(2.0 * math.pi) - log_density
        log_margin = 0.5 * np.log(knee * (2.0 + knee) / cfg.blocklength)
        return log_erlang - log_margin >= -LN2


def _margin_inverse(rate, t, s: float) -> np.ndarray:
    """x = log2(1 + gamma) with a(gamma) = t, broadcast over rates and nodes.

    x solves g(x) = s (x - R) - t u(x) = 0 with u(x) = sqrt(1 - 4^-x), which
    is increasing and concave, so the root lies between R and R + t/s and g
    increases through it. For t > 0, g is convex and Newton's method started
    right of the root decreases to it monotonically; for t < 0, g is
    concave and Newton started left of it increases to it monotonically.
    One start per side: right of the root (t > 0), R + t/s, where
    g = t (1 - u) > 0; left of it (t < 0), v^2 with
    s (v^2 - R) - t sqrt(ln 4) v = 0, where g <= 0 since u(x) <= sqrt(x ln 4).
    """
    # b is 0 where t > 0 (v^2 unused there), so b + sqrt(b^2 + 4R) never cancels to 0
    b = -np.minimum(t, 0.0) * math.sqrt(LN4) / s
    x = np.where(t > 0.0, rate + t / s, (2.0 * rate / (b + np.sqrt(b * b + 4.0 * rate))) ** 2)

    def g_and_slope(x):
        u = np.sqrt(-np.expm1(-x * LN4))
        return s * (x - rate) - t * u, s - t * LN2 * np.exp2(-2.0 * x) / u

    return find_root(g_and_slope, x)


def avg_packet_loss_approx(cfg: ChannelConfig, rate: float) -> float:
    """Closed-form average loss 1 - Q(L, (2^rate - 1) / gamma0).

    This is the outage limit of the averaged finite-blocklength loss and does
    not depend on the blocklength N. The omitted correction is c1(rate) / N:

        eps_avg = F(g) + c1 / N + O(N^-2),
        c1 = (1/2) (1 + g) f(g) [1 + (1 + g)^-2 + W ((L - 1) / g - 1 / gamma0)],

    with g = 2^rate - 1, F and f the Erlang(L, gamma0) CDF and density, and
    W = g (2 + g) / (1 + g). It follows from expanding E[Q(sqrt(N / V) u)] in
    u = C - rate around u = 0: the N^-1/2 term cancels because
    Q(t) - 1{t < 0} is odd, and c1 = (1/2) d/du [p(u) V(u)] at u = 0, where
    p is the density of u. At N = 100 the form plus c1 / N is within a few
    percent of quadrature for losses from 1e-3 to 0.99; the bare form is
    within 5% only above a loss of about 0.12.

    It is evaluated as the regularized lower incomplete gamma P(L, beta),
    beta = expm1(rate ln 2) / gamma0, which keeps its relative precision at
    small losses and small rates. Accepts a scalar rate or an array of rates.
    """
    rate = np.asarray(rate, dtype=float)
    require_positive(**{"coding rate": rate})
    out = _outage_loss(cfg, rate)
    if out.ndim == 0:
        return float(out)
    return out


def _outage_loss(cfg: ChannelConfig, rates: np.ndarray) -> np.ndarray:
    """``avg_packet_loss_approx`` of a float array of rates, without its check."""
    with np.errstate(over="ignore"):  # from 1024 bits per use on, beta is inf and the loss 1
        return special.gammainc(cfg.antennas, np.expm1(rates * LN2) / cfg.snr_linear)
