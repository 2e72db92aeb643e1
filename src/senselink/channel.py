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
from functools import cached_property

import numpy as np
from scipy import integrate, special

from .numerics import q_function, require_finite

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
_NEWTON_MAX_STEPS = 60


@dataclass(frozen=True)
class ChannelConfig:
    """Receive antenna count, linear transmit SNR, and channel uses per slot."""

    antennas: int
    snr_linear: float
    blocklength: int

    def __post_init__(self):
        require_finite(antennas=self.antennas, snr_linear=self.snr_linear,
                       blocklength=self.blocklength)
        if self.antennas < 1 or int(self.antennas) != self.antennas:
            raise ValueError("antennas must be a positive integer")
        if self.snr_linear <= 0:
            raise ValueError("transmit SNR must be positive")
        if self.blocklength < 1 or int(self.blocklength) != self.blocklength:
            raise ValueError("blocklength must be a positive integer")

    @cached_property
    def erlang_tail(self) -> float:
        """SNR above which the Erlang(L, gamma0) tail mass is below 1e-10."""
        return float(special.gammainccinv(self.antennas, _ERLANG_TAIL_MASS)) * self.snr_linear

    @cached_property
    def erlang_nodes(self) -> np.ndarray:
        """Post-combining SNR at the Gauss-Hermite nodes z: the Erlang(L, gamma0)
        quantile at Phi(z), taken from the upper tail for z > 0 so that both
        tails keep their relative precision."""
        lower = special.gammaincinv(self.antennas, special.ndtr(_NODES))
        upper = special.gammainccinv(self.antennas, special.ndtr(-_NODES))
        return self.snr_linear * np.where(_NODES <= 0.0, lower, upper)


def snr_from_db(db: float) -> float:
    """Convert an SNR in decibels to a linear power ratio, which must be a finite float."""
    if not db < _MAX_FINITE_DB:  # also rejects NaN
        raise ValueError(f"SNR of {db} dB is not a finite linear ratio")
    return 10.0 ** (db / 10.0)


def sample_post_mrc_snr(cfg: ChannelConfig, rng: np.random.Generator, size: int | None = None):
    """Draw the post-combining SNR: gamma0 times a sum of L unit exponentials.

    The result is Erlang(L, 1/gamma0) distributed. Returns a scalar when
    ``size`` is None, otherwise an array of that length.
    """
    n = 1 if size is None else size
    gains = rng.standard_exponential((n, cfg.antennas)).sum(axis=1)
    out = cfg.snr_linear * gains
    if size is None:
        return float(out[0])
    return out


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
    if np.any(np.asarray(rate) <= 0):
        raise ValueError("coding rate must be positive")
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
    end where the Erlang tail mass drops below 1e-10. The tail past that point
    is integrated over its probability p = P(gamma > g) in [0, 1e-10], where
    the loss is bounded and monotone, to a tolerance scaled to that mass: a
    rate at which the whole law is lost gives a loss of 1 to rounding.
    """
    if rate <= 0:
        raise ValueError("coding rate must be positive")
    ell, g0, n = cfg.antennas, cfg.snr_linear, cfg.blocklength
    hi = cfg.erlang_tail
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
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if rates.ndim != 1 or np.any(rates <= 0):
        raise ValueError("rates must be a 1-D array of positive coding rates")
    out = np.empty(rates.size)
    over_margin = _margin_form(cfg, rates)
    s = math.sqrt(cfg.blocklength) * LN2
    if over_margin.any():
        x = _margin_inverse(rates[over_margin, None], _NODES, s)
        with np.errstate(over="ignore"):  # from 1024 bits per use on, gamma is inf and F 1
            gamma = np.expm1(x * LN2)
        out[over_margin] = special.gammainc(cfg.antennas, gamma / cfg.snr_linear) @ _WEIGHTS
    if not over_margin.all():
        x = np.log1p(cfg.erlang_nodes) / LN2
        margin = s * (x - rates[~over_margin, None]) / np.sqrt(-np.expm1(-x * LN4))
        out[~over_margin] = special.ndtr(-margin) @ _WEIGHTS
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
    Right starts (t > 0), the nearer taken: the fixed-point step
    R + t u(R + t/s) / s, which is the root to double precision once x is
    large, and x(u) at the root of the quadratic s u^2 / ln 4 - s R - t u,
    which is below s x(u) - s R - t u. Left starts (t < 0), the nearer
    taken: R + t/s, and v^2 with s (v^2 - R) - t sqrt(ln 4) v = 0, since
    u(x) <= sqrt(x ln 4).
    """
    # each start is computed at every node and kept only on its side of 0,
    # where it is accurate; on the other side it may overflow
    with np.errstate(over="ignore", divide="ignore"):
        root = np.sqrt(t * t + 4.0 * s * s * rate / LN4)
        quad_u = np.minimum((t + root) * LN4 / (2.0 * s), 1.0)
        near_far = rate + t * np.sqrt(-np.expm1(-np.maximum(rate + t / s, 0.0) * LN4)) / s
        start_right = np.minimum(near_far, -np.log1p(-quad_u ** 2) / LN4)
        b = -t * math.sqrt(LN4) / s
        start_left = np.maximum(rate + t / s, (2.0 * rate / (b + np.sqrt(b * b + 4.0 * rate))) ** 2)
    x = np.where(t > 0.0, start_right, start_left)
    for _ in range(_NEWTON_MAX_STEPS):
        u = np.sqrt(-np.expm1(-x * LN4))
        step = (s * (x - rate) - t * u) / (s - t * LN2 * np.exp2(-2.0 * x) / u)
        x = x - step
        # Newton's error squares at each step, so a step below 1e-9 x
        # leaves an error near 1e-18 x
        if np.all(np.abs(step) <= 1e-9 * x):
            return x
    raise RuntimeError(f"margin inversion did not converge in {_NEWTON_MAX_STEPS} Newton steps")


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
    if np.any(rate <= 0):
        raise ValueError("coding rate must be positive")
    with np.errstate(over="ignore"):  # from 1024 bits per use on, beta is inf and the loss 1
        out = special.gammainc(cfg.antennas, np.expm1(rate * LN2) / cfg.snr_linear)
    if out.ndim == 0:
        return float(out)
    return out
