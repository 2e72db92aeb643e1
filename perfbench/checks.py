"""Output checks applied to every simulated cell the benchmark produces.

A cell passes when

- its bit level matches the table pinned at the seed commit,
- its rate is that bit level times d / N, and
- its Monte Carlo error is statistically consistent with the true error
  probability of the system the harness simulates.

The true error comes from ``true_error``, an oracle written here from the
model's definition and sharing no code with senselink. Conditional on the
number m of packets received, the decision is the sign of a sum of
independently quantized coordinates (in the covariance's eigenbasis), and m
is binomial with the average packet loss of the finite-blocklength normal
approximation over Erlang fading. For identity covariance and at most 8 bits
the sum lives on a lattice and its law is computed exactly; otherwise it is
the normal law with the exact (or, above 12 bits, Sheppard-corrected) moments
of the quantized coordinates, widened by ``NORMAL_SLACK``. A score that sums
to exactly zero is decided by floating-point rounding, so the oracle returns
an interval that covers either outcome of a tie.

The statistical bound was fixed before any result was looked at: |Z| <= 5,
applied as an exact binomial tail of the same probability on each side. A
workload's CSV must also be byte-identical when the same unit of work is run
twice in one process.

The decision's own prediction ``pred_exact`` assumes the quantization error
is isotropic Gaussian noise (the paper's Lemma 1). That does not hold at one
bit per feature, where the sign quantizer does much better than the model
says. ``agrees_with_prediction`` reports that disagreement; it is a known
property of the model, counted and shown, and does not fail a cell.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate, signal, special, stats

Z_BOUND = 5.0
TAIL = 0.5 * math.erfc(Z_BOUND / math.sqrt(2.0))  # P(Z > 5), one side
# Allowance for the normal approximation of a sum of at least 50 quantized
# coordinates; its error at these sizes is orders of magnitude smaller.
NORMAL_SLACK = 1e-3
EXACT_LATTICE_MAX_BITS = 8
EXACT_MOMENTS_MAX_BITS = 12
PINNED_BITS_FILE = Path(__file__).resolve().parent / "pinned_bits.json"
LOG2E_SQ = math.log2(math.e) ** 2


def load_pinned_bits(workload: str) -> dict:
    with PINNED_BITS_FILE.open() as fh:
        return json.load(fh)[workload]


def avg_packet_loss(antennas: int, snr_db: float, blocklength: int, rate: float) -> float:
    """E[Q(sqrt(N / V(g)) (log2(1 + g) - rate))] over g = snr * Erlang(L, 1)."""
    snr = 10.0 ** (snr_db / 10.0)
    log_norm = math.lgamma(antennas)

    def integrand(x):  # x = g / snr, unit-scale Erlang density
        if x <= 0.0:
            return 0.0
        g = snr * x
        v = g * (2.0 + g) / (1.0 + g) ** 2 * LOG2E_SQ
        arg = math.sqrt(blocklength / v) * (math.log2(1.0 + g) - rate)
        pdf = math.exp((antennas - 1) * math.log(x) - x - log_norm)
        return 0.5 * math.erfc(arg / math.sqrt(2.0)) * pdf

    hi = float(special.gammainccinv(antennas, 1e-13))
    knee = (2.0 ** rate - 1.0) / snr
    points = [knee] if 0.0 < knee < hi else None
    val, _ = integrate.quad(integrand, 0.0, hi, points=points, limit=400,
                            epsabs=1e-12, epsrel=1e-10)
    return min(max(val, 0.0), 1.0)


def index_pmf(mean, sd, clip: float, bits: int) -> np.ndarray:
    """P(grid index = k) for N(mean, sd^2) coordinates, one row per coordinate.

    The quantizer rounds half up onto 2^bits points spanning [-clip, clip], so
    index >= k exactly when y >= -clip + (k - 1/2) * delta.
    """
    levels = 2 ** bits
    delta = 2.0 * clip / (levels - 1)
    edges = -clip + (np.arange(1, levels) - 0.5) * delta
    mean = np.atleast_1d(np.asarray(mean, dtype=float))[:, None]
    sd = np.atleast_1d(np.asarray(sd, dtype=float))[:, None]
    at_least = stats.norm.sf((edges - mean) / sd)
    ones = np.ones((mean.shape[0], 1))
    zeros = np.zeros((mean.shape[0], 1))
    return np.clip(np.hstack([ones, at_least]) - np.hstack([at_least, zeros]), 0.0, 1.0)


def quantized_moments(mean, sd, clip: float, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each quantized coordinate."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    delta = 2.0 * clip / (2.0 ** bits - 1.0)
    if bits <= EXACT_MOMENTS_MAX_BITS:
        pmf = index_pmf(mean, sd, clip, bits)
        points = -clip + np.arange(pmf.shape[1]) * delta
        m1 = pmf @ points
        return m1, np.maximum(pmf @ points ** 2 - m1 ** 2, 0.0)
    # Clipped normal plus uniform rounding error of variance delta^2 / 12.
    a, b = (-clip - mean) / sd, (clip - mean) / sd
    pa, pb = stats.norm.cdf(a), stats.norm.cdf(b)
    fa, fb = stats.norm.pdf(a), stats.norm.pdf(b)
    inside = pb - pa
    m1 = mean * inside + sd * (fa - fb) - clip * pa + clip * (1.0 - pb)
    m2 = ((mean ** 2 + sd ** 2) * inside + 2.0 * mean * sd * (fa - fb)
          + sd ** 2 * (a * fa - b * fb) + clip ** 2 * (pa + 1.0 - pb))
    return m1, np.maximum(m2 - m1 ** 2, 0.0) + delta ** 2 / 12.0


def _conditional_identity_exact(centroid, dim, clip, bits, observations):
    """(P(wrong side), P(tie)) given m = 1..K packets, identity covariance.

    All weights are equal, so the score is a multiple of minus the sum of the
    grid indices T over n = m d coordinates, offset so that T = n (2^R - 1) / 2
    is a tie. Class 1 (mean +centroid) is wrong when T falls below that.
    """
    per = index_pmf(centroid, 1.0, clip, bits)[0]
    packet = np.array([1.0])
    for _ in range(dim):
        packet = np.clip(signal.fftconvolve(packet, per), 0.0, None)
    total, wrong, tie = np.array([1.0]), [], []
    for m in range(1, observations + 1):
        total = np.clip(signal.fftconvolve(total, packet), 0.0, None)
        half = (total.size - 1) / 2.0  # n (2^R - 1) / 2
        wrong.append(float(total[: math.ceil(half)].sum()))
        tie.append(float(total[int(half)]) if half == int(half) else 0.0)
    return np.array(wrong), np.array(tie)


def _conditional_normal(mean, lam, clip, bits, noise_var, observations):
    """P(wrong side) given m = 1..K packets, from the score's normal law."""
    weights = -2.0 * mean / (lam + noise_var)  # score weights in the eigenbasis
    q_mean, q_var = quantized_moments(mean, np.sqrt(lam), clip, bits)
    mu = float(weights @ q_mean)
    var = float(weights ** 2 @ q_var)
    m = np.arange(1, observations + 1)
    return stats.norm.sf(-m * mu / np.sqrt(m * var))


@lru_cache(maxsize=None)
def _true_error_cached(dim, centroid, sigma_key, clip, antennas, snr_db, blocklength,
                       observations, bits, rate):
    eps = avg_packet_loss(antennas, snr_db, blocklength, rate)
    received = stats.binom.pmf(np.arange(observations + 1), observations, 1.0 - eps)
    noise_var = clip ** 2 / (3.0 * (2.0 ** bits - 1.0) ** 2)
    if sigma_key == "identity" and bits <= EXACT_LATTICE_MAX_BITS:
        wrong, tie = _conditional_identity_exact(centroid, dim, clip, bits, observations)
        lo_m, hi_m = wrong, wrong + tie
    else:
        if sigma_key == "identity":
            lam, mean = np.ones(dim), np.full(dim, centroid)
        else:
            sigma = np.array(sigma_key, dtype=float)
            lam, vecs = np.linalg.eigh(sigma)
            mean = vecs.T @ np.full(dim, centroid)
        p = _conditional_normal(mean, lam, clip, bits, noise_var, observations)
        lo_m, hi_m = np.maximum(p - NORMAL_SLACK, 0.0), np.minimum(p + NORMAL_SLACK, 1.0)
    lo = 0.5 * received[0] + float(received[1:] @ lo_m)
    hi = 0.5 * received[0] + float(received[1:] @ hi_m)
    return lo, hi


def true_error(config, bits: int, rate: float) -> tuple[float, float]:
    """Interval holding the error probability of one simulated trial.

    ``config`` is the cell's ``ExperimentConfig``; only its model, channel
    and quantizer fields are read. Uses the real quantizer (the harness's
    default noise model).
    """
    spec = config.sigma_spec
    if isinstance(spec, str):
        if spec != "identity":
            raise ValueError(f"unknown covariance spec {spec!r}")
        sigma_key = "identity"
    else:
        arr = np.asarray(spec, dtype=float)
        if arr.ndim == 1:
            arr = np.diag(arr)
        sigma_key = tuple(map(tuple, arr.tolist()))
    return _true_error_cached(config.dim, float(config.centroid), sigma_key, float(config.clip),
                              config.antennas, float(config.snr_db), config.blocklength,
                              config.observations, int(bits), float(rate))


def consistent(row, lo: float, hi: float) -> bool:
    """Exact binomial test: the wrong count is not too small for ``lo`` nor too large for ``hi``."""
    n = row.trials
    wrong = round(row.error * n)
    return (stats.binom.cdf(wrong, n, lo) >= TAIL
            and stats.binom.sf(wrong - 1, n, hi) >= TAIL)


def z_score(row, p: float) -> float:
    if 0.0 < p < 1.0:
        return (row.error - p) / math.sqrt(p * (1.0 - p) / row.trials)
    return 0.0 if row.error == p else math.inf


def agrees_with_prediction(row) -> bool:
    """Whether the simulated error is consistent with the decision's pred_exact."""
    return consistent(row, row.pred_exact, row.pred_exact)


def check_cell(key: str, row, config, pinned: dict) -> list[str]:
    """Return the reasons this cell fails its check; empty when it passes."""
    problems = []
    want = pinned.get(key)
    if want is None:
        problems.append(f"{key}: no pinned bit level")
    elif row.bits != want:
        problems.append(f"{key}: bits {row.bits}, pinned {want}")
    expected_rate = row.bits * config.dim / config.blocklength
    if not math.isclose(row.rate, expected_rate, rel_tol=1e-12):
        problems.append(f"{key}: rate {row.rate!r}, expected bits * d / N = {expected_rate!r}")
    lo, hi = true_error(config, row.bits, row.rate)
    if not consistent(row, lo, hi):
        near = min(max(row.error, lo), hi)
        problems.append(f"{key}: error {row.error!r} vs true error in [{lo:.6g}, {hi:.6g}] "
                        f"over {row.trials} trials (z = {z_score(row, near):.2f})")
    return problems
