"""Test oracles: per-trial scoring and classification, the index-sum law
without its floor, and each packet's decodable rate.

The engine in ``senselink.harness`` folds decoding, scoring and the decision
into block-wide array operations; these functions spell out the textbook
per-episode rule that the engine is checked against.
"""

import numpy as np
from scipy import special
from scipy.fft import next_fast_len

from senselink import channel as ch


def discriminant_score(x, model):
    """Minus-log likelihood ratio; negative values favor class 1.

    Accepts a single feature vector or a 2-D array of row vectors.
    """
    sigma_inv = np.linalg.inv(model.sigma)
    w = sigma_inv @ (model.mu2 - model.mu1)
    const = 0.5 * float(model.mu1 @ sigma_inv @ model.mu1 - model.mu2 @ sigma_inv @ model.mu2)
    out = np.asarray(x, dtype=float) @ w + const
    if out.ndim == 0:
        return float(out)
    return out


def classify(scores) -> int:
    """Decide the class from accumulated scores: class 1 iff the sum is < 0.

    A zero sum resolves to class 2 (the comparison is strict).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be nonempty; a no-information slot is the caller's case")
    return 1 if float(scores.sum()) < 0.0 else 2


def index_sum_law_unflushed(mean, var, clip, bits, count):
    """``quant.index_sum_law`` without its floor on the transform terms: every
    term is raised to the ``count``-th power, however small."""
    levels = 2 ** bits
    delta = 2.0 * clip / (levels - 1)
    edges = -clip + (np.arange(1, levels) - 0.5) * delta
    one = np.diff(special.ndtr((edges - mean) / np.sqrt(var)), prepend=0.0, append=1.0)
    size = count * (levels - 1) + 1
    fast = next_fast_len(size, real=True)
    pmf = np.clip(np.fft.irfft(np.fft.rfft(one, fast) ** count, fast)[..., :size], 0.0, None)
    return (np.arange(size) - (size - 1) / 2) * delta, pmf / pmf.sum(axis=-1, keepdims=True)


def decodable_rate(gamma, blocklength: int, uniforms) -> np.ndarray:
    """The highest coding rate at which each packet arrives, given its receive
    SNR gamma and its uniform draw u.

    A packet arrives at rate R iff u >= ``channel.packet_loss(gamma, N, R)``,
    that is iff sqrt(N / V(gamma)) (R - C(gamma)) <= Phi^-1(u), which is
    R <= C(gamma) + sqrt(V(gamma) / N) Phi^-1(u); at gamma = 0 it is 0, so
    nothing arrives, as the loss there is 1. So the packets that arrive at a
    rate arrive at every lower one.
    """
    g = np.asarray(gamma, dtype=float)
    return ch.capacity(g) + np.sqrt(ch.dispersion(g) / blocklength) * special.ndtri(uniforms)
