"""Block quantization: orthogonal transform coding plus uniform scalar quantization.

The transform decorrelates features before element-wise quantization; the
end-to-end distortion behaves like isotropic noise of variance
U^2 / (3 (2^R - 1)^2) per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .numerics import require_counts, require_finite, require_positive


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform scalar quantizer on [-U, U] with 2^R points, after a transform.

    The grid includes both endpoints, so the resolution is 2U / (2^R - 1).
    ``basis`` rows are applied to the feature vector before quantization.
    """

    clip: float
    bits: int
    basis: np.ndarray

    def __post_init__(self):
        require_finite(clip=self.clip, basis=self.basis)
        require_positive(clip=self.clip)
        require_counts(1, bits=self.bits)
        basis = np.asarray(self.basis, dtype=float)
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-8:
            raise ValueError("basis must be orthogonal")
        object.__setattr__(self, "basis", basis)

    @property
    def resolution(self) -> float:
        return _resolution(self.clip, self.bits)


def _resolution(clip: float, bits: int) -> float:
    return 2.0 * clip / (2 ** bits - 1)


def klt(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of sigma in descending order and the orthogonal basis whose
    rows are the matching eigenvectors, from one symmetric eigendecomposition.

    Sign convention: the first entry of each row exceeding 1e-12 in magnitude
    is made positive, so the basis is reproducible across platforms. Ties in
    the spectrum keep the stable eigh ordering (identity covariance maps to
    the identity basis).
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    vals, vecs = np.linalg.eigh(sigma)
    order = np.argsort(-vals, kind="stable")
    rows = vecs[:, order].T.copy()
    significant = np.abs(rows) > 1e-12
    lead = rows[np.arange(rows.shape[0]), np.argmax(significant, axis=1)]
    rows[significant.any(axis=1) & (lead < 0)] *= -1.0
    return vals[order], rows


def scalar_quantize(v, clip: float, bits: int):
    """Map values to the point of the 2^bits-point grid on [-clip, clip]
    whose half-open cell [u - d/2, u + d/2) holds them.

    Out-of-range inputs saturate to the extreme grid points -clip and +clip.
    Accepts scalars or arrays; the input is not modified. The output array
    is allocated once and every later step works in it in place.
    """
    delta = _resolution(clip, bits)
    out = np.empty(np.shape(v))
    np.add(v, clip, out=out)
    out /= delta
    out += 0.5
    np.floor(out, out=out)
    np.clip(out, 0, 2 ** bits - 1, out=out)
    out *= delta
    out += -clip
    if out.ndim == 0:
        return float(out)
    return out


def index_pmf(mean, var, clip: float, bits: int) -> np.ndarray:
    """Law of the grid index k = 0 .. 2^bits - 1 that ``scalar_quantize``
    gives a N(mean, var) value, mapping it to -clip + k delta.

    A value's index is >= k exactly when it is >= -clip + (k - 1/2) delta,
    so the pmf is a difference of ``ndtr`` at those edges. ``mean`` and
    ``var`` broadcast against the 2^bits - 1 edges along the last axis: a
    column of c means, shape (c, 1), gives one row of probabilities each.
    """
    levels, delta = 2 ** bits, _resolution(clip, bits)
    edges = -clip + (np.arange(1, levels) - 0.5) * delta
    return np.diff(special.ndtr((edges - mean) / np.sqrt(var)), prepend=0.0, append=1.0)


def index_sum_law(mean, var, clip: float, bits: int,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the sum of ``count`` i.i.d. N(mean, var) values, each
    mapped by ``scalar_quantize``: the sums (t - count (2^bits - 1) / 2) delta
    over the index sums t = 0 .. count (2^bits - 1), and their probabilities.
    ``mean`` and ``var`` broadcast as in ``index_pmf``, one row of
    probabilities per row of their broadcast: a column of c means, shape
    (c, 1), gives c rows, and means of shape (2, d, 1) against variances of
    shape (d, 1) give one row per class and variance.

    One coordinate's pmf is ``index_pmf``; the sum's pmf is its count-fold
    convolution, one FFT power at a fast length that does not wrap, cut
    back, clipped at 0 and normalised.
    Before the power, each transform term of modulus below 10^(-200/count)
    is set to 0, since its power, below 1e-200, would often underflow into
    subnormal numbers, whose arithmetic is slow. The inverse transform
    averages the terms, so no entry of the pmf before normalising moves by
    1e-200 or more, far below its float64 resolution.
    """
    levels, delta = 2 ** bits, _resolution(clip, bits)
    one = index_pmf(mean, var, clip, bits)
    size = count * (levels - 1) + 1
    fast = _fast_len(size)
    terms = np.fft.rfft(one, fast)
    terms[np.abs(terms) < 10.0 ** (-200.0 / count)] = 0.0
    pmf = np.clip(np.fft.irfft(terms ** count, fast)[..., :size], 0.0, None)
    return (np.arange(size) - (size - 1) / 2) * delta, pmf / pmf.sum(axis=-1, keepdims=True)


def doubled(pmf) -> np.ndarray:
    """Law of the sum of two independent values with the law ``pmf`` on
    0, 1, ..., along the last axis: its convolution with itself, one FFT
    square at a fast length that does not wrap, clipped at 0 and normalised.
    The sum of 2^k values that each sum g quantized values, as
    ``index_sum_law`` gives them, has k such doublings of that law."""
    size = 2 * pmf.shape[-1] - 1
    fast = _fast_len(size)
    doubled = np.clip(np.fft.irfft(np.fft.rfft(pmf, fast) ** 2, fast)[..., :size], 0.0, None)
    return doubled / doubled.sum(axis=-1, keepdims=True)


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length at which numpy's FFT is fast
    (what ``scipy.fft.next_fast_len(n, real=True)`` gives): for each odd
    part 3^b 5^c below the power of two at or above n, the least power of
    two that lifts it to n."""
    best, odd = 1 << (n - 1).bit_length(), 1
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << (-(-n // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def encode(x, config: QuantizerConfig) -> tuple[np.ndarray, int]:
    """Transform then quantize a feature vector (or rows of a 2-D batch).

    Returns the quantized transformed vector and the bit budget R * d.
    """
    x = np.asarray(x, dtype=float)
    y = x @ config.basis.T
    d = config.basis.shape[0]
    return scalar_quantize(y, config.clip, config.bits), config.bits * d


def decode(xq, config: QuantizerConfig) -> np.ndarray:
    """Invert the transform: apply the basis transpose to the quantized vector."""
    xq = np.asarray(xq, dtype=float)
    return xq @ config.basis


def noise_variance(bits: int, clip: float) -> float:
    """Per-dimension variance of the quantization distortion, U^2 / (3 (2^R - 1)^2)."""
    require_counts(1, bits=bits)
    require_positive(clip=clip)
    return clip ** 2 / (3.0 * (2 ** bits - 1) ** 2)
