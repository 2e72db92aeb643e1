"""Block quantization: orthogonal transform coding plus uniform scalar quantization.

The transform decorrelates features before element-wise quantization; the
end-to-end distortion behaves like isotropic noise of variance
U^2 / (3 (2^R - 1)^2) per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import require_finite


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
        require_finite(clip=self.clip, bits=self.bits, basis=self.basis)
        if self.clip <= 0:
            raise ValueError("clip range U must be positive")
        if self.bits < 1 or int(self.bits) != self.bits:
            raise ValueError("bits per dimension must be a positive integer")
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
    if bits < 1 or int(bits) != bits:
        raise ValueError("bits must be a positive integer")
    if clip <= 0:
        raise ValueError("clip range must be positive")
    return clip ** 2 / (3.0 * (2 ** bits - 1) ** 2)
