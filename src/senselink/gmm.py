"""Binary Gaussian inference core.

Discriminant gain and its distortion-degraded variant, feature sampling,
and the closed-form error expressions for sequential sensing over a lossy
link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import binomial_pmf, poisson_binomial_pmf, q_function, require_finite
from .quant import klt

_MIN_EIGENVALUE = 1e-12


@dataclass(frozen=True)
class InferenceModel:
    """Binary Gaussian class-conditional model with shared covariance.

    Entries must be finite and the covariance symmetric positive definite.
    One eigendecomposition is cached at construction, as ``quant.klt``
    orders it (``eigvals``, ``basis``), with ``gap`` = basis @ (mu1 - mu2);
    a Cholesky factor, which only sampling uses, on first use. Instances are
    immutable and safe to share across threads.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)
    gap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu1 = np.asarray(self.mu1, dtype=float)
        mu2 = np.asarray(self.mu2, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        d = mu1.size
        if mu1.shape != (d,) or mu2.shape != (d,) or sigma.shape != (d, d):
            raise ValueError("inconsistent model dimensions")
        require_finite(mu1=mu1, mu2=mu2, sigma=sigma)
        eigvals, basis = klt(sigma)
        if eigvals[-1] <= _MIN_EIGENVALUE:
            raise ValueError(f"covariance not positive definite (min eig {eigvals[-1]:g})")
        for name, value in (("mu1", mu1), ("mu2", mu2), ("sigma", sigma), ("eigvals", eigvals),
                            ("basis", basis), ("gap", basis @ (mu1 - mu2))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mu1.size

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance."""
        return np.linalg.cholesky(self.sigma)


def discriminant_gain(model: InferenceModel) -> float:
    """Half the squared Mahalanobis distance between the class centroids."""
    return effective_discriminant_gain(model, 0.0)


def effective_discriminant_gain(model: InferenceModel, sigma_q2: float) -> float:
    """Discriminant gain after inflating the covariance by isotropic noise.

    Returns (1/2) dm^T (Sigma + sigma_q2 I)^{-1} dm, evaluated in O(d) as
    (1/2) sum_i c_i^2 / (lambda_i + sigma_q2) over the cached eigenbasis
    (c = ``model.gap``); at sigma_q2 = 0 it is the discriminant gain, and it
    is strictly decreasing in sigma_q2 whenever the centroids differ.
    """
    if sigma_q2 < 0:
        raise ValueError("noise variance must be nonnegative")
    return 0.5 * float(np.sum(model.gap ** 2 / (model.eigvals + sigma_q2)))


def effective_discriminant_gains(model: InferenceModel, sigma_q2s) -> np.ndarray:
    """``effective_discriminant_gain`` at each of a 1-D array of noise
    variances, as one (variances x d) sum."""
    s2 = np.asarray(sigma_q2s, dtype=float)
    if np.any(s2 < 0):
        raise ValueError("noise variance must be nonnegative")
    return 0.5 * np.sum(model.gap ** 2 / (model.eigvals + s2[:, None]), axis=1)


def dg_reduction_bounds(model: InferenceModel, sigma_q2: float) -> tuple[float, float]:
    """Lower and upper bounds on the relative gain reduction (D0 - D)/D0.

    lower = sigma_q2 / tr(Sigma + sigma_q2 I),
    upper = sigma_q2 * tr((Sigma + sigma_q2 I)^{-1}).
    """
    if sigma_q2 < 0:
        raise ValueError("noise variance must be nonnegative")
    inflated = model.eigvals + sigma_q2
    return (sigma_q2 / float(np.sum(inflated)), sigma_q2 * float(np.sum(1.0 / inflated)))


def sample_features(
    model: InferenceModel, class_label: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. feature vectors from the given class, one per row."""
    if class_label not in (1, 2):
        raise ValueError("class_label must be 1 or 2")
    if count < 1:
        raise ValueError("count must be positive")
    mu = model.mu1 if class_label == 1 else model.mu2
    z = rng.standard_normal((count, model.dim))
    return mu + z @ model.chol.T


def sensing_error_bound(gain, eps_bar, observations: int):
    """Upper bound on the sequential sensing error with average loss eps_bar.

    (exp(-D/4) + (1 - exp(-D/4)) * eps_bar) ** K, elementwise over arrays of
    gains and losses; a float for scalar arguments.
    """
    gain = np.asarray(gain, dtype=float)
    eps_bar = np.asarray(eps_bar, dtype=float)
    if np.any(gain < 0) or not np.all((eps_bar >= 0.0) & (eps_bar <= 1.0)) or observations < 1:
        raise ValueError("arguments out of range")
    base = np.exp(-gain / 4.0)
    out = (base + (1.0 - base) * eps_bar) ** observations
    return float(out) if out.ndim == 0 else out


def sensing_error_exact(gain, eps_bar, observations: int):
    """Exact sensing error when each of the K slots is lost with probability
    eps_bar, independently: ``semi_analytic_error`` with a binomial received
    count, elementwise over arrays of gains and losses; a float for scalar
    arguments."""
    out = _count_mixed_error(gain, binomial_pmf(1.0 - np.asarray(eps_bar, dtype=float),
                                                observations))
    return float(out) if out.ndim == 0 else out


def semi_analytic_error(gain: float, loss_probs) -> float:
    """Exact sensing error with independent per-slot losses.

    Mixes the conditional Bayes error Q(sqrt(m D / 2)) over the distribution
    of the received count m; the m = 0 term contributes a random guess (1/2).
    The count is binomial when every slot has the same loss and
    Poisson-binomial otherwise. The error is 1/2 at zero gain and at most 1/2
    otherwise, however the pmf's sum rounds.
    """
    loss = np.asarray(loss_probs, dtype=float)
    if loss.ndim == 1 and loss.size and np.all(loss == loss[0]):
        return sensing_error_exact(gain, float(loss[0]), loss.size)
    return float(_count_mixed_error(gain, poisson_binomial_pmf(1.0 - loss)))


def _count_mixed_error(gain, pmf: np.ndarray) -> np.ndarray:
    """Q(sqrt(m D / 2)) mixed over a received-count pmf along its last axis,
    with 1/2 at m = 0, capped at 1/2, and exactly 1/2 at zero gain."""
    gain = np.asarray(gain, dtype=float)
    cond = q_function(np.sqrt(np.arange(pmf.shape[-1]) * gain[..., None] / 2.0))
    cond[..., 0] = 0.5
    return np.where(gain == 0.0, 0.5, np.minimum(np.sum(pmf * cond, axis=-1), 0.5))
