"""Binary Gaussian inference core.

Discriminant gain and its distortion-degraded variant, score functions,
Bayes error, and the closed-form error expressions for sequential sensing
over a lossy link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import poisson_binomial_pmf, q_function, require_finite

_MIN_EIGENVALUE = 1e-12


@dataclass(frozen=True)
class InferenceModel:
    """Binary Gaussian class-conditional model with shared covariance.

    Entries must be finite and the covariance symmetric positive definite;
    its inverse and a lower Cholesky factor are cached at construction.
    Instances are immutable and safe to share across threads.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray = field(init=False, repr=False)
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu1 = np.asarray(self.mu1, dtype=float)
        mu2 = np.asarray(self.mu2, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        d = mu1.size
        if mu1.shape != (d,) or mu2.shape != (d,) or sigma.shape != (d, d):
            raise ValueError("inconsistent model dimensions")
        require_finite(mu1=mu1, mu2=mu2, sigma=sigma)
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        eigmin = np.linalg.eigvalsh(sigma)[0]
        if eigmin <= _MIN_EIGENVALUE:
            raise ValueError(f"covariance not positive definite (min eig {eigmin:g})")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_inv", np.linalg.inv(sigma))
        object.__setattr__(self, "chol", np.linalg.cholesky(sigma))

    @property
    def dim(self) -> int:
        return self.mu1.size


def discriminant_gain(model: InferenceModel) -> float:
    """Half the squared Mahalanobis distance between the class centroids."""
    dm = model.mu1 - model.mu2
    return 0.5 * float(dm @ model.sigma_inv @ dm)


def effective_discriminant_gain(model: InferenceModel, sigma_q2: float) -> float:
    """Discriminant gain after inflating the covariance by isotropic noise.

    Returns (1/2) dm^T (Sigma + sigma_q2 I)^{-1} dm; reduces to
    ``discriminant_gain`` at sigma_q2 = 0 and is strictly decreasing in
    sigma_q2 whenever the centroids differ.
    """
    if sigma_q2 < 0:
        raise ValueError("noise variance must be nonnegative")
    dm = model.mu1 - model.mu2
    if sigma_q2 == 0.0:
        return discriminant_gain(model)
    cov = model.sigma + sigma_q2 * np.eye(model.dim)
    return 0.5 * float(dm @ np.linalg.solve(cov, dm))


def dg_reduction_bounds(model: InferenceModel, sigma_q2: float) -> tuple[float, float]:
    """Lower and upper bounds on the relative gain reduction (D0 - D)/D0.

    lower = sigma_q2 / tr(Sigma + sigma_q2 I),
    upper = sigma_q2 * tr((Sigma + sigma_q2 I)^{-1}).
    """
    if sigma_q2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if sigma_q2 == 0.0:
        return (0.0, 0.0)
    cov = model.sigma + sigma_q2 * np.eye(model.dim)
    lower = sigma_q2 / float(np.trace(cov))
    upper = sigma_q2 * float(np.trace(np.linalg.inv(cov)))
    return (lower, upper)


def discriminant_score(x, model: InferenceModel):
    """Minus-log likelihood ratio; negative values favor class 1.

    Accepts a single feature vector or a 2-D array of row vectors.
    """
    w = model.sigma_inv @ (model.mu2 - model.mu1)
    const = 0.5 * float(
        model.mu1 @ model.sigma_inv @ model.mu1 - model.mu2 @ model.sigma_inv @ model.mu2
    )
    x = np.asarray(x, dtype=float)
    out = x @ w + const
    if out.ndim == 0:
        return float(out)
    return out


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


def classify(scores) -> int:
    """Decide the class from accumulated scores: class 1 iff the sum is < 0.

    A zero sum resolves to class 2 (the comparison is strict).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be nonempty; a no-information slot is the caller's case")
    return 1 if float(scores.sum()) < 0.0 else 2


def bayes_error_single(gain: float) -> float:
    """Bayes error of a single observation at discriminant gain D: Q(sqrt(D/2))."""
    if gain < 0:
        raise ValueError("discriminant gain must be nonnegative")
    return q_function(math.sqrt(gain / 2.0))


def sensing_error_bound(gain: float, eps_bar: float, observations: int) -> float:
    """Upper bound on the sequential sensing error with average loss eps_bar.

    (exp(-D/4) + (1 - exp(-D/4)) * eps_bar) ** K.
    """
    if gain < 0 or not (0.0 <= eps_bar <= 1.0) or observations < 1:
        raise ValueError("arguments out of range")
    base = math.exp(-gain / 4.0)
    return (base + (1.0 - base) * eps_bar) ** observations


def semi_analytic_error(gain: float, loss_probs) -> float:
    """Exact sensing error with independent per-slot losses.

    Mixes the conditional Bayes error Q(sqrt(m D / 2)) over the distribution
    of the received count m; the m = 0 term contributes a random guess (1/2).
    """
    loss = np.asarray(loss_probs, dtype=float)
    pmf = poisson_binomial_pmf(1.0 - loss)
    m = np.arange(pmf.size)
    cond = q_function(np.sqrt(m * gain / 2.0))
    cond[0] = 0.5
    return float(pmf @ cond)
