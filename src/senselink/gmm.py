"""Binary Gaussian inference core.

Discriminant gain and its distortion-degraded variant, feature sampling,
and the closed-form error expressions for sequential sensing over a lossy
link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import binomial_pmf, poisson_binomial_pmf, q_function, require_counts, require_finite
from .quant import klt

_MIN_EIGENVALUE = 1e-12


@dataclass(frozen=True)
class InferenceModel:
    """Binary Gaussian class-conditional model with shared covariance.

    Entries must be finite and the covariance symmetric positive definite.
    One eigendecomposition is cached at construction, as ``quant.klt``
    orders it (``eigvals``, ``basis``, ``sd`` = sqrt(eigvals)), with the class
    means in that basis (``means``, rows basis @ mu1 and basis @ mu2) and ``gap``
    = basis @ (mu1 - mu2); on first use, a Cholesky factor, which only
    sampling uses, and the groups of exchangeable eigen-coordinates
    (``groups``), which the engine uses. Instances are immutable and safe to
    share across threads.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)
    means: np.ndarray = field(init=False, repr=False)
    sd: np.ndarray = field(init=False, repr=False)
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
                            ("basis", basis), ("means", np.stack([basis @ mu1, basis @ mu2])),
                            ("sd", np.sqrt(eigvals)), ("gap", basis @ (mu1 - mu2))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mu1.size

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance."""
        return np.linalg.cholesky(self.sigma)

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigen-coordinates grouped by exact equality of their class
        means and eigenvalue, so that a group's coordinates are i.i.d. given
        the class: the first coordinate of each group, in increasing order,
        and each group's size. Identity covariance with a constant mean is
        one group of d; distinct eigenvalues are d groups of one."""
        lam, means = self.eigvals, self.means
        if np.all(lam == lam[0]) and np.all(means == means[:, :1]):
            first, sizes = np.zeros(1, dtype=np.intp), np.full(1, self.dim, dtype=np.intp)
        elif np.all(lam[1:] != lam[:-1]):  # distinct eigenvalues, as they are sorted
            first, sizes = np.arange(self.dim), np.ones(self.dim, dtype=np.intp)
        else:  # a sort, which the cases above do without
            _, first, sizes = np.unique(np.vstack([means, lam]), axis=1,
                                        return_index=True, return_counts=True)
            order = np.argsort(first)
            first, sizes = first[order], sizes[order]
        first.flags.writeable = sizes.flags.writeable = False
        return first, sizes


def discriminant_gain(model: InferenceModel) -> float:
    """Half the squared Mahalanobis distance between the class centroids."""
    return effective_discriminant_gain(model, 0.0)


def effective_discriminant_gain(model: InferenceModel, sigma_q2):
    """Discriminant gain after inflating the covariance by isotropic noise.

    Returns (1/2) dm^T (Sigma + sigma_q2 I)^{-1} dm, evaluated in O(d) as
    (1/2) sum_i c_i^2 / (lambda_i + sigma_q2) over the cached eigenbasis
    (c = ``model.gap``); at sigma_q2 = 0 it is the discriminant gain, and it
    is strictly decreasing in sigma_q2 whenever the centroids differ.
    Elementwise over a 1-D array of noise variances; a float for a scalar.
    """
    gains = _gains(model, sigma_q2)
    return float(gains) if gains.ndim == 0 else gains


def _gains(model: InferenceModel, sigma_q2) -> np.ndarray:
    """``effective_discriminant_gain`` as an array, one (variances x d) sum. The
    bit-level table calls it directly, since the benchmark's tracer
    (``perfbench/tracing.py``) keys each public call by one float variance."""
    s2 = np.asarray(sigma_q2, dtype=float)
    if not np.all(s2 >= 0.0):
        raise ValueError("noise variance must be nonnegative")
    return 0.5 * (model.gap ** 2 / (model.eigvals + s2[..., None])).sum(axis=-1)


def dg_reduction_bounds(model: InferenceModel, sigma_q2: float) -> tuple[float, float]:
    """Lower and upper bounds on the relative gain reduction (D0 - D)/D0.

    lower = sigma_q2 / tr(Sigma + sigma_q2 I),
    upper = sigma_q2 * tr((Sigma + sigma_q2 I)^{-1}).
    """
    if not sigma_q2 >= 0.0:
        raise ValueError("noise variance must be nonnegative")
    inflated = model.eigvals + sigma_q2
    return (sigma_q2 / float(np.sum(inflated)), sigma_q2 * float(np.sum(1.0 / inflated)))


def sample_features(
    model: InferenceModel, class_label: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. feature vectors from the given class, one per row."""
    if class_label not in (1, 2):
        raise ValueError("class_label must be 1 or 2")
    require_counts(1, count=count)
    mu = model.mu1 if class_label == 1 else model.mu2
    z = rng.standard_normal((count, model.dim))
    return mu + z @ model.chol.T


def sensing_error_bound(gain, eps_bar, observations: int):
    """Upper bound on the sequential sensing error with average loss eps_bar.

    (exp(-D/4) + (1 - exp(-D/4)) * eps_bar) ** K, elementwise over arrays of
    gains and losses; a float for scalar arguments.
    """
    require_counts(1, observations=observations)
    gain = _require_gain(gain)
    eps_bar = np.asarray(eps_bar, dtype=float)
    if not np.all((eps_bar >= 0.0) & (eps_bar <= 1.0)):
        raise ValueError("eps_bar must lie in [0, 1]")
    out = _error_bound(gain, eps_bar, observations)
    return float(out) if out.ndim == 0 else out


def _error_bound(gain: np.ndarray, eps_bar: np.ndarray, observations: int) -> np.ndarray:
    """``sensing_error_bound`` of float arrays, without its checks."""
    base = np.exp(-gain / 4.0)
    return (base + (1.0 - base) * eps_bar) ** observations


def sensing_error_exact(gain, eps_bar, observations: int):
    """Exact sensing error when each of the K slots is lost with probability
    eps_bar, independently: ``semi_analytic_error`` with a binomial received
    count, elementwise over arrays of gains and losses; a float for scalar
    arguments."""
    pmf = binomial_pmf(1.0 - np.asarray(eps_bar, dtype=float), observations)
    out = _count_mixed_error(_require_gain(gain), pmf)
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
    pmf = poisson_binomial_pmf(1.0 - loss)
    return float(_count_mixed_error(_require_gain(gain), pmf))


def _count_mixed_error(gain: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Q(sqrt(m D / 2)) mixed over a received-count pmf along its last axis,
    with 1/2 at m = 0, capped at 1/2, and exactly 1/2 at zero gain, for a
    float array of gains, unchecked: a pmf with all its mass at m = 0 gives
    exactly 1/2."""
    cond = q_function(np.sqrt(np.arange(pmf.shape[-1]) * gain[..., None] / 2.0))
    cond[..., 0] = 0.5
    return np.where(gain == 0.0, 0.5, np.minimum(np.sum(pmf * cond, axis=-1), 0.5))


def _require_gain(gain) -> np.ndarray:
    """``gain`` as a float array; ValueError unless every entry is finite and >= 0."""
    require_finite(gain=gain)
    gain = np.asarray(gain, dtype=float)
    if np.any(gain < 0.0):
        raise ValueError("gain must be non-negative")
    return gain
