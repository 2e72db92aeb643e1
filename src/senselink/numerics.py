"""Special functions and discrete-distribution utilities shared by all modules."""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy import special

_LOG_TAIL_SWITCH = 1e-300  # below it, gammaincc nears the subnormal range


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that is NaN or infinite.

    Integers are finite by type (a seed may exceed the float range); anything
    else is checked entry by entry as float.
    """
    for name, value in values.items():
        if isinstance(value, numbers.Integral):
            continue
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite")


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x).

    Computed through the complementary error function, Q(x) = erfc(x/sqrt(2))/2.
    Accepts scalars or numpy arrays; returns a float for scalar input.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / math.sqrt(2.0))
    if out.ndim == 0:
        return float(out)
    return out


def log_regularized_upper_gamma(shape: int, x: float) -> float:
    """log Q(shape, x) for integer shape, stable far into the tail.

    Where Q is a normal float this is the log of scipy's ``gammaincc``;
    further out, the Poisson tail sum exp(-x) sum_{k<shape} x^k / k! is
    added up in log space with one ``logsumexp``.
    """
    if shape < 1 or int(shape) != shape:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    q = float(special.gammaincc(shape, x))
    if q > _LOG_TAIL_SWITCH:
        return math.log(q)
    k = np.arange(int(shape))
    return min(float(special.logsumexp(k * math.log(x) - special.gammaln(k + 1))) - x, 0.0)


def binomial_pmf(success_prob, trials: int) -> np.ndarray:
    """The equal-probability case of ``poisson_binomial_pmf`` in O(K), in log
    space so no binomial coefficient overflows; indexed by the count m = 0..K
    along the last axis, with one row per entry of an array ``success_prob``."""
    p = np.asarray(success_prob, dtype=float)[..., None]
    if trials < 1 or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("need trials >= 1 and success probabilities in [0, 1]")
    m = np.arange(trials + 1)
    log_comb = special.gammaln(trials + 1) - special.gammaln(m + 1) - special.gammaln(trials - m + 1)
    return np.exp(log_comb + special.xlogy(m, p) + special.xlog1py(trials - m, -p))


def poisson_binomial_pmf(success_probs) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli trials.

    Computed by iterative convolution in O(K^2): after processing the i-th
    trial, pmf[m] holds P(M = m) for the first i trials. Returns an array of
    length K + 1 indexed by the success count m = 0..K.
    """
    p = np.asarray(success_probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("success_probs must be a nonempty 1-D sequence")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        head = pmf[: i + 1].copy()
        pmf[: i + 1] = head * (1.0 - pi)
        pmf[1 : i + 2] += head * pi
    return pmf
