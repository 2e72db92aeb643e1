"""Argument rules, special functions, the root-finder and discrete-distribution utilities."""

from __future__ import annotations

import math
import numbers
import reprlib

import numpy as np
from scipy import special

_LOG_TAIL_SWITCH = 1e-300  # below it, gammaincc nears the subnormal range
_ROOT_MAX_STEPS = 100


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that is a string, NaN or infinite.

    Integers are finite by type (a seed may exceed the float range); anything
    else is checked entry by entry as float.
    """
    for name, value in values.items():
        if isinstance(value, (str, bytes)):
            raise ValueError(f"{name} must be a number, not {reprlib.repr(value)}")
        if isinstance(value, numbers.Integral):
            continue
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite")


def require_counts(least: int, **counts) -> None:
    """Raise ValueError naming the first of ``counts`` not an integer >= ``least``; a bool is not one."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {reprlib.repr(value)}")
        if value < least:
            raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, not {value}")


def require_positive(**values) -> None:
    """Raise ValueError naming the first value with an entry that is not > 0, NaN included."""
    for name, value in values.items():
        if not np.all(np.asarray(value, dtype=float) > 0.0):
            raise ValueError(f"{name} must be positive")


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
    require_counts(1, shape=shape)
    if not x >= 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    q = float(special.gammaincc(shape, x))
    if q > _LOG_TAIL_SWITCH:
        return math.log(q)
    k = np.arange(int(shape))
    return min(float(special.logsumexp(k * math.log(x) - special.gammaln(k + 1))) - x, 0.0)


def find_root(f, x, end_values=None):
    """Root of a monotone f: Newton steps where its slope is at hand, Illinois
    steps on a bracket otherwise; RuntimeError after 100 steps.

    Without ``end_values``, x is an array of starts, one problem per row of its
    last axis, and f(x) returns (f, f'); a row stops once every |step| in it is
    at most 1e-9 |x|, whatever the other rows do. With them, x is a bracket
    (lo, hi) of floats whose f values ``end_values`` have opposite signs. Each
    step is then the secant to the far end, whose value halves each time that
    end is kept (Dowell and Jarratt, BIT 1971); a bisection once it has been
    kept 4 times in a row, as a secant creeps where f spans many orders of
    magnitude; and at least 5e-10 |x| long, so that a converged point steps
    across the root. The root is a point where f is 0, or else the secant of
    the first bracket at most 1e-9 |x| wide.
    """
    if end_values is None:
        done = np.zeros(x.shape[:-1], dtype=bool)
        for _ in range(_ROOT_MAX_STEPS):
            step = np.divide(*f(x))
            step[done] = 0.0
            x = x - step
            # Newton's error squares at each step, so a step below 1e-9 x
            # leaves an error near 1e-18 x
            done |= (np.abs(step) <= 1e-9 * np.abs(x)).all(axis=-1)
            if done.all():
                return x
    else:
        # one scalar problem: float operations cost far less than array calls here
        (far, x), (f_far, fx), weight = x, end_values, 1.0  # weight of the far end's value
        for _ in range(_ROOT_MAX_STEPS):
            if fx == 0.0 or abs(x - far) <= 1e-9 * abs(x):
                return x - fx * (x - far) / (fx - f_far)
            part = fx / (fx - weight * f_far) if weight > 0.0625 else 0.5
            new = x - math.copysign(max(abs(part * (x - far)), 5e-10 * abs(x)), x - far)
            f_new = f(new)
            if (f_new > 0.0) != (fx > 0.0):  # signs, not a product that can underflow
                far, f_far, weight = x, fx, 1.0
            else:
                weight = max(0.5 * weight, 0.0625)
            x, fx = new, f_new
    raise RuntimeError(f"root-finding did not converge in {_ROOT_MAX_STEPS} steps")


def binomial_pmf(success_prob, trials: int) -> np.ndarray:
    """The equal-probability case of ``poisson_binomial_pmf`` in O(K), in log
    space so no binomial coefficient overflows; indexed by the count m = 0..K
    along the last axis, with one row per entry of an array ``success_prob``."""
    require_counts(1, trials=trials)
    p = np.asarray(success_prob, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    return _binomial_pmf(p, trials)


def _binomial_pmf(p: np.ndarray, trials: int) -> np.ndarray:
    """``binomial_pmf`` of a float array of probabilities, without its checks."""
    p = p[..., None]
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
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        head = pmf[: i + 1].copy()
        pmf[: i + 1] = head * (1.0 - pi)
        pmf[1 : i + 2] += head * pi
    return pmf
