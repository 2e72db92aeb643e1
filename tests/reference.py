"""Per-trial scoring and classification, kept as test oracles.

The engine in ``senselink.harness`` folds decoding, scoring and the decision
into block-wide array operations; these functions spell out the textbook
per-episode rule that the engine is checked against.
"""

import numpy as np


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
