"""The training losses of one example, in plain Python: the oracle of
`scorer.batch_loss_and_gradient`, which takes their mean over a batch."""

from __future__ import annotations

import math


def hinge_loss(y_pos: float, y_neg: float) -> float:
    """max(0, 1 - y_pos + y_neg)."""
    return max(0.0, 1.0 - y_pos + y_neg)


def pointwise_ce_loss(y: float, label: int) -> float:
    """Logistic cross-entropy of a raw score, numerically stable."""
    # max(y,0) - y*label + log(1 + exp(-|y|))
    return max(y, 0.0) - y * label + math.log1p(math.exp(-abs(y)))
