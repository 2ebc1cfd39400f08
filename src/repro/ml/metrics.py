"""Classification metrics.

The paper's headline defense result (Fig. 6) is stated in terms of the
Matthews Correlation Coefficient (MCC) of the occupancy-detection attack, so
MCC is the load-bearing metric here; the rest support the NIOM accuracy
claims (Sec. II-A) and the network fingerprinting evaluation (Sec. IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_labels(y) -> np.ndarray:
    array = np.asarray(y)
    if array.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class BinaryCounts:
    """True/false positive/negative counts for a binary problem."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def binary_counts(y_true, y_pred, positive=1) -> BinaryCounts:
    y_true = _as_labels(y_true)
    y_pred = _as_labels(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred length mismatch")
    t = y_true == positive
    p = y_pred == positive
    return BinaryCounts(
        tp=int(np.sum(t & p)),
        fp=int(np.sum(~t & p)),
        tn=int(np.sum(~t & ~p)),
        fn=int(np.sum(t & ~p)),
    )


def accuracy(y_true, y_pred) -> float:
    y_true = _as_labels(y_true)
    y_pred = _as_labels(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred length mismatch")
    if len(y_true) == 0:
        raise ValueError("cannot score zero samples")
    return float(np.mean(y_true == y_pred))


def precision(y_true, y_pred, positive=1) -> float:
    c = binary_counts(y_true, y_pred, positive)
    return c.tp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0


def recall(y_true, y_pred, positive=1) -> float:
    c = binary_counts(y_true, y_pred, positive)
    return c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0


def f1_score(y_true, y_pred, positive=1) -> float:
    p = precision(y_true, y_pred, positive)
    r = recall(y_true, y_pred, positive)
    return 2 * p * r / (p + r) if (p + r) else 0.0


def mcc(y_true, y_pred) -> float:
    """Matthews Correlation Coefficient, with 1 the positive label.

    Ranges over [-1, 1]: 1.0 is perfect detection, 0.0 random prediction,
    -1.0 always-wrong (Matthews 1975, ref. [28] of the paper).  By the
    standard convention, degenerate cases where any marginal is empty (e.g.
    the classifier always answers the same class) score 0.0 — equivalent to
    random prediction, which is exactly the behaviour a masking defense aims
    to induce in the attacker.
    """
    c = binary_counts(y_true, y_pred)
    denom = math.sqrt(
        float(c.tp + c.fp) * float(c.tp + c.fn) * float(c.tn + c.fp) * float(c.tn + c.fn)
    )
    if denom == 0.0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / denom


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean of per-class F1 scores (multiclass)."""
    y_true = _as_labels(y_true)
    y_pred = _as_labels(y_pred)
    classes = np.unique(np.concatenate([y_true, y_pred]))
    return float(np.mean([f1_score(y_true, y_pred, positive=c) for c in classes]))
