"""Entropy-based evaluation of class-conditional generation quality.

Given a per-video class distribution p(y|v) from a classifier, three numbers
summarize a set of videos:

* inter-entropy H(y): entropy of the mean distribution; high means the set
  covers classes evenly (diversity),
* mean intra-entropy H(y|v): average per-video entropy; low means each video
  classifies confidently (realism),
* score exp(H(y) - mean H(y|v)), equivalently exp of the mean KL between
  p(y|v) and the marginal, bounded by [1, K].

Natural logarithms throughout; 0*ln(0) is taken as 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "inter_entropy",
    "mean_intra_entropy",
    "inception_score",
    "MetricsReport",
    "evaluate_with_classifier",
]


def _as_dist_matrix(dists) -> np.ndarray:
    mat = np.asarray(dists, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[None]
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError(f"need a nonempty list of distributions, got shape {mat.shape}")
    if np.min(mat) < 0:
        raise ValueError(f"negative probability {np.min(mat):.3g}")
    sums = mat.sum(axis=1)
    bad = np.argmax(np.abs(sums - 1.0))
    if abs(sums[bad] - 1.0) > 1e-9:
        raise ValueError(f"distribution {bad} sums to {sums[bad]:.12f}, not 1")
    return mat


def _entropy(p: np.ndarray) -> float:
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def inter_entropy(dists) -> float:
    """Entropy of the arithmetic mean of the distributions, in nats."""
    mat = _as_dist_matrix(dists)
    return _entropy(mat.mean(axis=0))


def mean_intra_entropy(dists) -> float:
    """Mean over videos of the per-distribution entropy, in nats."""
    mat = _as_dist_matrix(dists)
    return float(np.mean([_entropy(row) for row in mat]))


def inception_score(dists) -> float:
    """exp(H(y) - mean H(y|v)), computed through the mean-KL identity, which
    hits the boundary cases (uniform -> 1, balanced one-hots -> K) exactly
    in floating point."""
    mat = _as_dist_matrix(dists)
    marginal = mat.mean(axis=0)
    kls = []
    for row in mat:
        nz = row > 0
        kls.append(np.sum(row[nz] * (np.log(row[nz]) - np.log(marginal[nz]))))
    return float(np.exp(np.mean(kls)))


@dataclass(frozen=True)
class MetricsReport:
    K: int
    N: int
    inter_entropy: float
    mean_intra_entropy: float
    inception_score: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_distributions(cls, dists) -> "MetricsReport":
        mat = _as_dist_matrix(dists)
        return cls(
            K=mat.shape[1],
            N=mat.shape[0],
            inter_entropy=inter_entropy(mat),
            mean_intra_entropy=mean_intra_entropy(mat),
            inception_score=inception_score(mat),
        )


def evaluate_with_classifier(clips, predict_proba) -> MetricsReport:
    """Score every clip with `predict_proba(clip) -> (K,)` and build a report."""
    dists = [np.asarray(predict_proba(clip), dtype=np.float64) for clip in clips]
    return MetricsReport.from_distributions(np.stack(dists))
