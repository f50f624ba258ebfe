"""Training objectives as pure scalar functions with explicit gradients.

Each loss exposes `<name>(...) -> float` and `<name>_grad(...) -> gradient(s)`
computed in closed form; gradient functions recompute cheap intermediates
rather than carrying caches. Reductions are means over batch (and pixels for
the L2 losses), so loss magnitudes are size-independent and the configured
weights carry all scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError


@dataclass
class GaussianParams:
    """Diagonal Gaussian posterior: (batch, dim) mean and log-variance."""

    mean: np.ndarray
    logvar: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.logvar.shape:
            raise ShapeError(f"mean {self.mean.shape} and logvar {self.logvar.shape} must match")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.logvar))):
            raise ValueError("GaussianParams entries must be finite")

    def sample(self, eta: np.ndarray) -> np.ndarray:
        """Reparameterized draw mean + exp(logvar/2) * eta."""
        return self.mean + np.exp(0.5 * self.logvar) * eta


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative loss weights. The KL weight of the motion stream is 0 for
    the first `l5_delay` fraction of training (KL warm-up, Bowman et al.
    2016), then ramps linearly from `l5_start` to `l5_end`."""

    l1: float = 1e4
    l2: float = 7.0
    l3: float = 1e2
    l4: float = 1e4
    l5_start: float = 2.0
    l5_end: float = 20.0
    l5_delay: float = 0.0

    def __post_init__(self):
        vals = (self.l1, self.l2, self.l3, self.l4, self.l5_start, self.l5_end)
        if any(v < 0 for v in vals):
            raise ValueError(f"loss weights must be nonnegative: {vals}")
        if self.l5_start > self.l5_end:
            raise ValueError("l5 schedule must be non-decreasing")
        if not 0.0 <= self.l5_delay < 1.0:
            raise ValueError(f"l5 delay must lie in [0, 1), got {self.l5_delay}")

    def lambda5_at(self, iteration: int, total: int) -> float:
        if total <= 0:
            return self.l5_end
        start = self.l5_delay * total
        if iteration < start:
            return 0.0
        frac = min(max((iteration - start) / (total - start), 0.0), 1.0)
        return self.l5_start + (self.l5_end - self.l5_start) * frac


def l2_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared difference over every element."""
    if pred.shape != target.shape:
        raise ShapeError(f"l2_loss shapes differ: {pred.shape} vs {target.shape}")
    d = pred - target
    return float(np.mean(d * d))


def l2_loss_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(loss)/d(pred) = 2 (pred - target) / N."""
    return (2.0 / pred.size) * (pred - target)


def kl_to_standard_normal(q: GaussianParams) -> float:
    """KL(q || N(0, I)): 0.5 sum(sigma^2 + mu^2 - 1 - log sigma^2), batch mean."""
    var = np.exp(q.logvar)
    per_sample = 0.5 * np.sum(var + q.mean**2 - 1.0 - q.logvar, axis=1)
    return float(np.mean(per_sample))


def kl_to_standard_normal_grad(q: GaussianParams):
    """(d/d mean, d/d logvar) of the batch-mean KL."""
    bsz = q.mean.shape[0]
    dmean = q.mean / bsz
    dlogvar = 0.5 * (np.exp(q.logvar) - 1.0) / bsz
    return dmean, dlogvar


def _check_labels(logits, labels):
    labels = np.atleast_1d(np.asarray(labels))
    logits = np.atleast_2d(logits)
    if labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {logits.shape[0]} logit rows")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(
            f"label out of range [0, {logits.shape[1]}): {labels.min()}..{labels.max()}"
        )
    return logits, labels


def _log_softmax(logits):
    m = np.max(logits, axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def aux_class_loss(logits, labels) -> float:
    """Cross-entropy -ln softmax(logits)[label], batch mean."""
    logits, labels = _check_labels(logits, labels)
    logp = _log_softmax(logits)
    return float(-np.mean(logp[np.arange(len(labels)), labels]))


def aux_class_loss_grad(logits, labels) -> np.ndarray:
    """(softmax(logits) - one_hot(label)) / batch."""
    logits, labels = _check_labels(logits, labels)
    p = np.exp(_log_softmax(logits))
    p[np.arange(len(labels)), labels] -= 1.0
    return p / len(labels)


def content_consistency_loss(refined_prev, current) -> float:
    """Sum over scales of the per-scale mean squared difference."""
    _check_pyramids(refined_prev, current)
    return float(sum(l2_loss(a, b) for a, b in zip(refined_prev, current)))


def content_consistency_loss_grad(refined_prev, current):
    """Per-scale gradients w.r.t. the refined pyramid."""
    _check_pyramids(refined_prev, current)
    return [l2_loss_grad(a, b) for a, b in zip(refined_prev, current)]


def _check_pyramids(a, b):
    if len(a) != len(b):
        raise ValueError(f"pyramid scale counts differ: {len(a)} vs {len(b)}")
    for s, (x, y) in enumerate(zip(a, b)):
        if x.shape != y.shape:
            raise ShapeError(f"scale {s} shapes differ: {x.shape} vs {y.shape}")


def total_content_loss(weights: LossWeights, recon: float, kl: float) -> float:
    return weights.l1 * recon + weights.l2 * kl


def total_motion_loss(
    weights: LossWeights, consistency: float, video_recon: float, kl_sum: float, lam5: float
) -> float:
    return weights.l3 * consistency + weights.l4 * video_recon + lam5 * kl_sum
