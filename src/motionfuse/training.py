"""Alternating two-phase training, rollout, and the clip classifier.

The trainer owns all mutable state. Iterations interleave content and
motion phases 3:2: the content phase fits frame reconstruction plus its KL
with the motion stream untouched, the motion phase fits next-frame
prediction, pyramid consistency and the motion KL with every content
parameter frozen. Each phase has its own Adam state. All randomness
(batching, reparameterization noise) comes from seeded substreams, so a
(seed, config, data) triple fully determines the trained parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, model, ops
from .synthdata import Dataset, VideoClip
from .tensor import SeededRng, split_seed


def random_shift(rng: SeededRng, shift: int, *stacks):
    """Shift every sample by one random offset in [-shift, shift] pixels per
    axis, shared by all its frames and by every stack, so a model sees each
    scene at many positions. Stacks are (B, ..., H, W) with a common batch;
    borders replicate the edge pixels. Shift 0 returns the stacks as they
    are and draws nothing."""
    if not shift:
        return list(stacks)
    bsz = stacks[0].shape[0]
    ox = rng.integers(0, 2 * shift + 1, (bsz,))
    oy = rng.integers(0, 2 * shift + 1, (bsz,))
    outs = []
    for stack in stacks:
        h, w = stack.shape[-2:]
        pad = ((0, 0),) * (stack.ndim - 2) + ((shift, shift), (shift, shift))
        padded = np.pad(stack, pad, mode="edge")
        out = np.empty_like(stack)
        for b in range(bsz):
            out[b] = padded[b, ..., oy[b] : oy[b] + h, ox[b] : ox[b] + w]
        outs.append(out)
    return outs


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings; `alpha` is the learning rate of every step."""

    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        # alpha == 0 is allowed as a diagnostic no-op configuration
        if self.alpha < 0:
            raise ValueError("learning rate must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("decay rates must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


class Adam:
    """Adam with bias correction over a dict of ParamSets."""

    def __init__(self, param_sets: dict[str, ops.ParamSet], cfg: OptimizerConfig):
        self.param_sets = param_sets
        self.cfg = cfg
        self.t = 0
        self.m = {}
        self.v = {}
        for sname, ps in param_sets.items():
            for pname, value in ps.items():
                self.m[(sname, pname)] = np.zeros_like(value)
                self.v[(sname, pname)] = np.zeros_like(value)

    def step(self):
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for sname, ps in self.param_sets.items():
            for pname, value in ps.items():
                g = ps.grad(pname)
                m = self.m[(sname, pname)]
                v = self.v[(sname, pname)]
                m *= c.beta1
                m += (1.0 - c.beta1) * g
                v *= c.beta2
                v += (1.0 - c.beta2) * (g * g)
                value -= (c.alpha / bc1) * m / (np.sqrt(v / bc2) + c.eps)


@dataclass(frozen=True)
class TrainConfig:
    """Standard desk-scale run. The optimizer and loss-weight defaults here
    are tuned for the 2000-iteration toy budget; the dataclass defaults of
    OptimizerConfig / LossWeights themselves keep the published full-scale
    values.

    The motion KL weight stays 0 for the first half of the run: until the
    content stream reconstructs well, motion barely lowers the next-frame
    loss, and any KL pressure collapses the motion latent to the prior
    within a few hundred iterations, after which the kernels ignore it. It
    then ramps from 0, not 2: a sudden weight of 2 on a latent holding
    ~200 nats collapsed it at seed 8. It ends at 5; the published 20
    squeezes the latent to about half a nat, and rollouts of every class
    but translation stand still."""

    iterations: int = 2000
    batch_size: int = 64
    seed: int = 7
    content_steps: int = 3  # phase pattern: content x3 then motion x2
    motion_steps: int = 2
    crop_jitter: int = 2  # random shift augmentation, pixels; 0 disables
    weights: losses.LossWeights = field(
        default_factory=lambda: losses.LossWeights(
            l2=0.5, l5_start=0.0, l5_end=5.0, l5_delay=0.5
        )
    )
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(alpha=2e-3, beta1=0.9)
    )

    def __post_init__(self):
        if not isinstance(self.weights, losses.LossWeights):
            raise TypeError(f"weights must be a LossWeights, got {type(self.weights).__name__}")
        if not isinstance(self.optimizer, OptimizerConfig):
            raise TypeError(
                f"optimizer must be an OptimizerConfig, got {type(self.optimizer).__name__}"
            )
        for name in ("iterations", "content_steps", "motion_steps", "crop_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.content_steps + self.motion_steps == 0:
            raise ValueError("the phase cycle is empty: content_steps + motion_steps is 0")


class Trainer:
    def __init__(self, bundle: model.ModelBundle, dataset: Dataset, cfg: TrainConfig):
        self.bundle = bundle
        self.cfg = cfg
        self.data = dataset
        self.train_ids = np.asarray(dataset.train_ids, dtype=np.int64)
        if len(self.train_ids) == 0:
            raise ValueError("dataset has no training clips")
        self.batch_rng = SeededRng(split_seed(cfg.seed, 0))
        self.noise_rng = SeededRng(split_seed(cfg.seed, 1))
        self.opt_content = Adam(bundle.content_sets(), cfg.optimizer)
        self.opt_motion = Adam(bundle.motion_sets(), cfg.optimizer)
        self.iteration = 0

    def phase(self, iteration: int) -> str:
        cycle = self.cfg.content_steps + self.cfg.motion_steps
        return "content" if iteration % cycle < self.cfg.content_steps else "motion"

    def _sample_batch(self):
        """(x_t, x_next, labels): one random transition per sample."""
        bsz = self.cfg.batch_size
        t_max = self.data.clips.shape[1] - 1
        ids = self.train_ids[self.batch_rng.integers(0, len(self.train_ids), (bsz,))]
        ts = self.batch_rng.integers(0, t_max, (bsz,))
        x_t, x_next = self.data.clips[ids, ts], self.data.clips[ids, ts + 1]
        labels = self.data.labels[ids]
        x_t, x_next = random_shift(self.batch_rng, self.cfg.crop_jitter, x_t, x_next)
        return x_t, x_next, labels

    def _content_step(self, x_t, onehot, eta_c):
        w = self.cfg.weights
        cp = model.content_pass(self.bundle, x_t, onehot, eta_c)
        recon = losses.l2_loss(cp.x, x_t)
        kl = losses.kl_to_standard_normal(cp.q)
        total = losses.total_content_loss(w, recon, kl)
        self._guard_finite(total, {"recon": recon, "kl": kl})

        self.bundle.zero_grads()
        kg_mean, kg_logvar = losses.kl_to_standard_normal_grad(cp.q)
        cp.backward(
            self.bundle,
            d_x=w.l1 * losses.l2_loss_grad(cp.x, x_t),
            d_q=(w.l2 * kg_mean, w.l2 * kg_logvar),
        )
        self.opt_content.step()
        return {"phase": "content", "recon": recon, "kl": kl, "total": total}

    def _motion_step(self, x_t, x_next, labels, onehot, eta_c, eta_m):
        w = self.cfg.weights
        # the content stream is frozen: its pass decodes no x_recon and
        # keeps no caches, as the motion backward reads none of them
        res = model.forward_next_frame(
            self.bundle, x_t, x_next - x_t, labels, eta_c, eta_m, content=False
        )
        # consistency target: the frozen content pass on the next frame at
        # its posterior mean; nothing backpropagates into it
        zeros = np.zeros_like(eta_c)
        target_pyramid = model.content_pass(self.bundle, x_next, onehot, zeros, head=False).pyramid

        consistency = losses.content_consistency_loss(res.refined, target_pyramid)
        video_recon = losses.l2_loss(res.x_next, x_next)
        kl = losses.kl_to_standard_normal(res.q_m)
        lam5 = w.lambda5_at(self.iteration, self.cfg.iterations)
        total = losses.total_motion_loss(w, consistency, video_recon, kl, lam5)
        terms = {"consistency": consistency, "video_recon": video_recon, "kl": kl}
        self._guard_finite(total, terms)

        self.bundle.zero_grads()
        d_refined = [
            w.l3 * g for g in losses.content_consistency_loss_grad(res.refined, target_pyramid)
        ]
        kg_mean, kg_logvar = losses.kl_to_standard_normal_grad(res.q_m)
        model.backward_next_frame(
            self.bundle,
            res,
            d_x_next=w.l4 * losses.l2_loss_grad(res.x_next, x_next),
            d_refined=d_refined,
            d_q_m=(lam5 * kg_mean, lam5 * kg_logvar),
            content=False,
            motion=True,
        )
        self.opt_motion.step()
        return {"phase": "motion", **terms, "lambda5": lam5, "total": total}

    def _guard_finite(self, total, terms):
        if not np.isfinite(total):
            dump = ", ".join(f"{k}={v:.6g}" for k, v in terms.items())
            raise RuntimeError(
                f"non-finite loss at iteration {self.iteration}: total={total} ({dump})"
            )

    def train_step(self) -> dict:
        x_t, x_next, labels = self._sample_batch()
        cfg, bsz = self.bundle.config, x_t.shape[0]
        onehot = model.one_hot(labels, cfg.classes, x_t.dtype)
        # both phases draw both noises, so the stream stays aligned across them
        eta_c = self.noise_rng.normals((bsz, cfg.latent_c), dtype=x_t.dtype)
        eta_m = self.noise_rng.normals((bsz, cfg.latent_m), dtype=x_t.dtype)
        if self.phase(self.iteration) == "content":
            stats = self._content_step(x_t, onehot, eta_c)
        else:
            stats = self._motion_step(x_t, x_next, labels, onehot, eta_c, eta_m)
        self.iteration += 1
        stats["iteration"] = self.iteration
        return stats

    def train(self, iterations=None, log_every=0):
        history = []
        for _ in range(iterations if iterations is not None else self.cfg.iterations):
            stats = self.train_step()
            history.append(stats)
            if log_every and stats["iteration"] % log_every == 0:
                keys = [k for k in ("recon", "video_recon", "kl") if k in stats]
                msg = " ".join(f"{k}={stats[k]:.5f}" for k in keys)
                print(f"[{stats['iteration']:5d}] {stats['phase']:7s} {msg}")
        return history


# ---------------------------------------------------------------------------
# evaluation helpers


def copy_baseline_l2(dataset: Dataset, ids) -> float:
    """Mean next-frame L2 of the copy-last-frame predictor (the baseline oracle)."""
    vals = []
    for i in ids:
        clip = dataset.clips[i]
        for t in range(clip.shape[0] - 1):
            vals.append(losses.l2_loss(clip[t], clip[t + 1]))
    return float(np.mean(vals))


def model_next_frame_l2(bundle: model.ModelBundle, dataset: Dataset, ids) -> float:
    """Mean next-frame L2 of the model with zero latent noise."""
    cfg = bundle.config
    vals = []
    for i in ids:
        x_t, x_next = dataset.clips[i][:-1], dataset.clips[i][1:]
        n = len(x_t)
        zeros_c = np.zeros((n, cfg.latent_c), dtype=x_t.dtype)
        zeros_m = np.zeros((n, cfg.latent_m), dtype=x_t.dtype)
        labels = np.full(n, dataset.labels[i])
        res = model.forward_next_frame(bundle, x_t, x_next - x_t, labels, zeros_c, zeros_m)
        vals += [losses.l2_loss(pred, true) for pred, true in zip(res.x_next, x_next)]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# rollout


def rollout(
    bundle: model.ModelBundle,
    action: int,
    rng: SeededRng,
    frames: int = 10,
    heatup: int = 2,
) -> VideoClip:
    """Generate a clip from prior samples.

    The first frame decodes a prior content draw; afterwards the pyramid is
    carried forward and refined once per step with kernels and masks decoded
    from (re-encoded content embedding, convLSTM motion embedding). The first
    `heatup` steps are discarded.
    """
    if frames < 1 or heatup < 0:
        raise ValueError(f"rollout needs frames >= 1 and heatup >= 0, got {frames} and {heatup}")
    cfg = bundle.config
    dtype = bundle.gen_c.value("head.out.w").dtype
    onehot = model.one_hot([action], cfg.classes, dtype)

    eps_c = rng.normals((1, cfg.latent_c), dtype=dtype)
    pyramid, _ = model.decode_content(bundle, eps_c, onehot)
    x, _ = model.decode_head(bundle, pyramid[-1])

    h = c = None
    seq = [x[0]]
    for _ in range(heatup + frames - 1):
        eps_m = rng.normals((1, cfg.latent_m), dtype=dtype)
        h, c, _ = model.lstm_embed(bundle, eps_m, h, c)
        q = model.encode(bundle.enc_c, cfg, x, onehot, cfg.latent_c)[0]
        step = model.motion_pass(bundle, pyramid, q.mean, h, onehot)
        pyramid, x = step.refined, step.x
        del step  # and its caches: nothing backpropagates through a rollout
        seq.append(x[0])
    out = np.stack(seq[heatup : heatup + frames]).astype(np.float32)
    return VideoClip(
        frames=out,
        action=int(action),
        action_name=f"class-{action}",
        shape_id=-1,
        background_id=-1,
        seed=int(rng.seed),
    )


# ---------------------------------------------------------------------------
# classifier training


@dataclass(frozen=True)
class ClassifierConfig:
    """Clip-classifier run. Each training clip is shifted by up to `shift`
    pixels (the trainer's augmentation); without it the classifier fits
    its training clips exactly (on the 4-class acceptance dataset at seed
    13: held-out accuracy 0.80 without the shift, 0.975 with it)."""

    iterations: int = 1200
    batch_size: int = 16
    seed: int = 13
    alpha: float = 1e-3
    shift: int = 3

    def __post_init__(self):
        for name in ("iterations", "shift", "alpha"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


def train_classifier(dataset: Dataset, cfg: model.ModelConfig, ccfg: ClassifierConfig = ClassifierConfig()):
    """Fit the small clip classifier on the train split with cross-entropy."""
    params = model.build_classifier(cfg, SeededRng(split_seed(ccfg.seed, 0)))
    opt = Adam({"cls": params}, OptimizerConfig(alpha=ccfg.alpha, beta1=0.9, beta2=0.999))
    batch_rng = SeededRng(split_seed(ccfg.seed, 1))
    shift_rng = SeededRng(split_seed(ccfg.seed, 2))
    ids = np.asarray(dataset.train_ids, dtype=np.int64)
    for _ in range(ccfg.iterations):
        pick = ids[batch_rng.integers(0, len(ids), (ccfg.batch_size,))]
        (clips,) = random_shift(shift_rng, ccfg.shift, dataset.clips[pick])
        labels = dataset.labels[pick]
        logits, cache = model.classifier_forward(params, cfg, clips)
        loss = losses.aux_class_loss(logits, labels)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite classifier loss: {loss}")
        params.zero_grads()
        model.classifier_backward(params, cache, losses.aux_class_loss_grad(logits, labels))
        opt.step()
    return params


def classifier_accuracy(params: ops.ParamSet, cfg: model.ModelConfig, dataset: Dataset, ids) -> float:
    clips = dataset.clips[np.asarray(ids, dtype=np.int64)]
    labels = dataset.labels[np.asarray(ids, dtype=np.int64)]
    probs = model.classifier_probs(params, cfg, clips)
    return float(np.mean(np.argmax(probs, axis=1) == labels))
