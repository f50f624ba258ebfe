"""Correctness checks of the benchmark, made apart from the program.

Each check compares a program output with a computation made here (nested
loops in float64, the benchmark's own loss, its own formula) or with a
property the method must have. Every check takes the output it judges as
an argument and raises `CheckFailed` when the output is wrong, so that
`test_checks.py` can hand each one a wrong output and see it rejected.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's reference."""


def _close(got, want, rtol, what):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != reference {want.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed(f"{what}: non-finite entries")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    if err > rtol * scale:
        raise CheckFailed(f"{what}: max abs error {err:.3e} > {rtol * scale:.3e}")


# ---------------------------------------------------------------------------
# train


def conv2d_reference(x, w, b, stride, pad):
    """Cross-correlation of (B, C, H, W) with (O, C, k, k) weights by
    nested loops over samples, output channels and output pixels."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((bsz, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    y = np.empty((bsz, cout, ho, wo))
    for n in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    y[n, o, i, j] = float(b[o]) + float(np.sum(patch * w[o]))
    return y


def check_conv(y, x, w, b, stride, pad, samples=(0, 1)):
    """`y` is the program's conv output for the whole batch `x`; the listed
    samples are recomputed by nested loops."""
    idx = list(samples)
    ref = conv2d_reference(np.asarray(x)[idx], w, b, stride, pad)
    _close(np.asarray(y)[idx], ref, 1e-5, "conv2d")


def check_directional_derivative(grads, direction, loss_at, eps=1e-6, rtol=1e-5, atol=1e-6):
    """The analytic derivative along a unit `direction` (sum of grads *
    direction over every parameter) against the central difference of
    `loss_at(t)`, the loss with every parameter moved by t * direction.
    In float64 the two agreed within 7e-8 over 40 seeds of the default
    model; `atol` covers the rounding of the difference quotient when the
    derivative itself is small."""
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in direction)
    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    if not np.isfinite(analytic) or abs(analytic - numeric) > rtol * max(abs(analytic), abs(numeric)) + atol:
        raise CheckFailed(
            f"directional derivative: analytic {analytic:.12g} vs central difference {numeric:.12g}"
        )
    return analytic, numeric


def check_finite_losses(stats):
    """Every loss term a training step reports is finite."""
    for key, value in stats.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise CheckFailed(f"non-finite {key} = {value} at iteration {stats.get('iteration')}")


def mean_squared(a, b) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d))


def check_recon_improved(before, after):
    if not (np.isfinite(after) and after < before):
        raise CheckFailed(f"held-out reconstruction L2 {after:.6g} not below initial {before:.6g}")


def check_params_equal(saved, loaded):
    """Two {set: ParamSet} maps hold the same names, shapes, dtypes and bits."""
    if sorted(saved) != sorted(loaded):
        raise CheckFailed(f"parameter sets {sorted(loaded)} != {sorted(saved)}")
    for sname, ps in saved.items():
        other = dict(loaded[sname].items())
        mine = dict(ps.items())
        if list(mine) != list(other):
            raise CheckFailed(f"{sname}: parameter names differ")
        for pname, value in mine.items():
            got = other[pname]
            if got.dtype != value.dtype or got.shape != value.shape:
                raise CheckFailed(f"{sname}/{pname}: {got.dtype}{got.shape} != {value.dtype}{value.shape}")
            if np.ascontiguousarray(got).tobytes() != np.ascontiguousarray(value).tobytes():
                raise CheckFailed(f"{sname}/{pname}: bits differ after reload")


# ---------------------------------------------------------------------------
# generate


def fusion_reference(h, wv, wh, m):
    """Per-pixel separable convolution with replicate padding, then the mask
    blend m * refined + (1 - m) * h, by nested loops over samples and
    pixels. h (B, C, H, W); wv, wh (B, H, W, n); m (B, H, W)."""
    h = np.asarray(h, dtype=np.float64)
    bsz, _, hh, ww = h.shape
    n = wv.shape[-1]
    r = n // 2
    out = np.empty_like(h)
    for b in range(bsz):
        for y in range(hh):
            for x in range(ww):
                acc = np.zeros(h.shape[1])
                for u in range(n):
                    for v in range(n):
                        yy = min(max(y + u - r, 0), hh - 1)
                        xx = min(max(x + v - r, 0), ww - 1)
                        acc += float(wv[b, y, x, u]) * float(wh[b, y, x, v]) * h[b, :, yy, xx]
                mk = float(m[b, y, x])
                out[b, :, y, x] = mk * acc + (1.0 - mk) * h[b, :, y, x]
    return out


def check_fusion_step(refined, pyramid, kernels, masks):
    """`refined` is the program's fused pyramid for (pyramid, kernels, masks);
    kernels carry `.wv` and `.wh` of shape (B, H, W, n)."""
    if len(refined) != len(pyramid):
        raise CheckFailed(f"{len(refined)} refined scales for {len(pyramid)} pyramid scales")
    for s, (got, h, k, m) in enumerate(zip(refined, pyramid, kernels, masks)):
        _close(got, fusion_reference(h, k.wv, k.wh, m), 1e-5, f"fusion scale {s}")


def check_frames(frames):
    frames = np.asarray(frames)
    if not np.all(np.isfinite(frames)):
        raise CheckFailed("non-finite frame values")
    lo, hi = float(np.min(frames)), float(np.max(frames))
    if lo < -1.0 or hi > 1.0:
        raise CheckFailed(f"frame values span [{lo:.6g}, {hi:.6g}], outside [-1, 1]")


def check_identical(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
        raise CheckFailed(f"{what}: not bit-identical")


def inception_score_reference(dists) -> float:
    p = np.asarray(dists, dtype=np.float64)
    marginal = p.mean(axis=0)
    kl = [sum(pi * np.log(pi / mi) for pi, mi in zip(row, marginal) if pi > 0) for row in p]
    return float(np.exp(np.mean(kl)))


def check_scores(dists, score, k):
    """Every distribution sums to 1 with no negative entry; the score lies
    in [1, K] and equals exp(mean KL(p || marginal)) computed here."""
    p = np.asarray(dists, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != k:
        raise CheckFailed(f"score distributions of shape {p.shape}, expected (N, {k})")
    if np.min(p) < 0:
        raise CheckFailed(f"negative probability {np.min(p):.3g}")
    worst = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    if worst > 1e-12:
        raise CheckFailed(f"a score distribution sums to 1 {worst:+.3e}")
    if not 1.0 - 1e-12 <= score <= k + 1e-12:
        raise CheckFailed(f"inception score {score:.6g} outside [1, {k}]")
    ref = inception_score_reference(p)
    if abs(score - ref) > 1e-9 * ref:
        raise CheckFailed(f"inception score {score:.12g} != reference {ref:.12g}")


def copy_baseline_reference(clips) -> float:
    """Mean over clips and transitions of the per-frame mean squared
    difference between consecutive frames, in float64."""
    vals = [mean_squared(c[t], c[t + 1]) for c in clips for t in range(c.shape[0] - 1)]
    return float(np.mean(vals))


def check_copy_baseline(value, clips):
    ref = copy_baseline_reference(clips)
    if not abs(value - ref) <= 1e-6 * ref:
        raise CheckFailed(f"copy baseline {value:.10g} != reference {ref:.10g}")


# ---------------------------------------------------------------------------
# gen-data


def check_moving_clip(frames):
    for t in range(len(frames) - 1):
        if np.array_equal(frames[t], frames[t + 1]):
            raise CheckFailed(f"frame {t + 1} repeats frame {t} in a moving clip")


def check_static_clip(frames):
    for t in range(1, len(frames)):
        if not np.array_equal(frames[t], frames[0]):
            raise CheckFailed(f"frame {t} of a static clip differs from frame 0")


def smv1_length(n, t, c, h, w) -> int:
    """Magic (4) + seven u32 header fields, then per clip a u16 label, a u64
    seed and T*C*H*W float32 values."""
    return 4 + 7 * 4 + n * (2 + 8 + t * c * h * w * 4)


def check_file_length(nbytes, n, t, c, h, w):
    want = smv1_length(n, t, c, h, w)
    if nbytes != want:
        raise CheckFailed(f"SMV1 file of {nbytes} bytes, header formula gives {want}")


def check_split(manifest, clips_per_class):
    """Clip ids run class-major; within each class the first 80% are train
    and the rest test, and every clip is labelled with its class."""
    train = set(manifest["split"]["train"])
    test = set(manifest["split"]["test"])
    n_train = clips_per_class * 4 // 5
    for ci in range(len(manifest["classes"])):
        ids = range(ci * clips_per_class, (ci + 1) * clips_per_class)
        want_train = set(ids[:n_train])
        want_test = set(ids[n_train:])
        if train & set(ids) != want_train or test & set(ids) != want_test:
            raise CheckFailed(f"class {ci}: split is not the first 80% train, last 20% test")
    n = clips_per_class * len(manifest["classes"])
    if len(train) + len(test) != n or train & test:
        raise CheckFailed("split does not partition the clips")
    for entry in manifest["clips"]:
        if entry["action"] != entry["id"] // clips_per_class:
            raise CheckFailed(f"clip {entry['id']} labelled {entry['action']}")


def check_dataset_clips(clips, manifest):
    """Range, and motion on every transition of a moving class, stillness
    in every static clip."""
    check_frames(clips)
    for entry in manifest["clips"]:
        frames = clips[entry["id"]]
        if manifest["classes"][entry["action"]] == "static":
            check_static_clip(frames)
        else:
            check_moving_clip(frames)


def check_rerender(clips, manifest, render):
    """Every stored clip is bit-equal to `render(class_name, seed)` for the
    seed the manifest lists."""
    for entry in manifest["clips"]:
        again = render(manifest["classes"][entry["action"]], entry["seed"])
        check_identical(clips[entry["id"]], again, f"clip {entry['id']} rendered again")


def check_bytes_identical(a: bytes, b: bytes, what):
    if a != b:
        at = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y) if len(a) == len(b) else None
        raise CheckFailed(f"{what}: not byte-identical (lengths {len(a)}, {len(b)}; first difference {at})")
