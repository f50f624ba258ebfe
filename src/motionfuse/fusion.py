"""Per-pixel adaptive convolution and mask-guided multi-scale motion fusion.

A content feature map is refined one output pixel at a time: every location
(a, b) owns its own small kernel, applied to the replicate-padded n x n
neighborhood around (a, b) and shared across all channels. A per-pixel mask
in [0, 1] then blends the refined value with the original, so a zero mask
preserves the input exactly. Kernels come in two layouts:

* dense   -- one flattened n*n vector per pixel,
* separable -- a vertical and a horizontal length-n vector per pixel whose
  outer product recovers the dense kernel at a per-pixel storage cost of
  2n instead of n*n.

Both layouts run the same taps. The field becomes one (B, H, W) weight
map per tap (u, v) -- for a separable field the product wv[u] * wh[v] --
and the output is the sum over the n*n taps of that map times the padded
content shifted by (u, v). The forward takes the shifted content of every
tap as one strided (n, n, B, C, H, W) window view, with no copy, and per
block of the batch runs one broadcast multiply of all taps and one
reduction that adds them in tap order from +0.0, bit for bit the per-tap
multiply-add it replaced. The backward loops over the taps: each tap's
weight gradient is the channel sum of the shifted content times the
upstream gradient, and the content gradient (skipped when the caller does
not need it) scatters the weighted upstream gradient back through the same
shifts onto the padded map.

Content maps are (C, H, W) or batched (B, C, H, W); kernel fields follow
with (H, W, n)/(H, W, n*n) plus an optional leading batch axis; masks are
(H, W) or (B, H, W). An unbatched field or mask is shared by every sample;
a batched one must have the batch of batched content. Forward functions
return (output, cache) and the matching backward returns gradients for
every input, as in `ops`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import _BLOCK_BYTES, _windows, _work_buffer
from .tensor import ShapeError

__all__ = [
    "SeparableKernelField",
    "DenseKernelField",
    "expand_kernel",
    "flatten_kernel",
    "identity_separable",
    "adaptive_conv_forward",
    "adaptive_conv_backward",
    "mask_blend_forward",
    "mask_blend_backward",
    "mask_activation_forward",
    "mask_activation_backward",
    "fuse_pyramid_forward",
    "fuse_pyramid_backward",
    "kernel_param_count",
]


@dataclass
class SeparableKernelField:
    """Per-pixel vertical/horizontal kernel vectors, (..., H, W, n) each."""

    wv: np.ndarray
    wh: np.ndarray

    def __post_init__(self):
        if self.wv.shape != self.wh.shape:
            raise ShapeError(f"wv {self.wv.shape} and wh {self.wh.shape} must match")

    @property
    def n(self) -> int:
        return self.wv.shape[-1]


@dataclass
class DenseKernelField:
    """Per-pixel flattened n*n kernels, (..., H, W, n*n)."""

    w: np.ndarray

    def __post_init__(self):
        n = int(round(np.sqrt(self.w.shape[-1])))
        if n * n != self.w.shape[-1]:
            raise ShapeError(f"last extent {self.w.shape[-1]} is not a perfect square")

    @property
    def n(self) -> int:
        return int(round(np.sqrt(self.w.shape[-1])))


def _check_mask_range(m):
    if m.size and (float(np.min(m)) < 0.0 or float(np.max(m)) > 1.0):
        raise ValueError(
            f"mask entries outside [0, 1]: min {float(np.min(m)):.6g}, "
            f"max {float(np.max(m)):.6g}"
        )


def expand_kernel(wv: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """Outer product K[..., i, j] = wv[..., i] * wh[..., j]."""
    if wv.shape[-1] != wh.shape[-1]:
        raise ShapeError(f"kernel vector lengths differ: {wv.shape[-1]} vs {wh.shape[-1]}")
    return np.einsum("...u,...v->...uv", wv, wh)


def flatten_kernel(kern: np.ndarray) -> np.ndarray:
    """Row-major flattening of (..., n, n) kernels to (..., n*n)."""
    return np.ascontiguousarray(kern).reshape(kern.shape[:-2] + (-1,))


def identity_separable(h: int, w: int, n: int, dtype=np.float32) -> SeparableKernelField:
    """Field whose every pixel holds the center-delta kernel (exact identity)."""
    e = np.zeros(n, dtype=dtype)
    e[n // 2] = 1.0
    wv = np.broadcast_to(e, (h, w, n)).copy()
    return SeparableKernelField(wv=wv, wh=wv.copy())


def _lift(x, target_ndim):
    """Add a leading batch axis when `x` is one rank short."""
    if x.ndim == target_ndim - 1:
        return x[None], True
    if x.ndim == target_ndim:
        return x, False
    raise ShapeError(f"rank {x.ndim} not in ({target_ndim - 1}, {target_ndim})")


def _replicate_pad(h, r):
    """(B, C, H, W) -> (B, C, H + 2r, W + 2r) copy whose border repeats the
    edge pixels: `np.pad(mode="edge")` by slice copies."""
    hh, ww = h.shape[2:]
    hp = np.empty(h.shape[:2] + (hh + 2 * r, ww + 2 * r), dtype=h.dtype)
    hp[:, :, r : r + hh, r : r + ww] = h
    hp[:, :, :r, r : r + ww] = h[:, :, :1]
    hp[:, :, r + hh :, r : r + ww] = h[:, :, -1:]
    hp[:, :, :, :r] = hp[:, :, :, r : r + 1]
    hp[:, :, :, r + ww :] = hp[:, :, :, r + ww - 1 : r + ww]
    return hp


def _replicate_pad_backward(dp, r, h, w):
    """Fold gradients of a replicate-padded buffer onto the source pixels."""
    d = dp[:, :, r : r + h, :].copy()
    d[:, :, 0, :] += dp[:, :, :r, :].sum(axis=2)
    d[:, :, h - 1, :] += dp[:, :, r + h :, :].sum(axis=2)
    out = d[:, :, :, r : r + w].copy()
    out[:, :, :, 0] += d[:, :, :, :r].sum(axis=3)
    out[:, :, :, w - 1] += d[:, :, :, r + w :].sum(axis=3)
    return out


def _check_batch(h, f, batched, what):
    """An unbatched kernel field or mask is shared by every sample; a batched
    one must have the batch of batched content."""
    if batched and (h.ndim != 4 or f.shape[0] != h.shape[0]):
        raise ShapeError(f"{what} {f.shape} does not match the batch of content {h.shape}")


def _check_field(h, f, n, what):
    if n % 2 == 0 or n < 1:
        raise ValueError(f"kernel size must be odd, got {n}")
    if f.shape[-3:-1] != h.shape[-2:]:
        raise ShapeError(f"{what} spatial extent {f.shape[-3:-1]} != content {h.shape[-2:]}")
    _check_batch(h, f, f.ndim == 4, what)


def _tap_weights(h, kernels):
    """Per-tap weight maps (n*n, B, H, W), taps row-major over (u, v), plus
    the separable factors (n, B, H, W) each, or None for a dense field.
    An unbatched field gets a batch axis of 1, which broadcasts."""
    n = kernels.n
    if isinstance(kernels, SeparableKernelField):
        _check_field(h, kernels.wv, n, "separable kernel field")
        wv = _lift(kernels.wv, 4)[0].transpose(3, 0, 1, 2).copy()
        wh = _lift(kernels.wh, 4)[0].transpose(3, 0, 1, 2).copy()
        return (wv[:, None] * wh[None]).reshape((n * n,) + wv.shape[1:]), (wv, wh)
    if isinstance(kernels, DenseKernelField):
        _check_field(h, kernels.w, n, "dense kernel field")
        return _lift(kernels.w, 4)[0].transpose(3, 0, 1, 2).copy(), None
    raise TypeError(f"unsupported kernel field type {type(kernels).__name__}")


def _taps(n, hh, ww):
    """(tap index, slice of the padded map that tap reads) for each tap."""
    return [
        (u * n + v, (slice(None), slice(None), slice(u, u + hh), slice(v, v + ww)))
        for u in range(n)
        for v in range(n)
    ]


def _sum_taps(prods, out):
    """out = ((+0.0 + prods[0]) + prods[1]) + ...: the taps added in tap
    order. numpy sums pairwise along a reduction's inner loop, and the
    reduced axis becomes the inner loop when the result is one element."""
    if out.size == 1:
        out[...] = 0.0
        for p in prods:
            out += p
    else:
        np.add.reduce(prods, axis=0, initial=0.0, out=out)


def adaptive_conv_forward(h, kernels):
    """Convolve each location's replicate-padded patch with its own kernel.

    `kernels` is a SeparableKernelField or DenseKernelField; the per-pixel
    kernel is shared across all content channels.
    """
    k, factors = _tap_weights(h, kernels)
    h4, lifted = _lift(h, 4)
    n = kernels.n
    bsz, c, hh, ww = h4.shape
    hp = _replicate_pad(h4, n // 2)
    out = np.empty(h4.shape, dtype=np.result_type(h4, k))
    # [u, v, b] is sample b of the padded content shifted by tap (u, v)
    win = _windows(hp, hh, ww).transpose(2, 3, 0, 1, 4, 5)
    k6 = k.reshape(n, n, k.shape[1], 1, hh, ww)
    step = max(1, _BLOCK_BYTES // (n * n * c * hh * ww * out.itemsize))
    for b0 in range(0, bsz, step):
        b1 = min(b0 + step, bsz)
        prods = _work_buffer("block", (n, n, b1 - b0, c, hh, ww), out.dtype)
        np.multiply(k6 if k.shape[1] == 1 else k6[:, :, b0:b1], win[:, :, b0:b1], out=prods)
        _sum_taps(prods.reshape((n * n,) + prods.shape[2:]), out[b0:b1])
    field = kernels.wv if factors is not None else kernels.w
    cache = (hp, k, factors, lifted, field.ndim == 3)
    return (out[0] if lifted else out), cache


def adaptive_conv_backward(dy, cache, content=True):
    """Gradients w.r.t. the content map and the kernel field.

    Returns (dh, dkernels) where dkernels mirrors the forward field type:
    a SeparableKernelField of (dwv, dwh) or a DenseKernelField of dw. With
    `content` False the content gradient is not computed and dh is None.
    """
    hp, k, factors, lifted, field_unbatched = cache
    dy4 = dy[None] if lifted else dy
    hh, ww = dy4.shape[2:]
    n = hp.shape[2] - hh + 1
    taps = _taps(n, hh, ww)
    dk = np.empty((n * n,) + dy4.shape[:1] + dy4.shape[2:], dtype=np.result_type(hp, dy4))
    for t, window in taps:
        np.einsum("bchw,bchw->bhw", hp[window], dy4, out=dk[t])
    if field_unbatched:
        dk = dk.sum(axis=1, keepdims=True)
    if factors is None:
        dw = dk.transpose(1, 2, 3, 0)
        dkern = DenseKernelField(w=(dw[0] if field_unbatched else dw).copy())
    else:
        wv, wh = factors
        dk = dk.reshape((n, n) + dk.shape[1:])
        dwv = (dk * wh[None]).sum(axis=1).transpose(1, 2, 3, 0)
        dwh = (dk * wv[:, None]).sum(axis=0).transpose(1, 2, 3, 0)
        if field_unbatched:
            dwv, dwh = dwv[0], dwh[0]
        dkern = SeparableKernelField(wv=dwv.copy(), wh=dwh.copy())
    if not content:
        return None, dkern
    dp = np.zeros(hp.shape, dtype=np.result_type(k, dy4))
    prod = np.empty(dy4.shape, dtype=dp.dtype)
    for t, window in taps:
        dp[window] += np.multiply(k[t][:, None], dy4, out=prod)
    dh = _replicate_pad_backward(dp, n // 2, hh, ww)
    return (dh[0] if lifted else dh), dkern


def mask_blend_forward(h, h_tilde, m):
    """out = m * h_tilde + (1 - m) * h, per channel; m validated to [0, 1]."""
    if h.shape != h_tilde.shape:
        raise ShapeError(f"content {h.shape} and refined {h_tilde.shape} must match")
    h4, lifted = _lift(h, 4)
    ht4, _ = _lift(h_tilde, 4)
    m4, _ = _lift(m, 3)
    if m4.shape[-2:] != h4.shape[2:]:
        raise ShapeError(f"mask extent {m4.shape[-2:]} != content {h4.shape[2:]}")
    _check_batch(h, m, m.ndim == 3, "mask")
    _check_mask_range(m4)
    mb = m4[:, None]
    out = mb * ht4 + (1.0 - mb) * h4
    cache = (h4, ht4, m4, lifted, m.ndim == 2)
    return (out[0] if lifted else out), cache


def mask_blend_backward(dy, cache, content=True):
    """(dh, dh_tilde, dm); with `content` False dh is not computed (None)."""
    h4, ht4, m4, lifted, mask_unbatched = cache
    dy4 = dy[None] if lifted else dy
    mb = m4[:, None]
    dht = mb * dy4
    dm = np.einsum("bchw->bhw", (ht4 - h4) * dy4)
    if mask_unbatched:
        dm = dm.sum(axis=0)
    dh = None
    if content:
        dh = (1.0 - mb) * dy4
        dh = dh[0] if lifted else dh
    return dh, (dht[0] if lifted else dht), dm


def mask_activation_forward(raw):
    """Map raw activations to (tanh(raw) + 1) / 2, guaranteed inside [0, 1]."""
    t = np.tanh(raw)
    return 0.5 * (t + 1.0), t


def mask_activation_backward(dm, cache):
    return dm * 0.5 * (1.0 - cache * cache)


def fuse_pyramid_forward(pyramid, kernels, masks):
    """Refine every scale of a content pyramid independently.

    pyramid: list of content maps, coarsest first; kernels: matching list of
    kernel fields; masks: matching list of mask arrays.
    """
    if not (len(pyramid) == len(kernels) == len(masks)):
        raise ValueError(
            f"scale count mismatch: {len(pyramid)} maps, {len(kernels)} kernel "
            f"fields, {len(masks)} masks"
        )
    refined, caches = [], []
    for s, (h, k, m) in enumerate(zip(pyramid, kernels, masks)):
        try:
            ht, conv_cache = adaptive_conv_forward(h, k)
            out, blend_cache = mask_blend_forward(h, ht, m)
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"scale {s}: {exc}") from exc
        refined.append(out)
        caches.append((conv_cache, blend_cache))
    return refined, caches


def fuse_pyramid_backward(d_refined, caches, content=True):
    """Per-scale gradients: (d_pyramid, d_kernels, d_masks) lists.

    With `content` False (the content pyramid is frozen) no pyramid
    gradient is built and d_pyramid is None.
    """
    d_pyramid, d_kernels, d_masks = [], [], []
    for dy, (conv_cache, blend_cache) in zip(d_refined, caches):
        dh_direct, dht, dm = mask_blend_backward(dy, blend_cache, content)
        dh_conv, dk = adaptive_conv_backward(dht, conv_cache, content)
        if content:
            d_pyramid.append(dh_direct + dh_conv)
        d_kernels.append(dk)
        d_masks.append(dm)
    return (d_pyramid if content else None), d_kernels, d_masks


def kernel_param_count(n: int, scales: int, mode: str, resolutions) -> dict:
    """Per-pixel and per-scale kernel value counts for one fusion stack."""
    resolutions = tuple(int(r) for r in resolutions)
    if len(resolutions) != scales:
        raise ValueError(f"{scales} scales but {len(resolutions)} resolutions")
    if mode == "dense":
        per_pixel = n * n
    elif mode == "separable":
        per_pixel = 2 * n
    else:
        raise ValueError(f"mode must be 'dense' or 'separable', got {mode!r}")
    per_scale = [per_pixel * r * r for r in resolutions]
    return {"per_pixel": per_pixel, "per_scale": per_scale, "total": sum(per_scale)}
