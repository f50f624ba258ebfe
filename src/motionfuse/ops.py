"""Neural operators with hand-derived backward passes.

Every op follows the same shape conventions: images are (B, C, H, W),
conv weights are (C_out, C_in, k, k), transpose-conv weights are
(C_in, C_out, k, k), linear weights are (F_in, F_out). Convolution is
cross-correlation (no kernel flip). Forward functions return
(output, cache); the matching backward consumes (upstream_grad, cache)
and returns gradients for every input and parameter, in input order.
There is no tape: callers chain these by hand.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .tensor import SeededRng, ShapeError


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_size, self.stride) < 1:
            raise ValueError(f"non-positive field in {self}")
        if self.padding < 0:
            raise ValueError(f"negative padding in {self}")

    def out_size(self, size: int) -> int:
        out = (size + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out < 1:
            raise ShapeError(f"{self} collapses spatial size {size} to {out}")
        return out

    def transpose_out_size(self, size: int) -> int:
        out = (size - 1) * self.stride - 2 * self.padding + self.kernel_size
        if out < 1:
            raise ShapeError(f"{self} collapses spatial size {size} to {out}")
        return out


class ParamSet:
    """Named map of parameter tensors with same-shape gradient slots."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._values[name] = value
        self._grads[name] = np.zeros_like(value)
        return value

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def accumulate(self, name: str, g: np.ndarray):
        slot = self._grads[name]
        if slot.shape != g.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter shape {slot.shape} for {name!r}",
                (g.shape, slot.shape),
            )
        slot += g

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0.0

    def names(self):
        return list(self._values)

    def items(self):
        return self._values.items()

    def __contains__(self, name):
        return name in self._values

    def astype(self, dtype) -> "ParamSet":
        out = ParamSet()
        for name, value in self._values.items():
            out.add(name, value.astype(dtype))
        return out


def xavier_uniform(rng: SeededRng, shape, fan_in: int, fan_out: int, dtype=np.float32):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return ((rng.uniforms(shape) * 2.0 - 1.0) * limit).astype(dtype)


# Convolutions run their GEMMs over a channel-major layout: activations
# move to (C, B, H, W), so every copy, gather and scatter walks whole rows
# of contiguous memory, and a single transpose per call restores
# (B, C, H, W). Stride-1 convs and every stride phase of a transpose conv
# are shifted GEMMs with no im2col (see `_shifted_gemms`); only strided
# convs build a column matrix. The kernel taps of a conv, or of a stride
# phase, read the padded grid at a lattice of flat offsets, so the inputs
# of all taps are one zero-copy (taps_u, taps_v, C_in, width) strided view
# of it (`_tap_window`), and the weights one (taps_u, taps_v, C_out, C_in)
# tap stack. The shifted GEMMs walk the grid in column blocks. A block is
# as wide as `_BLOCK_BYTES` allows for a block's slices of the input,
# output and gradient (2 C_in + 2 C_out values per column), rounded down to
# a multiple of 64 columns; a batch-1 map at 32x32 fits in one block.
#
# Forward: a grid of one block (every batch-1 map, and the smallest maps of
# a training batch) takes one `np.matmul` of the tap stack with the view,
# every tap's product landing in the block buffer, and one `np.add.reduce`
# that adds them from +0.0 in tap order: two dispatches where a batch-1
# rollout spent most of its conv time dispatching a product and a sum per
# tap on maps as small as 4x4. A larger grid runs the taps one by one per
# block, each product summed while it is in cache, which costs less memory
# traffic than a stacked product there. Every tap product sees the operand
# layout it always had, since BLAS rounds some products by layout: a
# transpose conv's stack is a strided view of `w`, not a copy.
#
# Backward: per tap, as at training batch sizes each product is a fraction
# of a millisecond of BLAS work and dispatch is not what it costs. The
# input gradient is gathered per column block, all taps in order while the
# block stays in cache; each weight gradient is one product over the grid.
#
# No float32 sum is reordered, and training turns on the low bits
# (ROADMAP.md, item 1): each output column adds its taps in tap order from
# +0.0, and only the grid's last block ends in a part of a 64-column tile,
# as one product over the grid would. The plans that depend only on shapes
# (tap offsets, block ranges, transpose-conv phases) are cached.
#
# The temporaries of these GEMMs (the output grid, the gradient grids and
# the block buffer) come from work buffers that live across calls: one flat
# array per role and dtype and per thread, grown to the largest request and
# sliced to each call's shape (`_work_buffer`). A training step then
# touches no fresh pages, where fresh arrays would have the heap trimmed
# and refaulted every step. A forward writes every grid column it reads
# before reading it, so its buffers need no zero fill; the backward's are
# zero-filled wherever fresh arrays were zeros. Nothing that outlives a
# call may be one: cached inputs and column matrices stay fresh arrays, and
# every output read from a work buffer is an explicit copy, since
# `np.ascontiguousarray` of an already contiguous slice (a 1x1, pad-0 conv
# at batch 1) would hand back the buffer itself.

_BLOCK_BYTES = 1 << 20


class _WorkBuffers(threading.local):
    def __init__(self):
        self.flat = {}  # (role, dtype) -> 1-d array


_work = _WorkBuffers()


def _work_buffer(role, shape, dtype):
    """This thread's `role` work buffer as an uninitialised array of
    `shape` and `dtype`, valid until the next request for the same role."""
    n = math.prod(shape)
    flat = _work.flat.get((role, dtype))
    if flat is None or flat.size < n:
        flat = _work.flat[role, dtype] = np.empty(n, dtype=dtype)
    return flat[:n].reshape(shape)


def _channel_major_padded(x, pad):
    """(B, C, H, W) -> zero-padded (C, B, H + 2 pad, W + 2 pad) copy."""
    bsz, c, h, w = x.shape
    xp = np.zeros((c, bsz, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    return xp


def _channel_major(x):
    """(B, C, H, W) -> contiguous (C, B*H*W)."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).reshape(x.shape[1], -1)


def _batch_major(y_mat, bsz, h, w):
    """(C, B*H*W) -> contiguous (B, C, H, W)."""
    return np.ascontiguousarray(y_mat.reshape(-1, bsz, h, w).transpose(1, 0, 2, 3))


def _im2col(xp, k, stride, ho, wo):
    """(C, B, Hp, Wp) padded input -> contiguous (C*k*k, B*Ho*Wo) matrix
    whose rows follow the conv weight layout (C, k, k)."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    c, bsz = xp.shape[0], xp.shape[1]
    return np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3)).reshape(
        c * k * k, bsz * ho * wo
    )


def _col2im(dcols, padded_shape, k, stride, ho, wo):
    """Scatter-add (C*k*k, B*Ho*Wo) columns onto a zero (C, B, Hp, Wp)
    map: the adjoint of `_im2col`."""
    c, bsz = padded_shape[:2]
    d6 = dcols.reshape(c, k, k, bsz, ho, wo)
    out = np.zeros(padded_shape, dtype=dcols.dtype)
    for u in range(k):
        for v in range(k):
            out[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += d6[:, u, v]
    return out


@functools.lru_cache(maxsize=256)
def _blocks(n, rows, inner, itemsize):
    """Column ranges [j0, j1) covering n grid positions for per-tap products
    of `rows` x `inner` weights: blocks whose input, output and gradient
    slices fit `_BLOCK_BYTES` together, 64 columns wide or a multiple of
    that. A one-row product is one block, because numpy rounds a one-row
    product with a strided weight row differently at different widths."""
    if rows == 1:
        return ((0, n),)
    width = _BLOCK_BYTES // ((2 * rows + 2 * inner) * itemsize)
    width = max(64, width - width % 64)
    return tuple((j0, min(j0 + width, n)) for j0 in range(0, n, width))


def _tap_window(flat, base, taps_u, taps_v, wp, n):
    """Read-only (taps_u, taps_v, C_in, n) view of a contiguous flattened
    padded (C_in, B*Hp*Wp) grid: [iu, iv] is the n columns from flat offset
    base + iu*wp + iv on, the input that tap (iu, iv) of a row-major
    (Hp, Wp) kernel lattice reads. The ndarray constructor checks that the
    view stays inside `flat`, at a fifth of the cost of `as_strided`."""
    s_row, s_col = flat.strides
    win = np.ndarray(
        (taps_u, taps_v, flat.shape[0], n), flat.dtype, flat, base * s_col,
        (wp * s_col, s_col, s_row, s_col),
    )
    win.flags.writeable = False
    return win


def _shifted_gemms(taps, win, y_flat):
    """Stride-1 correlation as shifted GEMMs, with no im2col copy.

    `taps` (taps_u, taps_v, C_out, C_in) are the weight taps and `win`
    (taps_u, taps_v, C_in, n) the input each tap reads (`_tap_window`): the
    output at flat index i gathers column i of every tap's input. Writes
    the sum over taps, in tap order from +0.0, into columns [0, n) of
    `y_flat` (C_out, B*Hp*Wp), a padded grid: the caller reads the valid
    (rows, cols) corner of each image and discards the rest, whose reads
    wrapped across a row or an image. A one-wide inner dimension is a
    broadcast product, which numpy's matmul runs an order of magnitude
    slower."""
    tu, tv, cout, cin = taps.shape
    n = win.shape[-1]
    product = np.multiply if cin == 1 else np.matmul
    blocks = _blocks(n, cout, cin, y_flat.itemsize)
    if cout > 1 and len(blocks) == 1:
        # a one-block grid (every batch-1 map): all tap products in one
        # call and their sum in one reduction, as per-tap dispatch would
        # cost more than the products
        prods = _work_buffer("block", (tu * tv, cout, n), y_flat.dtype)
        product(taps, win, out=prods.reshape(tu, tv, cout, n))
        np.add.reduce(prods, axis=0, initial=0.0, out=y_flat[:, :n])
        return
    # tap by tap per column block, each product summed while in cache: at
    # this size a stacked product costs more in memory traffic than it
    # saves in dispatch. One-row products always come here, since
    # `_blocks` never splits their grid, which at training batch sizes
    # would put every tap's product of the whole grid in the block buffer.
    buf = _work_buffer("block", (cout * (blocks[0][1] - blocks[0][0]),), y_flat.dtype)
    for j0, j1 in blocks:
        tmp = buf[: cout * (j1 - j0)].reshape(cout, j1 - j0)
        y_blk = y_flat[:, j0:j1]
        y_blk[...] = 0.0
        for iu in range(tu):
            for iv in range(tv):
                product(taps[iu, iv], win[iu, iv, :, j0:j1], out=tmp)
                y_blk += tmp


def _shifted_gemms_backward(mats, flat, offs, dy_flat, dflat):
    """Adjoint of `_shifted_gemms`, with the taps as lists of (C_out, C_in)
    matrices `mats` and their flat offsets `offs`: returns the per-tap
    weight gradients and adds the input gradient into `dflat`. Grid
    positions of `dy_flat` outside the valid outputs must be zero. The
    input gradient is gathered per column block of `dflat`, all taps in
    order while the block stays in cache; each weight gradient is one GEMM
    over the whole grid."""
    n = flat.shape[1] - max(offs)
    dy_mat = dy_flat[:, :n]
    dmats = [dy_mat @ flat[:, off : off + n].T for off in offs]
    cout, cin = mats[0].shape
    blocks = _blocks(flat.shape[1], cin, cout, dflat.itemsize)
    buf = _work_buffer("block", (cin * (blocks[0][1] - blocks[0][0]),), dflat.dtype)
    product = np.multiply if cout == 1 else np.matmul
    for j0, j1 in blocks:
        for m, off in zip(mats, offs):
            # dflat columns [a, b) of this block that tap `off` reaches
            a, b = max(j0, off), min(j1, off + n)
            if a < b:
                tmp = buf[: cin * (b - a)].reshape(cin, b - a)
                product(m.T, dy_mat[:, a - off : b - off], out=tmp)
                dflat[:, a:b] += tmp
    return dmats


@functools.lru_cache(maxsize=256)
def _tap_offsets(k, wp):
    """Flat offsets of the k*k kernel taps in a row-major (Hp, Wp) map."""
    return tuple(u * wp + v for u in range(k) for v in range(k))


def conv2d_forward(x, w, b=None, stride=1, pad=0):
    bsz, cin, h, wd = x.shape
    cout, cin_w, k, _ = w.shape
    if cin != cin_w:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}",
            (x.shape, w.shape),
        )
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output collapses for input {x.shape}, k={k}")
    xp = _channel_major_padded(x, pad)
    if stride == 1:
        flat = xp.reshape(cin, -1)
        wp = xp.shape[3]
        n = flat.shape[1] - (k - 1) * (wp + 1)
        # as reshape makes it: a copy, but a strided view of `w` for one
        # output channel, whose one-row products round by that layout
        taps = w.transpose(2, 3, 0, 1).reshape(k * k, cout, cin).reshape(k, k, cout, cin)
        y_flat = _work_buffer("out", (cout, flat.shape[1]), x.dtype)
        _shifted_gemms(taps, _tap_window(flat, 0, k, k, wp, n), y_flat)
        y_grid = y_flat.reshape(cout, bsz, xp.shape[2], wp)[:, :, :ho, :wo]
        y = y_grid.transpose(1, 0, 2, 3).copy()
        if b is not None:
            y += b[:, None, None]
        cache = (x.shape, flat, w, stride, pad, b is not None, ho, wo)
        return y, cache
    cols = _im2col(xp, k, stride, ho, wo)
    y_mat = w.reshape(cout, -1) @ cols
    if b is not None:
        y_mat += b[:, None]
    cache = (x.shape, cols, w, stride, pad, b is not None, ho, wo)
    return _batch_major(y_mat, bsz, ho, wo), cache


def conv2d_backward(dy, cache):
    x_shape, cols, w, stride, pad, has_bias, ho, wo = cache
    bsz, cin, h, wd = x_shape
    cout, _, k, _ = w.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None
    if stride == 1:
        flat = cols  # at stride 1 the cache holds the flattened padded input
        dy_flat = _work_buffer("out", (cout, bsz, hp, wp), dy.dtype)
        dy_flat[...] = 0.0
        dy_flat[:, :, :ho, :wo] = dy.transpose(1, 0, 2, 3)
        taps = w.transpose(2, 3, 0, 1).reshape(k * k, cout, cin)
        dxp = _work_buffer("in", (cin, bsz * hp * wp), dy.dtype)
        dxp[...] = 0.0
        dtaps = _shifted_gemms_backward(
            taps, flat, _tap_offsets(k, wp), dy_flat.reshape(cout, -1), dxp
        )
        dw = np.ascontiguousarray(np.reshape(dtaps, (k, k, cout, cin)).transpose(2, 3, 0, 1))
        dxp = dxp.reshape(cin, bsz, hp, wp)
    else:
        dy_mat = _channel_major(dy)
        dw = (dy_mat @ cols.T).reshape(w.shape)
        dcols = w.reshape(cout, -1).T @ dy_mat
        dxp = _col2im(dcols, (cin, bsz, hp, wp), k, stride, ho, wo)
    dx = dxp[:, :, pad : pad + h, pad : pad + wd].transpose(1, 0, 2, 3).copy()
    return dx, dw, db


def _stride_phases(k, stride, pad, size, out_size):
    """Split one axis of a transpose conv into its stride phases.

    Output o = p + stride*m of phase p (cropped coordinates) receives the
    taps u = u0, u0 + stride, ... with u0 = (p + pad) % stride, tap t from
    input m + d - t, d = (p + pad - u0) // stride: a stride-1 correlation
    with the phase's taps in reverse. Returns (lead, extent, phases): the
    input sits `lead` zeros into a zero-padded axis of length `extent`, and
    each phase is (p, outputs, [(u, offset)]), where output m of the phase
    reads padded position m + offset through tap u."""
    plans = []
    for p in range(min(stride, out_size)):
        u0 = (p + pad) % stride
        outputs = len(range(p, out_size, stride))
        plans.append((p, outputs, (p + pad - u0) // stride, range(u0, k, stride)))
    lead = max([len(us) - 1 - d for _, _, d, us in plans] + [0])
    extent = max([lead + size] + [m + d + lead for _, m, d, us in plans if us])
    phases = [(p, m, tuple((u, d - t + lead) for t, u in enumerate(us))) for p, m, d, us in plans]
    return lead, extent, phases


@functools.lru_cache(maxsize=256)
def _transpose_plan(x_shape, k, stride, pad, ho, wo):
    """Row and column stride phases of a transpose conv, and the padded
    channel-major grid (lead_h, lead_w, Hp, Wp) both run on. Each phase is
    (pr, pc, rows, cols, rtaps, ctaps): its outputs start at (pr, pc) and
    span rows x cols, and it runs the taps rtaps x ctaps, each axis's taps
    as (u, offset) pairs in tap order, the offsets falling by one per tap."""
    lead_h, hp, rows = _stride_phases(k, stride, pad, x_shape[2], ho)
    lead_w, wp, cols = _stride_phases(k, stride, pad, x_shape[3], wo)
    return (lead_h, lead_w, hp, wp), tuple(
        (pr, pc, mr, mc, rtaps, ctaps) for pr, mr, rtaps in rows for pc, mc, ctaps in cols
    )


def conv_transpose2d_forward(x, w, b=None, stride=1, pad=0):
    bsz, cin, h, wd = x.shape
    cin_w, cout, k, _ = w.shape
    if cin != cin_w:
        raise ShapeError(
            f"conv_transpose2d channel mismatch: input {x.shape} vs weight {w.shape}",
            (x.shape, w.shape),
        )
    ho = (h - 1) * stride - 2 * pad + k
    wo = (wd - 1) * stride - 2 * pad + k
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv_transpose2d output collapses for input {x.shape}")
    # the adjoint of a strided conv, computed per output stride phase: each
    # phase is a stride-1 correlation with a subset of the taps, so no
    # (C_out*k*k, B*H*W) column matrix and no col2im scatter are needed
    grid, phases = _transpose_plan(x.shape, k, stride, pad, ho, wo)
    lead_h, lead_w, hp, wp = grid
    xp = np.zeros((cin, bsz, hp, wp), dtype=x.dtype)
    xp[:, :, lead_h : lead_h + h, lead_w : lead_w + wd] = x.transpose(1, 0, 2, 3)
    flat = xp.reshape(cin, -1)
    y = np.empty((bsz, cout, ho, wo), dtype=np.result_type(x, w))
    y_flat = _work_buffer("out", (cout, flat.shape[1]), y.dtype)
    for pr, pc, mr, mc, rtaps, ctaps in phases:
        y_phase = y[:, :, pr::stride, pc::stride]
        if not (rtaps and ctaps):
            y_phase[...] = 0.0
            continue
        # tap (0, 0) reads the furthest offset and the last tap the nearest:
        # the phase's taps are a reversed window of the grid, and their
        # weights a strided view of `w`
        tu, tv = len(rtaps), len(ctaps)
        n = flat.shape[1] - (rtaps[0][1] * wp + ctaps[0][1])
        win = _tap_window(flat, rtaps[-1][1] * wp + ctaps[-1][1], tu, tv, wp, n)
        taps = w[:, :, rtaps[0][0] :: stride, ctaps[0][0] :: stride].transpose(2, 3, 1, 0)
        _shifted_gemms(taps, win[::-1, ::-1], y_flat)
        y_grid = y_flat.reshape(cout, bsz, hp, wp)[:, :, :mr, :mc]
        y_phase[...] = y_grid.transpose(1, 0, 2, 3)
    if b is not None:
        y += b[:, None, None]
    cache = (flat, x.shape, w, stride, pad, grid, phases, b is not None)
    return y, cache


def conv_transpose2d_backward(dy, cache):
    flat, x_shape, w, stride, pad, grid, phases, has_bias = cache
    bsz, cin, h, wd = x_shape
    cout = w.shape[1]
    lead_h, lead_w, hp, wp = grid
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None
    dw = np.zeros(w.shape, dtype=np.result_type(w, dy))
    dflat = _work_buffer("in", flat.shape, np.result_type(w, dy))
    dflat[...] = 0.0
    dy_flat = _work_buffer("out", (cout, flat.shape[1]), dy.dtype)
    for pr, pc, mr, mc, rtaps, ctaps in phases:
        if not (rtaps and ctaps):
            continue
        taps = [(u, v, ro * wp + co) for u, ro in rtaps for v, co in ctaps]
        dy_flat[...] = 0.0
        dy_grid = dy_flat.reshape(cout, bsz, hp, wp)
        dy_grid[:, :, :mr, :mc] = dy[:, :, pr::stride, pc::stride].transpose(1, 0, 2, 3)
        mats = [w[:, :, u, v].T for u, v, _ in taps]
        dmats = _shifted_gemms_backward(mats, flat, [off for _, _, off in taps], dy_flat, dflat)
        for (u, v, _), dm in zip(taps, dmats):
            dw[:, :, u, v] = dm.T
    dxp = dflat.reshape(cin, bsz, hp, wp)[:, :, lead_h : lead_h + h, lead_w : lead_w + wd]
    dx = dxp.transpose(1, 0, 2, 3).copy()
    return dx, dw, db


def linear_forward(x, w, b=None):
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"linear shape mismatch: input {x.shape} vs weight {w.shape}",
            (x.shape, w.shape),
        )
    y = x @ w
    if b is not None:
        y += b[None, :]
    return y, (x, w, b is not None)


def linear_backward(dy, cache):
    x, w, has_bias = cache
    db = dy.sum(axis=0) if has_bias else None
    return dy @ w.T, x.T @ dy, db


def relu_forward(x):
    return np.maximum(x, 0.0), x > 0


def relu_backward(dy, cache):
    return dy * cache


def tanh_forward(x):
    y = np.tanh(x)
    return y, y


def tanh_backward(dy, cache):
    return dy * (1.0 - cache * cache)


def sigmoid_forward(x):
    # exp(-|x|) keeps the evaluation overflow-free on both tails
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return y, y


def sigmoid_backward(dy, cache):
    return dy * cache * (1.0 - cache)


def softmax_logits(x):
    """Row-wise softmax over the last axis, computed with max-subtraction."""
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def convlstm_step_forward(x, h_prev, c_prev, wx, wh, b):
    """One convolutional LSTM step.

    Gate pre-activations stack along channels in (input, forget, output,
    candidate) order; gates use same-padded stride-1 convolutions so the
    spatial extent is preserved.
    """
    if x.shape[2:] != h_prev.shape[2:] or h_prev.shape != c_prev.shape:
        raise ShapeError(
            f"convlstm state mismatch: x {x.shape}, h {h_prev.shape}, c {c_prev.shape}",
            (x.shape, h_prev.shape, c_prev.shape),
        )
    k = wx.shape[2]
    pre_x, cache_x = conv2d_forward(x, wx, b, stride=1, pad=k // 2)
    pre_h, cache_h = conv2d_forward(h_prev, wh, None, stride=1, pad=k // 2)
    pre = pre_x + pre_h
    hc = h_prev.shape[1]
    i, _ = sigmoid_forward(pre[:, 0 * hc : 1 * hc])
    f, _ = sigmoid_forward(pre[:, 1 * hc : 2 * hc])
    o, _ = sigmoid_forward(pre[:, 2 * hc : 3 * hc])
    g = np.tanh(pre[:, 3 * hc : 4 * hc])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (cache_x, cache_h, c_prev, i, f, o, g, tc)
    return h, c, cache


def convlstm_step_backward(dh, dc, cache):
    """Backward for one step; dc is the gradient arriving at the new cell."""
    cache_x, cache_h, c_prev, i, f, o, g, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    df = dc_total * c_prev
    dc_prev = dc_total * f
    di = dc_total * g
    dg = dc_total * i
    dpre = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g * g),
        ],
        axis=1,
    )
    dx, dwx, db = conv2d_backward(dpre, cache_x)
    dh_prev, dwh, _ = conv2d_backward(dpre, cache_h)
    return dx, dh_prev, dc_prev, dwx, dwh, db
