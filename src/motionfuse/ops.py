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

import numpy as np

from .tensor import SeededRng, ShapeError


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
                f"gradient shape {g.shape} != parameter shape {slot.shape} for {name!r}"
            )
        slot += g

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0.0

    def names(self):
        return list(self._values)

    def items(self):
        return self._values.items()

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
# (B, C, H, W). A stride-1 conv is one stride-1 correlation, and a
# transpose conv one per output stride phase: one loop each way runs them
# all (`_correlate`, `_correlate_backward`) over a cached plan
# (`_correlation_plan`), as shifted GEMMs with no im2col (`_shifted_gemms`);
# only a strided conv2d builds a column matrix. A correlation's taps read the
# padded grid at a lattice of flat offsets, so their inputs are one
# zero-copy (taps_u, taps_v, C_in, width) strided view of it (`_tap_window`),
# and the weights one (taps_u, taps_v, C_out, C_in) tap stack. The shifted
# GEMMs walk the grid in column blocks. A block is as wide as `_BLOCK_BYTES`
# allows for a block's slices of the input, output and gradient (2 C_in +
# 2 C_out values per column), rounded down to a multiple of 64 columns; a
# batch-1 map at 32x32 fits in one block.
#
# Forward: a correlation whose tap products all fit `_BLOCK_BYTES`, or
# whose grid is one block (every batch-1 map, the batch-9 eval's one-row
# heads, and the smallest maps of a training batch), takes one `np.matmul`
# of the tap stack with the view, every tap's product landing in the block
# buffer, and one `np.add.reduce` that adds them from +0.0 in tap order: two
# dispatches where a batch-1 rollout spent most of its conv time
# dispatching a product and a sum per tap on maps as small as 4x4. A
# transpose conv whose stride phases all carry k/stride taps a side at
# evenly stepped offsets (every `stage.up*`) stacks its phases too, in one
# product over (phase_r, phase_c, tap_u, tap_v) views of `w` and the grid,
# and one copy interleaves them into the output. A larger grid runs the
# taps one by one per block, each product summed while it is in cache,
# which costs less memory traffic than a stacked product there. Every tap
# product sees the operand layout and width it always had, since BLAS
# rounds some products by layout: a transpose conv's stack is a strided
# view of `w`, not a copy, and one-row products, which also round by
# width, never stack across phases.
#
# Backward: per tap, as at training batch sizes each product is a fraction
# of a millisecond of BLAS work and dispatch is not what it costs. The
# input gradient is gathered per column block, all taps in order while the
# block stays in cache; each weight gradient is one product over the grid.
#
# No float32 sum is reordered, and training turns on the low bits
# (ROADMAP.md, item 1): each output column adds its taps in tap order from
# +0.0, and only the grid's last block ends in a part of a 64-column tile,
# as one product over the grid would.
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


def _im2col(xp, k, stride, ho, wo):
    """(C, B, Hp, Wp) padded input -> contiguous (C*k*k, B*Ho*Wo) matrix
    whose rows follow the conv weight layout (C, k, k)."""
    win = _windows(xp, k, k, stride).transpose(0, 4, 5, 1, 2, 3)
    return np.ascontiguousarray(win).reshape(xp.shape[0] * k * k, xp.shape[1] * ho * wo)


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
    product with a strided weight row differently at different widths:
    `_shifted_gemms` stacks one-row taps where their products fit the
    budget, and runs them per tap over the whole grid elsewhere."""
    if rows == 1:
        return ((0, n),)
    width = _BLOCK_BYTES // ((2 * rows + 2 * inner) * itemsize)
    width = max(64, width - width % 64)
    return tuple((j0, min(j0 + width, n)) for j0 in range(0, n, width))


def _windows(x, kh, kw, stride=1):
    """Read-only (A, B, Ho, Wo, kh, kw) view of a C-contiguous (A, B, H, W)
    array, [a, b, i, j, u, v] = x[a, b, i*stride + u, j*stride + v]: numpy's
    sliding-window view of the last two axes at every `stride`-th window,
    without that function's per-call argument handling (about 20 us a call)."""
    a, b, h, w = x.shape
    s_a, s_b, s_h, s_w = x.strides
    win = np.ndarray(
        (a, b, (h - kh) // stride + 1, (w - kw) // stride + 1, kh, kw), x.dtype, x, 0,
        (s_a, s_b, s_h * stride, s_w * stride, s_h, s_w),
    )
    win.flags.writeable = False
    return win


def _tap_window(flat, base, taps_u, taps_v, wp, n, step=1, lead=((), ())):
    """Read-only (taps_u, taps_v, C_in, n) view of a contiguous flattened
    padded (C_in, B*Hp*Wp) grid: [iu, iv] is the n columns from flat offset
    base + step*(iu*wp + iv) on, the input that tap (iu, iv) of a row-major
    (Hp, Wp) kernel lattice reads, walked backwards for step -1. `lead`
    holds the shape and byte strides of any leading axes. The ndarray
    constructor checks that the view stays inside `flat`, at a fifth of the
    cost of `as_strided`."""
    s_row, s_col = flat.strides
    win = np.ndarray(
        lead[0] + (taps_u, taps_v, flat.shape[0], n), flat.dtype, flat, base * s_col,
        lead[1] + (step * wp * s_col, step * s_col, s_row, s_col),
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
    wrapped across a row or an image. Leading axes of all three, a
    transpose conv's stride phases, run as one stack. A one-wide inner
    dimension is a broadcast product, which numpy's matmul runs an order
    of magnitude slower."""
    tu, tv, cout, cin = taps.shape[-4:]
    n = win.shape[-1]
    product = np.multiply if cin == 1 else np.matmul
    if _fits(taps, n, y_flat) or cout > 1 and len(_blocks(n, cout, cin, y_flat.itemsize)) == 1:
        # every tap product in one call and their sum in one reduction,
        # as per-tap dispatch would cost more than the products
        prods = _work_buffer("block", taps.shape[:-4] + (tu * tv, cout, n), y_flat.dtype)
        product(taps, win, out=prods.reshape(taps.shape[:-1] + (n,)))
        np.add.reduce(prods, axis=-3, initial=0.0, out=y_flat[..., :n])
        return
    # tap by tap per column block, each product summed while in cache: at
    # this size a stacked product costs more in memory traffic than it
    # saves in dispatch. A one-row grid is one block (`_blocks`).
    blocks = _blocks(n, cout, cin, y_flat.itemsize)
    buf = _work_buffer("block", (cout * (blocks[0][1] - blocks[0][0]),), y_flat.dtype)
    for j0, j1 in blocks:
        tmp = buf[: cout * (j1 - j0)].reshape(cout, j1 - j0)
        y_blk = y_flat[:, j0:j1]
        y_blk[...] = 0.0
        for iu in range(tu):
            for iv in range(tv):
                product(taps[iu, iv], win[iu, iv, :, j0:j1], out=tmp)
                y_blk += tmp


def _fits(taps, n, out):
    """Whether the products of every tap over n columns of `out`'s dtype
    fit `_BLOCK_BYTES`."""
    return math.prod(taps.shape[:-1]) * n * out.itemsize <= _BLOCK_BYTES


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
def _correlation_plan(x_shape, k, stride, pad, ho, wo, transposed):
    """The stride-1 correlations of a conv and the padded grid (lead_h,
    lead_w, Hp, Wp) they read: a stride-1 conv2d is one, whose tap u reads
    offset u, walking the grid forwards (step 1); a transpose conv runs one
    per output stride phase (`_stride_phases`), its taps reading offsets
    that fall by one per tap (step -1). Returns (grid, step, phases,
    stack), each phase (ys, rows, cols, ts, taps_u, taps_v, base, n, offs,
    uv): it writes `y[ys]` from the rows x cols corner of its output grid,
    and runs the taps `wt[ts]` of the (k, k, C_out, C_in) tap stack, in tap
    order at flat offsets `offs` and kernel positions `uv`; tap (0, 0)
    reads n columns from offset `base` on. A phase without taps has no
    `offs`. `stack` is None, or for a transpose conv whose phases all run
    k/stride taps a side from bases and kernel positions that step evenly
    from phase to phase, (stride, row step, column step, n, order): the
    bases step by those flat offsets from phase to phase, the first kernel
    rows and columns by `order`, and n columns are valid in every phase."""
    bsz, _, h, wd = x_shape
    if transposed:
        lead_h, hp, rows = _stride_phases(k, stride, pad, h, ho)
        lead_w, wp, cols = _stride_phases(k, stride, pad, wd, wo)
    else:
        taps = tuple((u, u) for u in range(k))
        lead_h, lead_w, hp, wp = pad, pad, h + 2 * pad, wd + 2 * pad
        rows, cols = [(0, ho, taps)], [(0, wo, taps)]
    phases = []
    for pr, mr, rtaps in rows:
        for pc, mc, ctaps in cols:
            offs = tuple(ro * wp + co for _, ro in rtaps for _, co in ctaps)
            uv = tuple((u, v) for u, _ in rtaps for v, _ in ctaps)
            if stride == 1:  # one phase: all of the output and of the stack
                ys = ts = ...
            else:
                ys = (slice(None), slice(None), slice(pr, None, stride), slice(pc, None, stride))
                ts = (slice(uv[0][0], None, stride), slice(uv[0][1], None, stride)) if uv else None
            base, n = (offs[0], bsz * hp * wp - max(offs)) if offs else (0, 0)
            phases.append((ys, mr, mc, ts, len(rtaps), len(ctaps), base, n, offs, uv))
    stack = None
    if transposed and stride > 1 and k % stride == 0 and (stride == 2 or pad % stride == 0):
        base, n = [p[6] for p in phases], min(p[7] for p in phases)
        stack = stride, base[stride] - base[0], base[1] - base[0], n, -1 if pad % stride else 1
    return (lead_h, lead_w, hp, wp), -1 if transposed else 1, tuple(phases), stack


def _correlate(x, wt, plan, ho, wo):
    """Forward of a conv `plan` with the (k, k, C_out, C_in) tap stack `wt`:
    pads x onto the plan's grid and runs each phase's taps over its window
    (`_shifted_gemms`), or every phase's at once where the plan's `stack`
    allows and the products fit. Returns the (B, C_out, Ho, Wo) output and
    the flattened padded input."""
    (lead_h, lead_w, hp, wp), step, phases, stack = plan
    bsz, cin, h, wd = x.shape
    cout = wt.shape[2]
    xp = np.zeros((cin, bsz, hp, wp), dtype=x.dtype)
    xp[:, :, lead_h : lead_h + h, lead_w : lead_w + wd] = x.transpose(1, 0, 2, 3)
    flat = xp.reshape(cin, -1)
    y = np.empty((bsz, cout, ho, wo), dtype=np.promote_types(x.dtype, wt.dtype))
    if stack and cout > 1:
        # every stride phase in one product, interleaved into y by one copy;
        # not one-row products, whose rounding depends on their width
        s, d_r, d_c, n, order = stack
        t = wt.shape[0] // s
        taps = wt.reshape(t, s, t, s, cout, cin).transpose(1, 3, 0, 2, 4, 5)[::order, ::order]
        if _fits(taps, n, y):
            col = flat.strides[1]
            lead = (s, s), (d_r * col, d_c * col)
            win = _tap_window(flat, phases[0][6], t, t, wp, n, step, lead)
            y_flat = _work_buffer("out", (s, s, cout, flat.shape[1]), y.dtype)
            _shifted_gemms(taps, win, y_flat)
            grid = y_flat.reshape(s, s, cout, bsz, hp, wp)[..., : ho // s, : wo // s]
            y.reshape(bsz, cout, ho // s, s, wo // s, s)[...] = grid.transpose(3, 2, 4, 0, 5, 1)
            return y, flat
    y_flat = _work_buffer("out", (cout, flat.shape[1]), y.dtype)
    y_grid = y_flat.reshape(cout, bsz, hp, wp)
    for ys, rows, cols, ts, tu, tv, base, n, offs, _ in phases:
        if not offs:
            y[ys] = 0.0
            continue
        _shifted_gemms(wt[ts], _tap_window(flat, base, tu, tv, wp, n, step), y_flat)
        y[ys] = y_grid[:, :, :rows, :cols].transpose(1, 0, 2, 3)
    return y, flat


def _correlate_backward(dy, flat, wt, dwt, plan, x_shape):
    """Backward of `_correlate` from its flattened padded input `flat`:
    writes each tap's weight gradient into `dwt`, the (k, k, C_out, C_in)
    view of dw, and returns the input gradient, of the dtype of `dwt`."""
    (lead_h, lead_w, hp, wp), _, phases, _ = plan
    bsz, cin, h, wd = x_shape
    cout = wt.shape[2]
    dflat = _work_buffer("in", flat.shape, dwt.dtype)
    dflat[...] = 0.0
    dy_flat = _work_buffer("out", (cout, flat.shape[1]), dy.dtype)
    dy_grid = dy_flat.reshape(cout, bsz, hp, wp)
    for ys, rows, cols, _, _, _, _, _, offs, uv in phases:
        if offs:
            dy_flat[...] = 0.0
            dy_grid[:, :, :rows, :cols] = dy[ys].transpose(1, 0, 2, 3)
            dmats = _shifted_gemms_backward([wt[u, v] for u, v in uv], flat, offs, dy_flat, dflat)
            for (u, v), dm in zip(uv, dmats):
                dwt[u, v] = dm
    dxp = dflat.reshape(cin, bsz, hp, wp)[:, :, lead_h : lead_h + h, lead_w : lead_w + wd]
    return dxp.transpose(1, 0, 2, 3).copy()


def _tap_stack(w, transposed):
    """The (k, k, C_out, C_in) taps of a transpose conv weight (C_in, C_out,
    k, k) or a conv weight (C_out, C_in, k, k), a view of it: a conv's as
    reshape makes it, since BLAS rounds some products by operand layout."""
    if transposed:
        return w.transpose(2, 3, 1, 0)
    cout, cin, k, _ = w.shape
    return w.transpose(2, 3, 0, 1).reshape(k * k, cout, cin).reshape(k, k, cout, cin)


def _conv_forward(x, w, b, stride, pad, transposed):
    """A conv, or with `transposed` a transpose conv. Its cache holds the
    flattened padded input, or a strided conv's column matrix, and the
    correlation plan's arguments after the input shape."""
    op = "conv_transpose2d" if transposed else "conv2d"
    bsz, cin, h, wd = x.shape
    k = w.shape[2]
    cout, cin_w = (w.shape[1], w.shape[0]) if transposed else w.shape[:2]
    if cin != cin_w:
        raise ShapeError(f"{op} channel mismatch: input {x.shape} vs weight {w.shape}")
    if transposed:
        ho, wo = (h - 1) * stride - 2 * pad + k, (wd - 1) * stride - 2 * pad + k
    else:
        ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        k_note = "" if transposed else f", k={k}"
        raise ShapeError(f"{op} output collapses for input {x.shape}{k_note}")
    geometry = (k, stride, pad, ho, wo, transposed)
    if transposed or stride == 1:
        plan = _correlation_plan(x.shape, *geometry)
        y, data = _correlate(x, _tap_stack(w, transposed), plan, ho, wo)
    else:  # a strided conv2d: one GEMM over a column matrix (ROADMAP.md, item 6)
        data = _im2col(_channel_major_padded(x, pad), k, stride, ho, wo)
        y_mat = (w.reshape(cout, -1) @ data).reshape(cout, bsz, ho, wo)
        y = np.ascontiguousarray(y_mat.transpose(1, 0, 2, 3))
    if b is not None:
        y += b[:, None, None]
    return y, (x.shape, data, w, b is not None, geometry)


def _conv_backward(dy, cache):
    x_shape, data, w, has_bias, geometry = cache
    k, stride, pad, ho, wo, transposed = geometry
    db = dy.sum(axis=(0, 2, 3)) if has_bias else None
    if transposed or stride == 1:  # `data` is the flattened padded input
        dw = np.zeros(w.shape, dtype=np.result_type(data, w, dy))
        wt, dwt = _tap_stack(w, transposed), _tap_stack(dw, transposed)
        plan = _correlation_plan(x_shape, *geometry)
        return _correlate_backward(dy, data, wt, dwt, plan, x_shape), dw, db
    bsz, cin, h, wd = x_shape
    cout = w.shape[0]
    dy_mat = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(cout, -1)
    dw = (dy_mat @ data.T).reshape(w.shape)
    dcols = w.reshape(cout, -1).T @ dy_mat
    dxp = _col2im(dcols, (cin, bsz, h + 2 * pad, wd + 2 * pad), k, stride, ho, wo)
    return dxp[:, :, pad : pad + h, pad : pad + wd].transpose(1, 0, 2, 3).copy(), dw, db


def conv2d_forward(x, w, b=None, stride=1, pad=0):
    return _conv_forward(x, w, b, stride, pad, False)


def conv2d_backward(dy, cache):
    return _conv_backward(dy, cache)


def conv_transpose2d_forward(x, w, b=None, stride=1, pad=0):
    return _conv_forward(x, w, b, stride, pad, True)


def conv_transpose2d_backward(dy, cache):
    return _conv_backward(dy, cache)


def linear_forward(x, w, b=None):
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear shape mismatch: input {x.shape} vs weight {w.shape}")
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
            f"convlstm state mismatch: x {x.shape}, h {h_prev.shape}, c {c_prev.shape}"
        )
    k = wx.shape[2]
    pre_x, cache_x = conv2d_forward(x, wx, b, stride=1, pad=k // 2)
    pre_h, cache_h = conv2d_forward(h_prev, wh, None, stride=1, pad=k // 2)
    pre = pre_x + pre_h
    hc = h_prev.shape[1]
    gates, _ = sigmoid_forward(pre[:, : 3 * hc])
    i, f, o = gates[:, :hc], gates[:, hc : 2 * hc], gates[:, 2 * hc :]
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
