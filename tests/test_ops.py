import sys
import threading
import tracemalloc

import numpy as np
import pytest

from motionfuse import gradcheck, ops
from motionfuse.tensor import SeededRng, ShapeError


def conv2d_oracle(x, w, b, stride, pad):
    """Nested-loop cross-correlation, the independent reference."""
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=x.dtype)
    for n in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = b[o]
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                    out[n, o, i, j] = acc
    return out


class TestConv2d:
    def test_all_ones_patch_sum(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 2, 2))
        y, _ = ops.conv2d_forward(x, w, np.zeros(1))
        assert np.array_equal(y, np.full((1, 1, 2, 2), 4.0))

    def test_one_by_one_identity(self):
        x = SeededRng(0).normals((2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        y, _ = ops.conv2d_forward(x, w, np.zeros(1))
        assert np.array_equal(y, x)

    def test_matches_nested_loop_oracle(self):
        rng = SeededRng(3)
        x = rng.normals((1, 2, 5, 5))
        w = rng.normals((3, 2, 3, 3))
        b = rng.normals((3,))
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            y, _ = ops.conv2d_forward(x, w, b, stride, pad)
            ref = conv2d_oracle(x, w, b, stride, pad)
            assert np.max(np.abs(y - ref)) < 1e-12

    @pytest.mark.parametrize("cin,cout", [(2, 3), (1, 2), (3, 1)])
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (1, 2), (2, 1)])
    def test_batched_rectangular_forward_and_backward(self, cin, cout, stride, pad):
        # several images of a non-square frame: a kernel tap must never read
        # across an image's row or batch boundary, in either direction
        rng = SeededRng(11)
        x = rng.normals((3, cin, 5, 7))
        w = rng.normals((cout, cin, 3, 3))
        b = rng.normals((cout,))
        y, cache = ops.conv2d_forward(x, w, b, stride, pad)
        assert np.max(np.abs(y - conv2d_oracle(x, w, b, stride, pad))) < 1e-12
        dy = rng.normals(y.shape)
        dx, dw, db = ops.conv2d_backward(dy, cache)
        via_transpose, _ = ops.conv_transpose2d_forward(dy, w, None, stride, pad)
        assert np.max(np.abs(dx - via_transpose)) < 1e-12
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]
        assert np.max(np.abs(dw - np.einsum("bchwuv,bohw->ocuv", win, dy))) < 1e-12
        assert np.max(np.abs(db - dy.sum(axis=(0, 2, 3)))) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(np.ones((1, 3, 4, 4)), np.ones((2, 2, 3, 3)))

    def test_collapsed_output_error(self):
        with pytest.raises(ShapeError):
            ops.conv2d_forward(np.ones((1, 1, 2, 2)), np.ones((1, 1, 5, 5)))


def im2col_conv_transpose2d(x, w, b, stride, pad, dy):
    """The column-matrix implementation that the stride-phase transpose
    conv replaced, kept as an oracle: (y, dx, dw, db) for upstream `dy`.
    One GEMM builds the (C_out*k*k, B*H*W) per-pixel kernel stacks, which
    are scattered onto the full output and cropped; the backward gathers
    them back."""
    bsz, cin, h, wd = x.shape
    cout, k = w.shape[1], w.shape[2]
    full_h, full_w = (h - 1) * stride + k, (wd - 1) * stride + k
    x_mat = x.transpose(1, 0, 2, 3).reshape(cin, -1)
    cols = (w.reshape(cin, -1).T @ x_mat).reshape(cout, k, k, bsz, h, wd)
    y_full = np.zeros((cout, bsz, full_h, full_w))
    for u in range(k):
        for v in range(k):
            y_full[:, :, u : u + h * stride : stride, v : v + wd * stride : stride] += cols[:, u, v]
    ho, wo = full_h - 2 * pad, full_w - 2 * pad
    y = y_full[:, :, pad : pad + ho, pad : pad + wo].transpose(1, 0, 2, 3) + b[:, None, None]
    dy_full = np.zeros((cout, bsz, full_h, full_w))
    dy_full[:, :, pad : pad + ho, pad : pad + wo] = dy.transpose(1, 0, 2, 3)
    win = np.lib.stride_tricks.sliding_window_view(dy_full, (k, k), axis=(2, 3))
    dcols = win[:, :, ::stride, ::stride].transpose(0, 4, 5, 1, 2, 3).reshape(cout * k * k, -1)
    dx = (w.reshape(cin, -1) @ dcols).reshape(cin, bsz, h, wd).transpose(1, 0, 2, 3)
    dw = (x_mat @ dcols.T).reshape(w.shape)
    return y, dx, dw, dy.sum(axis=(0, 2, 3))


class TestConvTranspose2d:
    @pytest.mark.parametrize(
        "k,stride,pad",
        [
            (3, 1, 0), (3, 1, 1), (4, 2, 1), (3, 2, 1), (5, 2, 2),
            (4, 3, 1), (5, 3, 0), (2, 3, 0), (1, 2, 0),
        ],
    )
    @pytest.mark.parametrize("cin,cout", [(3, 4), (1, 2), (2, 1)])
    def test_matches_im2col_oracle(self, k, stride, pad, cin, cout):
        # stride phases against the column-matrix transpose conv, forward
        # and backward, over a batch of non-square maps; k need not divide
        # by the stride, and k < stride leaves phases that no tap reaches
        rng = SeededRng(20 + k + 3 * stride + pad)
        x = rng.normals((3, cin, 4, 5))
        w = rng.normals((cin, cout, k, k))
        b = rng.normals((cout,))
        y, cache = ops.conv_transpose2d_forward(x, w, b, stride, pad)
        dy = rng.normals(y.shape)
        dx, dw, db = ops.conv_transpose2d_backward(dy, cache)
        ref = im2col_conv_transpose2d(x, w, b, stride, pad, dy)
        for got, want in zip((y, dx, dw, db), ref):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_float32_default_decoder_stage(self):
        # the decoder's 16 -> 32 upsample at batch 64, in float32
        rng = SeededRng(30)
        x = rng.normals((64, 8, 16, 16), dtype=np.float32)
        w = rng.normals((8, 8, 4, 4), dtype=np.float32) * 0.2
        b = rng.normals((8,), dtype=np.float32)
        y, cache = ops.conv_transpose2d_forward(x, w, b, 2, 1)
        dy = rng.normals(y.shape, dtype=np.float32)
        got = (y,) + ops.conv_transpose2d_backward(dy, cache)
        ref = im2col_conv_transpose2d(x, w, b, 2, 1, dy)
        for g, want in zip(got, ref):
            assert g.dtype == np.float32
            assert np.linalg.norm(g - want) / np.linalg.norm(want) < 1e-6

    def test_one_by_one_identity(self):
        x = SeededRng(1).normals((2, 3, 4, 4))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y, _ = ops.conv_transpose2d_forward(x, w, np.zeros(3))
        assert np.allclose(y, x, atol=0)

    def test_stride2_doubles_extent(self):
        x = np.ones((1, 2, 5, 7))
        w = np.ones((2, 3, 4, 4))
        y, _ = ops.conv_transpose2d_forward(x, w, np.zeros(3), stride=2, pad=1)
        assert y.shape == (1, 3, 10, 14)

    def test_adjoint_of_conv2d(self):
        # <conv(x), y> == <x, conv_transpose(y)> for matched specs; a conv
        # weight (out, in, k, k) is already in transpose orientation
        rng = SeededRng(5)
        x = rng.normals((2, 3, 6, 6))
        for k, stride, pad in [(3, 1, 0), (3, 1, 1), (4, 2, 1)]:
            w = rng.normals((4, 3, k, k))
            cx, _ = ops.conv2d_forward(x, w, None, stride, pad)
            y = rng.normals(cx.shape)
            ty, _ = ops.conv_transpose2d_forward(y, w, None, stride, pad)
            assert abs(np.sum(cx * y) - np.sum(x * ty)) < 1e-10

    def test_equals_conv2d_backward_by_inputs(self):
        rng = SeededRng(6)
        x = rng.normals((1, 2, 5, 5))
        w = rng.normals((3, 2, 3, 3))
        y, cache = ops.conv2d_forward(x, w, None, stride=2, pad=1)
        dy = rng.normals(y.shape)
        dx, _, _ = ops.conv2d_backward(dy, cache)
        via_transpose, _ = ops.conv_transpose2d_forward(dy, w, None, stride=2, pad=1)
        assert np.max(np.abs(dx - via_transpose)) < 1e-12


def _matmul(a, b):
    return a * b if a.shape[-1] == 1 else a @ b


def unblocked_shifted_gemms(taps, win, y_flat):
    """The tap loop that the column-blocked `ops._shifted_gemms` replaced,
    kept as an oracle: each tap's GEMM streams the whole padded grid."""
    y_mat = y_flat[:, : win.shape[-1]]
    y_mat[...] = 0.0
    for iu in range(taps.shape[0]):
        for iv in range(taps.shape[1]):
            y_mat += _matmul(taps[iu, iv], win[iu, iv])


def unblocked_shifted_gemms_backward(mats, flat, offs, dy_flat, dflat):
    """The unblocked adjoint, kept as an oracle for
    `ops._shifted_gemms_backward`."""
    n = flat.shape[1] - max(offs)
    dy_mat = dy_flat[:, :n]
    dmats = []
    for m, off in zip(mats, offs):
        dmats.append(dy_mat @ flat[:, off : off + n].T)
        dflat[:, off : off + n] += _matmul(m.T, dy_mat)
    return dmats


def _run_conv(transpose, x, w, b, stride, pad, dy_rng):
    fwd, bwd = (
        (ops.conv_transpose2d_forward, ops.conv_transpose2d_backward)
        if transpose
        else (ops.conv2d_forward, ops.conv2d_backward)
    )
    y, cache = fwd(x, w, b, stride, pad)
    dy = SeededRng(dy_rng).normals(y.shape, dtype=x.dtype)
    return (y,) + bwd(dy, cache)


class TestBlockedShiftedGemms:
    """Column-blocked shifted GEMMs against the unblocked tap loop they
    replaced: y, dx, dw and db of stride-1 convs and of the stride phases
    of transpose convs. Blocking reorders no sum: every output column adds
    its taps in tap order, and each weight gradient is still one product
    over the whole grid. In float32, the training precision, the results
    are bit for bit the unblocked ones; the desk-scale training run depends
    on that, since its outcome turns on the low bits (ROADMAP.md, item 1).
    float64 products of 16 or more channels go through BLAS, which rounds
    the last columns of a short block differently, so float64 agrees to
    1e-12, relative."""

    CASES = [
        # transpose, batch, c_in, c_out, size, k, stride, pad
        (False, 40, 8, 8, 16, 3, 1, 1),
        (False, 40, 16, 8, 16, 3, 1, 1),
        (False, 40, 1, 8, 16, 3, 1, 1),
        (False, 40, 8, 1, 16, 3, 1, 1),
        (False, 40, 8, 7, 16, 3, 1, 0),
        (False, 120, 3, 5, 13, 5, 1, 2),
        (True, 64, 32, 16, 4, 4, 2, 1),
        (True, 64, 16, 8, 8, 4, 2, 1),
        (True, 180, 8, 1, 8, 3, 2, 1),
        (True, 180, 1, 8, 8, 4, 2, 1),
    ]

    @staticmethod
    def _spy_blocks(monkeypatch):
        seen = []
        real = ops._blocks

        def spy(*args):
            blocks = real(*args)
            seen.append(blocks)
            return blocks

        monkeypatch.setattr(ops, "_blocks", spy)
        return seen

    def _both(self, monkeypatch, transpose, bsz, cin, cout, size, k, stride, pad, dtype):
        rng = SeededRng(bsz + 7 * cin + 3 * cout + k)
        x = rng.normals((bsz, cin, size, size + 3), dtype=dtype)
        wshape = (cin, cout, k, k) if transpose else (cout, cin, k, k)
        w = rng.normals(wshape, dtype=dtype)
        b = rng.normals((cout,), dtype=dtype)
        with monkeypatch.context() as m:
            m.setattr(ops, "_shifted_gemms", unblocked_shifted_gemms)
            m.setattr(ops, "_shifted_gemms_backward", unblocked_shifted_gemms_backward)
            want = _run_conv(transpose, x, w, b, stride, pad, 1)
        seen = self._spy_blocks(monkeypatch)
        got = _run_conv(transpose, x, w, b, stride, pad, 1)
        return got, want, seen

    @staticmethod
    def _assert_match(got, want, dtype):
        for g, ref in zip(got, want):
            assert g.dtype == dtype and g.shape == ref.shape
            if dtype == np.float32:
                assert np.array_equal(g, ref)
            else:
                assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", CASES)
    def test_several_blocks_match_unblocked(self, monkeypatch, case, dtype):
        got, want, seen = self._both(monkeypatch, *case, dtype)
        # the grid spans several blocks, the last one ragged
        assert any(len(bl) >= 2 and bl[-1][1] - bl[-1][0] < bl[0][1] - bl[0][0] for bl in seen)
        self._assert_match(got, want, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", CASES)
    def test_batch_of_one_is_one_block_and_bit_equal(self, monkeypatch, case, dtype):
        got, want, seen = self._both(monkeypatch, case[0], 1, *case[2:], dtype)
        assert seen and all(len(bl) == 1 for bl in seen)
        for g, ref in zip(got, want):
            assert np.array_equal(g, ref)

    def test_training_steps_bit_equal(self, tmp_path, monkeypatch):
        # three content and two motion steps of the default model at batch
        # 64 leave every parameter exactly where the unblocked loop does
        from motionfuse import model, training
        from motionfuse.synthdata import ClipSpec, gen_dataset, load_dataset

        path = tmp_path / "d.smv"
        gen_dataset(4, 8, 7, ClipSpec(frames=10, size=32), path)
        data = load_dataset(path)

        def train():
            bundle = model.build_model(model.ModelConfig(), SeededRng(7))
            cfg = training.TrainConfig(iterations=10, seed=7)
            trainer = training.Trainer(bundle, data, cfg)
            phases = [trainer.train_step()["phase"] for _ in range(5)]
            assert phases == ["content"] * 3 + ["motion"] * 2
            return {
                (name, key): ps.value(key).copy()
                for name, ps in bundle.param_sets().items()
                for key in ps.names()
            }

        got = train()
        with monkeypatch.context() as m:
            m.setattr(ops, "_shifted_gemms", unblocked_shifted_gemms)
            m.setattr(ops, "_shifted_gemms_backward", unblocked_shifted_gemms_backward)
            want = train()
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)


class TestWorkBuffers:
    """The conv GEMM temporaries come from per-thread work buffers that live
    across calls. No output may share memory with one, a call must not
    depend on what an earlier call left in them, and threads must not share
    them."""

    DEGENERATE = [
        # transpose, batch, c_in, c_out, size, k, stride, pad
        (False, 1, 1, 1, 4, 1, 1, 0),
        (False, 1, 3, 2, 4, 1, 1, 0),
        (False, 2, 1, 1, 4, 1, 1, 0),
        (False, 3, 2, 1, 4, 1, 1, 0),
        (False, 2, 1, 3, 4, 1, 1, 0),
        (False, 1, 2, 3, 5, 3, 1, 1),
        (False, 1, 1, 1, 5, 3, 2, 0),
        (True, 1, 1, 1, 4, 1, 1, 0),
        (True, 1, 2, 3, 4, 1, 1, 0),
        (True, 2, 1, 3, 4, 1, 1, 0),
        (True, 3, 2, 1, 4, 1, 1, 0),
        (True, 1, 1, 1, 4, 4, 2, 1),
        (True, 2, 3, 1, 4, 4, 2, 1),
    ]

    @staticmethod
    def _inputs(transpose, bsz, cin, cout, size, k, stride, pad, dtype=np.float32, seed=0):
        rng = SeededRng(seed + 13 * bsz + 5 * cin + cout)
        x = rng.normals((bsz, cin, size, size + 1), dtype=dtype)
        w = rng.normals((cin, cout, k, k) if transpose else (cout, cin, k, k), dtype=dtype)
        return x, w, rng.normals((cout,), dtype=dtype), stride, pad

    def _run(self, case, dtype=np.float32, seed=0):
        return _run_conv(case[0], *self._inputs(*case, dtype=dtype, seed=seed), seed + 1)

    @pytest.mark.parametrize("case", DEGENERATE)
    def test_outputs_never_share_memory_with_work_buffers(self, case):
        got = self._run(case)
        kept = [g.copy() for g in got]
        for g in got:
            assert not any(np.shares_memory(g, buf) for buf in ops._work.flat.values())
        # a second call of the same shape reuses every buffer and leaves
        # the first call's outputs as they were
        self._run(case, seed=1)
        assert all(np.array_equal(g, k) for g, k in zip(got, kept))

    CASES = [
        (False, 2, 3, 4, 6, 3, 1, 1),
        (False, 2, 1, 4, 6, 3, 1, 0),
        (False, 2, 4, 1, 6, 3, 1, 2),
        (True, 2, 4, 3, 4, 4, 2, 1),
        (True, 2, 3, 1, 4, 3, 2, 1),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_call_after_larger_calls_is_bit_equal_to_cold_buffers(self, monkeypatch, case):
        monkeypatch.setattr(ops._work, "flat", {})
        cold = self._run(case)
        # fill every role with other values, larger, in float64 then float32
        for dtype in (np.float64, np.float32):
            for big in [(False, 4, 6, 5, 12, 3, 1, 1), (True, 4, 6, 5, 8, 4, 2, 1)]:
                self._run(big, dtype=dtype, seed=2)
        warm = self._run(case)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)

    def test_threads_get_single_thread_results(self):
        # more threads than cores, switching often, two shapes each
        cases = [(False, 3, 4, 5, 10, 3, 1, 1), (True, 3, 5, 4, 6, 4, 2, 1)]
        want = [self._run(case) for case in cases]
        got = [[] for _ in range(4)]
        start = threading.Barrier(4)

        def work(i):
            start.wait()
            for r in range(10):
                got[i].append(self._run(cases[(i + r) % 2]))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(4):
            assert len(got[i]) == 10
            for r, run in enumerate(got[i]):
                assert all(np.array_equal(g, ref) for g, ref in zip(run, want[(i + r) % 2]))

    def test_repeated_backward_allocates_only_its_outputs(self):
        # 64x8x32x32 -> 8, 3x3, pad 1: once the buffers have grown, a
        # backward allocates its outputs (dx 2 MiB, dw and db tiny) and
        # nothing of the size of its padded grids
        rng = SeededRng(5)
        x = rng.normals((64, 8, 32, 32), dtype=np.float32)
        w = rng.normals((8, 8, 3, 3), dtype=np.float32)
        y, cache = ops.conv2d_forward(x, w, rng.normals((8,), dtype=np.float32), 1, 1)
        dy = rng.normals(y.shape, dtype=np.float32)
        ops.conv2d_backward(dy, cache)
        tracemalloc.start()
        try:
            dx, _, _ = ops.conv2d_backward(dy, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * dx.nbytes


def per_tap_shifted_gemms(mats, flat, offs, y_flat):
    """The forward tap loop from before tap stacks, kept as an oracle: per
    column block, one product and one sum for each kernel tap in turn, into
    an output grid the caller zero-fills. `mats` are the (C_out, C_in) tap
    matrices and `offs` their flat offsets into `flat`."""
    n = flat.shape[1] - max(offs)
    cout, cin = mats[0].shape
    blocks = ops._blocks(n, cout, cin, y_flat.itemsize)
    buf = np.empty(cout * (blocks[0][1] - blocks[0][0]), dtype=y_flat.dtype)
    product = np.multiply if cin == 1 else np.matmul
    for j0, j1 in blocks:
        tmp = buf[: cout * (j1 - j0)].reshape(cout, j1 - j0)
        y_blk = y_flat[:, j0:j1]
        for m, off in zip(mats, offs):
            product(m, flat[:, j0 + off : j1 + off], out=tmp)
            y_blk += tmp


def per_tap_conv2d_forward(x, w, b, pad):
    """The stride-1 `conv2d_forward` from before tap stacks (oracle)."""
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    xp = ops._channel_major_padded(x, pad)
    hp, wp = xp.shape[2:]
    flat = xp.reshape(cin, -1)
    taps = w.transpose(2, 3, 0, 1).reshape(k * k, cout, cin)
    y_flat = np.zeros((cout, flat.shape[1]), dtype=x.dtype)
    per_tap_shifted_gemms(taps, flat, [u * wp + v for u in range(k) for v in range(k)], y_flat)
    if b is not None:
        y_flat += b[:, None]
    return y_flat.reshape(cout, bsz, hp, wp)[:, :, :ho, :wo].transpose(1, 0, 2, 3).copy()


def per_tap_conv_transpose2d_forward(x, w, b, stride, pad):
    """`conv_transpose2d_forward` from before tap stacks (oracle): each
    stride phase a per-tap loop over `w[:, :, u, v].T` views."""
    bsz, cin, h, wd = x.shape
    cout, k = w.shape[1], w.shape[2]
    ho, wo = (h - 1) * stride - 2 * pad + k, (wd - 1) * stride - 2 * pad + k
    lead_h, hp, rows = ops._stride_phases(k, stride, pad, h, ho)
    lead_w, wp, cols = ops._stride_phases(k, stride, pad, wd, wo)
    xp = np.zeros((cin, bsz, hp, wp), dtype=x.dtype)
    xp[:, :, lead_h : lead_h + h, lead_w : lead_w + wd] = x.transpose(1, 0, 2, 3)
    flat = xp.reshape(cin, -1)
    y = np.empty((bsz, cout, ho, wo), dtype=np.result_type(x, w))
    for pr, mr, rtaps in rows:
        for pc, mc, ctaps in cols:
            taps = [(u, v, ro * wp + co) for u, ro in rtaps for v, co in ctaps]
            y_flat = np.zeros((cout, flat.shape[1]), dtype=y.dtype)
            if taps:
                mats = [w[:, :, u, v].T for u, v, _ in taps]
                per_tap_shifted_gemms(mats, flat, [off for _, _, off in taps], y_flat)
            y_grid = y_flat.reshape(cout, bsz, hp, wp)[:, :, :mr, :mc]
            y[:, :, pr::stride, pc::stride] = y_grid.transpose(1, 0, 2, 3)
    if b is not None:
        y += b[:, None, None]
    return y


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTapStacks:
    """The forward shifted GEMMs run each conv's, or each stride phase's,
    kernel taps as one strided product and one reduction on a one-block
    grid, and tap by tap on larger grids. Either way they are bit for bit
    the per-tap loop they replaced, sign bits included: the same products,
    summed in tap order from +0.0. The cases cover one-block and multi-block
    grids, C_in = 1 (a broadcast product), C_out = 1 (always per tap),
    ReLU'd inputs holding exact zeros, and convs without bias."""

    CHANNELS = [(1, 4), (4, 1), (5, 3), (16, 8)]

    @staticmethod
    def _inputs(bsz, cin, cout, size, k, dtype, transpose=False, seed=0):
        rng = SeededRng(seed + 31 * bsz + 7 * cin + 3 * cout + k)
        x = np.maximum(rng.normals((bsz, cin, size, size + 1), dtype=dtype), 0.0)
        w = rng.normals((cin, cout, k, k) if transpose else (cout, cin, k, k), dtype=dtype)
        return x, w, rng.normals((cout,), dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [1, 9, 64])
    @pytest.mark.parametrize("cin,cout", CHANNELS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_forward_bit_equal_to_per_tap_loop(self, k, cin, cout, bsz, dtype):
        x, w, b = self._inputs(bsz, cin, cout, 6, k, dtype)
        assert np.any(x == 0.0)
        for pad in (0, 1, 2):
            for bias in (b, None):
                got, _ = ops.conv2d_forward(x, w, bias, 1, pad)
                assert _same_bits(got, per_tap_conv2d_forward(x, w, bias, pad)), (pad, bias is None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [1, 9, 64])
    @pytest.mark.parametrize("cin,cout", CHANNELS)
    @pytest.mark.parametrize("k,stride,pad", [(4, 2, 1), (1, 2, 0), (3, 2, 1), (3, 1, 1)])
    def test_conv_transpose2d_forward_bit_equal_to_per_tap_loop(self, k, stride, pad, cin, cout, bsz, dtype):
        # k=1 at stride 2 leaves three of the four phases without taps
        x, w, b = self._inputs(bsz, cin, cout, 4, k, dtype, transpose=True)
        for bias in (b, None):
            got, _ = ops.conv_transpose2d_forward(x, w, bias, stride, pad)
            assert _same_bits(got, per_tap_conv_transpose2d_forward(x, w, bias, stride, pad))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stale_work_buffers_do_not_leak(self, transpose, dtype):
        # grow every buffer with a larger call, fill them all with NaN: the
        # forward must write every grid column it reads
        for bsz in (1, 9, 64):
            x, w, b = self._inputs(bsz, 5, 3, 4, 4 if transpose else 3, dtype, transpose)
            big = self._inputs(64, 8, 8, 12, 3, dtype)
            ops.conv2d_forward(big[0], big[1], big[2], 1, 1)
            for buf in ops._work.flat.values():
                buf[...] = np.nan
            if transpose:
                got, _ = ops.conv_transpose2d_forward(x, w, b, 2, 1)
                want = per_tap_conv_transpose2d_forward(x, w, b, 2, 1)
            else:
                got, _ = ops.conv2d_forward(x, w, b, 1, 1)
                want = per_tap_conv2d_forward(x, w, b, 1)
            assert _same_bits(got, want)

    @pytest.mark.parametrize("cin", [1, 4])
    @pytest.mark.parametrize("bsz", [1, 64])
    def test_zero_input_gives_positive_zeros(self, cin, bsz):
        # each product of a zero input and a negative weight is -0.0; summed
        # from +0.0 the output is +0.0, where a sum seeded with the first
        # product would keep the sign bit
        x = np.zeros((bsz, cin, 5, 5), dtype=np.float32)
        w = -np.ones((3, cin, 3, 3), dtype=np.float32)
        y, _ = ops.conv2d_forward(x, w, None, 1, 1)
        assert not np.signbit(y).any()
        wt = -np.ones((cin, 3, 4, 4), dtype=np.float32)
        yt, _ = ops.conv_transpose2d_forward(x, wt, None, 2, 1)
        assert not np.signbit(yt).any()

    def test_transpose_tap_stack_is_a_view_of_the_weights(self, monkeypatch):
        seen = []
        real = ops._shifted_gemms

        def spy(taps, win, y_flat):
            seen.append((taps, win))
            return real(taps, win, y_flat)

        monkeypatch.setattr(ops, "_shifted_gemms", spy)
        x, w, b = self._inputs(1, 5, 3, 4, 4, np.float32, transpose=True)
        ops.conv_transpose2d_forward(x, w, b, 2, 1)
        assert len(seen) == 4
        for taps, win in seen:
            assert taps.shape == (2, 2, 3, 5) and np.shares_memory(taps, w)
            assert win.shape[:3] == (2, 2, 5) and not win.flags.writeable

    def test_tap_window_stays_inside_the_grid(self):
        flat = np.zeros((2, 10), dtype=np.float32)
        win = ops._tap_window(flat, 0, 2, 2, 5, 4)
        assert win.shape == (2, 2, 2, 4) and np.shares_memory(win, flat)
        assert not win.flags.writeable
        with pytest.raises(ValueError):
            ops._tap_window(flat, 0, 2, 2, 5, 5)

    def test_plans_are_cached(self):
        ops._transpose_plan.cache_clear()
        x, w, b = self._inputs(2, 3, 4, 4, 4, np.float32, transpose=True)
        for _ in range(3):
            ops.conv_transpose2d_forward(x, w, b, 2, 1)
        info = ops._transpose_plan.cache_info()
        assert info.misses == 1 and info.hits == 2


class TestSimpleOps:
    def test_relu(self):
        y, _ = ops.relu_forward(np.array([-1.0, 2.0]))
        assert np.array_equal(y, [0.0, 2.0])
        assert np.all(ops.relu_forward(SeededRng(0).normals((100,)))[0] >= 0)

    def test_sigmoid_midpoint_and_tails(self):
        y, _ = ops.sigmoid_forward(np.array([0.0]))
        assert y[0] == 0.5
        y, _ = ops.sigmoid_forward(np.array([800.0, -800.0]))
        assert np.all(np.isfinite(y))

    def test_activations_monotone(self):
        x = np.sort(SeededRng(2).normals((200,)))
        for fwd in (ops.relu_forward, ops.tanh_forward, ops.sigmoid_forward):
            y, _ = fwd(x)
            assert np.all(np.diff(y) >= 0)

    def test_linear_shapes(self):
        y, _ = ops.linear_forward(np.ones((2, 3)), np.ones((3, 4)), np.zeros(4))
        assert np.array_equal(y, np.full((2, 4), 3.0))
        with pytest.raises(ShapeError):
            ops.linear_forward(np.ones((2, 3)), np.ones((4, 4)))


class TestSoftmax:
    def test_uniform_rows(self):
        assert np.allclose(ops.softmax_logits(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_logits_stable(self):
        p = ops.softmax_logits(np.array([1000.0, 1000.0]))
        assert np.allclose(p, [0.5, 0.5])

    def test_closed_form(self):
        p = ops.softmax_logits(np.log(np.array([1.0, 2.0, 3.0])))
        assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rows_sum_to_one(self):
        p = ops.softmax_logits(SeededRng(9).normals((40, 11)))
        assert np.max(np.abs(p.sum(-1) - 1.0)) < 1e-12


class TestConvLstm:
    def _zero_params(self, xc=2, hc=3, k=3):
        return (
            np.zeros((4 * hc, xc, k, k)),
            np.zeros((4 * hc, hc, k, k)),
            np.zeros(4 * hc),
        )

    def test_all_zero_gives_zero_state(self):
        wx, wh, b = self._zero_params()
        x = np.zeros((1, 2, 4, 4))
        h0 = np.zeros((1, 3, 4, 4))
        h, c, _ = ops.convlstm_step_forward(x, h0, h0, wx, wh, b)
        assert np.array_equal(h, np.zeros_like(h0))
        assert np.array_equal(c, np.zeros_like(h0))

    def test_forget_gate_saturation_keeps_cell(self):
        wx, wh, b = self._zero_params()
        hc = 3
        b[0 * hc : 1 * hc] = -30.0  # input gate ~ 0
        b[1 * hc : 2 * hc] = 30.0  # forget gate ~ 1
        x = SeededRng(1).normals((1, 2, 4, 4))
        h0 = np.zeros((1, 3, 4, 4))
        c0 = SeededRng(2).normals((1, 3, 4, 4))
        _, c, _ = ops.convlstm_step_forward(x, h0, c0, wx, wh, b)
        assert np.max(np.abs(c - c0)) < 1e-8

    def test_state_shape_mismatch(self):
        wx, wh, b = self._zero_params()
        with pytest.raises(ShapeError):
            ops.convlstm_step_forward(
                np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 5, 5)), np.zeros((1, 3, 5, 5)), wx, wh, b
            )


class TestParamSet:
    def test_duplicate_name_rejected(self):
        ps = ops.ParamSet()
        ps.add("w", np.zeros(3))
        with pytest.raises(ValueError):
            ps.add("w", np.zeros(3))

    def test_gradient_shape_guard(self):
        ps = ops.ParamSet()
        ps.add("w", np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            ps.accumulate("w", np.zeros(3))

    def test_zero_grads(self):
        ps = ops.ParamSet()
        ps.add("w", np.zeros(2))
        ps.accumulate("w", np.ones(2))
        ps.zero_grads()
        assert np.array_equal(ps.grad("w"), np.zeros(2))


def test_xavier_bounds():
    w = ops.xavier_uniform(SeededRng(3), (50, 50), 50, 50, np.float64)
    limit = np.sqrt(6.0 / 100)
    assert np.max(np.abs(w)) <= limit
    # every conv and linear bias starts at zero
    from motionfuse import model

    params = model.build_classifier(model.ModelConfig(), SeededRng(3))
    for name, value in params.items():
        if name.endswith(".b"):
            assert np.array_equal(value, np.zeros_like(value))


def test_conv_spec_validation():
    spec = ops.ConvSpec(2, 4, 3, 2, 1)
    assert spec.out_size(32) == 16
    assert spec.transpose_out_size(16) == 31
    with pytest.raises(ValueError):
        ops.ConvSpec(0, 1, 3)
    with pytest.raises(ShapeError):
        ops.ConvSpec(1, 1, 7).out_size(4)


@pytest.mark.parametrize("op_name", sorted(gradcheck.OP_CHECKS))
def test_backward_matches_finite_differences(op_name):
    # quick 2-seed sweep; the acceptance suite runs the full 5-seed version
    assert gradcheck.run_op_check(op_name, seeds=2) < 1e-4
