import re

import numpy as np
import pytest

from motionfuse import fusion
from motionfuse.tensor import SeededRng, ShapeError


def adaptive_conv_oracle(h, kern):
    """Per-pixel nested-loop reference with replicate padding.

    h: (C, H, W); kern: (H, W, n, n).
    """
    c_dim, hh, ww = h.shape
    n = kern.shape[-1]
    r = n // 2
    out = np.zeros_like(h)
    for c in range(c_dim):
        for a in range(hh):
            for b in range(ww):
                acc = 0.0
                for u in range(n):
                    for v in range(n):
                        ai = min(max(a + u - r, 0), hh - 1)
                        bi = min(max(b + v - r, 0), ww - 1)
                        acc += h[c, ai, bi] * kern[a, b, u, v]
                out[c, a, b] = acc
    return out


def einsum_adaptive_conv(h, kernels, dy):
    """The window-copying einsum implementation this module's tap loops
    replaced, kept as an oracle: (output, dh, dkernels) for upstream `dy`.

    h is (B, C, H, W); fields are batched (B, ...) or unbatched (H, W, ...).
    """
    n = kernels.n
    r = n // 2
    bsz, c, hh, ww = h.shape
    hp = np.pad(h, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    win = np.lib.stride_tricks.sliding_window_view(hp, (n, n), axis=(2, 3))
    dp = np.zeros(hp.shape, dtype=np.result_type(h, dy))
    if isinstance(kernels, fusion.SeparableKernelField):
        unbatched = kernels.wv.ndim == 3
        wv = np.broadcast_to(kernels.wv, (bsz, hh, ww, n))
        wh = np.broadcast_to(kernels.wh, (bsz, hh, ww, n))
        t = np.einsum("bchwuv,bhwu->bchwv", win, wv, optimize=True)
        out = np.einsum("bchwv,bhwv->bchw", t, wh, optimize=True)
        dwh = np.einsum("bchwv,bchw->bhwv", t, dy, optimize=True)
        dt = np.einsum("bhwv,bchw->bchwv", wh, dy, optimize=True)
        dwv = np.einsum("bchwuv,bchwv->bhwu", win, dt, optimize=True)
        for u in range(n):
            for v in range(n):
                dp[:, :, u : u + hh, v : v + ww] += wv[:, None, :, :, u] * dt[..., v]
        if unbatched:
            dwv, dwh = dwv.sum(axis=0), dwh.sum(axis=0)
        dk = fusion.SeparableKernelField(wv=dwv, wh=dwh)
    else:
        unbatched = kernels.w.ndim == 3
        kern = np.broadcast_to(kernels.w, (bsz, hh, ww, n * n)).reshape(bsz, hh, ww, n, n)
        out = np.einsum("bchwuv,bhwuv->bchw", win, kern, optimize=True)
        dkern = np.einsum("bchwuv,bchw->bhwuv", win, dy, optimize=True)
        for u in range(n):
            for v in range(n):
                dp[:, :, u : u + hh, v : v + ww] += kern[:, None, :, :, u, v] * dy
        if unbatched:
            dkern = dkern.sum(axis=0)
        dk = fusion.DenseKernelField(w=dkern.reshape(dkern.shape[:-2] + (n * n,)))
    rows = dp[:, :, r : r + hh, :].copy()
    rows[:, :, 0, :] += dp[:, :, :r, :].sum(axis=2)
    rows[:, :, hh - 1, :] += dp[:, :, r + hh :, :].sum(axis=2)
    dh = rows[:, :, :, r : r + ww].copy()
    dh[:, :, :, 0] += rows[:, :, :, :r].sum(axis=3)
    dh[:, :, :, ww - 1] += rows[:, :, :, r + ww :].sum(axis=3)
    return out, dh, dk


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-30)


def _field(rng, mode, shape, n, dtype):
    if mode == "separable":
        return fusion.SeparableKernelField(
            rng.normals(shape + (n,), dtype=dtype), rng.normals(shape + (n,), dtype=dtype)
        )
    return fusion.DenseKernelField(rng.normals(shape + (n * n,), dtype=dtype))


def _kernel_arrays(k):
    return (k.wv, k.wh) if isinstance(k, fusion.SeparableKernelField) else (k.w,)


def per_tap_adaptive_conv_forward(h, kernels):
    """`adaptive_conv_forward` from before tap stacks, kept as an oracle:
    one broadcast multiply and one add per kernel tap over the whole batch,
    into a zero-filled output, on an `np.pad` replicate-padded map."""
    h4 = h[None] if h.ndim == 3 else h
    k, _ = fusion._tap_weights(h4, kernels)
    n = kernels.n
    hh, ww = h4.shape[2:]
    r = n // 2
    hp = np.pad(h4, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    out = np.zeros(h4.shape, dtype=np.result_type(h4, k))
    prod = np.empty_like(out)
    for u in range(n):
        for v in range(n):
            out += np.multiply(k[u * n + v][:, None], hp[:, :, u : u + hh, v : v + ww], out=prod)
    return out[0] if h.ndim == 3 else out


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTapStack:
    """The forward multiplies every tap's weight map with a strided window
    view of the padded content in one call per batch block, and sums the
    taps in one reduction: bit for bit the per-tap loop it replaced, sign
    bits included, since each product is the same and the taps are added in
    tap order from +0.0."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["separable", "dense"])
    @pytest.mark.parametrize("bsz", [1, 9, 64])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_bit_equal_to_per_tap_loop(self, n, bsz, mode, dtype):
        rng = SeededRng(100 * n + bsz)
        for c, size in ((8, 16), (3, 5), (1, 1), (2, 1)):
            h = np.maximum(rng.normals((bsz, c, size, size + 1 if size > 1 else 1), dtype=dtype), 0.0)
            for shape in ((bsz,) + h.shape[2:], h.shape[2:]):
                k = _field(rng, mode, shape, n, dtype)
                got, _ = fusion.adaptive_conv_forward(h, k)
                assert _same_bits(got, per_tap_adaptive_conv_forward(h, k)), (c, size, shape)

    @pytest.mark.parametrize("n", [3, 5])
    def test_one_pixel_single_channel_map_sums_in_tap_order(self, n):
        # a one-element result: numpy would sum the reduction pairwise
        rng = SeededRng(n)
        for trial in range(20):
            h = rng.normals((1, 1, 1, 1), dtype=np.float32)
            k = fusion.DenseKernelField(rng.normals((1, 1, n * n), dtype=np.float32) * 1e3)
            got, _ = fusion.adaptive_conv_forward(h, k)
            assert _same_bits(got, per_tap_adaptive_conv_forward(h, k))
            got, _ = fusion.adaptive_conv_forward(h[0], k)
            assert _same_bits(got, per_tap_adaptive_conv_forward(h[0], k))

    def test_unbatched_content(self):
        rng = SeededRng(4)
        h = rng.normals((3, 6, 7), dtype=np.float32)
        k = _field(rng, "separable", (6, 7), 3, np.float32)
        got, _ = fusion.adaptive_conv_forward(h, k)
        assert _same_bits(got, per_tap_adaptive_conv_forward(h, k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stale_work_buffers_do_not_leak(self, dtype):
        from motionfuse import ops

        rng = SeededRng(8)
        big = rng.normals((64, 8, 32, 32), dtype=dtype)
        fusion.adaptive_conv_forward(big, _field(rng, "separable", (64, 32, 32), 5, dtype))
        for bsz in (1, 9, 64):
            for buf in ops._work.flat.values():
                buf[...] = np.nan
            h = rng.normals((bsz, 8, 16, 16), dtype=dtype)
            k = _field(rng, "separable", (bsz, 16, 16), 3, dtype)
            got, _ = fusion.adaptive_conv_forward(h, k)
            assert _same_bits(got, per_tap_adaptive_conv_forward(h, k))

    def test_zero_content_gives_positive_zeros(self):
        # zero content times negative weights is -0.0 per tap; the sum
        # starts from +0.0
        h = np.zeros((2, 3, 4, 4), dtype=np.float32)
        k = fusion.DenseKernelField(-np.ones((2, 4, 4, 9), dtype=np.float32))
        got, _ = fusion.adaptive_conv_forward(h, k)
        assert not np.signbit(got).any()


class TestReplicatePad:
    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1, 8, 32, 32), (2, 3, 5, 7), (1, 1, 1, 1), (3, 2, 1, 4), (2, 2, 4, 1)])
    def test_equals_np_pad_edge(self, shape, r):
        h = SeededRng(r).normals(shape, dtype=np.float32)
        got = fusion._replicate_pad(h, r)
        want = np.pad(h, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
        assert _same_bits(got, want)
        assert not np.shares_memory(got, h)


class TestAgainstEinsumOracle:
    """The tap loops against the einsum implementation they replaced."""

    @pytest.mark.parametrize("mode", ["separable", "dense"])
    @pytest.mark.parametrize(
        "bsz,size,n",
        [(64, 16, 3), (64, 32, 3), (1, 16, 3), (64, 16, 5), (1, 9, 5)],
    )
    def test_batched_float32(self, mode, bsz, size, n):
        rng = SeededRng(40 + bsz + size + n)
        h = rng.normals((bsz, 8, size, size), dtype=np.float32)
        kernels = _field(rng, mode, (bsz, size, size), n, np.float32)
        dy = rng.normals(h.shape, dtype=np.float32)
        out, cache = fusion.adaptive_conv_forward(h, kernels)
        dh, dk = fusion.adaptive_conv_backward(dy, cache)
        ref_out, ref_dh, ref_dk = einsum_adaptive_conv(h, kernels, dy)
        assert out.dtype == np.float32 and out.shape == ref_out.shape
        assert _rel(out, ref_out) < 1e-6
        assert _rel(dh, ref_dh) < 1e-6
        for got, ref in zip(_kernel_arrays(dk), _kernel_arrays(ref_dk)):
            assert got.shape == ref.shape and got.dtype == np.float32
            assert _rel(got, ref) < 1e-6

    @pytest.mark.parametrize("mode", ["separable", "dense"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_unbatched_fields(self, mode, n):
        rng = SeededRng(50 + n)
        kernels = _field(rng, mode, (7, 7), n, np.float64)
        for h in (rng.normals((3, 3, 7, 7)), rng.normals((3, 7, 7))):
            dy = rng.normals(h.shape)
            out, cache = fusion.adaptive_conv_forward(h, kernels)
            dh, dk = fusion.adaptive_conv_backward(dy, cache)
            lift = h.ndim == 3
            ref_out, ref_dh, ref_dk = einsum_adaptive_conv(
                h[None] if lift else h, kernels, dy[None] if lift else dy
            )
            if lift:
                ref_out, ref_dh = ref_out[0], ref_dh[0]
            assert out.shape == h.shape and dh.shape == h.shape
            assert np.max(np.abs(out - ref_out)) < 1e-12
            assert np.max(np.abs(dh - ref_dh)) < 1e-12
            for got, ref in zip(_kernel_arrays(dk), _kernel_arrays(ref_dk)):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("mode", ["separable", "dense"])
    def test_skipping_the_content_gradient_keeps_kernel_gradients(self, mode):
        rng = SeededRng(60)
        h = rng.normals((4, 3, 8, 8), dtype=np.float32)
        kernels = _field(rng, mode, (4, 8, 8), 3, np.float32)
        dy = rng.normals(h.shape, dtype=np.float32)
        _, cache = fusion.adaptive_conv_forward(h, kernels)
        dh, dk = fusion.adaptive_conv_backward(dy, cache, content=False)
        _, dk_full = fusion.adaptive_conv_backward(dy, cache)
        assert dh is None
        for got, ref in zip(_kernel_arrays(dk), _kernel_arrays(dk_full)):
            assert np.array_equal(got, ref)


class TestExpandKernel:
    def test_outer_product(self):
        k = fusion.expand_kernel(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(k, [[3.0, 4.0], [6.0, 8.0]])

    def test_zero_vector_gives_zero_kernel(self):
        k = fusion.expand_kernel(np.zeros(5), SeededRng(0).normals((5,)))
        assert np.array_equal(k, np.zeros((5, 5)))

    def test_rank_at_most_one(self):
        rng = SeededRng(1)
        for _ in range(5):
            k = fusion.expand_kernel(rng.normals((7,)), rng.normals((7,)))
            assert np.linalg.matrix_rank(k) <= 1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fusion.expand_kernel(np.zeros(3), np.zeros(4))


class TestRecoverDense:
    # flatten_kernel stores each pixel's n x n kernel row-major, so the
    # kernel at (a, b) is flat[a, b].reshape(n, n)
    def test_row_major_layout(self):
        kern = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # one pixel's 2 x 2 kernel
        flat = fusion.flatten_kernel(kern)
        assert np.array_equal(flat[0, 0], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(flat[0, 0].reshape(2, 2), kern[0, 0])

    def test_round_trip(self):
        rng = SeededRng(2)
        kern = rng.normals((3, 3))
        flat = fusion.flatten_kernel(kern)
        field = np.broadcast_to(flat, (4, 4, 9)).copy()
        assert np.array_equal(field[2, 1].reshape(3, 3), kern)

    def test_recover_expand_consistency(self):
        rng = SeededRng(3)
        wv, wh = rng.normals((4, 4, 3)), rng.normals((4, 4, 3))
        flat = fusion.flatten_kernel(fusion.expand_kernel(wv, wh))
        assert np.array_equal(
            flat[1, 2].reshape(3, 3), fusion.expand_kernel(wv[1, 2], wh[1, 2])
        )


class TestAdaptiveConv:
    def test_identity_kernels_preserve_input_exactly(self):
        h = SeededRng(4).normals((3, 6, 6), dtype=np.float32)
        ident = fusion.identity_separable(6, 6, 3)
        out, _ = fusion.adaptive_conv_forward(h, ident)
        assert np.array_equal(out, h)

    def test_shift_kernel_moves_interior(self):
        h = SeededRng(5).normals((1, 5, 5))
        wv = np.zeros((5, 5, 3))
        wh = np.zeros((5, 5, 3))
        wv[..., 1] = 1.0  # vertical center
        wh[..., 2] = 1.0  # horizontal offset +1
        out, _ = fusion.adaptive_conv_forward(h, fusion.SeparableKernelField(wv, wh))
        assert np.allclose(out[:, :, :-1], h[:, :, 1:], atol=0)
        # replicate padding makes the last column repeat its own value
        assert np.allclose(out[:, :, -1], h[:, :, -1], atol=0)

    def test_matches_nested_loop_oracle(self):
        rng = SeededRng(6)
        h = rng.normals((1, 4, 4))
        flat = rng.normals((4, 4, 9))
        out, _ = fusion.adaptive_conv_forward(h, fusion.DenseKernelField(flat))
        ref = adaptive_conv_oracle(h, flat.reshape(4, 4, 3, 3))
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_separable_equals_dense_expansion(self):
        rng = SeededRng(7)
        for _ in range(10):
            h = rng.normals((2, 5, 5), dtype=np.float32)
            wv = rng.normals((5, 5, 3), dtype=np.float32)
            wh = rng.normals((5, 5, 3), dtype=np.float32)
            sep, _ = fusion.adaptive_conv_forward(h, fusion.SeparableKernelField(wv, wh))
            dense = fusion.DenseKernelField(fusion.flatten_kernel(fusion.expand_kernel(wv, wh)))
            den, _ = fusion.adaptive_conv_forward(h, dense)
            denom = max(np.linalg.norm(den), 1e-12)
            assert np.linalg.norm(sep - den) / denom < 1e-6

    def test_linear_in_content(self):
        rng = SeededRng(8)
        h1 = rng.normals((2, 6, 6), dtype=np.float32)
        h2 = rng.normals((2, 6, 6), dtype=np.float32)
        field = fusion.SeparableKernelField(
            rng.normals((6, 6, 3), dtype=np.float32), rng.normals((6, 6, 3), dtype=np.float32)
        )
        a, b = 0.7, -1.3
        lhs, _ = fusion.adaptive_conv_forward(a * h1 + b * h2, field)
        r1, _ = fusion.adaptive_conv_forward(h1, field)
        r2, _ = fusion.adaptive_conv_forward(h2, field)
        rhs = a * r1 + b * r2
        assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-12) < 1e-6

    def test_channel_permutation_equivariance(self):
        rng = SeededRng(9)
        h = rng.normals((4, 5, 5))
        field = fusion.SeparableKernelField(rng.normals((5, 5, 3)), rng.normals((5, 5, 3)))
        perm = [2, 0, 3, 1]
        out, _ = fusion.adaptive_conv_forward(h, field)
        out_perm, _ = fusion.adaptive_conv_forward(h[perm], field)
        assert np.array_equal(out_perm, out[perm])

    def test_even_kernel_rejected(self):
        h = np.zeros((1, 4, 4))
        with pytest.raises(ValueError):
            fusion.adaptive_conv_forward(h, fusion.DenseKernelField(np.zeros((4, 4, 4))))

    def test_extent_mismatch(self):
        h = np.zeros((1, 4, 4))
        with pytest.raises(ShapeError):
            fusion.adaptive_conv_forward(h, fusion.DenseKernelField(np.zeros((5, 5, 9))))


class TestMaskBlend:
    def test_zero_mask_preserves_bits(self):
        rng = SeededRng(10)
        h = rng.normals((3, 4, 4), dtype=np.float32)
        ht = rng.normals((3, 4, 4), dtype=np.float32)
        out, _ = fusion.mask_blend_forward(h, ht, np.zeros((4, 4), dtype=np.float32))
        assert np.array_equal(out, h)

    def test_one_mask_selects_refined(self):
        rng = SeededRng(11)
        h = rng.normals((3, 4, 4), dtype=np.float32)
        ht = rng.normals((3, 4, 4), dtype=np.float32)
        out, _ = fusion.mask_blend_forward(h, ht, np.ones((4, 4), dtype=np.float32))
        assert np.array_equal(out, ht)

    def test_blend_value(self):
        h = np.full((1, 1, 1), 5.0)
        ht = np.full((1, 1, 1), 9.0)
        out, _ = fusion.mask_blend_forward(h, ht, np.full((1, 1), 0.25))
        assert out[0, 0, 0] == 6.0

    def test_out_of_range_mask_rejected_not_clamped(self):
        h = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            fusion.mask_blend_forward(h, h, np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            fusion.mask_blend_forward(h, h, np.full((2, 2), -0.1))


class TestMaskActivation:
    def test_midpoint(self):
        m, _ = fusion.mask_activation_forward(np.array([0.0]))
        assert m[0] == 0.5

    def test_saturation(self):
        m, _ = fusion.mask_activation_forward(np.array([20.0, -20.0]))
        assert abs(m[0] - 1.0) < 1e-8 and abs(m[1]) < 1e-8

    def test_range_always_valid(self):
        m, _ = fusion.mask_activation_forward(SeededRng(12).normals((1000,)) * 50)
        assert np.min(m) >= 0.0 and np.max(m) <= 1.0


class TestFusePyramid:
    def _pyramid(self, rng, scales=(4, 8), channels=2, dtype=np.float32):
        pyr, kernels, masks = [], [], []
        for res in scales:
            pyr.append(rng.normals((channels, res, res), dtype=dtype))
            kernels.append(
                fusion.SeparableKernelField(
                    rng.normals((res, res, 3), dtype=dtype),
                    rng.normals((res, res, 3), dtype=dtype),
                )
            )
            masks.append((rng.uniforms((res, res)) * 0.9).astype(dtype))
        return pyr, kernels, masks

    def test_zero_masks_return_pyramid_unchanged(self):
        pyr, kernels, masks = self._pyramid(SeededRng(13))
        zero_masks = [np.zeros_like(m) for m in masks]
        refined, _ = fusion.fuse_pyramid_forward(pyr, kernels, zero_masks)
        for a, b in zip(refined, pyr):
            assert np.array_equal(a, b)

    def test_scale_independence(self):
        rng = SeededRng(14)
        pyr, kernels, masks = self._pyramid(rng)
        base, _ = fusion.fuse_pyramid_forward(pyr, kernels, masks)
        perturbed = [
            fusion.SeparableKernelField(kernels[0].wv + 1.0, kernels[0].wh.copy()),
            kernels[1],
        ]
        out, _ = fusion.fuse_pyramid_forward(pyr, perturbed, masks)
        assert not np.array_equal(out[0], base[0])
        assert np.array_equal(out[1], base[1])

    def test_matches_per_scale_composition(self):
        pyr, kernels, masks = self._pyramid(SeededRng(15))
        refined, _ = fusion.fuse_pyramid_forward(pyr, kernels, masks)
        for s in range(2):
            ht, _ = fusion.adaptive_conv_forward(pyr[s], kernels[s])
            expect, _ = fusion.mask_blend_forward(pyr[s], ht, masks[s])
            assert np.array_equal(refined[s], expect)

    def test_error_reports_scale_index(self):
        pyr, kernels, masks = self._pyramid(SeededRng(16))
        masks[1] = masks[1] + 5.0
        with pytest.raises(ValueError) as err:
            fusion.fuse_pyramid_forward(pyr, kernels, masks)
        assert "scale 1" in str(err.value)

    def test_length_mismatch(self):
        pyr, kernels, masks = self._pyramid(SeededRng(17))
        with pytest.raises(ValueError):
            fusion.fuse_pyramid_forward(pyr, kernels[:1], masks)

    def test_frozen_content_builds_no_pyramid_gradient(self):
        pyr, kernels, masks = self._pyramid(SeededRng(18))
        refined, caches = fusion.fuse_pyramid_forward(pyr, kernels, masks)
        rng = SeededRng(19)
        d_refined = [rng.normals(r.shape, dtype=np.float32) for r in refined]
        d_pyr, d_k, d_m = fusion.fuse_pyramid_backward(d_refined, caches, content=False)
        full_pyr, full_k, full_m = fusion.fuse_pyramid_backward(d_refined, caches)
        assert d_pyr is None and [p.shape for p in full_pyr] == [p.shape for p in pyr]
        for a, b in zip(d_k, full_k):
            assert np.array_equal(a.wv, b.wv) and np.array_equal(a.wh, b.wh)
        for a, b in zip(d_m, full_m):
            assert np.array_equal(a, b)


class TestBatchMismatch:
    """A kernel field or mask is unbatched, shared by every sample, or has
    exactly the content's batch; unbatched content takes only unbatched
    ones. Anything else raises a ShapeError that names both shapes."""

    H = np.full((4, 2, 6, 6), 0.5)

    @staticmethod
    def _sep(shape):
        return fusion.SeparableKernelField(np.ones(shape), np.ones(shape))

    @pytest.mark.parametrize(
        "content, field",
        [((4, 2, 6, 6), (1, 6, 6, 3)), ((2, 6, 6), (4, 6, 6, 3)), ((4, 2, 6, 6), (2, 6, 6, 3))],
    )
    def test_field_batch(self, content, field):
        with pytest.raises(ShapeError, match=f"{re.escape(str(field))}.*{re.escape(str(content))}"):
            fusion.adaptive_conv_forward(np.ones(content), self._sep(field))

    @pytest.mark.parametrize("content, mask", [((4, 2, 6, 6), (1, 6, 6)), ((2, 6, 6), (4, 6, 6))])
    def test_mask_batch(self, content, mask):
        h = np.ones(content)
        with pytest.raises(ShapeError, match=f"{re.escape(str(mask))}.*{re.escape(str(content))}"):
            fusion.mask_blend_forward(h, h, np.full(mask, 0.5))

    def test_pyramid_names_the_scale(self):
        fields = [self._sep((4, 6, 6, 3)), self._sep((2, 6, 6, 3))]
        masks = [np.full((4, 6, 6), 0.5)] * 2
        with pytest.raises(ShapeError, match=r"scale 1: .*\(2, 6, 6, 3\).*\(4, 2, 6, 6\)"):
            fusion.fuse_pyramid_forward([self.H, self.H], fields, masks)

    def test_matching_and_unbatched_still_run(self):
        for field in ((4, 6, 6, 3), (6, 6, 3)):
            for mask in ((4, 6, 6), (6, 6)):
                out, _ = fusion.fuse_pyramid_forward([self.H], [self._sep(field)], [np.full(mask, 0.5)])
                assert out[0].shape == self.H.shape


class TestKernelParamCount:
    def test_per_pixel_counts(self):
        assert fusion.kernel_param_count(17, 1, "dense", [64])["per_pixel"] == 289
        assert fusion.kernel_param_count(5, 1, "separable", [64])["per_pixel"] == 10
        assert fusion.kernel_param_count(5, 1, "dense", [64])["per_pixel"] == 25

    def test_multi_scale_totals(self):
        sep = fusion.kernel_param_count(5, 4, "separable", [8, 16, 32, 64])
        assert sep["total"] == 10 * (64 + 256 + 1024 + 4096) == 54_400
        dense = fusion.kernel_param_count(17, 1, "dense", [64])
        assert dense["total"] == 289 * 4096 == 1_183_744
        assert sep["total"] < 0.05 * dense["total"]

    def test_validation(self):
        with pytest.raises(ValueError):
            fusion.kernel_param_count(5, 2, "dense", [8])
        with pytest.raises(ValueError):
            fusion.kernel_param_count(5, 1, "sparse", [8])
