"""Adjoint identities and fusion invariants at random shapes.

A conv, a linear layer and adaptive convolution are each linear in their
input and in their weights, and the backward applies the adjoint of each:
for upstream y, <op(x; w), y> = <x, dx> = <w, dw>. The model's join layer
is linear in (x, side input) together: <join(x, s), y> = <x, dx> + <s, ds>. Hypothesis draws batch
sizes, channel counts, rectangular maps, kernel sizes, strides and pads, up
to sizes where a finite-difference check of every input would take minutes.
The fusion invariants (a zero mask and the identity kernel field each return
the content map bit for bit) are checked at random shapes and dtypes, with
and without a batch axis.
"""

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from motionfuse import fusion, model, ops  # noqa: E402

CONVS = dict(
    bsz=st.integers(1, 64),
    cin=st.integers(1, 12),
    cout=st.integers(1, 12),
    h=st.integers(1, 18),
    w=st.integers(1, 18),
    k=st.integers(1, 5),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)


def _dot(a, b):
    return float(np.dot(a.ravel(), b.ravel()))


def _check_adjoint(x, w, out, y, dx, dw):
    lhs = _dot(out, y)
    tol = 1e-11 * float(np.linalg.norm(out) * np.linalg.norm(y)) + 1e-300
    assert abs(lhs - _dot(x, dx)) <= tol
    assert abs(lhs - _dot(w, dw)) <= tol


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**CONVS)
def test_conv2d_backward_is_the_adjoint(bsz, cin, cout, h, w, k, stride, pad, seed):
    assume(h + 2 * pad >= k and w + 2 * pad >= k and bsz * cin * h * w <= 40_000)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((bsz, cin, h, w))
    wt = rng.standard_normal((cout, cin, k, k))
    out, cache = ops.conv2d_forward(x, wt, None, stride, pad)
    y = rng.standard_normal(out.shape)
    dx, dw, db = ops.conv2d_backward(y, cache)
    assert db is None and dx.shape == x.shape and dw.shape == wt.shape
    _check_adjoint(x, wt, out, y, dx, dw)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**CONVS)
def test_conv_transpose2d_backward_is_the_adjoint(bsz, cin, cout, h, w, k, stride, pad, seed):
    ho, wo = (h - 1) * stride - 2 * pad + k, (w - 1) * stride - 2 * pad + k
    assume(ho >= 1 and wo >= 1 and bsz * cout * ho * wo <= 80_000)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((bsz, cin, h, w))
    wt = rng.standard_normal((cin, cout, k, k))
    out, cache = ops.conv_transpose2d_forward(x, wt, None, stride, pad)
    y = rng.standard_normal(out.shape)
    dx, dw, db = ops.conv_transpose2d_backward(y, cache)
    assert db is None and dx.shape == x.shape and dw.shape == wt.shape
    _check_adjoint(x, wt, out, y, dx, dw)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bsz=st.integers(1, 64), fin=st.integers(1, 300), fout=st.integers(1, 300),
       seed=st.integers(0, 2**16))
def test_linear_backward_is_the_adjoint(bsz, fin, fout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((bsz, fin))
    wt = rng.standard_normal((fin, fout))
    out, cache = ops.linear_forward(x, wt)
    y = rng.standard_normal(out.shape)
    dx, dw, db = ops.linear_backward(y, cache)
    assert db is None and dx.shape == x.shape and dw.shape == wt.shape
    _check_adjoint(x, wt, out, y, dx, dw)


MAPS = dict(
    bsz=st.integers(1, 16),
    c=st.integers(1, 8),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
FIELDS = dict(MAPS, n=st.sampled_from([1, 3, 5, 7]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**FIELDS)
def test_adaptive_conv_backward_is_the_adjoint(bsz, c, h, w, n, seed):
    # linear in the content for a fixed field, and in a dense field for
    # fixed content
    rng = np.random.default_rng(seed)
    hmap = rng.standard_normal((bsz, c, h, w))
    field = fusion.DenseKernelField(rng.standard_normal((bsz, h, w, n * n)))
    out, cache = fusion.adaptive_conv_forward(hmap, field)
    y = rng.standard_normal(out.shape)
    dh, dk = fusion.adaptive_conv_backward(y, cache)
    assert dh.shape == hmap.shape and dk.w.shape == field.w.shape
    _check_adjoint(hmap, field.w, out, y, dh, dk.w)


@pytest.mark.parametrize("form", ["labels-as-features", "labels-as-planes", 1, 4, 8])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(bsz=st.integers(1, 8), c=st.integers(1, 6), k=st.integers(1, 6), h=st.integers(1, 5),
       w=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_join_backward_is_the_adjoint(form, bsz, c, k, h, w, seed):
    # labels join a flat input as features or a map as planes; e_m, an
    # h x w map, joins a map nearest-upsampled by the factor `form`
    rng = np.random.default_rng(seed)
    key, factor, s = "labels", 1, rng.standard_normal((bsz, k))
    if form == "labels-as-features":
        x = rng.standard_normal((bsz, c))
    elif form == "labels-as-planes":
        x = rng.standard_normal((bsz, c, h, w))
    else:
        key, factor, s = "e_m", form, rng.standard_normal((bsz, k, h, w))
        x = rng.standard_normal((bsz, c, h * factor, w * factor))
    join = model._Join(key, factor)
    out, cache = join.forward(None, x, SimpleNamespace(**{key: s}))
    assert out.shape == x.shape[:1] + (c + k,) + x.shape[2:]
    y = rng.standard_normal(out.shape)
    grads = SimpleNamespace(**{key: 0.0})
    dx = join.backward(None, y, cache, grads)
    ds = getattr(grads, key)
    assert dx.shape == x.shape and ds.shape == s.shape
    lhs = _dot(out, y)
    tol = 1e-11 * float(np.linalg.norm(out) * np.linalg.norm(y)) + 1e-300
    assert abs(lhs - _dot(x, dx) - _dot(s, ds)) <= tol
    # a backward side without the key collects nothing and returns the same dx
    assert np.array_equal(join.backward(None, y, cache, SimpleNamespace()), dx)


def _content(rng, batched, bsz, c, h, w, dtype):
    shape = (bsz, c, h, w) if batched else (c, h, w)
    return rng.standard_normal(shape).astype(dtype)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**FIELDS, batched=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]))
def test_identity_field_returns_content_bit_for_bit(bsz, c, h, w, n, seed, batched, dtype):
    hmap = _content(np.random.default_rng(seed), batched, bsz, c, h, w, dtype)
    out, _ = fusion.adaptive_conv_forward(hmap, fusion.identity_separable(h, w, n, dtype))
    assert _same_bits(out, hmap)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**MAPS, batched=st.booleans(), batched_mask=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_zero_mask_returns_content_bit_for_bit(bsz, c, h, w, seed, batched, batched_mask, dtype):
    rng = np.random.default_rng(seed)
    hmap = _content(rng, batched, bsz, c, h, w, dtype)
    refined = _content(rng, batched, bsz, c, h, w, dtype)
    mask = np.zeros((bsz, h, w) if batched and batched_mask else (h, w), dtype=dtype)
    out, _ = fusion.mask_blend_forward(hmap, refined, mask)
    assert _same_bits(out, hmap)
