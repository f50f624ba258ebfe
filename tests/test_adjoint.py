"""Adjoint identities of the conv ops at random shapes.

A conv is linear in its input and in its weights, and its backward applies
the adjoint of each: for upstream y, <conv(x; w), y> = <x, dx> = <w, dw>.
Hypothesis draws batch sizes, channel counts, rectangular maps, kernel
sizes, strides and pads, up to sizes where a finite-difference check of
every input would take minutes.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from motionfuse import ops  # noqa: E402

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
