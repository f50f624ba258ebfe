"""Central finite-difference verification of every hand-written backward.

The scheme is the same for every operation: project its output against a
fixed random tensor R, giving a scalar loss whose analytic gradient is just
the op's backward evaluated at R; then compare against central differences
with step 1e-5 in double precision. Errors are norm-relative:
||a - n|| / max(||a||, ||n||, tiny). Each op is checked over several shapes
and seeds; `run_suite` is the entry point used by the tests and the CLI.
"""

from __future__ import annotations

import numpy as np

from . import fusion, losses, ops
from .tensor import SeededRng

DEFAULT_STEP = 1e-5
DEFAULT_SEEDS = 5


def numeric_gradient(loss_fn, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of `loss_fn()` w.r.t. `x`, perturbed in place."""
    if x.dtype != np.float64:
        raise TypeError(f"finite differences need float64 inputs, got {x.dtype}")
    grad = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        up = loss_fn()
        flat_x[i] = orig - step
        down = loss_fn()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * step)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(na, nb, 1e-12)


def compare_grads(loss_fn, arrays: dict, analytic: dict, step: float = DEFAULT_STEP) -> float:
    """Worst norm-relative error across the named float64 arrays."""
    worst = 0.0
    for name, arr in arrays.items():
        numeric = numeric_gradient(loss_fn, arr, step)
        worst = max(worst, rel_error(analytic[name], numeric))
    return worst


def _spread_from_zero(x, margin=0.2):
    """Push entries away from 0 so kinked activations stay FD-safe."""
    return x + np.where(x >= 0, margin, -margin)


def _check_conv2d(seed, case):
    bsz, cin, h, w, cout, k, stride, pad = case
    rng = SeededRng(seed)
    x = rng.normals((bsz, cin, h, w))
    wgt = rng.normals((cout, cin, k, k))
    b = rng.normals((cout,))
    out, cache = ops.conv2d_forward(x, wgt, b, stride, pad)
    r = rng.normals(out.shape)
    dx, dw, db = ops.conv2d_backward(r, cache)

    def loss():
        return float(np.sum(ops.conv2d_forward(x, wgt, b, stride, pad)[0] * r))

    return compare_grads(loss, {"x": x, "w": wgt, "b": b}, {"x": dx, "w": dw, "b": db})


def _check_conv_transpose2d(seed, case):
    bsz, cin, h, w, cout, k, stride, pad = case
    rng = SeededRng(seed)
    x = rng.normals((bsz, cin, h, w))
    wgt = rng.normals((cin, cout, k, k))
    b = rng.normals((cout,))
    out, cache = ops.conv_transpose2d_forward(x, wgt, b, stride, pad)
    r = rng.normals(out.shape)
    dx, dw, db = ops.conv_transpose2d_backward(r, cache)

    def loss():
        return float(np.sum(ops.conv_transpose2d_forward(x, wgt, b, stride, pad)[0] * r))

    return compare_grads(loss, {"x": x, "w": wgt, "b": b}, {"x": dx, "w": dw, "b": db})


def _check_linear(seed, case):
    bsz, fin, fout = case
    rng = SeededRng(seed)
    x = rng.normals((bsz, fin))
    w = rng.normals((fin, fout))
    b = rng.normals((fout,))
    out, cache = ops.linear_forward(x, w, b)
    r = rng.normals(out.shape)
    dx, dw, db = ops.linear_backward(r, cache)

    def loss():
        return float(np.sum(ops.linear_forward(x, w, b)[0] * r))

    return compare_grads(loss, {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db})


def _activation_check(fwd, bwd, kinked=False):
    def check(seed, shape):
        rng = SeededRng(seed)
        x = rng.normals(shape)
        if kinked:
            x = _spread_from_zero(x)
        out, cache = fwd(x)
        r = rng.normals(out.shape)
        dx = bwd(r, cache)

        def loss():
            return float(np.sum(fwd(x)[0] * r))

        return compare_grads(loss, {"x": x}, {"x": dx})

    return check


def _check_convlstm(seed, case):
    bsz, xc, hc, h, w, k = case
    rng = SeededRng(seed)
    x = rng.normals((bsz, xc, h, w))
    hp = rng.normals((bsz, hc, h, w))
    cp = rng.normals((bsz, hc, h, w))
    wx = rng.normals((4 * hc, xc, k, k)) * 0.5
    wh = rng.normals((4 * hc, hc, k, k)) * 0.5
    b = rng.normals((4 * hc,)) * 0.5
    h_out, c_out, cache = ops.convlstm_step_forward(x, hp, cp, wx, wh, b)
    rh = rng.normals(h_out.shape)
    rc = rng.normals(c_out.shape)
    dx, dhp, dcp, dwx, dwh, db = ops.convlstm_step_backward(rh, rc, cache)

    def loss():
        ho, co, _ = ops.convlstm_step_forward(x, hp, cp, wx, wh, b)
        return float(np.sum(ho * rh) + np.sum(co * rc))

    return compare_grads(
        loss,
        {"x": x, "h": hp, "c": cp, "wx": wx, "wh": wh, "b": b},
        {"x": dx, "h": dhp, "c": dcp, "wx": dwx, "wh": dwh, "b": db},
    )


def _check_adaptive_conv_dense(seed, case):
    bsz, c, h, w, n = case
    rng = SeededRng(seed)
    hmap = rng.normals((bsz, c, h, w))
    wfield = rng.normals((bsz, h, w, n * n))
    out, cache = fusion.adaptive_conv_forward(hmap, fusion.DenseKernelField(wfield))
    r = rng.normals(out.shape)
    dh, dk = fusion.adaptive_conv_backward(r, cache)

    def loss():
        y, _ = fusion.adaptive_conv_forward(hmap, fusion.DenseKernelField(wfield))
        return float(np.sum(y * r))

    return compare_grads(loss, {"h": hmap, "w": wfield}, {"h": dh, "w": dk.w})


def _check_adaptive_conv_separable(seed, case):
    bsz, c, h, w, n = case
    rng = SeededRng(seed)
    hmap = rng.normals((bsz, c, h, w))
    wv = rng.normals((bsz, h, w, n))
    wh = rng.normals((bsz, h, w, n))
    out, cache = fusion.adaptive_conv_forward(
        hmap, fusion.SeparableKernelField(wv, wh)
    )
    r = rng.normals(out.shape)
    dh, dk = fusion.adaptive_conv_backward(r, cache)

    def loss():
        y, _ = fusion.adaptive_conv_forward(hmap, fusion.SeparableKernelField(wv, wh))
        return float(np.sum(y * r))

    return compare_grads(
        loss, {"h": hmap, "wv": wv, "wh": wh}, {"h": dh, "wv": dk.wv, "wh": dk.wh}
    )


def _check_mask_blend(seed, shape):
    rng = SeededRng(seed)
    h = rng.normals(shape)
    ht = rng.normals(shape)
    m = rng.uniforms(shape[:1] + shape[2:]) * 0.9 + 0.05
    out, cache = fusion.mask_blend_forward(h, ht, m)
    r = rng.normals(out.shape)
    dh, dht, dm = fusion.mask_blend_backward(r, cache)

    def loss():
        return float(np.sum(fusion.mask_blend_forward(h, ht, m)[0] * r))

    return compare_grads(
        loss, {"h": h, "ht": ht, "m": m}, {"h": dh, "ht": dht, "m": dm}
    )


def _check_mask_activation(seed, shape):
    rng = SeededRng(seed)
    raw = rng.normals(shape)
    m, cache = fusion.mask_activation_forward(raw)
    r = rng.normals(m.shape)
    draw = fusion.mask_activation_backward(r, cache)

    def loss():
        return float(np.sum(fusion.mask_activation_forward(raw)[0] * r))

    return compare_grads(loss, {"raw": raw}, {"raw": draw})


def _check_l2(seed, shape):
    rng = SeededRng(seed)
    pred = rng.normals(shape)
    target = rng.normals(shape)
    analytic = losses.l2_loss_grad(pred, target)

    def loss():
        return losses.l2_loss(pred, target)

    return compare_grads(loss, {"pred": pred}, {"pred": analytic})


def _check_kl(seed, case):
    rng = SeededRng(seed)
    mean = rng.normals(case)
    logvar = rng.normals(case)
    dmean, dlogvar = losses.kl_to_standard_normal_grad(
        losses.GaussianParams(mean, logvar)
    )

    def loss():
        return losses.kl_to_standard_normal(losses.GaussianParams(mean, logvar))

    return compare_grads(
        loss, {"mean": mean, "logvar": logvar}, {"mean": dmean, "logvar": dlogvar}
    )


def _check_aux_class(seed, case):
    bsz, k = case
    rng = SeededRng(seed)
    logits = rng.normals((bsz, k))
    labels = rng.integers(0, k, (bsz,))
    analytic = losses.aux_class_loss_grad(logits, labels)

    def loss():
        return losses.aux_class_loss(logits, labels)

    return compare_grads(loss, {"logits": logits}, {"logits": analytic})


def _check_consistency(seed, case):
    rng = SeededRng(seed)
    shapes = [(case[0], case[1], r, r) for r in case[2:]]
    refined = [rng.normals(s) for s in shapes]
    current = [rng.normals(s) for s in shapes]
    grads = losses.content_consistency_loss_grad(refined, current)

    def loss():
        return losses.content_consistency_loss(refined, current)

    arrays = {f"scale{i}": arr for i, arr in enumerate(refined)}
    analytic = {f"scale{i}": g for i, g in enumerate(grads)}
    return compare_grads(loss, arrays, analytic)


# op name -> (check function, list of shape/config cases)
OP_CHECKS = {
    "conv2d": (
        _check_conv2d,
        [(1, 2, 5, 5, 3, 3, 1, 1), (2, 3, 6, 6, 2, 2, 2, 0), (2, 1, 4, 4, 2, 3, 1, 1)],
    ),
    "conv_transpose2d": (
        _check_conv_transpose2d,
        [(1, 2, 3, 3, 3, 4, 2, 1), (2, 3, 4, 4, 2, 3, 1, 0), (1, 1, 3, 3, 2, 2, 2, 0)],
    ),
    "linear": (_check_linear, [(2, 5, 3), (1, 4, 4), (3, 2, 6)]),
    "relu": (
        _activation_check(ops.relu_forward, ops.relu_backward, kinked=True),
        [(2, 3, 4, 4), (5, 7), (1, 2, 3, 3)],
    ),
    "tanh": (
        _activation_check(ops.tanh_forward, ops.tanh_backward),
        [(2, 3, 4, 4), (5, 7), (1, 2, 3, 3)],
    ),
    "sigmoid": (
        _activation_check(ops.sigmoid_forward, ops.sigmoid_backward),
        [(2, 3, 4, 4), (5, 7), (1, 2, 3, 3)],
    ),
    "convlstm_step": (
        _check_convlstm,
        [(1, 2, 2, 4, 4, 3), (2, 1, 3, 4, 4, 3), (1, 3, 2, 3, 3, 3)],
    ),
    "adaptive_conv_dense": (
        _check_adaptive_conv_dense,
        [(1, 1, 4, 4, 3), (2, 2, 5, 5, 3), (1, 3, 4, 4, 5)],
    ),
    "adaptive_conv_separable": (
        _check_adaptive_conv_separable,
        [(1, 1, 4, 4, 3), (2, 2, 5, 5, 3), (1, 3, 4, 4, 5)],
    ),
    "mask_blend": (_check_mask_blend, [(1, 2, 4, 4), (2, 1, 5, 5), (2, 3, 3, 3)]),
    "mask_activation": (_check_mask_activation, [(1, 4, 4), (2, 1, 5, 5), (3, 3)]),
    "l2_loss": (_check_l2, [(2, 3, 4, 4), (5, 7), (1, 2, 3, 3)]),
    "kl_to_standard_normal": (_check_kl, [(2, 5), (1, 8), (4, 3)]),
    "aux_class_loss": (_check_aux_class, [(2, 4), (1, 6), (5, 3)]),
    "content_consistency_loss": (
        _check_consistency,
        [(1, 2, 3, 6), (2, 1, 4, 8), (1, 1, 2, 4)],
    ),
}


def run_op_check(name: str, seeds: int = DEFAULT_SEEDS) -> float:
    """Max relative error for one op over all its cases and seeds."""
    if name not in OP_CHECKS:
        raise KeyError(f"unknown op {name!r}; known: {', '.join(sorted(OP_CHECKS))}")
    if seeds < 1:
        raise ValueError(f"a gradient check needs at least one seed, got {seeds}")
    check, cases = OP_CHECKS[name]
    worst = 0.0
    for seed in range(seeds):
        for case in cases:
            worst = max(worst, check(1000 + seed, case))
    return worst


def run_suite(names=None, seeds: int = DEFAULT_SEEDS) -> dict:
    """Max relative error per op, for every (or the named) registered op."""
    names = list(OP_CHECKS) if names is None else list(names)
    return {name: run_op_check(name, seeds) for name in names}
