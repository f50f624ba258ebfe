"""Central finite-difference verification of every hand-written backward.

Two harnesses cover every check. The op harness projects each output of an
op against a fixed random tensor R, giving a scalar loss whose analytic
gradient is the op's backward evaluated at the Rs; the loss harness takes a
scalar loss and its closed-form gradient as they are. Both compare against
central differences with step 1e-5 in double precision. Errors are
norm-relative: ||a - n|| / max(||a||, ||n||, tiny).

`OP_CHECKS` holds one row per op: its input draw, the harness over the
functions it checks, and its cases. Checking a new backward means adding a
row. Each case runs under several seeds; `run_suite` is the entry point used
by the tests and the CLI.
"""

from __future__ import annotations

import dataclasses

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


def _leaves(value):
    """The arrays inside an argument or gradient, in order: the array
    itself, the leaves of each list or tuple item, or a dataclass's fields
    (a kernel field, a GaussianParams)."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [leaf for item in value for leaf in _leaves(item)]


def _compare(loss_fn, inputs, grads):
    """Worst norm-relative error of the analytic grads against central
    differences, across the float64 leaves of `inputs`."""
    worst = 0.0
    for arr, analytic in zip(_leaves(inputs), _leaves(grads), strict=True):
        worst = max(worst, rel_error(analytic, numeric_gradient(loss_fn, arr)))
    return worst


def _projected(module, stem):
    """Op harness for `module.<stem>_forward(*inputs, *fixed)`, which returns
    its outputs then a cache, and `<stem>_backward(*R, cache)`, which returns
    one gradient per input. One projection R is drawn per output; the loss
    is sum(output * R) over the outputs. Both functions are looked up at
    every call, so a patched or traced op is the one checked."""

    def check(rng, inputs, fixed):
        *outs, cache = getattr(module, f"{stem}_forward")(*inputs, *fixed)
        rs = [rng.normals(out.shape) for out in outs]
        grads = getattr(module, f"{stem}_backward")(*rs, cache)

        def loss():
            total = 0.0
            # zip stops at the last R, before the cache
            for out, r in zip(getattr(module, f"{stem}_forward")(*inputs, *fixed), rs):
                total += float(np.sum(out * r))
            return total

        return _compare(loss, inputs, grads)

    return check


def _closed_form(module, name):
    """Loss harness: the scalar `module.<name>(*inputs, *fixed)` against its
    closed-form gradient `<name>_grad`, looked up at every call."""

    def check(rng, inputs, fixed):
        grads = getattr(module, f"{name}_grad")(*inputs, *fixed)
        return _compare(lambda: getattr(module, name)(*inputs, *fixed), inputs, grads)

    return check


# Each draw takes (rng, case) and returns (inputs, fixed): the arguments that
# are differentiated, then those that are not (stride and pad, labels,
# targets). Each array is drawn in the order the forward takes it. A wrapper
# (kernel field, GaussianParams) holds the drawn arrays themselves, so the
# finite-difference perturbations reach the forward through it.


def _draw_conv(transpose):
    def draw(rng, case):
        bsz, cin, h, w, cout, k, stride, pad = case
        x = rng.normals((bsz, cin, h, w))
        wgt = rng.normals((cin, cout, k, k) if transpose else (cout, cin, k, k))
        return (x, wgt, rng.normals((cout,))), (stride, pad)

    return draw


def _draw_linear(rng, case):
    bsz, fin, fout = case
    return (rng.normals((bsz, fin)), rng.normals((fin, fout)), rng.normals((fout,))), ()


def _draw_normals(rng, shape):
    return (rng.normals(shape),), ()


def _draw_off_zero(rng, shape):
    """Normals pushed 0.2 away from 0, so relu's kink stays FD-safe."""
    x = rng.normals(shape)
    return (x + np.where(x >= 0, 0.2, -0.2),), ()


def _draw_convlstm(rng, case):
    bsz, xc, hc, h, w, k = case
    state = [rng.normals((bsz, c, h, w)) for c in (xc, hc, hc)]
    gates = [rng.normals(s) * 0.5 for s in ((4 * hc, xc, k, k), (4 * hc, hc, k, k), (4 * hc,))]
    return (*state, *gates), ()


def _draw_dense_field(rng, case):
    bsz, c, h, w, n = case
    hmap = rng.normals((bsz, c, h, w))
    return (hmap, fusion.DenseKernelField(rng.normals((bsz, h, w, n * n)))), ()


def _draw_separable_field(rng, case):
    bsz, c, h, w, n = case
    hmap = rng.normals((bsz, c, h, w))
    wv, wh = rng.normals((bsz, h, w, n)), rng.normals((bsz, h, w, n))
    return (hmap, fusion.SeparableKernelField(wv, wh)), ()


def _draw_mask_blend(rng, shape):
    h, ht = rng.normals(shape), rng.normals(shape)
    return (h, ht, rng.uniforms(shape[:1] + shape[2:]) * 0.9 + 0.05), ()


def _draw_target(rng, shape):
    return (rng.normals(shape),), (rng.normals(shape),)


def _draw_gaussian(rng, case):
    return (losses.GaussianParams(rng.normals(case), rng.normals(case)),), ()


def _draw_labelled(rng, case):
    bsz, k = case
    return (rng.normals((bsz, k)),), (rng.integers(0, k, (bsz,)),)


def _draw_pyramids(rng, case):
    shapes = [(case[0], case[1], r, r) for r in case[2:]]
    refined = [rng.normals(s) for s in shapes]
    return (refined,), ([rng.normals(s) for s in shapes],)


_SHAPES = [(2, 3, 4, 4), (5, 7), (1, 2, 3, 3)]
_FIELDS = [(1, 1, 4, 4, 3), (2, 2, 5, 5, 3), (1, 3, 4, 4, 5)]

# op name -> (input draw, harness over the functions checked, cases). A new
# backward is checked by adding one row here.
OP_CHECKS = {
    "conv2d": (
        _draw_conv(transpose=False),
        _projected(ops, "conv2d"),
        [(1, 2, 5, 5, 3, 3, 1, 1), (2, 3, 6, 6, 2, 2, 2, 0), (2, 1, 4, 4, 2, 3, 1, 1)],
    ),
    "conv_transpose2d": (
        _draw_conv(transpose=True),
        _projected(ops, "conv_transpose2d"),
        [(1, 2, 3, 3, 3, 4, 2, 1), (2, 3, 4, 4, 2, 3, 1, 0), (1, 1, 3, 3, 2, 2, 2, 0)],
    ),
    "linear": (_draw_linear, _projected(ops, "linear"), [(2, 5, 3), (1, 4, 4), (3, 2, 6)]),
    "relu": (_draw_off_zero, _projected(ops, "relu"), _SHAPES),
    "tanh": (_draw_normals, _projected(ops, "tanh"), _SHAPES),
    "sigmoid": (_draw_normals, _projected(ops, "sigmoid"), _SHAPES),
    "convlstm_step": (
        _draw_convlstm,
        _projected(ops, "convlstm_step"),
        [(1, 2, 2, 4, 4, 3), (2, 1, 3, 4, 4, 3), (1, 3, 2, 3, 3, 3)],
    ),
    "adaptive_conv_dense": (_draw_dense_field, _projected(fusion, "adaptive_conv"), _FIELDS),
    "adaptive_conv_separable": (
        _draw_separable_field, _projected(fusion, "adaptive_conv"), _FIELDS,
    ),
    "mask_blend": (
        _draw_mask_blend,
        _projected(fusion, "mask_blend"),
        [(1, 2, 4, 4), (2, 1, 5, 5), (2, 3, 3, 3)],
    ),
    "mask_activation": (
        _draw_normals, _projected(fusion, "mask_activation"), [(1, 4, 4), (2, 1, 5, 5), (3, 3)],
    ),
    "l2_loss": (_draw_target, _closed_form(losses, "l2_loss"), _SHAPES),
    "kl_to_standard_normal": (
        _draw_gaussian, _closed_form(losses, "kl_to_standard_normal"), [(2, 5), (1, 8), (4, 3)],
    ),
    "aux_class_loss": (
        _draw_labelled, _closed_form(losses, "aux_class_loss"), [(2, 4), (1, 6), (5, 3)],
    ),
    "content_consistency_loss": (
        _draw_pyramids,
        _closed_form(losses, "content_consistency_loss"),
        [(1, 2, 3, 6), (2, 1, 4, 8), (1, 1, 2, 4)],
    ),
}


def run_op_check(name: str, seeds: int = DEFAULT_SEEDS) -> float:
    """Max relative error for one op over all its cases and seeds."""
    if name not in OP_CHECKS:
        raise KeyError(f"unknown op {name!r}; known: {', '.join(sorted(OP_CHECKS))}")
    if seeds < 1:
        raise ValueError(f"a gradient check needs at least one seed, got {seeds}")
    draw, check, cases = OP_CHECKS[name]
    worst = 0.0
    for seed in range(seeds):
        for case in cases:
            rng = SeededRng(1000 + seed)
            worst = max(worst, check(rng, *draw(rng, case)))
    return worst


def run_suite(names=None, seeds: int = DEFAULT_SEEDS) -> dict:
    """Max relative error per op, for every (or the named) registered op."""
    names = list(OP_CHECKS) if names is None else list(names)
    return {name: run_op_check(name, seeds) for name in names}
