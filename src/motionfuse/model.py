"""Toy two-stream next-frame model: content VAE, motion VAE, kernel/mask
subnets and the fusion glue, with hand-chained gradients throughout.

The content encoder maps (frame, class) to a latent Gaussian; the content
generator decodes a latent draw into a feature pyramid whose finest map a
small tanh head turns into an image. The motion encoder maps (difference
map, class) to its own latent; a single convLSTM step embeds the draw, and
the motion generator decodes (content latent, motion embedding) into one
(vertical, horizontal, mask) kernel-field triple per fusion scale; the
embedding enters both its 4x4 decoder seed and, upsampled, every scale's
kernel subnet. Fusing the pyramid with those fields and re-decoding the
finest map predicts the next frame.

Every network is a plain list of layer objects, and each generator one
list per fusion scale, built once per `ModelConfig`; the label and
motion-embedding joins, the kernel and mask heads and the convLSTM step are
layers too. `_forward` runs every layer and records the chain that
`_backward` walks back, releasing each cache once read. Two passes, each
with its own backward, wire the networks: the content pass (encode a frame,
draw the latent, decode the pyramid and, unless frozen, the frame) and the
motion pass (decode kernel fields and masks, fuse them into a pyramid,
decode the next frame). Every caller
composes these: the trainer's content phase runs the content pass;
`forward_next_frame` / `backward_next_frame` add the motion encoder and one
convLSTM step for the motion phase, eval and the end-to-end gradient check;
`training.rollout` loops the motion pass over the pyramid it carries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import fusion, ops
from .losses import GaussianParams
from .tensor import SeededRng, ShapeError

# ---------------------------------------------------------------------------
# layers
#
# A layer holds no arrays: it reads its parameters by their full names from
# the ParamSet passed to each call, so one layer list serves every bundle of
# a config (float32, a float64 copy, a loaded checkpoint), and it looks up
# its `ops` or `fusion` function on the module at call time, so a tracer
# that swaps module attributes sees every call. `forward(params, x, side)`
# returns (y, cache); `backward(params, dy, cache, side)` accumulates the
# parameter gradients and returns dx. `side` holds what a network reads
# besides x: forward, `labels`, the motion embedding `e_m` and the convLSTM
# `state`; backward, the gradient of each side input it names (`e_m`).
# `shapes` ({name: shape}) is a layer's parameter layout, the one source of
# both `init` and the layout a checkpoint is checked against. A generator is
# one layer list per fusion scale, each run on the last one's output, and
# its pyramid is their outputs (`_pyramid_forward`).


class _Layer:
    shapes: dict = {}

    def init(self, params, rng, dtype):
        pass


class _Weighted(_Layer):
    """A Xavier-uniform weight `<name>.w` and a zero bias `<name>.b`."""

    def __init__(self, name, w_shape, fan_in, fan_out, out):
        self.w, self.b = f"{name}.w", f"{name}.b"
        self.shapes = {self.w: w_shape, self.b: (out,)}
        self.fans = (fan_in, fan_out)

    def init(self, params, rng, dtype):
        params.add(self.w, ops.xavier_uniform(rng, self.shapes[self.w], *self.fans, dtype))
        params.add(self.b, np.zeros(self.shapes[self.b], dtype=dtype))

    def _accumulate(self, params, dx, dw, db):
        params.accumulate(self.w, dw)
        params.accumulate(self.b, db)
        return dx


class _Conv(_Weighted):
    """`ops.conv2d_*`, or with `transposed` `ops.conv_transpose2d_*`."""

    def __init__(self, name, cin, cout, k, stride=1, pad=0, transposed=False):
        # weights (C_out, C_in, k, k); transposed (C_in, C_out, k, k)
        w_shape = (cin, cout, k, k) if transposed else (cout, cin, k, k)
        super().__init__(name, w_shape, cin * k * k, cout * k * k, cout)
        self.stride, self.pad = stride, pad
        self.op = "conv_transpose2d" if transposed else "conv2d"

    def forward(self, params, x, side):
        w, b = params.value(self.w), params.value(self.b)
        return getattr(ops, f"{self.op}_forward")(x, w, b, self.stride, self.pad)

    def backward(self, params, dy, cache, side):
        return self._accumulate(params, *getattr(ops, f"{self.op}_backward")(dy, cache))


class _Linear(_Weighted):
    def __init__(self, name, fan_in, fan_out):
        super().__init__(name, (fan_in, fan_out), fan_in, fan_out, fan_out)

    def forward(self, params, x, side):
        return ops.linear_forward(x, params.value(self.w), params.value(self.b))

    def backward(self, params, dy, cache, side):
        return self._accumulate(params, *ops.linear_backward(dy, cache))


class _Activation(_Layer):
    """The elementwise `ops.<name>_forward` / `ops.<name>_backward`."""

    def __init__(self, name):
        self.name = name

    def forward(self, params, x, side):
        return getattr(ops, f"{self.name}_forward")(x)

    def backward(self, params, dy, cache, side):
        return getattr(ops, f"{self.name}_backward")(dy, cache)


class _Mask(_Layer):
    """(B, 1, H, W) mask logits to (B, H, W) masks in [0, 1]."""

    def forward(self, params, x, side):
        return fusion.mask_activation_forward(x[:, 0])

    def backward(self, params, dy, cache, side):
        return fusion.mask_activation_backward(dy, cache)[:, None]


class _Reshape(_Layer):
    """Reshape every sample to `shape`; (-1,) flattens."""

    def __init__(self, shape):
        self.shape = tuple(shape)

    def forward(self, params, x, side):
        return x.reshape((x.shape[0],) + self.shape), x.shape

    def backward(self, params, dy, cache, side):
        return dy.reshape(cache)


class _ChannelsLast(_Layer):
    """(B, C, H, W) maps to contiguous (B, H, W, C), the kernel-field layout."""

    def forward(self, params, x, side):
        return x.transpose(0, 2, 3, 1).copy(), None

    def backward(self, params, dy, cache, side):
        return dy.transpose(0, 3, 1, 2)


class _Join(_Layer):
    """Concatenate the side input `key` after the features or channels of x:
    a flat side input joins a map as constant planes, and a map joins
    nearest-upsampled by `factor`. Backward returns the share of x; the side
    input's share is added to the backward side's `key`, if it has one."""

    def __init__(self, key, factor=1):
        self.key, self.factor = key, factor

    def forward(self, params, x, side):
        extra, f = getattr(side, self.key), self.factor
        planes = extra.ndim < x.ndim
        if planes:
            extra = np.broadcast_to(extra[:, :, None, None], extra.shape + x.shape[2:])
        elif f > 1:
            extra = np.repeat(np.repeat(extra, f, axis=2), f, axis=3)
        joined = np.concatenate([x, extra.astype(x.dtype, copy=False)], axis=1)
        return joined, (x.shape[1], planes)

    def backward(self, params, dy, cache, side):
        split, planes = cache
        if hasattr(side, self.key):
            d, f = dy[:, split:], self.factor
            if planes:
                d = d.sum(axis=(2, 3))
            elif f > 1:
                b, c, h, w = d.shape
                d = d.reshape(b, c, h // f, f, w // f, f).sum(axis=(3, 5))
            setattr(side, self.key, getattr(side, self.key) + d)
        return dy[:, :split]


class _Heads(_Layer):
    """Several layer lists run on one input; y is the tuple of their
    outputs, and dx the sum of their input gradients in branch order."""

    def __init__(self, *branches):
        self.branches = branches
        self.shapes = _shapes(branches)

    def init(self, params, rng, dtype):
        _init(params, rng, dtype, self.branches)

    def forward(self, params, x, side):
        ys, chains = zip(*(_forward(layers, params, x, side) for layers in self.branches))
        return ys, chains

    def backward(self, params, dy, cache, side):
        dxs = [_backward(params, d, chain, side) for d, chain in zip(dy, cache)]
        return sum(dxs[1:], dxs[0])


class _LstmCell(_Layer):
    """One convLSTM step from `side.state` = (h, c), None for zeros, which
    it replaces with the new state; y is h. Xavier-uniform 3x3 input and
    recurrent gate weights `wx`, `wh` and one zero gate bias `b`. No
    gradient reaches the new cell state or the previous state."""

    def __init__(self, in_channels, hidden):
        g = 4 * hidden  # input, forget, output and candidate gates
        self.shapes = {"wx": (g, in_channels, 3, 3), "wh": (g, hidden, 3, 3), "b": (g,)}

    def init(self, params, rng, dtype):
        for name in ("wx", "wh"):
            shape = self.shapes[name]
            g, cin, k, _ = shape
            params.add(name, ops.xavier_uniform(rng, shape, cin * k * k, g * k * k, dtype))
        params.add("b", np.zeros(self.shapes["b"], dtype=dtype))

    def forward(self, params, x, side):
        h_prev, c_prev = side.state
        if h_prev is None:
            h_prev = np.zeros((len(x), self.shapes["wh"][1], *x.shape[2:]), x.dtype)
        if c_prev is None:
            c_prev = np.zeros_like(h_prev)
        wx, wh, b = (params.value(n) for n in ("wx", "wh", "b"))
        h, c, cache = ops.convlstm_step_forward(x, h_prev, c_prev, wx, wh, b)
        side.state = (h, c)
        return h, cache

    def backward(self, params, dy, cache, side):
        dx, _, _, *grads = ops.convlstm_step_backward(dy, np.zeros_like(dy), cache)
        for name, g in zip(("wx", "wh", "b"), grads):
            params.accumulate(name, g)
        return dx


def _forward(layers, params: ops.ParamSet, x, side=None, keep=True):
    """Run a list of layers; the cache is the (layer, cache) pairs, None without `keep`."""
    chain = [] if keep else None
    for layer in layers:
        x, cache = layer.forward(params, x, side)
        if keep:
            chain.append((layer, cache))
    return x, chain


def _backward(params: ops.ParamSet, dy, chain, side=None):
    """Walk the chain back, popping each (layer, cache) as its backward runs."""
    if not chain:
        raise ValueError("no layer caches: the forward kept none, or a backward consumed them")
    while chain:
        layer, cache = chain.pop()
        dy = layer.backward(params, dy, cache, side)
    return dy


def _pyramid_forward(lists, params: ops.ParamSet, x, side=None, keep=True):
    """Run the layer lists in turn, each on the last one's output: y is the
    list of their outputs, the pyramid."""
    pyramid, chains = [], []
    for layers in lists:
        x, chain = _forward(layers, params, x, side, keep)
        pyramid.append(x)
        chains.append(chain)
    return pyramid, ((chains, x.shape, x.dtype) if keep else None)


def _pyramid_backward(params: ops.ParamSet, d_pyramid, cache, side=None):
    """d_pyramid: per-scale grads, None for none. The finest list's dy
    starts from zeros, and each list adds its own scale's grad."""
    chains, shape, dtype = cache
    dy = np.zeros(shape, dtype)
    for chain, d in zip(reversed(chains), reversed(d_pyramid)):
        if d is not None:
            dy = dy + d
        dy = _backward(params, dy, chain, side)
    return dy


def _shapes(chains) -> dict:
    return {n: shape for layers in chains for layer in layers for n, shape in layer.shapes.items()}


def _init(params, rng, dtype, chains):
    for layers in chains:
        for layer in layers:
            layer.init(params, rng, dtype)
    return params


def _params(rng: SeededRng, dtype, *chains) -> ops.ParamSet:
    """A new ParamSet holding the initial parameters of these layer lists."""
    return _init(ops.ParamSet(), rng, dtype, chains)


# ---------------------------------------------------------------------------
# configuration, networks and bundle


@dataclass(frozen=True)
class ModelConfig:
    ngf: int = 8
    latent_c: int = 64
    latent_m: int = 16
    scales: int = 2
    kernel_size: int = 3
    classes: int = 4
    size: int = 32
    channels: int = 1

    def __post_init__(self):
        for name in ("ngf", "latent_c", "latent_m", "scales", "classes", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.latent_m % 16:
            raise ValueError("latent_m must be divisible by 16 (reshaped to 4x4 maps)")
        if self.size < 4 << self.scales:
            raise ValueError(f"size {self.size} too small for {self.scales} fusion scales")
        if self.size & (self.size - 1) or self.size < 8:
            raise ValueError(f"size must be a power of two >= 8, got {self.size}")

    @property
    def up_stages(self) -> int:
        # both generators start from a 4x4 seed at every frame size, the
        # extent of the convLSTM motion embedding, so no lift layer is
        # needed. An 8x8 seed reconstructs held-out frames 2-5% better after
        # 1200 content-only steps at size 32 (0.0206 vs 0.0211 and 0.0223
        # vs 0.0235 at seeds 8 and 7), less than the 11% between the seeds
        return int(np.log2(self.size // 4))

    @property
    def resolutions(self) -> tuple[int, ...]:
        return tuple(self.size >> (self.scales - 1 - s) for s in range(self.scales))

    @property
    def lstm_hidden(self) -> int:
        return self.ngf

    @property
    def motion_map_channels(self) -> int:
        return self.latent_m // 16


_RELU, _TANH = _Activation("relu"), _Activation("tanh")


def _conv3(name, cin, cout, stride=1):
    return _Conv(name, cin, cout, 3, stride, 1)


def _downsampler(prefix, cfg: ModelConfig, in_channels, hidden, out):
    # three stride-2 convs to size/8, then two fully connected layers
    g = cfg.ngf
    flat = 2 * g * (cfg.size // 8) ** 2
    return [
        _conv3(f"{prefix}.conv1", in_channels, g, 2),
        _RELU,
        _conv3(f"{prefix}.conv2", g, 2 * g, 2),
        _RELU,
        _conv3(f"{prefix}.conv3", 2 * g, 2 * g, 2),
        _RELU,
        _Reshape((-1,)),
        _Linear(f"{prefix}.fc1", flat, hidden),
        _RELU,
        _Linear(f"{prefix}.fc2", hidden, out),
    ]


def _generator(cfg: ModelConfig, stem: list, in_channels: int):
    """`stem`, then per resolution a stride-2 upsample plus a stride-1
    refinement, as one layer list per fusion scale, coarsest first: list 0
    runs the stem and every stage up to the coarsest scale's."""
    g, first = cfg.ngf, cfg.up_stages - cfg.scales
    stages, cin = [], in_channels
    for i in range(cfg.up_stages):
        cout = g if i >= first else 2 * g
        up = _Conv(f"stage.up{i}", cin, cout, 4, 2, 1, transposed=True)
        stages.append([up, _RELU, _conv3(f"stage.post{i}", cout, cout), _RELU])
        cin = cout
    return [stem + sum(stages[: first + 1], []), *stages[first + 1 :]]


@functools.lru_cache(maxsize=None)
def _networks(cfg: ModelConfig) -> SimpleNamespace:
    """Every network of a config as a list of layers, built once per config."""
    g, n, k = cfg.ngf, cfg.kernel_size, cfg.classes
    in_channels = cfg.channels + k
    stem = [  # the same parameter names in gen_c and gen_m
        _Join("labels"),
        _Linear("stem.fc1", cfg.latent_c + k, 32 * g),
        _RELU,
        _Linear("stem.fc2", 32 * g, 4 * g * 16),
        _RELU,
        _Reshape((4 * g, 4, 4)),
    ]
    # per fusion scale, a trunk on the pyramid map and the upsampled motion
    # embedding, then the wv, wh and mask heads. e_m enters every subnet
    # directly, one short conv away from the kernels: reached only through
    # the decoder stages, its effect on the kernels is too weak and too
    # entangled to learn, and training shuts the motion latent off
    # (posterior collapse)
    subnets = [
        [
            _Join("e_m", cfg.resolutions[s] // 4),
            _conv3(f"sub.subnet{s}.trunk", g + cfg.lstm_hidden, g),
            _RELU,
            _Heads(
                [_conv3(f"sub.subnet{s}.wv", g, n), _ChannelsLast()],
                [_conv3(f"sub.subnet{s}.wh", g, n), _ChannelsLast()],
                [_conv3(f"sub.subnet{s}.mask", g, 1), _Mask()],
            ),
        ]
        for s in range(cfg.scales)
    ]
    mc = cfg.motion_map_channels
    return SimpleNamespace(
        enc_c=[_Join("labels"), *_downsampler("enc", cfg, in_channels, 32 * g, 2 * cfg.latent_c)],
        enc_m=[_Join("labels"), *_downsampler("enc", cfg, in_channels, 32 * g, 2 * cfg.latent_m)],
        gen_c=_generator(cfg, stem, 4 * g),
        gen_m=_generator(cfg, [*stem, _Join("e_m")], 4 * g + cfg.lstm_hidden),
        head=[_conv3("head.out", g, cfg.channels), _TANH],
        subnets=subnets,
        lstm=[_Reshape((mc, 4, 4)), _LstmCell(mc, cfg.lstm_hidden)],
        classifier=_downsampler("cls", cfg, 2 * cfg.channels, 8 * g, k),
    )


@dataclass
class ModelBundle:
    config: ModelConfig
    enc_c: ops.ParamSet
    gen_c: ops.ParamSet
    enc_m: ops.ParamSet
    gen_m: ops.ParamSet
    lstm: ops.ParamSet

    def param_sets(self) -> dict[str, ops.ParamSet]:
        return {
            "enc_c": self.enc_c,
            "gen_c": self.gen_c,
            "enc_m": self.enc_m,
            "gen_m": self.gen_m,
            "lstm": self.lstm,
        }

    def content_sets(self):
        return {"enc_c": self.enc_c, "gen_c": self.gen_c}

    def motion_sets(self):
        return {"enc_m": self.enc_m, "gen_m": self.gen_m, "lstm": self.lstm}

    def zero_grads(self):
        for ps in self.param_sets().values():
            ps.zero_grads()


def _set_chains(cfg: ModelConfig) -> dict:
    """The layer lists behind each parameter set of a model, in init order."""
    nets = _networks(cfg)
    return {
        "enc_c": [nets.enc_c],
        "gen_c": [*nets.gen_c, nets.head],
        "enc_m": [nets.enc_m],
        "gen_m": [*nets.gen_m, *nets.subnets],
        "lstm": [nets.lstm],
    }


def model_layout(cfg: ModelConfig) -> dict:
    """{set: {parameter: shape}} of `build_model(cfg, ...)`, with no draws."""
    return {sname: _shapes(chains) for sname, chains in _set_chains(cfg).items()}


def classifier_layout(cfg: ModelConfig) -> dict:
    """{"cls": {parameter: shape}} of `build_classifier(cfg, ...)`."""
    return {"cls": _shapes([_networks(cfg).classifier])}


def build_model(cfg: ModelConfig, rng: SeededRng, dtype=np.float32) -> ModelBundle:
    """Create and initialize every parameter set in a fixed order.

    Weights use Xavier-uniform; biases are zero except the encoders'
    log-variance outputs, which start at -4 so early reparameterization
    noise is small enough for the latent pathways to pick up signal.
    """
    sets = {sname: _params(rng, dtype, *chains) for sname, chains in _set_chains(cfg).items()}
    sets["enc_c"].value("enc.fc2.b")[cfg.latent_c :] = -4.0
    sets["enc_m"].value("enc.fc2.b")[cfg.latent_m :] = -4.0
    gen_m = sets["gen_m"]
    for s in range(cfg.scales):
        # start fusion harmless but active: kernels near the identity delta
        # and masks mostly open. Random kernels under a half-open mask damage
        # the prediction enough that training kills the masks within a few
        # hundred iterations and motion never gets learned.
        n = cfg.kernel_size
        gen_m.value(f"sub.subnet{s}.wv.b")[n // 2] = 1.0
        gen_m.value(f"sub.subnet{s}.wh.b")[n // 2] = 1.0
        gen_m.value(f"sub.subnet{s}.wv.w")[...] *= 0.25
        gen_m.value(f"sub.subnet{s}.wh.w")[...] *= 0.25
        gen_m.value(f"sub.subnet{s}.mask.w")[...] *= 0.25
        gen_m.value(f"sub.subnet{s}.mask.b")[...] = 1.0
    return ModelBundle(config=cfg, **sets)


# ---------------------------------------------------------------------------
# forward pieces


def one_hot(labels, k: int, dtype=np.float32) -> np.ndarray:
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"class index outside [0, {k}): {labels}")
    out = np.zeros((labels.shape[0], k), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def encode(params: ops.ParamSet, cfg: ModelConfig, x, onehot, latent: int, keep=True):
    nets = _networks(cfg)
    layers = nets.enc_c if latent == cfg.latent_c else nets.enc_m
    out, cache = _forward(layers, params, x, SimpleNamespace(labels=onehot), keep)
    q = GaussianParams(mean=out[:, :latent].copy(), logvar=out[:, latent:].copy())
    return q, cache


def encode_backward(params, enc_cache: list, dmean, dlogvar):
    _backward(params, np.concatenate([dmean, dlogvar], axis=1), enc_cache)


def decode_content(bundle: ModelBundle, eps_c, onehot, keep=True):
    """The content generator's pyramid (coarsest first) and cache."""
    side = SimpleNamespace(labels=onehot)
    return _pyramid_forward(_networks(bundle.config).gen_c, bundle.gen_c, eps_c, side, keep)


def decode_content_backward(bundle: ModelBundle, cache: tuple, d_pyramid):
    """d_pyramid: per-scale grads (None allowed); returns d eps_c."""
    return _pyramid_backward(bundle.gen_c, d_pyramid, cache)


def decode_head(bundle: ModelBundle, h):
    return _forward(_networks(bundle.config).head, bundle.gen_c, h)


def decode_head_backward(bundle: ModelBundle, head_cache: list, dy):
    return _backward(bundle.gen_c, dy, head_cache)


def lstm_embed(bundle: ModelBundle, eps_m, h_prev=None, c_prev=None):
    """One convLSTM step from (h_prev, c_prev), None for zeros: (h, c, cache)."""
    side = SimpleNamespace(state=(h_prev, c_prev))
    h, chain = _forward(_networks(bundle.config).lstm, bundle.lstm, eps_m, side)
    return h, side.state[1], chain


def motion_fields(bundle: ModelBundle, eps_c, e_m, onehot):
    """Decode per-scale separable kernels and masks from (eps_c, e_m)."""
    nets = _networks(bundle.config)
    side = SimpleNamespace(labels=onehot, e_m=e_m)
    pyramid, gen = _pyramid_forward(nets.gen_m, bundle.gen_m, eps_c, side)
    heads = [_forward(sub, bundle.gen_m, y, side) for sub, y in zip(nets.subnets, pyramid)]
    kernels = [fusion.SeparableKernelField(wv=wv, wh=wh) for (wv, wh, _), _ in heads]
    masks = [mask for (_, _, mask), _ in heads]
    return kernels, masks, (gen, [chain for _, chain in heads])


def motion_fields_backward(bundle: ModelBundle, cache, d_kernels, d_masks):
    """Returns (d eps_c, d e_m)."""
    gen, subnets = cache
    side = SimpleNamespace(e_m=0.0)  # the subnets add their e_m shares first
    d_pyramid = [
        _backward(bundle.gen_m, (dk.wv, dk.wh, dm), chain, side)
        for chain, dk, dm in zip(subnets, d_kernels, d_masks)
    ]
    d_eps_c = _pyramid_backward(bundle.gen_m, d_pyramid, gen, side)
    return d_eps_c, side.e_m


# ---------------------------------------------------------------------------
# the content pass, the motion pass and the next-frame step
#
# A pass returns its outputs with the caches of every network it ran; its
# `backward` method takes loss gradients on those outputs (None for none)
# and accumulates parameter gradients, releasing each cache once read. A
# frozen pass, which nothing backpropagates through, keeps none.


def _take_caches(owner, what):
    """Take `owner.caches` for a backward, or raise where none are left."""
    caches, owner.caches = owner.caches, None
    if caches is None:
        raise ValueError(f"the {what} keeps no caches: it ran frozen, or a backward consumed them")
    return caches


def _posterior_backward(params, enc_cache, q: GaussianParams, eta, d_eps, d_q):
    """Through the draw eps = mean + exp(logvar / 2) * eta and the encoder
    that produced q; d_q is an extra (d mean, d logvar) pair, or None."""
    dmean = d_eps
    dlogvar = d_eps * eta * 0.5 * np.exp(0.5 * q.logvar)
    if d_q is not None:
        dmean, dlogvar = dmean + d_q[0], dlogvar + d_q[1]
    encode_backward(params, enc_cache, dmean, dlogvar)


def _with_head_grad(bundle, head_cache, d_maps, d_x):
    """Per-scale map gradients (None entries allowed), with the head
    backward of the frame gradient d_x added at the finest scale."""
    grads = list(d_maps) if d_maps is not None else [None] * bundle.config.scales
    if d_x is not None:
        d_top = decode_head_backward(bundle, head_cache, d_x)
        grads[-1] = d_top if grads[-1] is None else grads[-1] + d_top
    return grads


@dataclass
class ContentPass:
    """One frame through the content stream: its posterior q, the draw
    eps = q.sample(eta), the pyramid decoded from eps (coarsest first) and,
    if the head ran, the reconstructed frame x."""

    q: GaussianParams
    eta: np.ndarray
    eps: np.ndarray
    pyramid: list
    x: np.ndarray
    caches: tuple = field(repr=False)  # (encoder, generator, head); None if frozen or used

    def backward(self, bundle: ModelBundle, d_x=None, d_pyramid=None, d_eps=None, d_q=None):
        """Into enc_c and gen_c: d_x on the frame, d_pyramid per scale,
        d_eps on the draw from its other reader (the motion generator) and
        d_q on the posterior."""
        enc, gen, head = _take_caches(self, "content pass")
        grads = _with_head_grad(bundle, head, d_pyramid, d_x)
        if any(g is not None for g in grads):
            d_dec = decode_content_backward(bundle, gen, grads)
            d_eps = d_dec if d_eps is None else d_dec + d_eps
        if d_eps is None:
            d_eps = np.zeros_like(self.eps)
        _posterior_backward(bundle.enc_c, enc, self.q, self.eta, d_eps, d_q)


def content_pass(bundle: ModelBundle, x, onehot, eta, frozen: bool = False) -> ContentPass:
    """Encode frame x, draw eps with noise eta (zeros give the posterior
    mean), decode the pyramid and the frame; `frozen`, no frame and no caches."""
    cfg = bundle.config
    q, enc = encode(bundle.enc_c, cfg, x, onehot, cfg.latent_c, keep=not frozen)
    eps = q.sample(eta)
    pyramid, gen = decode_content(bundle, eps, onehot, keep=not frozen)
    x_out, head = (None, None) if frozen else decode_head(bundle, pyramid[-1])
    return ContentPass(q, eta, eps, pyramid, x_out, None if frozen else (enc, gen, head))


@dataclass
class MotionPass:
    """The kernel fields and masks decoded from (eps_c, e_m), the pyramid
    they refined, and the frame x the head decodes from its finest map."""

    kernels: list
    masks: list
    refined: list
    x: np.ndarray
    caches: tuple = field(repr=False)  # (motion generator, fusion, head); None once used

    def backward(self, bundle: ModelBundle, d_x=None, d_refined=None, content: bool = True):
        """Into gen_m (and the head, in gen_c): d_x on the frame and
        d_refined per scale. Returns (d pyramid, d eps_c, d e_m); d pyramid
        is None unless `content`."""
        gen, fuse, head = _take_caches(self, "motion pass")
        d_ref = _with_head_grad(bundle, head, d_refined, d_x)
        d_ref = [np.zeros_like(r) if g is None else g for g, r in zip(d_ref, self.refined)]
        d_pyramid, d_kernels, d_masks = fusion.fuse_pyramid_backward(d_ref, fuse, content)
        return (d_pyramid, *motion_fields_backward(bundle, gen, d_kernels, d_masks))


def motion_pass(bundle: ModelBundle, pyramid, eps_c, e_m, onehot) -> MotionPass:
    """Decode kernel fields and masks from (eps_c, e_m), fuse them into
    `pyramid` and decode the refined finest map into the next frame."""
    kernels, masks, gen = motion_fields(bundle, eps_c, e_m, onehot)
    refined, fuse = fusion.fuse_pyramid_forward(pyramid, kernels, masks)
    x, head = decode_head(bundle, refined[-1])
    return MotionPass(kernels, masks, refined, x, (gen, fuse, head))


@dataclass
class ForwardResult:
    """The two passes of one next-frame step and the motion posterior."""

    content: ContentPass
    motion: MotionPass
    q_m: GaussianParams
    eta_m: np.ndarray
    caches: tuple = field(repr=False)  # (motion encoder, convLSTM step); None once used

    x_recon = property(lambda self: self.content.x)
    q_c = property(lambda self: self.content.q)
    x_next = property(lambda self: self.motion.x)
    refined = property(lambda self: self.motion.refined)


def forward_next_frame(
    bundle: ModelBundle,
    x_t: np.ndarray,
    dx: np.ndarray,
    labels,
    eta_c: np.ndarray,
    eta_m: np.ndarray,
    content: bool = True,
) -> ForwardResult:
    """Predict the next frame from the current frame and its forward
    difference map, with the reparameterization noise eta_c / eta_m of
    the content and motion posteriors (zeros give the posterior means).
    With `content` False the content stream is frozen: its pass decodes no
    x_recon and keeps no caches, for a backward with content=False."""
    cfg = bundle.config
    if x_t.shape != dx.shape:
        raise ShapeError(f"frame {x_t.shape} and difference map {dx.shape} must match")
    if x_t.shape[1:] != (cfg.channels, cfg.size, cfg.size):
        raise ShapeError(
            f"frame shape {x_t.shape} incompatible with config "
            f"({cfg.channels}, {cfg.size}, {cfg.size})"
        )
    onehot = one_hot(labels, cfg.classes, x_t.dtype)
    cp = content_pass(bundle, x_t, onehot, eta_c, frozen=not content)
    q_m, enc_m = encode(bundle.enc_m, cfg, dx, onehot, cfg.latent_m)
    e_m, _, lstm = lstm_embed(bundle, q_m.sample(eta_m))
    mp = motion_pass(bundle, cp.pyramid, cp.eps, e_m, onehot)
    return ForwardResult(cp, mp, q_m, eta_m, (enc_m, lstm))


def backward_next_frame(
    bundle: ModelBundle,
    result: ForwardResult,
    d_x_next=None,
    d_x_recon=None,
    d_refined=None,
    d_q_c=None,
    d_q_m=None,
    content: bool = True,
    motion: bool = True,
):
    """Accumulate parameter gradients for the requested loss gradients.

    `content` / `motion` gate propagation into the content stream
    (enc_c, gen_c) and motion stream (enc_m, gen_m, lstm); the motion phase
    freezes content, the end-to-end check enables both. Next-frame and
    refined gradients reach either stream only through the motion pass,
    so they need `motion`. It consumes the caches it reads, and raises a
    ValueError over spent caches or, with `content`, a frozen content pass.
    """
    if content and result.content.caches is None:  # raise before any gradient accumulates
        _take_caches(result.content, "content pass")
    d_pyramid = d_eps_c = None
    if motion:
        enc_m, lstm = _take_caches(result, "motion encoder and convLSTM step")
        d_pyramid, d_eps_c, d_e_m = result.motion.backward(bundle, d_x_next, d_refined, content)
        d_eps_m = _backward(bundle.lstm, d_e_m, lstm)
        _posterior_backward(bundle.enc_m, enc_m, result.q_m, result.eta_m, d_eps_m, d_q_m)
    elif d_x_next is not None or d_refined is not None:
        raise ValueError("next-frame and refined gradients need motion=True")
    if content:
        result.content.backward(bundle, d_x_recon, d_pyramid, d_eps_c, d_q_c)


# ---------------------------------------------------------------------------
# clip classifier


def build_classifier(cfg: ModelConfig, rng: SeededRng, dtype=np.float32) -> ops.ParamSet:
    return _params(rng, dtype, _networks(cfg).classifier)


def classifier_inputs(clips: np.ndarray) -> np.ndarray:
    """Stack (frame, forward difference) channel pairs for t = 1..T-1."""
    frames = clips[:, 1:]
    diffs = clips[:, 1:] - clips[:, :-1]
    stacked = np.concatenate([frames, diffs], axis=2)  # (B, T-1, 2C, H, W)
    b, tm1, c2, h, w = stacked.shape
    return stacked.reshape(b * tm1, c2, h, w), tm1


@dataclass
class ClassifierCache:
    chain: list
    transitions: int  # per clip: T - 1


def classifier_forward(params: ops.ParamSet, cfg: ModelConfig, clips: np.ndarray, keep=True):
    """Frame-averaged logits over the clip's transitions; no cache without `keep`."""
    x, tm1 = classifier_inputs(clips)
    logits_all, chain = _forward(_networks(cfg).classifier, params, x, keep=keep)
    logits = logits_all.reshape(clips.shape[0], tm1, cfg.classes).mean(axis=1)
    return logits, (ClassifierCache(chain, tm1) if keep else None)


def classifier_backward(params: ops.ParamSet, cls_cache: ClassifierCache, d_logits):
    tm1 = cls_cache.transitions
    d_all = np.repeat(d_logits[:, None, :] / tm1, tm1, axis=1)
    _backward(params, d_all.reshape(-1, d_logits.shape[1]), cls_cache.chain)


def classifier_probs(params: ops.ParamSet, cfg: ModelConfig, clips: np.ndarray) -> np.ndarray:
    logits, _ = classifier_forward(params, cfg, clips, keep=False)
    # float64 softmax so the rows satisfy the strict sum-to-one contract
    return ops.softmax_logits(logits.astype(np.float64))
