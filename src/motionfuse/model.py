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

Networks are built from a tiny sequential-chain description so forward and
backward stay mechanical; `forward_next_frame` / `backward_next_frame` wire
the chains together and expose per-phase gradient propagation (content,
motion, or both for the end-to-end gradient check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fusion, ops
from .losses import GaussianParams
from .tensor import SeededRng, ShapeError

# ---------------------------------------------------------------------------
# sequential chains


def _spec(cin, cout, k, stride, pad):
    return ops.ConvSpec(cin, cout, k, stride, pad)


def chain_init(params: ops.ParamSet, rng: SeededRng, prefix: str, layers, dtype):
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, name, spec = layer
            w, b = ops.init_conv(rng, spec.out_channels, spec.in_channels, spec.kernel_size, dtype)
            params.add(f"{prefix}.{name}.w", w)
            params.add(f"{prefix}.{name}.b", b)
        elif kind == "deconv":
            _, name, spec = layer
            w, b = ops.init_deconv(rng, spec.in_channels, spec.out_channels, spec.kernel_size, dtype)
            params.add(f"{prefix}.{name}.w", w)
            params.add(f"{prefix}.{name}.b", b)
        elif kind == "fc":
            _, name, fin, fout = layer
            w, b = ops.init_linear(rng, fin, fout, dtype)
            params.add(f"{prefix}.{name}.w", w)
            params.add(f"{prefix}.{name}.b", b)


def chain_forward(params: ops.ParamSet, prefix: str, layers, x):
    caches, taps = [], {}
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, name, spec = layer
            x, c = ops.conv2d_forward(
                x, params.value(f"{prefix}.{name}.w"), params.value(f"{prefix}.{name}.b"),
                spec.stride, spec.padding,
            )
            caches.append(c)
        elif kind == "deconv":
            _, name, spec = layer
            x, c = ops.conv_transpose2d_forward(
                x, params.value(f"{prefix}.{name}.w"), params.value(f"{prefix}.{name}.b"),
                spec.stride, spec.padding,
            )
            caches.append(c)
        elif kind == "fc":
            _, name, _, _ = layer
            x, c = ops.linear_forward(
                x, params.value(f"{prefix}.{name}.w"), params.value(f"{prefix}.{name}.b")
            )
            caches.append(c)
        elif kind == "relu":
            x, c = ops.relu_forward(x)
            caches.append(c)
        elif kind == "tanh":
            x, c = ops.tanh_forward(x)
            caches.append(c)
        elif kind == "flatten":
            caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
        elif kind == "reshape":
            caches.append(x.shape)
            x = x.reshape((x.shape[0],) + tuple(layer[1]))
        elif kind == "tap":
            taps[layer[1]] = x
            caches.append(None)
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return x, (caches, taps)


def chain_backward(params: ops.ParamSet, prefix: str, layers, dy, cache, tap_grads=None):
    caches, _ = cache
    tap_grads = tap_grads or {}
    for layer, c in zip(reversed(layers), reversed(caches)):
        kind = layer[0]
        if kind == "conv":
            _, name, _ = layer
            dy, dw, db = ops.conv2d_backward(dy, c)
            params.accumulate(f"{prefix}.{name}.w", dw)
            params.accumulate(f"{prefix}.{name}.b", db)
        elif kind == "deconv":
            _, name, _ = layer
            dy, dw, db = ops.conv_transpose2d_backward(dy, c)
            params.accumulate(f"{prefix}.{name}.w", dw)
            params.accumulate(f"{prefix}.{name}.b", db)
        elif kind == "fc":
            _, name, _, _ = layer
            dy, dw, db = ops.linear_backward(dy, c)
            params.accumulate(f"{prefix}.{name}.w", dw)
            params.accumulate(f"{prefix}.{name}.b", db)
        elif kind == "relu":
            dy = ops.relu_backward(dy, c)
        elif kind == "tanh":
            dy = ops.tanh_backward(dy, c)
        elif kind in ("flatten", "reshape"):
            dy = dy.reshape(c)
        elif kind == "tap":
            extra = tap_grads.get(layer[1])
            if extra is not None:
                dy = dy + extra
    return dy


# ---------------------------------------------------------------------------
# configuration and bundle


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
        if self.latent_c < 1 or self.latent_m < 1:
            raise ValueError("latent dimensions must be >= 1")
        if self.latent_m % 16:
            raise ValueError("latent_m must be divisible by 16 (reshaped to 4x4 maps)")
        if self.size % (1 << (self.scales - 1)):
            raise ValueError(
                f"size {self.size} not divisible by 2^(scales-1) = {1 << (self.scales - 1)}"
            )
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
    def pyramid_channels(self) -> tuple[int, ...]:
        return (self.ngf,) * self.scales

    @property
    def lstm_hidden(self) -> int:
        return self.ngf

    @property
    def motion_map_channels(self) -> int:
        return self.latent_m // 16

    def fusion_config(self) -> fusion.FusionConfig:
        return fusion.FusionConfig(
            scales=self.scales,
            kernel_size=self.kernel_size,
            resolutions=self.resolutions,
            channels=self.pyramid_channels,
        )


def _encoder_layers(cfg: ModelConfig, in_channels: int, latent: int):
    g = cfg.ngf
    flat = 2 * g * (cfg.size // 8) ** 2
    return [
        ("conv", "conv1", _spec(in_channels, g, 3, 2, 1)),
        ("relu",),
        ("conv", "conv2", _spec(g, 2 * g, 3, 2, 1)),
        ("relu",),
        ("conv", "conv3", _spec(2 * g, 2 * g, 3, 2, 1)),
        ("relu",),
        ("flatten",),
        ("fc", "fc1", flat, 32 * g),
        ("relu",),
        ("fc", "fc2", 32 * g, 2 * latent),
    ]


def _generator_stem(cfg: ModelConfig, in_dim: int):
    g = cfg.ngf
    return [
        ("fc", "fc1", in_dim, 32 * g),
        ("relu",),
        ("fc", "fc2", 32 * g, 4 * g * 16),
        ("relu",),
        ("reshape", (4 * g, 4, 4)),
    ]


def _generator_stages(cfg: ModelConfig, in_channels: int):
    # each resolution gets a stride-2 upsample plus a stride-1 refinement
    g = cfg.ngf
    layers = []
    cin = in_channels
    first_tap = cfg.up_stages - cfg.scales
    for i in range(cfg.up_stages):
        cout = g if i >= first_tap else 2 * g
        layers.append(("deconv", f"up{i}", _spec(cin, cout, 4, 2, 1)))
        layers.append(("relu",))
        layers.append(("conv", f"post{i}", _spec(cout, cout, 3, 1, 1)))
        layers.append(("relu",))
        if i >= first_tap:
            layers.append(("tap", i - first_tap))
        cin = cout
    return layers


def _head_layers(cfg: ModelConfig):
    return [
        ("conv", "out", _spec(cfg.ngf, cfg.channels, 3, 1, 1)),
        ("tanh",),
    ]


def _subnet_layers(cfg: ModelConfig, s: int):
    # the trunk reads the stage tap and the upsampled motion embedding
    g, n = cfg.ngf, cfg.kernel_size
    trunk = [("conv", f"subnet{s}.trunk", _spec(g + cfg.lstm_hidden, g, 3, 1, 1)), ("relu",)]
    heads = {
        "wv": [("conv", f"subnet{s}.wv", _spec(g, n, 3, 1, 1))],
        "wh": [("conv", f"subnet{s}.wh", _spec(g, n, 3, 1, 1))],
        "mask": [("conv", f"subnet{s}.mask", _spec(g, 1, 3, 1, 1))],
    }
    return trunk, heads


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


def build_model(cfg: ModelConfig, rng: SeededRng, dtype=np.float32) -> ModelBundle:
    """Create and initialize every parameter set in a fixed order.

    Weights use Xavier-uniform; biases are zero except the encoders'
    log-variance outputs, which start at -4 so early reparameterization
    noise is small enough for the latent pathways to pick up signal.
    """
    k = cfg.classes
    enc_c = ops.ParamSet()
    chain_init(enc_c, rng, "enc", _encoder_layers(cfg, cfg.channels + k, cfg.latent_c), dtype)
    enc_c.value("enc.fc2.b")[cfg.latent_c :] = -4.0

    gen_c = ops.ParamSet()
    chain_init(gen_c, rng, "stem", _generator_stem(cfg, cfg.latent_c + k), dtype)
    chain_init(gen_c, rng, "stage", _generator_stages(cfg, 4 * cfg.ngf), dtype)
    chain_init(gen_c, rng, "head", _head_layers(cfg), dtype)

    enc_m = ops.ParamSet()
    chain_init(enc_m, rng, "enc", _encoder_layers(cfg, cfg.channels + k, cfg.latent_m), dtype)
    enc_m.value("enc.fc2.b")[cfg.latent_m :] = -4.0

    gen_m = ops.ParamSet()
    chain_init(gen_m, rng, "stem", _generator_stem(cfg, cfg.latent_c + k), dtype)
    chain_init(
        gen_m, rng, "stage", _generator_stages(cfg, 4 * cfg.ngf + cfg.lstm_hidden), dtype
    )
    for s in range(cfg.scales):
        trunk, heads = _subnet_layers(cfg, s)
        chain_init(gen_m, rng, "sub", trunk, dtype)
        for head_layers in heads.values():
            chain_init(gen_m, rng, "sub", head_layers, dtype)
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

    lstm = ops.ParamSet()
    hid, mc = cfg.lstm_hidden, cfg.motion_map_channels
    lstm.add("wx", ops.xavier_uniform(rng, (4 * hid, mc, 3, 3), mc * 9, 4 * hid * 9, dtype))
    lstm.add("wh", ops.xavier_uniform(rng, (4 * hid, hid, 3, 3), hid * 9, 4 * hid * 9, dtype))
    lstm.add("b", np.zeros(4 * hid, dtype=dtype))
    return ModelBundle(config=cfg, enc_c=enc_c, gen_c=gen_c, enc_m=enc_m, gen_m=gen_m, lstm=lstm)


# ---------------------------------------------------------------------------
# forward pieces


def one_hot(labels, k: int, dtype=np.float32) -> np.ndarray:
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"class index outside [0, {k}): {labels}")
    out = np.zeros((labels.shape[0], k), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _with_label_channels(x, onehot):
    bsz, _, h, w = x.shape
    planes = np.broadcast_to(onehot[:, :, None, None], (bsz, onehot.shape[1], h, w))
    return np.concatenate([x, planes.astype(x.dtype)], axis=1)


def encode(params: ops.ParamSet, cfg: ModelConfig, x, onehot, latent: int):
    xin = _with_label_channels(x, onehot)
    layers = _encoder_layers(cfg, xin.shape[1], latent)
    out, cache = chain_forward(params, "enc", layers, xin)
    q = GaussianParams(mean=out[:, :latent].copy(), logvar=out[:, latent:].copy())
    return q, (layers, cache, latent)


def encode_backward(params, enc_cache, dmean, dlogvar):
    layers, cache, latent = enc_cache
    dy = np.concatenate([dmean, dlogvar], axis=1)
    chain_backward(params, "enc", layers, dy, cache)


def decode_content(bundle: ModelBundle, eps_c, onehot):
    cfg = bundle.config
    stem_layers = _generator_stem(cfg, cfg.latent_c + cfg.classes)
    stage_layers = _generator_stages(cfg, 4 * cfg.ngf)
    zin = np.concatenate([eps_c, onehot.astype(eps_c.dtype)], axis=1)
    stem_out, stem_cache = chain_forward(bundle.gen_c, "stem", stem_layers, zin)
    trunk_out, stage_cache = chain_forward(bundle.gen_c, "stage", stage_layers, stem_out)
    _, taps = stage_cache
    pyramid = [taps[s] for s in range(cfg.scales)]
    cache = (stem_layers, stem_cache, stage_layers, stage_cache, trunk_out.shape)
    return pyramid, cache


def decode_content_backward(bundle: ModelBundle, cache, d_pyramid):
    """d_pyramid: per-scale grads (None allowed); returns d eps_c."""
    stem_layers, stem_cache, stage_layers, stage_cache, out_shape = cache
    cfg = bundle.config
    tap_grads = {
        s: g for s, g in enumerate(d_pyramid) if g is not None
    }
    dzero = np.zeros(out_shape, dtype=bundle.gen_c.value("stem.fc1.w").dtype)
    d_stem_out = chain_backward(
        bundle.gen_c, "stage", stage_layers, dzero, stage_cache, tap_grads
    )
    dzin = chain_backward(bundle.gen_c, "stem", stem_layers, d_stem_out, stem_cache)
    return dzin[:, : cfg.latent_c]


def decode_head(bundle: ModelBundle, h):
    layers = _head_layers(bundle.config)
    out, cache = chain_forward(bundle.gen_c, "head", layers, h)
    return out, (layers, cache)


def decode_head_backward(bundle: ModelBundle, head_cache, dy):
    layers, cache = head_cache
    return chain_backward(bundle.gen_c, "head", layers, dy, cache)


def lstm_embed(bundle: ModelBundle, eps_m, h_prev=None, c_prev=None):
    cfg = bundle.config
    bsz = eps_m.shape[0]
    x = eps_m.reshape(bsz, cfg.motion_map_channels, 4, 4)
    if h_prev is None:
        h_prev = np.zeros((bsz, cfg.lstm_hidden, 4, 4), dtype=eps_m.dtype)
    if c_prev is None:
        c_prev = np.zeros_like(h_prev)
    h, c, cache = ops.convlstm_step_forward(
        x, h_prev, c_prev, bundle.lstm.value("wx"), bundle.lstm.value("wh"), bundle.lstm.value("b")
    )
    return h, c, (cache, eps_m.shape)


def lstm_embed_backward(bundle: ModelBundle, lstm_cache, dh, dc=None):
    cache, eps_shape = lstm_cache
    if dc is None:
        dc = np.zeros_like(dh)
    dx, dh_prev, dc_prev, dwx, dwh, db = ops.convlstm_step_backward(dh, dc, cache)
    bundle.lstm.accumulate("wx", dwx)
    bundle.lstm.accumulate("wh", dwh)
    bundle.lstm.accumulate("b", db)
    return dx.reshape(eps_shape), dh_prev, dc_prev


def _upsample(x, f: int):
    """Nearest-neighbour upsampling of (B, C, H, W) maps by an integer factor."""
    return np.repeat(np.repeat(x, f, axis=2), f, axis=3)


def _upsample_backward(dy, f: int):
    b, c, h, w = dy.shape
    return dy.reshape(b, c, h // f, f, w // f, f).sum(axis=(3, 5))


def _field_from_heads(wv_maps, wh_maps):
    # (B, n, H, W) conv outputs -> (B, H, W, n) kernel fields
    wv = np.ascontiguousarray(np.moveaxis(wv_maps, 1, 3))
    wh = np.ascontiguousarray(np.moveaxis(wh_maps, 1, 3))
    return fusion.SeparableKernelField(wv=wv, wh=wh)


def motion_fields(bundle: ModelBundle, eps_c, e_m, onehot):
    """Decode per-scale separable kernels and masks from (eps_c, e_m)."""
    cfg = bundle.config
    stem_layers = _generator_stem(cfg, cfg.latent_c + cfg.classes)
    stage_layers = _generator_stages(cfg, 4 * cfg.ngf + cfg.lstm_hidden)
    zin = np.concatenate([eps_c, onehot.astype(eps_c.dtype)], axis=1)
    stem_out, stem_cache = chain_forward(bundle.gen_m, "stem", stem_layers, zin)
    stage_in = np.concatenate([stem_out, e_m], axis=1)
    trunk_out, stage_cache = chain_forward(bundle.gen_m, "stage", stage_layers, stage_in)
    _, taps = stage_cache

    # e_m also enters every subnet directly, one short conv away from the
    # kernels: reached only through the decoder stages, its effect on the
    # kernels is too weak and too entangled to learn, and training shuts
    # the motion latent off (posterior collapse)
    kernels, masks, sub_caches = [], [], []
    for s in range(cfg.scales):
        trunk_layers, head_layers = _subnet_layers(cfg, s)
        sub_in = np.concatenate([taps[s], _upsample(e_m, cfg.resolutions[s] // 4)], axis=1)
        feat, trunk_cache = chain_forward(bundle.gen_m, "sub", trunk_layers, sub_in)
        wv_maps, wv_cache = chain_forward(bundle.gen_m, "sub", head_layers["wv"], feat)
        wh_maps, wh_cache = chain_forward(bundle.gen_m, "sub", head_layers["wh"], feat)
        raw_mask, mask_cache = chain_forward(bundle.gen_m, "sub", head_layers["mask"], feat)
        mask, mask_act_cache = fusion.mask_activation_forward(raw_mask[:, 0])
        kernels.append(_field_from_heads(wv_maps, wh_maps))
        masks.append(mask)
        sub_caches.append(
            (trunk_layers, head_layers, trunk_cache, wv_cache, wh_cache, mask_cache, mask_act_cache)
        )
    cache = (
        stem_layers,
        stem_cache,
        stage_layers,
        stage_cache,
        sub_caches,
        trunk_out.shape,
        stem_out.shape,
    )
    return kernels, masks, cache


def motion_fields_backward(bundle: ModelBundle, cache, d_kernels, d_masks):
    """Returns (d eps_c, d e_m)."""
    (
        stem_layers,
        stem_cache,
        stage_layers,
        stage_cache,
        sub_caches,
        out_shape,
        stem_shape,
    ) = cache
    cfg = bundle.config
    tap_grads = {}
    d_e_m_direct = 0.0
    for s in range(cfg.scales):
        trunk_layers, head_layers, trunk_cache, wv_cache, wh_cache, mask_cache, mask_act_cache = sub_caches[s]
        dwv_maps = np.moveaxis(d_kernels[s].wv, 3, 1)
        dwh_maps = np.moveaxis(d_kernels[s].wh, 3, 1)
        draw = fusion.mask_activation_backward(d_masks[s], mask_act_cache)[:, None]
        dfeat = chain_backward(bundle.gen_m, "sub", head_layers["wv"], dwv_maps, wv_cache)
        dfeat = dfeat + chain_backward(bundle.gen_m, "sub", head_layers["wh"], dwh_maps, wh_cache)
        dfeat = dfeat + chain_backward(bundle.gen_m, "sub", head_layers["mask"], draw, mask_cache)
        d_sub_in = chain_backward(bundle.gen_m, "sub", trunk_layers, dfeat, trunk_cache)
        tap_grads[s] = d_sub_in[:, : cfg.ngf]
        d_e_m_direct = d_e_m_direct + _upsample_backward(
            d_sub_in[:, cfg.ngf :], cfg.resolutions[s] // 4
        )

    dtype = bundle.gen_m.value("stem.fc1.w").dtype
    d_stage_in = chain_backward(
        bundle.gen_m, "stage", stage_layers, np.zeros(out_shape, dtype=dtype), stage_cache, tap_grads
    )
    split = stem_shape[1]
    d_stem_out, d_e_m = d_stage_in[:, :split], d_stage_in[:, split:]
    dzin = chain_backward(bundle.gen_m, "stem", stem_layers, d_stem_out, stem_cache)
    return dzin[:, : cfg.latent_c], d_e_m + d_e_m_direct


# ---------------------------------------------------------------------------
# full next-frame pipeline


@dataclass
class ForwardResult:
    x_next: np.ndarray
    x_recon: np.ndarray
    pyramid: list
    refined: list
    q_c: GaussianParams
    q_m: GaussianParams
    eps_c: np.ndarray
    eps_m: np.ndarray
    kernels: list
    masks: list
    cache: dict = field(repr=False, default=None)


def forward_next_frame(
    bundle: ModelBundle,
    x_t: np.ndarray,
    dx: np.ndarray,
    labels,
    rng: SeededRng = None,
    eta_c: np.ndarray = None,
    eta_m: np.ndarray = None,
    mask_zero: bool = False,
) -> ForwardResult:
    """Predict the next frame from the current frame and its forward
    difference map. Noise defaults to rng draws; pass eta_c/eta_m (for
    example zeros) to make the pass deterministic."""
    cfg = bundle.config
    if x_t.shape != dx.shape:
        raise ShapeError(
            f"frame {x_t.shape} and difference map {dx.shape} must match",
            (x_t.shape, dx.shape),
        )
    if x_t.shape[1:] != (cfg.channels, cfg.size, cfg.size):
        raise ShapeError(
            f"frame shape {x_t.shape} incompatible with config "
            f"({cfg.channels}, {cfg.size}, {cfg.size})",
            (x_t.shape,),
        )
    bsz = x_t.shape[0]
    dtype = x_t.dtype
    onehot = one_hot(labels, cfg.classes, dtype)

    if eta_c is None:
        eta_c = rng.normals((bsz, cfg.latent_c), dtype=dtype)
    if eta_m is None:
        eta_m = rng.normals((bsz, cfg.latent_m), dtype=dtype)

    q_c, enc_c_cache = encode(bundle.enc_c, cfg, x_t, onehot, cfg.latent_c)
    eps_c = q_c.sample(eta_c)
    pyramid, gen_c_cache = decode_content(bundle, eps_c, onehot)
    x_recon, head_cache_recon = decode_head(bundle, pyramid[-1])

    q_m, enc_m_cache = encode(bundle.enc_m, cfg, dx, onehot, cfg.latent_m)
    eps_m = q_m.sample(eta_m)
    e_m, _, lstm_cache = lstm_embed(bundle, eps_m)
    kernels, masks, gen_m_cache = motion_fields(bundle, eps_c, e_m, onehot)

    used_masks = [np.zeros_like(m) for m in masks] if mask_zero else masks
    refined, fuse_cache = fusion.fuse_pyramid_forward(pyramid, kernels, used_masks)
    x_next, head_cache_next = decode_head(bundle, refined[-1])

    cache = {
        "onehot": onehot,
        "eta_c": eta_c,
        "eta_m": eta_m,
        "enc_c": enc_c_cache,
        "enc_m": enc_m_cache,
        "gen_c": gen_c_cache,
        "gen_m": gen_m_cache,
        "lstm": lstm_cache,
        "fuse": fuse_cache,
        "head_recon": head_cache_recon,
        "head_next": head_cache_next,
        "q_c": q_c,
        "q_m": q_m,
        "mask_zero": mask_zero,
    }
    return ForwardResult(
        x_next=x_next,
        x_recon=x_recon,
        pyramid=pyramid,
        refined=refined,
        q_c=q_c,
        q_m=q_m,
        eps_c=eps_c,
        eps_m=eps_m,
        kernels=kernels,
        masks=masks,
        cache=cache,
    )


def _reparam_backward(q: GaussianParams, eta, d_eps):
    dmean = d_eps
    dlogvar = d_eps * eta * 0.5 * np.exp(0.5 * q.logvar)
    return dmean, dlogvar


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
    (enc_c, gen_c) and motion stream (enc_m, gen_m, lstm); the training
    loop freezes one side per phase, the end-to-end check enables both.
    """
    cfg = bundle.config
    cache = result.cache

    d_eps_c_total = None
    d_pyramid = None

    if d_x_next is not None or d_refined is not None:
        d_ref = [None] * cfg.scales
        if d_refined is not None:
            d_ref = [g.copy() if g is not None else None for g in d_refined]
        if d_x_next is not None:
            d_last = decode_head_backward(bundle, cache["head_next"], d_x_next)
            d_ref[-1] = d_last if d_ref[-1] is None else d_ref[-1] + d_last
        d_ref = [
            np.zeros_like(r) if g is None else g for g, r in zip(d_ref, result.refined)
        ]
        d_pyramid, d_kernels, d_masks = fusion.fuse_pyramid_backward(
            d_ref, cache["fuse"], content
        )
        if motion:
            if cache["mask_zero"]:
                d_masks = [np.zeros_like(m) for m in d_masks]
            d_eps_c_gm, d_e_m = motion_fields_backward(
                bundle, cache["gen_m"], d_kernels, d_masks
            )
            d_eps_m, _, _ = lstm_embed_backward(bundle, cache["lstm"], d_e_m)
            dmean_m, dlogvar_m = _reparam_backward(result.q_m, cache["eta_m"], d_eps_m)
            if d_q_m is not None:
                dmean_m = dmean_m + d_q_m[0]
                dlogvar_m = dlogvar_m + d_q_m[1]
            encode_backward(bundle.enc_m, cache["enc_m"], dmean_m, dlogvar_m)
            d_eps_c_total = d_eps_c_gm
    elif motion and d_q_m is not None:
        encode_backward(bundle.enc_m, cache["enc_m"], d_q_m[0], d_q_m[1])

    if content:
        d_trunk = None
        if d_x_recon is not None:
            d_trunk = decode_head_backward(bundle, cache["head_recon"], d_x_recon)
        tap_grads = list(d_pyramid) if d_pyramid is not None else [None] * cfg.scales
        if d_trunk is not None:
            tap_grads[-1] = d_trunk if tap_grads[-1] is None else tap_grads[-1] + d_trunk
        if any(g is not None for g in tap_grads) or d_q_c is not None:
            if any(g is not None for g in tap_grads):
                d_eps_c = decode_content_backward(bundle, cache["gen_c"], tap_grads)
            else:
                d_eps_c = np.zeros_like(result.eps_c)
            if d_eps_c_total is not None:
                d_eps_c = d_eps_c + d_eps_c_total
            dmean_c, dlogvar_c = _reparam_backward(result.q_c, cache["eta_c"], d_eps_c)
            if d_q_c is not None:
                dmean_c = dmean_c + d_q_c[0]
                dlogvar_c = dlogvar_c + d_q_c[1]
            encode_backward(bundle.enc_c, cache["enc_c"], dmean_c, dlogvar_c)


# ---------------------------------------------------------------------------
# clip classifier


def classifier_layers(cfg: ModelConfig):
    g = cfg.ngf
    flat = 2 * g * (cfg.size // 8) ** 2
    return [
        ("conv", "conv1", _spec(2 * cfg.channels, g, 3, 2, 1)),
        ("relu",),
        ("conv", "conv2", _spec(g, 2 * g, 3, 2, 1)),
        ("relu",),
        ("conv", "conv3", _spec(2 * g, 2 * g, 3, 2, 1)),
        ("relu",),
        ("flatten",),
        ("fc", "fc1", flat, 8 * g),
        ("relu",),
        ("fc", "fc2", 8 * g, cfg.classes),
    ]


def build_classifier(cfg: ModelConfig, rng: SeededRng, dtype=np.float32) -> ops.ParamSet:
    params = ops.ParamSet()
    chain_init(params, rng, "cls", classifier_layers(cfg), dtype)
    return params


def classifier_inputs(clips: np.ndarray) -> np.ndarray:
    """Stack (frame, forward difference) channel pairs for t = 1..T-1."""
    frames = clips[:, 1:]
    diffs = clips[:, 1:] - clips[:, :-1]
    stacked = np.concatenate([frames, diffs], axis=2)  # (B, T-1, 2C, H, W)
    b, tm1, c2, h, w = stacked.shape
    return stacked.reshape(b * tm1, c2, h, w), tm1


def classifier_forward(params: ops.ParamSet, cfg: ModelConfig, clips: np.ndarray):
    """Frame-averaged logits over the clip's transitions."""
    x, tm1 = classifier_inputs(clips)
    layers = classifier_layers(cfg)
    logits_all, cache = chain_forward(params, "cls", layers, x)
    logits = logits_all.reshape(clips.shape[0], tm1, cfg.classes).mean(axis=1)
    return logits, (layers, cache, tm1, clips.shape[0])


def classifier_backward(params: ops.ParamSet, cls_cache, d_logits):
    layers, cache, tm1, bsz = cls_cache
    d_all = np.repeat(d_logits[:, None, :] / tm1, tm1, axis=1)
    d_all = d_all.reshape(bsz * tm1, -1)
    chain_backward(params, "cls", layers, d_all, cache)


def classifier_probs(params: ops.ParamSet, cfg: ModelConfig, clips: np.ndarray) -> np.ndarray:
    logits, _ = classifier_forward(params, cfg, clips)
    # float64 softmax so the rows satisfy the strict sum-to-one contract
    return ops.softmax_logits(logits.astype(np.float64))
