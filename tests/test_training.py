import hashlib
import json
import struct

import numpy as np
import pytest

from motionfuse import checkpoint, fusion, losses, model, ops, training
from motionfuse.losses import LossWeights
from motionfuse.synthdata import ClipSpec, gen_dataset, load_dataset
from motionfuse.tensor import SeededRng

MCFG = model.ModelConfig(
    ngf=4, latent_c=8, latent_m=16, scales=2, kernel_size=3, classes=2, size=16
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.smv"
    gen_dataset(
        ["translate-horizontal", "static"], 6, 21, ClipSpec(frames=5, size=16), path
    )
    return load_dataset(path)


def make_trainer(dataset, iterations=10, seed=3, alpha=1e-3, batch=4):
    bundle = model.build_model(MCFG, SeededRng(seed))
    cfg = training.TrainConfig(
        iterations=iterations,
        batch_size=batch,
        seed=seed,
        optimizer=training.OptimizerConfig(alpha=alpha, beta1=0.9),
    )
    return bundle, training.Trainer(bundle, dataset, cfg)


def param_digest(param_sets):
    h = hashlib.sha256()
    for sname in sorted(param_sets):
        ps = param_sets[sname]
        for name, value in ps.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


class TestRandomShift:
    def test_one_offset_per_clip_across_frames_and_stacks(self):
        clips = SeededRng(1).normals((6, 4, 1, 12, 12))
        other = SeededRng(2).normals((6, 1, 12, 12))
        shifted, shifted_other = training.random_shift(SeededRng(3), 2, clips, other)
        assert shifted.shape == clips.shape
        for b in range(clips.shape[0]):
            # recover the offset from the interior of frame 0, then check it
            # holds for every frame of the clip and for the second stack
            hits = [
                (dy, dx)
                for dy in range(-2, 3)
                for dx in range(-2, 3)
                if np.array_equal(
                    shifted[b, 0, :, 2:-2, 2:-2],
                    clips[b, 0, :, 2 + dy : 10 + dy, 2 + dx : 10 + dx],
                )
            ]
            assert len(hits) == 1
            dy, dx = hits[0]
            for t in range(clips.shape[1]):
                assert np.array_equal(
                    shifted[b, t, :, 2:-2, 2:-2], clips[b, t, :, 2 + dy : 10 + dy, 2 + dx : 10 + dx]
                )
            assert np.array_equal(
                shifted_other[b, :, 2:-2, 2:-2], other[b, :, 2 + dy : 10 + dy, 2 + dx : 10 + dx]
            )

    def test_borders_replicate_the_edge(self):
        frame = np.arange(36, dtype=np.float64).reshape(1, 1, 6, 6)
        rng = SeededRng(0)
        seen = set()
        for _ in range(40):
            (out,) = training.random_shift(rng, 3, frame)
            padded = np.pad(frame, ((0, 0), (0, 0), (3, 3), (3, 3)), mode="edge")
            windows = [
                (oy, ox)
                for oy in range(7)
                for ox in range(7)
                if np.array_equal(out[0, 0], padded[0, 0, oy : oy + 6, ox : ox + 6])
            ]
            assert len(windows) == 1
            seen.add(windows[0])
        assert len(seen) > 10

    def test_shift_zero_is_identity_and_draws_nothing(self):
        clips = SeededRng(4).normals((3, 2, 1, 8, 8))
        rng = SeededRng(5)
        (out,) = training.random_shift(rng, 0, clips)
        assert out is clips
        assert rng.uniforms() == SeededRng(5).uniforms()


class TestOptimizer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            training.OptimizerConfig(alpha=-1e-3)
        with pytest.raises(ValueError):
            training.OptimizerConfig(beta1=1.0)

    def test_no_annealing_field(self):
        # Adam uses one learning rate throughout; a final rate would do nothing
        with pytest.raises(TypeError):
            training.OptimizerConfig(alpha_final=1e-5)

    def test_adam_minimizes_quadratic(self):
        from motionfuse import ops

        ps = ops.ParamSet()
        ps.add("x", np.array([5.0, -3.0]))
        opt = training.Adam({"p": ps}, training.OptimizerConfig(alpha=0.1, beta1=0.9))
        for _ in range(200):
            ps.zero_grads()
            ps.accumulate("x", 2.0 * ps.value("x"))
            opt.step()
        assert np.max(np.abs(ps.value("x"))) < 1e-3

    def test_defaults_match_published_values(self):
        cfg = training.OptimizerConfig()
        assert (cfg.alpha, cfg.beta1, cfg.beta2) == (2e-4, 0.5, 0.999)


class TestTrainConfig:
    def test_sections_must_be_their_dataclasses(self):
        with pytest.raises(TypeError, match="weights"):
            training.TrainConfig(weights={"l1": 1.0})
        with pytest.raises(TypeError, match="optimizer"):
            training.TrainConfig(optimizer={"alpha": 1e-3})

    @pytest.mark.parametrize(
        "fields",
        [
            {"iterations": -1},
            {"content_steps": -1},
            {"motion_steps": -2},
            {"crop_jitter": -1},
            {"batch_size": 0},
            {"content_steps": 0, "motion_steps": 0},
        ],
    )
    def test_rejects_what_it_cannot_run(self, fields):
        with pytest.raises(ValueError):
            training.TrainConfig(**fields)

    def test_content_only_and_zero_iteration_runs_stay_legal(self, tiny_dataset):
        training.TrainConfig(iterations=0, crop_jitter=0)
        cfg = training.TrainConfig(iterations=2, batch_size=4, motion_steps=0)
        trainer = training.Trainer(model.build_model(MCFG, SeededRng(3)), tiny_dataset, cfg)
        assert [stats["phase"] for stats in trainer.train()] == ["content", "content"]


class TestTrainer:
    def test_phase_pattern_three_to_two(self, tiny_dataset):
        _, trainer = make_trainer(tiny_dataset)
        phases = [trainer.phase(i) for i in range(10)]
        assert phases == ["content"] * 3 + ["motion"] * 2 + ["content"] * 3 + ["motion"] * 2

    def test_zero_learning_rate_keeps_parameters_bit_exact(self, tiny_dataset):
        bundle, trainer = make_trainer(tiny_dataset, alpha=0.0)
        before = param_digest(bundle.param_sets())
        for _ in range(5):
            trainer.train_step()
        assert param_digest(bundle.param_sets()) == before

    def test_ten_iterations_reproducible_checkpoints(self, tiny_dataset, tmp_path):
        digests = []
        for run in range(2):
            bundle, trainer = make_trainer(tiny_dataset, iterations=10, seed=5)
            trainer.train(10)
            path = tmp_path / f"ckpt{run}.tsvc"
            checkpoint.save_model(path, bundle)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_freezing_discipline_bytewise(self, tiny_dataset):
        bundle, trainer = make_trainer(tiny_dataset)
        # iterations 0-2 are content: motion parameters must not move
        motion_before = param_digest(bundle.motion_sets())
        trainer.train_step()
        assert param_digest(bundle.motion_sets()) == motion_before
        trainer.train_step()
        trainer.train_step()
        # iterations 3-4 are motion: content parameters must not move
        content_before = param_digest(bundle.content_sets())
        stats = trainer.train_step()
        assert stats["phase"] == "motion"
        assert param_digest(bundle.content_sets()) == content_before

    def test_motion_backward_holds_no_frozen_content_caches(self, tiny_dataset, monkeypatch):
        # the motion backward runs with content=False and reads none of the
        # content encoder's, content generator's or x_recon head's caches,
        # so the content pass of the motion step keeps none
        seen = []
        real = model.backward_next_frame

        def spy(bundle, result, **kwargs):
            seen.append((result, kwargs["content"]))
            return real(bundle, result, **kwargs)

        monkeypatch.setattr(model, "backward_next_frame", spy)
        _, trainer = make_trainer(tiny_dataset)
        assert [trainer.train_step()["phase"] for _ in range(4)][-1] == "motion"
        assert len(seen) == 1 and seen[0][1] is False
        res = seen[0][0]
        assert res.content.caches is None and res.x_recon is None
        assert all(c is not None for c in res.motion.caches + res.caches)

    def test_losses_reported_finite_and_decreasing_headroom(self, tiny_dataset):
        _, trainer = make_trainer(tiny_dataset, iterations=10)
        history = trainer.train(10)
        assert all(np.isfinite(h["total"]) for h in history)
        assert {h["phase"] for h in history} == {"content", "motion"}

    def test_non_finite_loss_aborts_with_diagnostic(self, tiny_dataset):
        bundle, trainer = make_trainer(tiny_dataset)
        # log-variance large enough that exp() overflows the KL term
        bundle.enc_c.value("enc.fc2.b")[MCFG.latent_c :] = 1000.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError) as err:
                trainer.train_step()
        assert "non-finite" in str(err.value)
        assert "kl" in str(err.value)

    def test_nan_parameters_rejected_at_posterior(self, tiny_dataset):
        bundle, trainer = make_trainer(tiny_dataset)
        bundle.enc_c.value("enc.conv1.w")[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            trainer.train_step()


# The hand wirings that the content pass and the motion pass replaced, kept
# as oracles: the content step's forward and backward, and the rollout loop.


def reference_content_grads(bundle, x_t, labels, eta_c, w):
    """Content-set gradients of the content loss, chained by hand."""
    cfg = bundle.config
    onehot = model.one_hot(labels, cfg.classes, x_t.dtype)
    q_c, enc_cache = model.encode(bundle.enc_c, cfg, x_t, onehot, cfg.latent_c)
    eps_c = q_c.sample(eta_c)
    pyramid, gen_cache = model.decode_content(bundle, eps_c, onehot)
    x_recon, head_cache = model.decode_head(bundle, pyramid[-1])
    bundle.zero_grads()
    d_x = w.l1 * losses.l2_loss_grad(x_recon, x_t)
    d_trunk = model.decode_head_backward(bundle, head_cache, d_x)
    taps = [None] * cfg.scales
    taps[-1] = d_trunk
    d_eps_c = model.decode_content_backward(bundle, gen_cache, taps)
    dmean = d_eps_c
    dlogvar = d_eps_c * eta_c * 0.5 * np.exp(0.5 * q_c.logvar)
    kg_mean, kg_logvar = losses.kl_to_standard_normal_grad(q_c)
    model.encode_backward(
        bundle.enc_c, enc_cache, dmean + w.l2 * kg_mean, dlogvar + w.l2 * kg_logvar
    )
    return x_recon, content_grads(bundle)


def reference_rollout_frames(bundle, action, rng, frames=10, heatup=2):
    cfg = bundle.config
    dtype = bundle.gen_c.value("head.out.w").dtype
    onehot = model.one_hot([action], cfg.classes, dtype)
    eps_c = rng.normals((1, cfg.latent_c), dtype=dtype)
    pyramid, _ = model.decode_content(bundle, eps_c, onehot)
    x, _ = model.decode_head(bundle, pyramid[-1])
    h = c = None
    seq = [x[0]]
    for _ in range(heatup + frames - 1):
        eps_m = rng.normals((1, cfg.latent_m), dtype=dtype)
        h, c, _ = model.lstm_embed(bundle, eps_m, h, c)
        q, _ = model.encode(bundle.enc_c, cfg, x, onehot, cfg.latent_c)
        kernels, masks, _ = model.motion_fields(bundle, q.mean, h, onehot)
        pyramid, _ = fusion.fuse_pyramid_forward(pyramid, kernels, masks)
        x, _ = model.decode_head(bundle, pyramid[-1])
        seq.append(x[0])
    return np.stack(seq[heatup : heatup + frames]).astype(np.float32)


def content_grads(bundle):
    return {
        (sn, n): ps.grad(n).copy() for sn, ps in bundle.content_sets().items() for n in ps.names()
    }


# The next-frame step as it was wired before every piece of it became a
# layer, kept as an oracle: the label planes and features, both joins of the
# motion embedding e_m, the kernel and mask heads and the convLSTM step are
# chained by hand over `ops`, with each backward mirrored by hand, in the
# float order the layer chains keep: d e_m is d_stage + ((0.0 + up_0) +
# up_1), the heads add wv + wh + mask, and each stage stack's backward
# starts from zeros + tap gradient.


def _ref_op(name):
    """(forward, backward, stride and pad) of a named layer."""
    if ".fc" in name:
        return ops.linear_forward, ops.linear_backward, ()
    if ".up" in name:
        return ops.conv_transpose2d_forward, ops.conv_transpose2d_backward, (2, 1)
    return ops.conv2d_forward, ops.conv2d_backward, (2 if name.startswith("enc.") else 1, 1)


def _ref_fwd(params, x, names, relu=True):
    caches = []
    for name in names:
        fwd, _, args = _ref_op(name)
        x, cache = fwd(x, params.value(name + ".w"), params.value(name + ".b"), *args)
        mask = None
        if relu:
            x, mask = ops.relu_forward(x)
        caches.append((name, cache, mask))
    return x, caches


def _ref_bwd(params, dy, caches):
    for name, cache, mask in reversed(caches):
        if mask is not None:
            dy = ops.relu_backward(dy, mask)
        dy, dw, db = _ref_op(name)[1](dy, cache)
        params.accumulate(name + ".w", dw)
        params.accumulate(name + ".b", db)
    return dy


def ref_encode(params, x, onehot, latent):
    bsz, _, h, w = x.shape
    planes = np.broadcast_to(onehot[:, :, None, None], (bsz, onehot.shape[1], h, w))
    x_in = np.concatenate([x, planes.astype(x.dtype)], axis=1)
    y, convs = _ref_fwd(params, x_in, ["enc.conv1", "enc.conv2", "enc.conv3"])
    hidden, fc1 = _ref_fwd(params, y.reshape(bsz, -1), ["enc.fc1"])
    out, fc2 = _ref_fwd(params, hidden, ["enc.fc2"], relu=False)
    q = losses.GaussianParams(mean=out[:, :latent].copy(), logvar=out[:, latent:].copy())
    return q, (convs, y.shape, fc1 + fc2)


def ref_posterior_backward(params, enc_cache, q, eta, d_eps, d_q):
    convs, conv_shape, fcs = enc_cache
    dmean = d_eps
    dlogvar = d_eps * eta * 0.5 * np.exp(0.5 * q.logvar)
    if d_q is not None:
        dmean, dlogvar = dmean + d_q[0], dlogvar + d_q[1]
    d_flat = _ref_bwd(params, np.concatenate([dmean, dlogvar], axis=1), fcs)
    _ref_bwd(params, d_flat.reshape(conv_shape), convs)


def ref_generate(params, cfg, eps_c, onehot, e_m=None):
    """Stem and stage stack; `e_m` joins the stem output. Returns the
    tapped pyramid, coarsest first."""
    zin = np.concatenate([eps_c, onehot.astype(eps_c.dtype)], axis=1)
    h, stem = _ref_fwd(params, zin, ["stem.fc1", "stem.fc2"])
    h = h.reshape(len(h), 4 * cfg.ngf, 4, 4)
    if e_m is not None:
        h = np.concatenate([h, e_m], axis=1)
    first_tap = cfg.up_stages - cfg.scales
    taps, stages = [], []
    for i in range(cfg.up_stages):
        h, stage = _ref_fwd(params, h, [f"stage.up{i}", f"stage.post{i}"])
        stages.append(stage)
        if i >= first_tap:
            taps.append(h)
    return taps, (stem, stages, h.shape)


def ref_generate_backward(params, cache, cfg, tap_grads):
    """Returns d eps_c and the gradient of what joined the stem output."""
    stem, stages, out_shape = cache
    dy = np.zeros(out_shape, dtype=params.value("stem.fc1.w").dtype)
    first_tap = cfg.up_stages - cfg.scales
    for i in reversed(range(cfg.up_stages)):
        if i >= first_tap and tap_grads[i - first_tap] is not None:
            dy = dy + tap_grads[i - first_tap]
        dy = _ref_bwd(params, dy, stages[i])
    split = 4 * cfg.ngf  # the stem's output channels
    dzin = _ref_bwd(params, dy[:, :split].reshape(len(dy), -1), stem)
    return dzin[:, : cfg.latent_c], dy[:, split:]


def ref_head(bundle, h):
    y, conv = _ref_fwd(bundle.gen_c, h, ["head.out"], relu=False)
    x, t = ops.tanh_forward(y)
    return x, (conv, t)


def ref_head_backward(bundle, cache, dy):
    conv, t = cache
    return _ref_bwd(bundle.gen_c, ops.tanh_backward(dy, t), conv)


def ref_motion_fields(bundle, eps_c, e_m, onehot):
    cfg, gen = bundle.config, bundle.gen_m
    taps, gen_cache = ref_generate(gen, cfg, eps_c, onehot, e_m)
    kernels, masks, subnets = [], [], []
    for s in range(cfg.scales):
        f = cfg.resolutions[s] // 4
        sub_in = np.concatenate([taps[s], np.repeat(np.repeat(e_m, f, axis=2), f, axis=3)], axis=1)
        feat, trunk = _ref_fwd(gen, sub_in, [f"sub.subnet{s}.trunk"])
        (wv, wv_c), (wh, wh_c), (raw, mask_c) = (
            _ref_fwd(gen, feat, [f"sub.subnet{s}.{head}"], relu=False) for head in ("wv", "wh", "mask")
        )
        mask, act = fusion.mask_activation_forward(raw[:, 0])
        kernels.append(
            fusion.SeparableKernelField(
                wv=np.ascontiguousarray(np.moveaxis(wv, 1, 3)),
                wh=np.ascontiguousarray(np.moveaxis(wh, 1, 3)),
            )
        )
        masks.append(mask)
        subnets.append((trunk, wv_c, wh_c, mask_c, act))
    return kernels, masks, (gen_cache, subnets)


def ref_motion_fields_backward(bundle, cache, d_kernels, d_masks):
    """Returns (d eps_c, d e_m)."""
    cfg, gen = bundle.config, bundle.gen_m
    gen_cache, subnets = cache
    tap_grads = []
    d_e_m_direct = 0.0
    for s, (trunk, wv_c, wh_c, mask_c, act) in enumerate(subnets):
        draw = fusion.mask_activation_backward(d_masks[s], act)[:, None]
        dfeat = _ref_bwd(gen, np.moveaxis(d_kernels[s].wv, 3, 1), wv_c)
        dfeat = dfeat + _ref_bwd(gen, np.moveaxis(d_kernels[s].wh, 3, 1), wh_c)
        dfeat = dfeat + _ref_bwd(gen, draw, mask_c)
        d_sub_in = _ref_bwd(gen, dfeat, trunk)
        tap_grads.append(d_sub_in[:, : cfg.ngf])
        f = cfg.resolutions[s] // 4
        b, c, h, w = d_sub_in[:, cfg.ngf :].shape
        d_e_m_direct = d_e_m_direct + d_sub_in[:, cfg.ngf :].reshape(
            b, c, h // f, f, w // f, f
        ).sum(axis=(3, 5))
    d_eps_c, d_e_m = ref_generate_backward(gen, gen_cache, cfg, tap_grads)
    return d_eps_c, d_e_m + d_e_m_direct


def ref_lstm_embed(bundle, eps_m):
    cfg, lstm = bundle.config, bundle.lstm
    x = eps_m.reshape(len(eps_m), cfg.motion_map_channels, 4, 4)
    h0 = np.zeros((len(eps_m), cfg.lstm_hidden, 4, 4), dtype=eps_m.dtype)
    wx, wh, b = lstm.value("wx"), lstm.value("wh"), lstm.value("b")
    h, _, cache = ops.convlstm_step_forward(x, h0, np.zeros_like(h0), wx, wh, b)
    return h, (cache, eps_m.shape)


def ref_lstm_embed_backward(bundle, lstm_cache, dh):
    """Returns d eps_m; no gradient reaches the cell output."""
    cache, eps_shape = lstm_cache
    dx, _, _, dwx, dwh, db = ops.convlstm_step_backward(dh, np.zeros_like(dh), cache)
    bundle.lstm.accumulate("wx", dwx)
    bundle.lstm.accumulate("wh", dwh)
    bundle.lstm.accumulate("b", db)
    return dx.reshape(eps_shape)


def reference_next_frame_grads(bundle, x_t, dx, labels, eta_c, eta_m, up, content):
    """x_next and every gradient of `backward_next_frame(content=content,
    motion=True)` for the loss gradients `up`, chained by hand."""
    cfg = bundle.config
    onehot = model.one_hot(labels, cfg.classes, x_t.dtype)
    q_c, enc_c = ref_encode(bundle.enc_c, x_t, onehot, cfg.latent_c)
    eps_c = q_c.sample(eta_c)
    pyramid, gen_c = ref_generate(bundle.gen_c, cfg, eps_c, onehot)
    _, head_c = ref_head(bundle, pyramid[-1])
    q_m, enc_m = ref_encode(bundle.enc_m, dx, onehot, cfg.latent_m)
    e_m, lstm = ref_lstm_embed(bundle, q_m.sample(eta_m))
    kernels, masks, gen_m = ref_motion_fields(bundle, eps_c, e_m, onehot)
    refined, fuse = fusion.fuse_pyramid_forward(pyramid, kernels, masks)
    x_next, head_m = ref_head(bundle, refined[-1])

    bundle.zero_grads()
    d_ref = list(up["d_refined"])
    d_ref[-1] = d_ref[-1] + ref_head_backward(bundle, head_m, up["d_x_next"])
    d_pyramid, d_kernels, d_masks = fusion.fuse_pyramid_backward(d_ref, fuse, content)
    d_eps_c, d_e_m = ref_motion_fields_backward(bundle, gen_m, d_kernels, d_masks)
    d_eps_m = ref_lstm_embed_backward(bundle, lstm, d_e_m)
    ref_posterior_backward(bundle.enc_m, enc_m, q_m, eta_m, d_eps_m, up["d_q_m"])
    if content:
        d_pyramid[-1] = d_pyramid[-1] + ref_head_backward(bundle, head_c, up["d_x_recon"])
        d_eps = ref_generate_backward(bundle.gen_c, gen_c, cfg, d_pyramid)[0] + d_eps_c
        ref_posterior_backward(bundle.enc_c, enc_c, q_c, eta_c, d_eps, up["d_q_c"])
    return x_next, all_grads(bundle)


def all_grads(bundle):
    return {(sn, n): ps.grad(n).copy() for sn, ps in bundle.param_sets().items() for n in ps.names()}


def loss_grads(res, rng, dtype, content):
    """Seeded normal loss gradients on every output of a next-frame step."""

    def like(a):
        return rng.normals(a.shape, dtype)

    up = {
        "d_x_next": like(res.x_next),
        "d_refined": [like(r) for r in res.refined],
        "d_q_m": (like(res.q_m.mean), like(res.q_m.logvar)),
    }
    if content:
        up["d_x_recon"] = like(res.x_recon)
        up["d_q_c"] = (like(res.q_c.mean), like(res.q_c.logvar))
    return up


class TestOneWiring:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_content_pass_gradients_match_the_hand_chain(self, tiny_dataset, dtype):
        bundle, trainer = make_trainer(tiny_dataset)
        trainer.train(5)  # off the initial weights
        bundle = model.ModelBundle(
            config=MCFG, **{k: ps.astype(dtype) for k, ps in bundle.param_sets().items()}
        )
        x_t = tiny_dataset.clips[:6, 2].astype(dtype)
        labels = tiny_dataset.labels[:6]
        eta_c = SeededRng(5).normals((6, MCFG.latent_c), dtype=dtype)
        w = trainer.cfg.weights
        want_x, want = reference_content_grads(bundle, x_t, labels, eta_c, w)

        bundle.zero_grads()
        onehot = model.one_hot(labels, MCFG.classes, dtype)
        cp = model.content_pass(bundle, x_t, onehot, eta_c)
        kg_mean, kg_logvar = losses.kl_to_standard_normal_grad(cp.q)
        cp.backward(
            bundle,
            d_x=w.l1 * losses.l2_loss_grad(cp.x, x_t),
            d_q=(w.l2 * kg_mean, w.l2 * kg_logvar),
        )
        assert np.array_equal(cp.x, want_x)
        got = content_grads(bundle)
        assert any(np.any(g != 0) for g in got.values())
        for key, g in want.items():
            assert np.array_equal(got[key], g), key

    @pytest.mark.parametrize("seed", [3, 33])
    def test_rollout_matches_the_hand_wired_loop(self, tiny_dataset, seed):
        bundle, trainer = make_trainer(tiny_dataset)
        trainer.train(5)
        got = training.rollout(bundle, 1, SeededRng(seed), frames=6, heatup=2)
        want = reference_rollout_frames(bundle, 1, SeededRng(seed), frames=6, heatup=2)
        assert np.array_equal(got.frames, want)
        assert not np.array_equal(got.frames[0], got.frames[-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("content", [False, True], ids=["motion-step", "both-streams"])
    def test_next_frame_gradients_match_the_hand_chain(self, tiny_dataset, dtype, content):
        # content=False is the motion phase's backward: every enc_m, gen_m
        # and lstm gradient must match; content=True, every gradient
        bundle, trainer = make_trainer(tiny_dataset)
        trainer.train(5)  # off the initial weights
        bundle = model.ModelBundle(
            config=MCFG, **{k: ps.astype(dtype) for k, ps in bundle.param_sets().items()}
        )
        x_t = tiny_dataset.clips[:6, 2].astype(dtype)
        dx = tiny_dataset.clips[:6, 3].astype(dtype) - x_t
        labels = tiny_dataset.labels[:6]
        rng = SeededRng(5)
        eta_c = rng.normals((6, MCFG.latent_c), dtype=dtype)
        eta_m = rng.normals((6, MCFG.latent_m), dtype=dtype)

        res = model.forward_next_frame(bundle, x_t, dx, labels, eta_c, eta_m, content=content)
        up = loss_grads(res, SeededRng(6), dtype, content)
        bundle.zero_grads()
        model.backward_next_frame(bundle, res, **up, content=content, motion=True)
        got = all_grads(bundle)
        want_x, want = reference_next_frame_grads(bundle, x_t, dx, labels, eta_c, eta_m, up, content)

        assert np.array_equal(res.x_next, want_x)
        sets = bundle.param_sets() if content else bundle.motion_sets()
        for sname, ps in sets.items():
            assert any(np.any(got[sname, n] != 0) for n in ps.names()), sname
            for n in ps.names():
                assert np.array_equal(got[sname, n], want[sname, n]), (sname, n)

    def test_motion_step_trains_no_forget_gate_and_no_recurrent_weight(self, tiny_dataset):
        # every motion step starts the convLSTM from a zero state: h_prev = 0
        # zeroes the gradient of wh, and c_prev = 0 that of the forget gate
        # (rows hc:2hc of wx and b); the i, o and g rows do train
        bundle, trainer = make_trainer(tiny_dataset)
        assert [trainer.train_step()["phase"] for _ in range(4)][-1] == "motion"
        hc = MCFG.lstm_hidden
        wx, b = bundle.lstm.grad("wx"), bundle.lstm.grad("b")
        assert not np.any(bundle.lstm.grad("wh"))
        assert not np.any(wx[hc : 2 * hc]) and not np.any(b[hc : 2 * hc])
        for gate in (0, 2, 3):  # input, output, candidate
            rows = slice(gate * hc, (gate + 1) * hc)
            assert np.any(wx[rows]) and np.any(b[rows]), gate

    def test_one_head_decode_per_training_step(self, tiny_dataset, monkeypatch):
        calls = []
        real = model.decode_head

        def spy(bundle, h):
            calls.append(h.shape)
            return real(bundle, h)

        monkeypatch.setattr(model, "decode_head", spy)
        _, trainer = make_trainer(tiny_dataset)
        per_step = []
        for _ in range(5):
            calls.clear()
            phase = trainer.train_step()["phase"]
            per_step.append((phase, len(calls)))
        assert per_step == [("content", 1)] * 3 + [("motion", 1)] * 2


class TestEvaluation:
    def test_copy_baseline_matches_manual(self, tiny_dataset):
        ids = tiny_dataset.test_ids
        manual = []
        for i in ids:
            clip = tiny_dataset.clips[i]
            for t in range(clip.shape[0] - 1):
                manual.append(np.mean((clip[t + 1] - clip[t]) ** 2))
        assert abs(training.copy_baseline_l2(tiny_dataset, ids) - np.mean(manual)) < 1e-12

    def test_static_clips_have_zero_baseline(self, tiny_dataset):
        static_ids = [
            i for i in range(tiny_dataset.clips.shape[0]) if tiny_dataset.labels[i] == 1
        ]
        assert training.copy_baseline_l2(tiny_dataset, static_ids) == 0.0

    def test_model_next_frame_l2_runs(self, tiny_dataset):
        bundle, _ = make_trainer(tiny_dataset)
        val = training.model_next_frame_l2(bundle, tiny_dataset, tiny_dataset.test_ids)
        assert np.isfinite(val) and val > 0


class TestRollout:
    def test_deterministic_and_shaped(self, tiny_dataset):
        bundle, _ = make_trainer(tiny_dataset)
        a = training.rollout(bundle, 0, SeededRng(33), frames=6, heatup=2)
        b = training.rollout(bundle, 0, SeededRng(33), frames=6, heatup=2)
        assert a.frames.shape == (6, 1, 16, 16)
        assert np.array_equal(a.frames, b.frames)

    def test_mask_zero_freezes_all_frames(self, tiny_dataset):
        bundle, _ = make_trainer(tiny_dataset)
        # raw mask -100 everywhere: tanh rounds to -1, so every mask is 0.0
        for s in range(MCFG.scales):
            bundle.gen_m.value(f"sub.subnet{s}.mask.w")[...] = 0.0
            bundle.gen_m.value(f"sub.subnet{s}.mask.b")[...] = -100.0
        clip = training.rollout(bundle, 1, SeededRng(4), frames=5, heatup=2)
        for t in range(1, 5):
            assert np.array_equal(clip.frames[t], clip.frames[0])

    def test_different_seeds_differ(self, tiny_dataset):
        bundle, _ = make_trainer(tiny_dataset)
        a = training.rollout(bundle, 0, SeededRng(1), frames=4)
        b = training.rollout(bundle, 0, SeededRng(2), frames=4)
        assert not np.array_equal(a.frames, b.frames)


class TestStackedConvBytes:
    """Rollouts and the held-out next-frame L2 of the default model give the
    bytes of the per-tap conv loops at any BLAS thread count: the stacked
    tap and stride-phase products of `ops` change no rounding."""

    @staticmethod
    def _run(tmp_path):
        path = tmp_path / "d.smv"
        if not path.exists():
            gen_dataset(4, 3, 5, ClipSpec(frames=10, size=32), path)
        data = load_dataset(path)
        bundle = model.build_model(model.ModelConfig(), SeededRng(9))
        clips = [training.rollout(bundle, a, SeededRng(40 + a)).frames for a in range(4)]
        # each of the 4 held-out clips of 10 frames is a batch of 9 transitions
        assert len(data.test_ids) == 4
        l2 = training.model_next_frame_l2(bundle, data, data.test_ids)
        return clips, l2

    def test_rollouts_and_l2_equal_the_per_tap_loops(self, tmp_path, monkeypatch):
        from test_ops import per_tap_conv2d_forward, per_tap_conv_transpose2d_forward

        got_clips, got_l2 = self._run(tmp_path)
        conv2d = ops.conv2d_forward

        def conv2d_per_tap(x, w, b=None, stride=1, pad=0):
            if stride != 1:  # strided convs have one GEMM, no taps
                return conv2d(x, w, b, stride, pad)
            return per_tap_conv2d_forward(x, w, b, pad), None

        def conv_transpose2d_per_tap(x, w, b=None, stride=1, pad=0):
            return per_tap_conv_transpose2d_forward(x, w, b, stride, pad), None

        monkeypatch.setattr(ops, "conv2d_forward", conv2d_per_tap)
        monkeypatch.setattr(ops, "conv_transpose2d_forward", conv_transpose2d_per_tap)
        want_clips, want_l2 = self._run(tmp_path)
        assert len(got_clips) == 4 and all(c.shape == (10, 1, 32, 32) for c in got_clips)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got_clips, want_clips))
        assert np.isfinite(got_l2) and np.float64(got_l2).tobytes() == np.float64(want_l2).tobytes()


def with_config(raw, drop=None, **changes):
    """The bytes of TSVC checkpoint `raw` with its in-file config edited:
    `changes` set, `drop` removed, and the manifest length rewritten."""
    version, mlen = struct.unpack_from("<IQ", raw, 4)
    doc = json.loads(raw[16 : 16 + mlen])
    doc["config"].update(changes)
    doc["config"].pop(drop, None)
    manifest = json.dumps(doc).encode()
    return b"TSVC" + struct.pack("<IQ", version, len(manifest)) + manifest + raw[16 + mlen :]


class TestCheckpoint:
    def test_round_trip_restores_bit_exact(self, tiny_dataset, tmp_path):
        bundle, trainer = make_trainer(tiny_dataset)
        trainer.train(3)
        path = tmp_path / "model.tsvc"
        checkpoint.save_model(path, bundle)
        loaded = checkpoint.load_model(path)
        assert loaded.config == bundle.config
        for sname, ps in bundle.param_sets().items():
            lps = loaded.param_sets()[sname]
            for name, value in ps.items():
                assert np.array_equal(lps.value(name), value)

    def test_save_load_save_byte_identical(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        p1, p2 = tmp_path / "a.tsvc", tmp_path / "b.tsvc"
        checkpoint.save_model(p1, bundle)
        checkpoint.save_model(p2, checkpoint.load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_and_version(self, tmp_path):
        bad = tmp_path / "bad.tsvc"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            checkpoint.load_model(bad)
        bad.write_bytes(b"TSVC" + struct.pack("<IQ", 9, 2) + b"[]")
        with pytest.raises(ValueError):
            checkpoint.load_model(bad)

    def test_version_1_is_rejected_naming_file_and_version(self, tiny_dataset, tmp_path):
        # a version-1 file held only the parameter list; its config was a sidecar
        bundle, _ = make_trainer(tiny_dataset)
        path = tmp_path / "m.tsvc"
        checkpoint.save_model(path, bundle)
        raw = path.read_bytes()
        _, mlen = struct.unpack_from("<IQ", raw, 4)
        params = json.dumps(json.loads(raw[16 : 16 + mlen])["params"]).encode()
        old = tmp_path / "v1.tsvc"
        old.write_bytes(b"TSVC" + struct.pack("<IQ", 1, len(params)) + params + raw[16 + mlen :])
        for load in (checkpoint.load_model, checkpoint.load_classifier):
            with pytest.raises(ValueError) as err:
                load(old)
            assert str(old) in str(err.value) and "version 1" in str(err.value)

    def test_save_model_writes_exactly_one_file(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        checkpoint.save_model(tmp_path / "m.tsvc", bundle)
        assert [p.name for p in tmp_path.iterdir()] == ["m.tsvc"]

    def test_damaged_files_rejected_naming_the_file(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        good = tmp_path / "good.tsvc"
        checkpoint.save_model(good, bundle)
        raw = good.read_bytes()
        damaged = {"trailing": raw + bytes(8), "truncated": raw[:-4], "headless": raw[:10]}
        for name, blob in damaged.items():
            bad = tmp_path / f"{name}.tsvc"
            bad.write_bytes(blob)
            with pytest.raises(ValueError) as err:
                checkpoint.load_model(bad)
            assert str(bad) in str(err.value) and f"{len(blob)} bytes" in str(err.value)

    def test_config_must_match_the_weights(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        path = tmp_path / "m.tsvc"
        checkpoint.save_model(path, bundle)
        edits = {"ngf": {"ngf": 8}, "kernel_size": {"kernel_size": 5}, "classes": {"classes": 3},
                 "unknown": {"colour": "red"}, "missing": {"drop": "ngf"}}
        for name, edit in edits.items():
            bad = tmp_path / f"{name}.tsvc"
            bad.write_bytes(with_config(path.read_bytes(), **edit))
            with pytest.raises(ValueError) as err:
                checkpoint.load_model(bad)
            assert str(bad) in str(err.value)

    def test_classifier_shapes_checked(self, tmp_path):
        path = tmp_path / "cls.tsvc"
        checkpoint.save_classifier(path, model.build_classifier(MCFG, SeededRng(2)), MCFG)
        path.write_bytes(with_config(path.read_bytes(), classes=5))
        with pytest.raises(ValueError) as err:
            checkpoint.load_classifier(path)
        assert str(path) in str(err.value)

    def test_model_and_classifier_files_are_not_interchangeable(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        checkpoint.save_model(tmp_path / "m.tsvc", bundle)
        checkpoint.save_classifier(
            tmp_path / "c.tsvc", model.build_classifier(MCFG, SeededRng(2)), MCFG
        )
        for load, name in ((checkpoint.load_classifier, "m"), (checkpoint.load_model, "c")):
            with pytest.raises(ValueError, match="parameter sets"):
                load(tmp_path / f"{name}.tsvc")

    def test_classifier_round_trip(self, tmp_path):
        params = model.build_classifier(MCFG, SeededRng(2))
        path = tmp_path / "cls.tsvc"
        checkpoint.save_classifier(path, params, MCFG)
        loaded, cfg = checkpoint.load_classifier(path)
        assert cfg == MCFG
        for name, value in params.items():
            assert np.array_equal(loaded.value(name), value)


class TestFrameExport:
    def test_pgm_header_and_rounding(self, tmp_path):
        frames = np.zeros((1, 1, 2, 2), dtype=np.float32)
        frames[0, 0] = [[-1.0, 1.0], [0.0, 0.5]]
        (path,) = checkpoint.export_frames(frames, tmp_path, prefix="t")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        # round-half-up of (v+1)/2*255: -1 -> 0, 1 -> 255, 0 -> 128, 0.5 -> 191
        assert list(raw[-4:]) == [0, 255, 128, 191]

    def test_ppm_for_rgb(self, tmp_path):
        frames = np.zeros((2, 3, 4, 4), dtype=np.float32)
        paths = checkpoint.export_frames(frames, tmp_path)
        assert len(paths) == 2 and paths[0].suffix == ".ppm"
        assert paths[0].read_bytes().startswith(b"P6\n4 4\n255\n")


class TestClassifierTraining:
    def test_learns_translate_vs_static(self, tiny_dataset):
        params = training.train_classifier(
            tiny_dataset,
            MCFG,
            training.ClassifierConfig(iterations=120, batch_size=8, seed=1),
        )
        acc = training.classifier_accuracy(params, MCFG, tiny_dataset, tiny_dataset.test_ids)
        assert acc >= 0.9


class TestClassifierConfig:
    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"iterations": -1}, "iterations"),
            ({"batch_size": 0}, "batch_size"),
            ({"shift": -1}, "shift"),
            ({"alpha": -1e-3}, "alpha"),
        ],
    )
    def test_rejects_what_it_cannot_run(self, fields, name):
        with pytest.raises(ValueError, match=name):
            training.ClassifierConfig(**fields)

    def test_zero_iterations_shift_and_rate_stay_legal(self):
        training.ClassifierConfig(iterations=0, shift=0, alpha=0.0, batch_size=1)
