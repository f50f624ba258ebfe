import hashlib

import numpy as np
import pytest

from motionfuse import losses, model
from motionfuse.gradcheck import rel_error
from motionfuse.tensor import SeededRng, ShapeError

MICRO = model.ModelConfig(
    ngf=4, latent_c=8, latent_m=16, scales=2, kernel_size=3, classes=3, size=16
)


def micro_bundle(dtype=np.float64, seed=11):
    return model.build_model(MICRO, SeededRng(seed), dtype=dtype)


def close_masks(bundle):
    """Set every mask head to raw -100, so each mask is exactly 0.0:
    tanh(-100) rounds to -1 in float32 and float64."""
    for s in range(bundle.config.scales):
        bundle.gen_m.value(f"sub.subnet{s}.mask.w")[...] = 0.0
        bundle.gen_m.value(f"sub.subnet{s}.mask.b")[...] = -100.0


def micro_batch(dtype=np.float64, seed=5, bsz=2):
    rng = SeededRng(seed)
    x = rng.normals((bsz, 1, 16, 16), dtype=dtype) * 0.5
    dx = rng.normals((bsz, 1, 16, 16), dtype=dtype) * 0.1
    eta_c = rng.normals((bsz, MICRO.latent_c), dtype=dtype)
    eta_m = rng.normals((bsz, MICRO.latent_m), dtype=dtype)
    labels = np.arange(bsz) % MICRO.classes
    return x, dx, eta_c, eta_m, labels


class TestConfig:
    def test_resolutions_and_stages(self):
        cfg = model.ModelConfig()
        assert cfg.resolutions == (16, 32)
        assert cfg.up_stages == 3
        assert MICRO.resolutions == (8, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            model.ModelConfig(latent_m=10)
        with pytest.raises(ValueError):
            model.ModelConfig(size=12)
        with pytest.raises(ValueError):
            model.ModelConfig(size=16, scales=3)

    @pytest.mark.parametrize(
        "name, value",
        [("kernel_size", 4), ("kernel_size", 0), ("kernel_size", -3), ("ngf", 0), ("scales", 0),
         ("classes", 0), ("channels", 0), ("latent_c", 0), ("latent_m", -16)],
    )
    def test_rejects_what_it_cannot_run_naming_the_field(self, name, value):
        # an even kernel has no centre tap and scales 0 no fusion scale:
        # rejected here, not once training reaches them
        with pytest.raises(ValueError, match=name):
            model.ModelConfig(**{name: value})

    @pytest.mark.parametrize("kernel_size", [1, 5])
    def test_odd_kernel_sizes_run(self, kernel_size):
        cfg = model.ModelConfig(ngf=4, latent_c=8, classes=2, size=16, kernel_size=kernel_size)
        bundle = model.build_model(cfg, SeededRng(1))
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        eta_c, eta_m = np.zeros((1, 8), np.float32), np.zeros((1, 16), np.float32)
        res = model.forward_next_frame(bundle, x, x, [1], eta_c, eta_m)
        assert res.motion.kernels[0].wv.shape == (1, 8, 8, kernel_size)


# (set, parameter, shape) of build_model(ModelConfig()), in ParamSet order:
# the order init draws from the RNG, the checkpoint manifest lists and
# Adam walks
INIT_LAYOUT = """
    enc_c enc.conv1.w 8 5 3 3
    enc_c enc.conv1.b 8
    enc_c enc.conv2.w 16 8 3 3
    enc_c enc.conv2.b 16
    enc_c enc.conv3.w 16 16 3 3
    enc_c enc.conv3.b 16
    enc_c enc.fc1.w 256 256
    enc_c enc.fc1.b 256
    enc_c enc.fc2.w 256 128
    enc_c enc.fc2.b 128
    gen_c stem.fc1.w 68 256
    gen_c stem.fc1.b 256
    gen_c stem.fc2.w 256 512
    gen_c stem.fc2.b 512
    gen_c stage.up0.w 32 16 4 4
    gen_c stage.up0.b 16
    gen_c stage.post0.w 16 16 3 3
    gen_c stage.post0.b 16
    gen_c stage.up1.w 16 8 4 4
    gen_c stage.up1.b 8
    gen_c stage.post1.w 8 8 3 3
    gen_c stage.post1.b 8
    gen_c stage.up2.w 8 8 4 4
    gen_c stage.up2.b 8
    gen_c stage.post2.w 8 8 3 3
    gen_c stage.post2.b 8
    gen_c head.out.w 1 8 3 3
    gen_c head.out.b 1
    enc_m enc.conv1.w 8 5 3 3
    enc_m enc.conv1.b 8
    enc_m enc.conv2.w 16 8 3 3
    enc_m enc.conv2.b 16
    enc_m enc.conv3.w 16 16 3 3
    enc_m enc.conv3.b 16
    enc_m enc.fc1.w 256 256
    enc_m enc.fc1.b 256
    enc_m enc.fc2.w 256 32
    enc_m enc.fc2.b 32
    gen_m stem.fc1.w 68 256
    gen_m stem.fc1.b 256
    gen_m stem.fc2.w 256 512
    gen_m stem.fc2.b 512
    gen_m stage.up0.w 40 16 4 4
    gen_m stage.up0.b 16
    gen_m stage.post0.w 16 16 3 3
    gen_m stage.post0.b 16
    gen_m stage.up1.w 16 8 4 4
    gen_m stage.up1.b 8
    gen_m stage.post1.w 8 8 3 3
    gen_m stage.post1.b 8
    gen_m stage.up2.w 8 8 4 4
    gen_m stage.up2.b 8
    gen_m stage.post2.w 8 8 3 3
    gen_m stage.post2.b 8
    gen_m sub.subnet0.trunk.w 8 16 3 3
    gen_m sub.subnet0.trunk.b 8
    gen_m sub.subnet0.wv.w 3 8 3 3
    gen_m sub.subnet0.wv.b 3
    gen_m sub.subnet0.wh.w 3 8 3 3
    gen_m sub.subnet0.wh.b 3
    gen_m sub.subnet0.mask.w 1 8 3 3
    gen_m sub.subnet0.mask.b 1
    gen_m sub.subnet1.trunk.w 8 16 3 3
    gen_m sub.subnet1.trunk.b 8
    gen_m sub.subnet1.wv.w 3 8 3 3
    gen_m sub.subnet1.wv.b 3
    gen_m sub.subnet1.wh.w 3 8 3 3
    gen_m sub.subnet1.wh.b 3
    gen_m sub.subnet1.mask.w 1 8 3 3
    gen_m sub.subnet1.mask.b 1
    lstm wx 32 1 3 3
    lstm wh 32 8 3 3
    lstm b 32
"""

CLASSIFIER_LAYOUT = """
    cls cls.conv1.w 8 2 3 3
    cls cls.conv1.b 8
    cls cls.conv2.w 16 8 3 3
    cls cls.conv2.b 16
    cls cls.conv3.w 16 16 3 3
    cls cls.conv3.b 16
    cls cls.fc1.w 256 64
    cls cls.fc1.b 64
    cls cls.fc2.w 64 4
    cls cls.fc2.b 4
"""


def _rows(text):
    return [(s, n, tuple(int(d) for d in dims)) for s, n, *dims in map(str.split, text.strip().splitlines())]


class TestInitLayout:
    """Pins the default init, which no other test fixes: the digest is of
    the float32 init bytes in ParamSet order (init runs no BLAS, so it is
    the same on any machine)."""

    @staticmethod
    def _layout_and_digest(sets):
        rows, digest = [], hashlib.sha256()
        for sname, ps in sets.items():
            for name, value in ps.items():
                rows.append((sname, name, value.shape))
                digest.update(np.ascontiguousarray(value, dtype=np.float32).tobytes())
        return rows, digest.hexdigest()

    def test_model(self):
        bundle = model.build_model(model.ModelConfig(), SeededRng(7))
        rows, digest = self._layout_and_digest(bundle.param_sets())
        assert rows == _rows(INIT_LAYOUT)
        assert digest == "502f29ac8ad172dd2fb8d15dae5ad67b4a41d7d7d4faa65f81b3baab5ac8e513"

    def test_classifier(self):
        params = model.build_classifier(model.ModelConfig(), SeededRng(6))
        rows, digest = self._layout_and_digest({"cls": params})
        assert rows == _rows(CLASSIFIER_LAYOUT)
        assert digest == "2de4c456cb71aff5f99c0fb0291466c3bdb50a18307112db9f0611eeea2f35d8"


class TestLayoutWithoutDraws:
    """`model_layout` / `classifier_layout` read the layer shapes that
    `build_model` / `build_classifier` initialise from, without drawing."""

    CONFIGS = [model.ModelConfig(), model.ModelConfig(ngf=4, scales=3, size=64, channels=3)]

    @staticmethod
    def _ordered(layout):
        return [(sname, list(shapes.items())) for sname, shapes in layout.items()]

    @staticmethod
    def _built(sets):
        return [(sname, [(n, v.shape) for n, v in ps.items()]) for sname, ps in sets.items()]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_equals_built_layout(self, cfg):
        bundle = model.build_model(cfg, SeededRng(0))
        assert self._ordered(model.model_layout(cfg)) == self._built(bundle.param_sets())
        cls = model.build_classifier(cfg, SeededRng(0))
        assert self._ordered(model.classifier_layout(cfg)) == self._built({"cls": cls})

    def test_checkpoint_loads_draw_nothing(self, tmp_path, monkeypatch):
        from motionfuse import checkpoint, ops

        cfg = model.ModelConfig()
        checkpoint.save_model(tmp_path / "m.tsvc", model.build_model(cfg, SeededRng(1)))
        cls = model.build_classifier(cfg, SeededRng(2))
        checkpoint.save_classifier(tmp_path / "c.tsvc", cls, cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("a checkpoint load drew initial weights")

        monkeypatch.setattr(ops, "xavier_uniform", no_draws)
        checkpoint.load_model(tmp_path / "m.tsvc")
        checkpoint.load_classifier(tmp_path / "c.tsvc")


class TestForward:
    def test_shapes_and_mask_ranges(self):
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, labels = micro_batch()
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        assert res.x_next.shape == x.shape and res.x_recon.shape == x.shape
        assert [p.shape for p in res.content.pyramid] == [(2, 4, 8, 8), (2, 4, 16, 16)]
        for mask in res.motion.masks:
            assert np.min(mask) >= 0.0 and np.max(mask) <= 1.0
        for field in res.motion.kernels:
            assert field.wv.shape[-1] == MICRO.kernel_size

    def test_mask_zero_reduces_to_content_reconstruction(self):
        bundle = micro_bundle()
        close_masks(bundle)
        x, dx, eta_c, eta_m, labels = micro_batch()
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        assert all(np.array_equal(m, np.zeros_like(m)) for m in res.motion.masks)
        assert np.array_equal(res.x_next, res.x_recon)
        for refined, content in zip(res.refined, res.content.pyramid):
            assert np.array_equal(refined, content)

    def test_zero_noise_is_deterministic(self):
        bundle = micro_bundle()
        x, dx, _, _, labels = micro_batch()
        zc = np.zeros((2, MICRO.latent_c))
        zm = np.zeros((2, MICRO.latent_m))
        a = model.forward_next_frame(bundle, x, dx, labels, eta_c=zc, eta_m=zm)
        b = model.forward_next_frame(bundle, x, dx, labels, eta_c=zc, eta_m=zm)
        assert np.array_equal(a.x_next, b.x_next)

    def test_shape_errors_name_failing_stage(self):
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, labels = micro_batch()
        with pytest.raises(ShapeError):
            model.forward_next_frame(bundle, x, dx[:, :, :8], labels, eta_c, eta_m)
        with pytest.raises(ShapeError):
            model.forward_next_frame(
                bundle, np.zeros((2, 1, 8, 8)), np.zeros((2, 1, 8, 8)), labels, eta_c, eta_m
            )

    def test_label_guard(self):
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, _ = micro_batch()
        with pytest.raises(ValueError):
            model.forward_next_frame(bundle, x, dx, [0, 7], eta_c=eta_c, eta_m=eta_m)


class TestFullPipelineGradients:
    def test_sampled_parameter_coordinates_match_finite_differences(self):
        bundle = micro_bundle()
        # jitter every parameter: fresh zero biases put relu kinks exactly at
        # the evaluation point, where one-sided slopes legitimately disagree
        jitter = SeededRng(77)
        for ps in bundle.param_sets().values():
            for name, value in ps.items():
                value += jitter.normals(value.shape) * 0.01
        x, dx, eta_c, eta_m, labels = micro_batch()
        data_rng = SeededRng(20)
        tgt_next = data_rng.normals(x.shape)
        tgt_recon = data_rng.normals(x.shape)

        def total_loss():
            res = model.forward_next_frame(
                bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m
            )
            return (
                losses.l2_loss(res.x_next, tgt_next)
                + 0.5 * losses.l2_loss(res.x_recon, tgt_recon)
                + 0.1 * losses.kl_to_standard_normal(res.q_c)
                + 0.1 * losses.kl_to_standard_normal(res.q_m)
            )

        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        bundle.zero_grads()
        kc = losses.kl_to_standard_normal_grad(res.q_c)
        km = losses.kl_to_standard_normal_grad(res.q_m)
        model.backward_next_frame(
            bundle,
            res,
            d_x_next=losses.l2_loss_grad(res.x_next, tgt_next),
            d_x_recon=0.5 * losses.l2_loss_grad(res.x_recon, tgt_recon),
            d_q_c=(0.1 * kc[0], 0.1 * kc[1]),
            d_q_m=(0.1 * km[0], 0.1 * km[1]),
        )

        coord_rng = SeededRng(99)
        sets = bundle.param_sets()
        names = [(s, p) for s, ps in sets.items() for p in ps.names()]
        analytic, numeric = [], []
        # smaller step than the per-op suite: deep relu stacks put more units
        # within a wide window of their kinks, where central differences and
        # the (exact) subgradient legitimately part ways
        step = 1e-6
        for _ in range(200):
            sname, pname = names[coord_rng.integers(0, len(names))]
            ps = sets[sname]
            flat = ps.value(pname).ravel()
            i = coord_rng.integers(0, flat.size)
            orig = flat[i]
            flat[i] = orig + step
            up = total_loss()
            flat[i] = orig - step
            down = total_loss()
            flat[i] = orig
            numeric.append((up - down) / (2 * step))
            analytic.append(ps.grad(pname).ravel()[i])
        assert rel_error(np.array(analytic), np.array(numeric)) < 1e-3

    def test_consistency_gradient_reaches_motion_stream(self):
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, labels = micro_batch()
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        target = [p + 0.1 for p in res.refined]
        bundle.zero_grads()
        model.backward_next_frame(
            bundle,
            res,
            d_refined=losses.content_consistency_loss_grad(res.refined, target),
            content=False,
            motion=True,
        )
        assert any(
            np.any(bundle.gen_m.grad(name) != 0) for name in bundle.gen_m.names()
        )
        assert any(np.any(bundle.lstm.grad(name) != 0) for name in bundle.lstm.names())


class TestPhaseGating:
    def test_motion_only_backward_leaves_content_grads_zero(self):
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, labels = micro_batch()
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        bundle.zero_grads()
        model.backward_next_frame(
            bundle,
            res,
            d_x_next=losses.l2_loss_grad(res.x_next, np.zeros_like(res.x_next)),
            content=False,
            motion=True,
        )
        assert all(np.all(bundle.enc_c.grad(n) == 0) for n in bundle.enc_c.names())
        stem_and_stage = [n for n in bundle.gen_c.names() if not n.startswith("head.")]
        assert all(np.all(bundle.gen_c.grad(n) == 0) for n in stem_and_stage)
        assert any(np.any(bundle.enc_m.grad(n) != 0) for n in bundle.enc_m.names())

    def test_frozen_content_leaves_motion_grads_bit_equal(self):
        # the motion phase skips the pyramid gradient of the frozen content
        # stream; what the motion sets receive must not change by a bit
        bundle = micro_bundle(dtype=np.float32)
        x, dx, eta_c, eta_m, labels = micro_batch(dtype=np.float32, bsz=3)
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        rng = SeededRng(8)
        d_refined = [rng.normals(r.shape, dtype=np.float32) for r in res.refined]
        d_q_m = tuple(rng.normals(res.q_m.mean.shape, dtype=np.float32) for _ in range(2))
        grads = {}
        for content in (True, False):
            bundle.zero_grads()
            model.backward_next_frame(
                bundle,
                res,
                d_x_next=losses.l2_loss_grad(res.x_next, np.zeros_like(res.x_next)),
                d_refined=d_refined,
                d_q_m=d_q_m,
                content=content,
                motion=True,
            )
            grads[content] = {
                (sn, n): ps.grad(n).copy()
                for sn, ps in bundle.motion_sets().items()
                for n in ps.names()
            }
        assert any(np.any(g != 0) for g in grads[False].values())
        for key, g in grads[True].items():
            assert np.array_equal(g, grads[False][key]), key

    def test_content_only_backward_leaves_motion_grads_zero(self):
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, labels = micro_batch()
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        bundle.zero_grads()
        model.backward_next_frame(
            bundle,
            res,
            d_x_recon=losses.l2_loss_grad(res.x_recon, x),
            content=True,
            motion=False,
        )
        for ps in (bundle.enc_m, bundle.gen_m, bundle.lstm):
            assert all(np.all(ps.grad(n) == 0) for n in ps.names())
        assert any(np.any(bundle.enc_c.grad(n) != 0) for n in bundle.enc_c.names())

    def test_next_frame_gradient_needs_the_motion_stream(self):
        # it reaches either stream only through the motion pass
        bundle = micro_bundle()
        x, dx, eta_c, eta_m, labels = micro_batch()
        res = model.forward_next_frame(bundle, x, dx, labels, eta_c=eta_c, eta_m=eta_m)
        with pytest.raises(ValueError, match="motion=True"):
            model.backward_next_frame(bundle, res, d_x_next=np.ones_like(x), motion=False)


class TestClassifier:
    def test_forward_shapes_and_probs(self):
        params = model.build_classifier(MICRO, SeededRng(3))
        clips = SeededRng(4).normals((5, 6, 1, 16, 16), dtype=np.float32)
        probs = model.classifier_probs(params, MICRO, clips)
        assert probs.shape == (5, MICRO.classes)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    def test_backward_runs_and_fills_grads(self):
        params = model.build_classifier(MICRO, SeededRng(3))
        clips = SeededRng(4).normals((4, 5, 1, 16, 16), dtype=np.float32)
        labels = np.array([0, 1, 2, 0])
        logits, cache = model.classifier_forward(params, MICRO, clips)
        params.zero_grads()
        model.classifier_backward(
            params, cache, losses.aux_class_loss_grad(logits, labels).astype(np.float32)
        )
        assert any(np.any(params.grad(n) != 0) for n in params.names())


def test_one_hot():
    oh = model.one_hot([1, 0], 3)
    assert np.array_equal(oh, [[0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        model.one_hot([3], 3)
