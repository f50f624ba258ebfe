import hashlib
import json

import numpy as np
import pytest

from motionfuse import checkpoint, model, training
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


class TestSchedule:
    def test_linear_ramp(self):
        sched = training.Schedule(total=100)
        assert training.teacher_forcing_prob(sched, 0) == 1.0
        assert training.teacher_forcing_prob(sched, 100) == 0.0
        assert training.teacher_forcing_prob(sched, 50) == 0.5

    def test_monotone_non_increasing(self):
        sched = training.Schedule(total=17)
        probs = [training.teacher_forcing_prob(sched, i) for i in range(18)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_out_of_range(self):
        sched = training.Schedule(total=10)
        with pytest.raises(ValueError):
            training.teacher_forcing_prob(sched, 11)
        with pytest.raises(ValueError):
            training.teacher_forcing_prob(sched, -1)

    def test_total_validation(self):
        with pytest.raises(ValueError):
            training.Schedule(total=0)


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
        # so the step releases them before it
        seen = []
        real = model.backward_next_frame

        def spy(bundle, result, **kwargs):
            seen.append((set(result.cache), kwargs["content"]))
            return real(bundle, result, **kwargs)

        monkeypatch.setattr(model, "backward_next_frame", spy)
        _, trainer = make_trainer(tiny_dataset)
        assert [trainer.train_step()["phase"] for _ in range(4)][-1] == "motion"
        assert len(seen) == 1 and seen[0][1] is False
        assert not {"enc_c", "gen_c", "head_recon"} & seen[0][0]
        assert {"enc_m", "gen_m", "lstm", "fuse", "head_next"} <= seen[0][0]

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

    def test_scheduled_sampling_path_runs(self, tiny_dataset):
        bundle = model.build_model(MCFG, SeededRng(9))
        cfg = training.TrainConfig(
            iterations=5,
            batch_size=4,
            seed=9,
            scheduled_sampling=True,
            optimizer=training.OptimizerConfig(alpha=1e-3, beta1=0.9),
        )
        trainer = training.Trainer(bundle, tiny_dataset, cfg)
        trainer.schedule = training.Schedule(total=1)  # teacher forcing prob 0 after step 1
        trainer.iteration = 1
        history = [trainer.train_step() for _ in range(4)]
        assert any(h["phase"] == "motion" for h in history)


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
        clip = training.rollout(bundle, 1, SeededRng(4), frames=5, heatup=2, mask_zero=True)
        for t in range(1, 5):
            assert np.array_equal(clip.frames[t], clip.frames[0])

    def test_different_seeds_differ(self, tiny_dataset):
        bundle, _ = make_trainer(tiny_dataset)
        a = training.rollout(bundle, 0, SeededRng(1), frames=4)
        b = training.rollout(bundle, 0, SeededRng(2), frames=4)
        assert not np.array_equal(a.frames, b.frames)


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
            checkpoint.load_param_sets(bad)
        import struct

        bad.write_bytes(b"TSVC" + struct.pack("<IQ", 9, 2) + b"[]")
        with pytest.raises(ValueError):
            checkpoint.load_param_sets(bad)

    def test_damaged_files_rejected_naming_the_file(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        good = tmp_path / "good.tsvc"
        checkpoint.save_model(good, bundle)
        raw = good.read_bytes()
        sidecar = checkpoint.config_sidecar(good).read_text()
        damaged = {"trailing": raw + bytes(8), "truncated": raw[:-4], "headless": raw[:10]}
        for name, blob in damaged.items():
            bad = tmp_path / f"{name}.tsvc"
            bad.write_bytes(blob)
            checkpoint.config_sidecar(bad).write_text(sidecar)
            with pytest.raises(ValueError) as err:
                checkpoint.load_model(bad)
            assert str(bad) in str(err.value) and f"{len(blob)} bytes" in str(err.value)

    def test_sidecar_must_match_the_weights(self, tiny_dataset, tmp_path):
        bundle, _ = make_trainer(tiny_dataset)
        path = tmp_path / "m.tsvc"
        checkpoint.save_model(path, bundle)
        sidecar = checkpoint.config_sidecar(path)
        meta = json.loads(sidecar.read_text())
        for key, value in (("ngf", 8), ("kernel_size", 5), ("classes", 3)):
            sidecar.write_text(json.dumps(dict(meta, **{key: value})))
            with pytest.raises(ValueError) as err:
                checkpoint.load_model(path)
            assert str(path) in str(err.value)
        sidecar.write_text(json.dumps(dict(meta, colour="red")))
        with pytest.raises(ValueError) as err:
            checkpoint.load_model(path)
        assert str(path) in str(err.value)

    def test_classifier_shapes_checked(self, tmp_path):
        path = tmp_path / "cls.tsvc"
        checkpoint.save_classifier(path, model.build_classifier(MCFG, SeededRng(2)), MCFG)
        meta = json.loads(checkpoint.config_sidecar(path).read_text())
        checkpoint.config_sidecar(path).write_text(json.dumps(dict(meta, classes=5)))
        with pytest.raises(ValueError) as err:
            checkpoint.load_classifier(path)
        assert str(path) in str(err.value)

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
