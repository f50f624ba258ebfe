"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. The two
slow criteria (desk-scale learning, classifier + metrics pipeline) share a
single 2000-iteration training run through session fixtures and are marked
`slow`.
"""

import hashlib
import time

import numpy as np
import pytest

from motionfuse import checkpoint, cli, fusion, gradcheck, losses, metrics, model, training
from motionfuse.synthdata import ClipSpec, gen_dataset, load_dataset
from motionfuse.tensor import SeededRng


def _report(name, passed, detail):
    print(f"\n{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts for the slow criteria


@pytest.fixture(scope="session")
def std_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "std.smv"
    gen_dataset(4, 50, 7, ClipSpec(frames=10, size=32, channels=1), path)
    return load_dataset(path)


@pytest.fixture(scope="session")
def trained_run(std_dataset):
    bundle = model.build_model(model.ModelConfig(), SeededRng(7))
    trainer = training.Trainer(bundle, std_dataset, training.TrainConfig())
    t0 = time.time()
    history = trainer.train()
    elapsed = time.time() - t0
    return {"bundle": bundle, "history": history, "seconds": elapsed}


@pytest.fixture(scope="session")
def trained_classifier(std_dataset):
    cfg = model.ModelConfig()
    params = training.train_classifier(std_dataset, cfg, training.ClassifierConfig())
    return params, cfg


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = gradcheck.run_suite(seeds=5)
    elapsed = time.time() - t0
    worst_op = max(results, key=results.get)
    worst = results[worst_op]
    _report(
        "criterion-1 gradient-suite",
        worst < 1e-4 and elapsed < 120.0,
        f"worst rel err {worst:.3e} ({worst_op}), tolerance 1e-4; "
        f"{len(results)} ops x 5 seeds in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_fusion_exactness():
    rng = SeededRng(2024)
    preserved = identical = True
    worst_rel = 0.0
    for case in range(100):
        c = 1 + case % 3
        hw = 4 + case % 5
        n = (3, 5)[case % 2]
        h = rng.normals((c, hw, hw), dtype=np.float32)
        wv = rng.normals((hw, hw, n), dtype=np.float32)
        wh = rng.normals((hw, hw, n), dtype=np.float32)
        ht, _ = fusion.adaptive_conv_forward(h, fusion.SeparableKernelField(wv, wh))
        # (a) zero mask preserves the content map bit-exactly
        blended, _ = fusion.mask_blend_forward(h, ht, np.zeros((hw, hw), dtype=np.float32))
        preserved &= np.array_equal(blended, h)
        # (b) per-pixel identity kernels reproduce the input bit-exactly
        ident_out, _ = fusion.adaptive_conv_forward(h, fusion.identity_separable(hw, hw, n))
        identical &= np.array_equal(ident_out, h)
        # (c) separable equals the dense expansion within 1e-6 relative
        dense = fusion.DenseKernelField(
            fusion.flatten_kernel(fusion.expand_kernel(wv, wh))
        )
        den, _ = fusion.adaptive_conv_forward(h, dense)
        worst_rel = max(
            worst_rel,
            float(np.linalg.norm(ht - den)) / max(float(np.linalg.norm(den)), 1e-12),
        )
    _report(
        "criterion-2 fusion-exactness",
        preserved and identical and worst_rel < 1e-6,
        f"zero-mask bit-exact: {preserved}; identity-kernel bit-exact: {identical}; "
        f"separable-vs-dense worst rel {worst_rel:.2e} over 100 cases (< 1e-6)",
    )


def test_criterion_3_metric_bounds():
    rows = []
    ok = True
    for k, want in [(90, (4.50, 0.00, 90.00)), (6, (1.79, 0.00, 6.00)), (20, (3.00, 0.00, 20.00))]:
        one_hots = np.eye(k)
        got = (
            round(metrics.inter_entropy(one_hots), 2),
            round(metrics.mean_intra_entropy(one_hots), 2),
            round(metrics.inception_score(one_hots), 2),
        )
        ok &= got == want
        rows.append(f"K={k}: {got} == {want}")
    _report("criterion-3 metric-bounds", ok, "; ".join(rows))


def test_criterion_4_parameter_count_claim():
    dense17 = fusion.kernel_param_count(17, 1, "dense", [64])
    sep5_single = fusion.kernel_param_count(5, 1, "separable", [64])
    sep5_multi = fusion.kernel_param_count(5, 4, "separable", [8, 16, 32, 64])
    per_pixel_ok = dense17["per_pixel"] == 289 and sep5_single["per_pixel"] == 10
    totals_ok = (
        sep5_multi["total"] == 10 * (64 + 256 + 1024 + 4096)
        and dense17["total"] == 289 * 4096 == 1_183_744
        and sep5_multi["total"] < 0.05 * dense17["total"]
    )
    _report(
        "criterion-4 parameter-count",
        per_pixel_ok and totals_ok,
        f"per-pixel 289 vs 10; multi-scale separable {sep5_multi['total']:,} "
        f"vs single-scale dense {dense17['total']:,} "
        f"({100 * sep5_multi['total'] / dense17['total']:.1f}% < 5%)",
    )


@pytest.mark.slow
def test_criterion_5_desk_scale_learning(std_dataset, trained_run):
    baseline = training.copy_baseline_l2(std_dataset, std_dataset.test_ids)
    achieved = training.model_next_frame_l2(
        trained_run["bundle"], std_dataset, std_dataset.test_ids
    )
    ratio = achieved / baseline
    _report(
        "criterion-5 desk-scale-learning",
        ratio <= 0.6 and trained_run["seconds"] < 1800,
        f"test next-frame L2 {achieved:.6f} vs copy baseline {baseline:.6f} "
        f"(ratio {ratio:.3f} <= 0.6)  [2000 iterations in {trained_run['seconds']:.0f}s < 1800s]",
    )


@pytest.mark.slow
def test_criterion_6_classifier_and_metrics(std_dataset, trained_classifier):
    params, cfg = trained_classifier
    acc = training.classifier_accuracy(params, cfg, std_dataset, std_dataset.test_ids)
    clips = std_dataset.clips[np.asarray(std_dataset.test_ids)]
    report = metrics.evaluate_with_classifier(
        clips, lambda clip: model.classifier_probs(params, cfg, clip[None])[0]
    )
    k = len(std_dataset.classes)
    _report(
        "criterion-6 classifier-metrics",
        acc >= 0.95 and report.inception_score >= 0.9 * k,
        f"held-out accuracy {acc:.3f} >= 0.95; held-out real-clip score "
        f"{report.inception_score:.2f} >= 0.9*K = {0.9 * k:.1f}",
    )


def test_criterion_7_determinism(tmp_path, std_dataset):
    # (a) dataset generation is byte-identical across CLI invocations
    hashes = []
    for name in ("d1.smv", "d2.smv"):
        out = tmp_path / name
        rc = cli.main(
            [
                "gen-data",
                "--classes",
                "4",
                "--clips-per-class",
                "3",
                "--frames",
                "6",
                "--size",
                "32",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
    data_ok = hashes[0] == hashes[1]

    # (b) two 10-iteration training runs produce byte-identical checkpoints
    ckpt_hashes = []
    for run in range(2):
        bundle = model.build_model(model.ModelConfig(), SeededRng(7))
        trainer = training.Trainer(
            bundle, std_dataset, training.TrainConfig(iterations=10, seed=7)
        )
        trainer.train(10)
        path = tmp_path / f"run{run}.tsvc"
        checkpoint.save_model(path, bundle)
        ckpt_hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
    train_ok = ckpt_hashes[0] == ckpt_hashes[1]

    # (c) checkpoint round-trip is byte-identical
    src = tmp_path / "run0.tsvc"
    resaved = tmp_path / "resaved.tsvc"
    checkpoint.save_model(resaved, checkpoint.load_model(src))
    round_trip_ok = src.read_bytes() == resaved.read_bytes()

    _report(
        "criterion-7 determinism",
        data_ok and train_ok and round_trip_ok,
        f"gen-data byte-identical: {data_ok}; 10-iteration checkpoints "
        f"byte-identical: {train_ok}; round-trip byte-identical: {round_trip_ok}",
    )


def test_criterion_8_loss_closed_forms():
    kl = losses.kl_to_standard_normal(
        losses.GaussianParams(np.array([[1.0]]), np.array([[0.0]]))
    )
    ce_vals = [losses.aux_class_loss(np.zeros((1, k)), [0]) for k in (2, 4, 9)]
    ok = (
        abs(kl - 0.5) < 1e-9
        and all(abs(ce - np.log(k)) < 1e-9 for ce, k in zip(ce_vals, (2, 4, 9)))
    )
    _report(
        "criterion-8 loss-closed-forms",
        ok,
        f"KL(N(1,1)||N(0,1)) = {kl:.12f}; cross-entropy at uniform logits = ln K; "
        "all within 1e-9",
    )


# ---------------------------------------------------------------------------
# trained-model properties that ride along with the shared fixtures


@pytest.mark.slow
def test_training_loss_decreases_in_median(trained_run):
    history = trained_run["history"]
    first = np.median([h["total"] for h in history[:100]])
    last = np.median([h["total"] for h in history[-100:]])
    assert last < first, f"median loss did not drop: first {first:.4f}, last {last:.4f}"


@pytest.mark.slow
def test_rollout_inception_score_on_trained_model(trained_run, trained_classifier):
    params, cfg = trained_classifier
    bundle = trained_run["bundle"]
    dists = []
    for i in range(200):
        clip = training.rollout(
            bundle, action=i % 4, rng=SeededRng(9000 + i), frames=10, heatup=2
        )
        dists.append(model.classifier_probs(params, cfg, clip.frames[None])[0])
    score = metrics.inception_score(np.stack(dists))
    print(f"\nrollout inception score on 200 samples: {score:.2f}")
    assert score > 2.0
