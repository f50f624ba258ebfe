"""Each benchmark check passes on the program's output and rejects a wrong one.

Run from the root of a checkout: python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from motionfuse import checkpoint, fusion, model, ops, synthdata, training  # noqa: E402
from motionfuse.tensor import SeededRng  # noqa: E402


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    return workloads.Harness(seed=3, seconds=0.1, trace=0, work=tmp_path_factory.mktemp("work"))


@pytest.fixture(scope="module")
def acceptance(harness):
    ds = workloads._dataset(harness, "t")
    bundle = model.build_model(model.ModelConfig(), SeededRng(5))
    return ds, bundle


def _bump(a, index, by):
    a = np.array(a, copy=True)
    a[index] += by
    return a


# ---------------------------------------------------------------------------
# train


def test_conv_check_rejects_one_wrong_output():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5, 9, 7)).astype(np.float32)
    w = rng.standard_normal((4, 5, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    y, _ = ops.conv2d_forward(x, w, b, 2, 1)
    checks.check_conv(y, x, w, b, 2, 1)
    with pytest.raises(CheckFailed):
        checks.check_conv(_bump(y, (1, 2, 3, 1), 1e-3), x, w, b, 2, 1)


def test_encoder_conv_check_passes_on_the_program(harness, acceptance):
    workloads._check_encoder_conv(harness, *acceptance)


def test_gradient_check_passes_and_rejects_a_gradient_scaled_by_1_01(harness, acceptance, monkeypatch):
    workloads._check_gradient(harness, *acceptance)
    original = model.backward_next_frame

    def scaled(bundle, *args, **kwargs):
        original(bundle, *args, **kwargs)
        for ps in bundle.param_sets().values():
            for name in ps.names():
                ps.grad(name)[...] *= 1.01

    monkeypatch.setattr(model, "backward_next_frame", scaled)
    with pytest.raises(CheckFailed):
        workloads._check_gradient(harness, *acceptance)


def test_directional_derivative_check_on_a_quadratic():
    theta = np.array([0.3, -1.2, 2.0])
    c = np.array([1.0, 2.0, 3.0])
    d = {"t": np.array([0.6, 0.0, -0.8])}

    def loss_at(t):
        return float(np.sum(c * (theta + t * d["t"]) ** 2))

    checks.check_directional_derivative({"t": 2 * c * theta}, d, loss_at)
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative({"t": 2.02 * c * theta}, d, loss_at)


def test_finite_loss_check():
    checks.check_finite_losses({"phase": "content", "recon": 0.1, "kl": 2.0, "iteration": 4})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(CheckFailed):
            checks.check_finite_losses({"phase": "motion", "video_recon": bad, "kl": 1.0})


def test_recon_check_and_the_benchmark_l2(acceptance):
    ds, bundle = acceptance
    got = workloads.held_out_recon_l2(bundle, ds)
    frames = ds.clips[np.asarray(ds.test_ids)]
    assert 0 < got < float(np.mean(frames.astype(np.float64) ** 2)) + 1.0
    checks.check_recon_improved(0.2, 0.1)
    for after in (0.2, 0.3, float("nan")):
        with pytest.raises(CheckFailed):
            checks.check_recon_improved(0.2, after)


def test_params_check_rejects_one_ulp(tmp_path, acceptance):
    _, bundle = acceptance
    path = tmp_path / "m.tsvc"
    checkpoint.save_model(path, bundle)
    loaded = checkpoint.load_model(path)
    checks.check_params_equal(bundle.param_sets(), loaded.param_sets())
    w = loaded.gen_m.value("sub.subnet1.mask.w")
    w[0, 0, 1, 1] = np.nextafter(w[0, 0, 1, 1], np.float32(np.inf))
    with pytest.raises(CheckFailed):
        checks.check_params_equal(bundle.param_sets(), loaded.param_sets())


# ---------------------------------------------------------------------------
# generate


def test_fusion_check_rejects_one_perturbed_pixel(acceptance, monkeypatch):
    _, bundle = acceptance
    workloads._check_rollout_fusion(bundle, SeededRng(9))
    original = fusion.fuse_pyramid_forward

    def off_by_one_pixel(pyramid, kernels, masks):
        refined, cache = original(pyramid, kernels, masks)
        refined[-1] = _bump(refined[-1], (0, 3, 17, 5), 1e-3)
        return refined, cache

    monkeypatch.setattr(fusion, "fuse_pyramid_forward", off_by_one_pixel)
    with pytest.raises(CheckFailed):
        workloads._check_rollout_fusion(bundle, SeededRng(9))


def test_fusion_reference_matches_an_identity_kernel_and_a_closed_mask():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3, 5, 6))
    delta = np.zeros((2, 5, 6, 3))
    delta[..., 1] = 1.0
    m = rng.uniform(size=(2, 5, 6))
    np.testing.assert_allclose(checks.fusion_reference(h, delta, delta, m), h)
    np.testing.assert_allclose(checks.fusion_reference(h, rng.standard_normal((2, 5, 6, 3)), delta, 0 * m), h)


def test_frame_check():
    checks.check_frames(np.array([[-1.0, 0.0, 1.0]], dtype=np.float32))
    for bad in (1.0001, -1.5, float("nan")):
        with pytest.raises(CheckFailed):
            checks.check_frames(np.array([0.0, bad], dtype=np.float32))


def test_identical_check_rejects_one_bit():
    a = np.linspace(-1, 1, 12, dtype=np.float32)
    checks.check_identical(a, a.copy(), "clip")
    b = a.copy()
    b[4] = np.nextafter(b[4], np.float32(2))
    with pytest.raises(CheckFailed):
        checks.check_identical(a, b, "clip")
    with pytest.raises(CheckFailed):
        checks.check_identical(a, a.astype(np.float64), "clip")


def test_score_check():
    p = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7], [0.25, 0.25, 0.25, 0.25]])
    from motionfuse import metrics

    score = metrics.inception_score(p)
    checks.check_scores(p, score, 4)
    with pytest.raises(CheckFailed):  # a row summing to 1.01
        checks.check_scores(_bump(p, (1, 0), 0.01), score, 4)
    with pytest.raises(CheckFailed):  # a negative entry
        checks.check_scores(_bump(_bump(p, (0, 0), 0.2), (0, 1), -0.2), score, 4)
    with pytest.raises(CheckFailed):  # outside [1, K]
        checks.check_scores(np.full((2, 4), 0.25), 0.99, 4)
    with pytest.raises(CheckFailed):  # not exp(mean KL)
        checks.check_scores(p, score * 1.001, 4)


def test_copy_baseline_check(acceptance):
    ds, _ = acceptance
    clips = ds.clips[np.asarray(ds.test_ids)]
    value = training.copy_baseline_l2(ds, ds.test_ids)
    checks.check_copy_baseline(value, clips)
    with pytest.raises(CheckFailed):
        checks.check_copy_baseline(value * (1 + 1e-4), clips)


# ---------------------------------------------------------------------------
# gen-data


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "d.smv"
    manifest = synthdata.gen_dataset(8, 5, 11, workloads.SPEC, path)
    return path, manifest, synthdata.load_dataset(path)


def test_moving_and_static_clip_checks(small_dataset):
    _, manifest, ds = small_dataset
    checks.check_dataset_clips(ds.clips, manifest)
    moving = ds.clips[0].copy()
    moving[6] = moving[5]
    with pytest.raises(CheckFailed):
        checks.check_moving_clip(moving)
    static = ds.clips[manifest["classes"].index("static") * 5].copy()
    checks.check_static_clip(static)
    static[9, 0, 10, 10] += 0.01
    with pytest.raises(CheckFailed):
        checks.check_static_clip(static)
    clips = ds.clips.copy()
    clips[0, 6] = clips[0, 5]
    with pytest.raises(CheckFailed):
        checks.check_dataset_clips(clips, manifest)


def test_file_length_check(small_dataset):
    path, _, _ = small_dataset
    size = path.stat().st_size
    checks.check_file_length(size, 40, 10, 1, 32, 32)
    with pytest.raises(CheckFailed):
        checks.check_file_length(size + 1, 40, 10, 1, 32, 32)


def test_rerender_check_rejects_one_changed_value(small_dataset):
    _, manifest, ds = small_dataset

    def render(name, seed):
        return synthdata.gen_clip(name, seed, workloads.SPEC).frames

    checks.check_rerender(ds.clips, manifest, render)
    clips = ds.clips.copy()
    clips[17, 3, 0, 8, 8] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_rerender(clips, manifest, render)


def test_split_check_rejects_a_moved_clip(small_dataset):
    _, manifest, _ = small_dataset
    checks.check_split(manifest, 5)
    moved = json.loads(json.dumps(manifest))
    moved["split"]["train"].append(moved["split"]["test"].pop(0))
    with pytest.raises(CheckFailed):
        checks.check_split(moved, 5)
    relabelled = json.loads(json.dumps(manifest))
    relabelled["clips"][3]["action"] = 1
    with pytest.raises(CheckFailed):
        checks.check_split(relabelled, 5)


def test_bytes_check_rejects_one_flipped_byte(small_dataset):
    path, _, _ = small_dataset
    data = path.read_bytes()
    checks.check_bytes_identical(data, bytes(data), "file")
    flipped = bytearray(data)
    flipped[1000] ^= 1
    with pytest.raises(CheckFailed):
        checks.check_bytes_identical(data, bytes(flipped), "file")
    with pytest.raises(CheckFailed):
        checks.check_bytes_identical(data, data[:-1], "file")


# ---------------------------------------------------------------------------
# tracer and declared metrics


def test_tracer_records_nested_spans_and_restores_the_program(acceptance):
    ds, bundle = acceptance
    original = ops.conv2d_forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ops.conv2d_forward is not original
        tracer.begin_op("eval", 9)
        training.model_next_frame_l2(bundle, ds, [ds.test_ids[0]])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert ops.conv2d_forward is original and model.ops.conv2d_forward is original
    names = {s[0] for s in tracer.spans}
    assert {"training.model_next_frame_l2", "model.forward_next_frame", "ops.conv2d_forward",
            "fusion.adaptive_conv_forward", "losses.l2_loss"} <= names
    root = [s for s in tracer.spans if s[3] < 0]
    assert len(root) == 1 and root[0][0] == "training.model_next_frame_l2"
    for name, t0, t1, parent, op in tracer.spans:
        assert op == 0 and t1 >= t0
        if parent >= 0:
            assert tracer.spans[parent][1] <= t0 and t1 <= tracer.spans[parent][2]
    totals = spans.sums(tracer)
    per = spans.per_unit(tracer, totals, {"eval"})
    assert per["model.decode_head.calls"] == 2 / 9
    assert per["ops.conv.gflop"] > 0 and 0 < spans.coverage(tracer, totals, {"eval"}) <= 1


def test_declared_metrics_match_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in spec["per_layer"])
