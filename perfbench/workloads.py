"""The three workloads and the harness that counts, checks and times them.

Load is closed-loop from one process: each operation starts when the last
one has ended. A workload runs whole rounds of the same operations (a 3:2
phase cycle, one clip per action, one dataset), first one untimed warm-up
round, then rounds until `--seconds` have passed. The program receives only
inputs derived from the workload seed. No operation is timed until the
workload's checks have passed; a failed check counts as a failed operation.
"""

from __future__ import annotations

import resource
import statistics
import time
import tracemalloc
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

import checks
import spans
from checks import CheckFailed
from motionfuse import checkpoint, fusion, metrics, model, ops, synthdata, tensor, training
from motionfuse.tensor import SeededRng

SPEC = synthdata.ClipSpec(frames=10, size=32, channels=1)
SCORED = 32  # generated clips per scoring operation, as `motionfuse eval` scores a set


@dataclass
class Outcome:
    """What a workload measured. `figures` holds its figures by name with
    their units; `slots` maps each shared end-to-end metric to one of them;
    `samples` holds per-operation seconds behind the medians; per-layer
    figures are per unit of the operations of `kinds`, and per phase for
    each of `phases`."""

    figures: dict
    slots: dict
    samples: dict
    kinds: set
    phases: tuple = ()


class Harness:
    """Counts operations and failures, repeats set-up, times operations
    and, on a traced run, records spans around them."""

    def __init__(self, seed, seconds, trace, work):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.problems = []
        self.setup_times = []
        self.times = {"timed": defaultdict(list), "traced": defaultdict(list)}
        self.units = {"timed": defaultdict(int), "traced": defaultdict(int)}
        self.peaks = defaultdict(list)
        self.tracer = spans.Tracer() if trace else None
        self.segment = None
        self.peak_rss_mb = None
        self.info = {}

    def subseed(self, k) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1, np.uint64)[0] >> 1)

    def _fail(self, what, exc):
        self.failed += 1
        if isinstance(exc, CheckFailed):
            self.wrong = True
            msg = f"{what}: {exc}"
        else:
            msg = f"{what}: {''.join(traceback.format_exception(exc)).strip()}"
        if len(self.problems) < 20:
            self.problems.append(msg)

    def setup(self, make, reps=6):
        """Run `make` from scratch, half of `reps` times now and the other
        half after the timed rounds (see `measure`), so that the median
        set-up time samples the whole run; return the last result. On a
        traced run every repetition is traced."""
        self._make, self._reps = make, reps - reps // 2
        return self._setup(make, reps // 2)

    def _setup(self, make, reps):
        if self.tracer:
            self.tracer.install()
        try:
            for _ in range(reps):
                if self.tracer:
                    self.tracer.begin_op("setup", 0)
                t0 = time.perf_counter()
                out = make()
                self.setup_times.append(time.perf_counter() - t0)
                if self.tracer:
                    self.tracer.end_op()
        finally:
            if self.tracer:
                self.tracer.uninstall()
        return out

    def check(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a program fault fails the check, not the run
            self._fail(what, exc)
            return None

    def skip(self):
        """An operation of the round that cannot run because the one it
        reads from failed."""
        self.attempted += 1
        self.failed += 1

    def op(self, kind, fn, units=1, verify=None):
        """One operation; its output goes to `verify` outside the timed span."""
        self.attempted += 1
        seg = self.segment
        if seg == "memory":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        if seg == "traced":
            self.tracer.begin_op(kind, units)
        t0 = time.perf_counter_ns()
        try:
            out = fn()
        except Exception as exc:
            self._fail(kind, exc)
            return None
        finally:
            t1 = time.perf_counter_ns()
            if seg == "traced":
                self.tracer.end_op()
        if seg == "memory":
            self.peaks[kind].append(tracemalloc.get_traced_memory()[1] - base)
        elif seg is not None:
            self.times[seg][kind].append((t1 - t0) / 1e9)
            self.units[seg][kind] += units
        if verify is not None:
            try:
                verify(out)
            except Exception as exc:
                self._fail(f"{kind} output", exc)
        return out

    def measure(self, one_round):
        """One untimed warm-up round, then rounds until `seconds` have
        passed. A traced run spends the first half untraced, for the
        tracing overhead, the second half traced, then one more round under
        tracemalloc for peak memory."""
        one_round(0)
        r = 1
        plan = [("timed", self.seconds)]
        if self.tracer:
            plan = [("timed", self.seconds / 2), ("traced", self.seconds / 2)]
        for seg, secs in plan:
            if seg == "traced":
                self.tracer.install()
            self.segment = seg
            start = time.perf_counter()
            try:
                while True:
                    one_round(r)
                    r += 1
                    if time.perf_counter() - start >= secs:
                        break
            finally:
                self.segment = None
                if seg == "traced":
                    self.tracer.uninstall()
        if self.tracer:
            tracemalloc.start()
            self.segment = "memory"
            try:
                one_round(r)
            finally:
                self.segment = None
                tracemalloc.stop()
        # read before the late set-ups, which hold a second copy of the inputs
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._setup(self._make, self._reps)

    # -- results --------------------------------------------------------------

    def common_metrics(self):
        return {
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layer_metrics(self, kinds, phases=()):
        tr = self.tracer
        totals = spans.sums(tr)
        out = dict.fromkeys(spans.metric_names(), 0.0)
        out.update(spans.per_unit(tr, totals, kinds))
        out.update(spans.per_call(tr, totals))
        mb = float(1 << 20)
        peak = [max(self.peaks[k]) / mb for k in phases if self.peaks[k]]
        out["training.train_step.peak_mb"] = max(peak, default=0.0)
        out["training.rollout.peak_mb"] = max(self.peaks["rollout"], default=0) / mb
        for phase in phases:
            vals = spans.per_unit(tr, totals, {phase})
            vals["training.train_step.peak_mb"] = max(self.peaks[phase], default=0) / mb
            for name in spans.PHASE_SPLIT:
                out[f"{phase}.{name}"] = vals[name]
        out["trace.coverage"] = spans.coverage(tr, totals, kinds)

        def seconds_per_unit(seg):
            t = sum(sum(self.times[seg][k]) for k in kinds)
            return t / sum(self.units[seg][k] for k in kinds)

        out["trace.overhead"] = 100.0 * (seconds_per_unit("traced") / seconds_per_unit("timed") - 1.0)
        return out


def median_ms(xs):
    return 1e3 * statistics.median(xs)


def p10_ms(xs):
    return 1e3 * statistics.quantiles(xs, n=10)[0]


def _dataset(s, name):
    """The acceptance suite's dataset shape (4 classes, 50 clips each, 10
    frames, 32x32) at a seed derived from the workload seed."""
    path = s.work / f"{name}.smv"
    synthdata.gen_dataset(4, 50, s.subseed(1), SPEC, path)
    return synthdata.load_dataset(path)


def _checkpoint_round_trip(s, bundle):
    path = s.work / "model.tsvc"
    checkpoint.save_model(path, bundle)
    return checkpoint.load_model(path)


# ---------------------------------------------------------------------------
# train


def _encoder_input(cfg, frames, labels):
    planes = np.zeros((len(labels), cfg.classes) + frames.shape[2:], dtype=frames.dtype)
    planes[np.arange(len(labels)), labels] = 1.0
    return np.concatenate([frames, planes], axis=1)


def _check_encoder_conv(s, ds, bundle):
    """The first encoder conv (stride 2, pad 1 over the frame and its label
    planes) of one batch, two samples recomputed by nested loops."""
    cfg = bundle.config
    rng = np.random.default_rng(s.subseed(4))
    ids = rng.choice(ds.train_ids, 64)
    frames = ds.clips[ids, rng.integers(0, SPEC.frames, 64)]
    xin = _encoder_input(cfg, frames, ds.labels[ids])
    w, b = bundle.enc_c.value("enc.conv1.w"), bundle.enc_c.value("enc.conv1.b")
    y, _ = ops.conv2d_forward(xin, w, b, 2, 1)
    checks.check_conv(y, xin, w, b, 2, 1, samples=(0, 1))


def _check_gradient(s, ds, bundle):
    """Directional finite difference on a float64 copy of the model, both
    streams, for a loss computed here: 0.5 |x_next - target|^2 plus random
    linear terms in x_recon, every refined scale and both posteriors.

    Every bias of the copy moves by N(0, 0.01) first. Biases start at
    exactly 0, so a dead channel or a still background in the difference
    map puts ReLU inputs at exactly 0, where the loss has no derivative
    and the central difference reads half a slope."""
    cfg = bundle.config
    sets = {k: ps.astype(np.float64) for k, ps in bundle.param_sets().items()}
    b64 = model.ModelBundle(config=cfg, **sets)
    rng = np.random.default_rng(s.subseed(5))
    for ps in sets.values():
        for name in ps.names():
            if name.endswith("b"):
                ps.value(name)[...] += 0.01 * rng.standard_normal(ps.value(name).shape)
    ids = rng.choice(ds.train_ids, 2)
    ts = rng.integers(0, SPEC.frames - 1, 2)
    x_t = ds.clips[ids, ts].astype(np.float64)
    target = ds.clips[ids, ts + 1].astype(np.float64)
    labels = ds.labels[ids]
    eta_c = rng.standard_normal((2, cfg.latent_c))
    eta_m = rng.standard_normal((2, cfg.latent_m))

    def forward():
        return model.forward_next_frame(b64, x_t, target - x_t, labels, eta_c=eta_c, eta_m=eta_m)

    res = forward()
    r_recon = rng.standard_normal(res.x_recon.shape)
    r_refined = [rng.standard_normal(r.shape) for r in res.refined]
    r_q = [rng.standard_normal(res.q_c.mean.shape) for _ in range(2)]
    r_q += [rng.standard_normal(res.q_m.mean.shape) for _ in range(2)]

    def loss(res):
        total = 0.5 * float(np.sum((res.x_next - target) ** 2))
        total += float(np.sum(r_recon * res.x_recon))
        total += sum(float(np.sum(p * r)) for p, r in zip(r_refined, res.refined))
        qs = (res.q_c.mean, res.q_c.logvar, res.q_m.mean, res.q_m.logvar)
        return total + sum(float(np.sum(p * q)) for p, q in zip(r_q, qs))

    b64.zero_grads()
    model.backward_next_frame(
        b64, res,
        d_x_next=res.x_next - target,
        d_x_recon=r_recon,
        d_refined=r_refined,
        d_q_c=(r_q[0], r_q[1]),
        d_q_m=(r_q[2], r_q[3]),
        content=True,
        motion=True,
    )
    keys = [(sn, pn) for sn, ps in sets.items() for pn in ps.names()]
    grads = {k: sets[k[0]].grad(k[1]).copy() for k in keys}
    direction = {k: rng.standard_normal(grads[k].shape) for k in keys}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}
    start = {k: sets[k[0]].value(k[1]).copy() for k in keys}

    def loss_at(t):
        for k in keys:
            sets[k[0]].value(k[1])[...] = start[k] + t * direction[k]
        try:
            return loss(forward())
        finally:
            for k in keys:
                sets[k[0]].value(k[1])[...] = start[k]

    checks.check_directional_derivative(grads, direction, loss_at)


def held_out_recon_l2(bundle, ds):
    """Mean squared error of the zero-noise content reconstruction of every
    held-out frame, computed here one clip at a time, so that it does not
    raise the workload's peak memory above a training step's."""
    cfg = bundle.config
    errors = []
    for i in ds.test_ids:
        frames = ds.clips[i]
        onehot = model.one_hot(np.full(len(frames), ds.labels[i]), cfg.classes, frames.dtype)
        q, _ = model.encode(bundle.enc_c, cfg, frames, onehot, cfg.latent_c)
        pyramid, _ = model.decode_content(bundle, q.mean, onehot)
        x, _ = model.decode_head(bundle, pyramid[-1])
        errors.append(checks.mean_squared(x, frames))
    return float(np.mean(errors))


def _check_final_checkpoint(s, bundle):
    path = s.work / "final.tsvc"
    checkpoint.save_model(path, bundle)
    checks.check_params_equal(bundle.param_sets(), checkpoint.load_model(path).param_sets())


def train(s):
    tcfg = training.TrainConfig(seed=s.subseed(3))

    def make():
        ds = _dataset(s, "train")
        bundle = _checkpoint_round_trip(s, model.build_model(model.ModelConfig(), SeededRng(s.subseed(2))))
        return ds, bundle, training.Trainer(bundle, ds, tcfg)

    ds, bundle, trainer = s.setup(make)
    s.check("first encoder conv against nested loops", _check_encoder_conv, s, ds, bundle)
    s.check("directional derivative of backward_next_frame", _check_gradient, s, ds, bundle)
    if s.failed:
        return None
    recon0 = held_out_recon_l2(bundle, ds)

    def cycle(_):
        for _ in range(tcfg.content_steps + tcfg.motion_steps):
            kind = trainer.phase(trainer.iteration)
            s.op(kind, trainer.train_step, verify=checks.check_finite_losses)

    s.measure(cycle)

    def recon_drops():
        s.info["held_out_recon_l2_end"] = held_out_recon_l2(bundle, ds)
        checks.check_recon_improved(recon0, s.info["held_out_recon_l2_end"])

    s.check("held-out content reconstruction drops", recon_drops)
    s.check("final checkpoint reloads bit-equal", _check_final_checkpoint, s, bundle)
    s.info.update(
        iterations=trainer.iteration,
        held_out_recon_l2_start=recon0,
        held_out_next_frame_l2=training.model_next_frame_l2(bundle, ds, ds.test_ids),
    )
    t = s.times["timed"]
    steps = t["content"] + t["motion"]
    return Outcome(
        figures={
            "train_samples_per_s": (tcfg.batch_size * len(steps) / sum(steps), "samples/s"),
            "content_step_ms": (median_ms(t["content"]), "ms"),
            "motion_step_ms": (median_ms(t["motion"]), "ms"),
        },
        slots={"items_per_s": "train_samples_per_s", "op1_ms": "content_step_ms", "op2_ms": "motion_step_ms"},
        samples={"content_step_ms": t["content"], "motion_step_ms": t["motion"]},
        kinds={"content", "motion"},
        phases=("content", "motion"),
    )


# ---------------------------------------------------------------------------
# generate


def _check_rollout_fusion(bundle, rng):
    """The first fusion step of a real rollout, captured as it happens,
    against nested loops."""
    calls = []
    original = fusion.fuse_pyramid_forward

    def capture(pyramid, kernels, masks):
        out = original(pyramid, kernels, masks)
        if not calls:
            calls.append((pyramid, kernels, masks, out[0]))
        return out

    fusion.fuse_pyramid_forward = capture
    try:
        clip = training.rollout(bundle, 0, rng)
    finally:
        fusion.fuse_pyramid_forward = original
    if not calls:
        raise CheckFailed("rollout made no fusion step")
    pyramid, kernels, masks, refined = calls[0]
    checks.check_fusion_step(refined, pyramid, kernels, masks)
    checks.check_frames(clip.frames)


def generate(s):
    cfg = model.ModelConfig()

    def make():
        ds = _dataset(s, "generate")
        bundle = _checkpoint_round_trip(s, model.build_model(cfg, SeededRng(s.subseed(2))))
        path = s.work / "classifier.tsvc"
        checkpoint.save_classifier(path, model.build_classifier(cfg, SeededRng(s.subseed(6))), cfg)
        params, ccfg = checkpoint.load_classifier(path)
        return ds, bundle, params, ccfg

    ds, bundle, params, ccfg = s.setup(make)
    k = cfg.classes
    base = s.subseed(7)

    def rng_for(i):  # as `motionfuse rollout` seeds clip i
        return SeededRng(tensor.split_seed(base, i))

    def twice():
        a = training.rollout(bundle, 1, rng_for(1 << 20)).frames
        checks.check_identical(a, training.rollout(bundle, 1, rng_for(1 << 20)).frames, "rollout at one seed")

    s.check("rollout fusion step against nested loops", _check_rollout_fusion, bundle, rng_for((1 << 20) + 1))
    s.check("one seed gives bit-identical clips", twice)
    s.check(
        "copy baseline against the mean of squared differences",
        lambda: checks.check_copy_baseline(
            training.copy_baseline_l2(ds, ds.test_ids), ds.clips[np.asarray(ds.test_ids)]
        ),
    )
    if s.failed:
        return None
    test_ids = list(ds.test_ids)
    scored = deque(maxlen=SCORED)

    def roll(i):
        rng = rng_for(i)
        clip = s.op(
            "rollout",
            lambda: training.rollout(bundle, i % k, rng, frames=10, heatup=2),
            verify=lambda c: checks.check_frames(c.frames),
        )
        if clip is not None:
            scored.append(clip.frames)

    for i in range(SCORED - k):  # fill the scoring window before timing
        roll((1 << 21) + i)

    def one_round(r):
        for action in range(k):
            roll(r * k + action)
        clips = list(scored)
        dists = []

        def predict(clip):  # as `motionfuse eval` scores a clip
            p = model.classifier_probs(params, ccfg, clip[None])[0]
            dists.append(p)
            return p

        s.op(
            "score",
            lambda: metrics.evaluate_with_classifier(clips, predict),
            units=0,
            verify=lambda rep: checks.check_scores(dists, rep.inception_score, k),
        )
        held_out = test_ids[r % len(test_ids)]
        s.op(
            "eval",
            lambda: training.model_next_frame_l2(bundle, ds, [held_out]),
            units=0,
            verify=lambda v: checks.check_finite_losses({"next_frame_l2": v}),
        )

    s.measure(one_round)
    t = s.times["timed"]
    frames = SPEC.frames - 1
    return Outcome(
        figures={
            "rollout_clips_per_s": (len(t["rollout"]) / sum(t["rollout"]), "clips/s"),
            "score_clips_per_s": (SCORED * len(t["score"]) / sum(t["score"]), "clips/s"),
            "eval_frames_per_s": (frames * len(t["eval"]) / sum(t["eval"]), "frames/s"),
            "rollout_clips_per_s_at_p10": (1e3 / p10_ms(t["rollout"]), "clips/s"),
            "score_ms_per_clip_p10": (p10_ms(t["score"]) / SCORED, "ms"),
            "eval_ms_per_clip_p10": (p10_ms(t["eval"]), "ms"),
        },
        # batch-1 operations this short see both the quiet and the busy
        # state of a shared host within every run; their 10th percentile
        # spread 7-9% across ten runs where the median spread 17-25%
        slots={
            "items_per_s": "rollout_clips_per_s_at_p10",
            "op1_ms": "score_ms_per_clip_p10",
            "op2_ms": "eval_ms_per_clip_p10",
        },
        samples={
            "rollout_ms_per_clip": t["rollout"],
            "score_ms_per_clip": [x / SCORED for x in t["score"]],
            "eval_ms_per_clip": t["eval"],
        },
        kinds={"rollout", "score", "eval"},
    )


# ---------------------------------------------------------------------------
# gen-data

PER_CLASS = 5


def _check_second_generation(s, seed, first):
    again = s.work / "again.smv"
    synthdata.gen_dataset(8, PER_CLASS, seed, SPEC, again)
    checks.check_bytes_identical(first.read_bytes(), again.read_bytes(), "second dataset file")
    checks.check_bytes_identical(
        synthdata.manifest_path(first).read_bytes(),
        synthdata.manifest_path(again).read_bytes(),
        "second manifest",
    )


def _clips_of(ds, manifest, static):
    return [ds.clips[e["id"]] for e in manifest["clips"] if (manifest["classes"][e["action"]] == "static") == static]


def gen_data(s):
    names = synthdata.class_names(8)
    n_clips = len(names) * PER_CLASS

    def make():  # warm-up: one clip of every class
        for i, name in enumerate(names):
            synthdata.gen_clip(name, s.subseed(100 + i), SPEC)

    s.setup(make, reps=18)  # milliseconds each: more repetitions for a steady median
    path = s.work / "dataset.smv"

    def render(name, seed):
        return synthdata.gen_clip(name, seed, SPEC).frames

    def verify(ds, manifest):
        checks.check_file_length(path.stat().st_size, n_clips, SPEC.frames, SPEC.channels, SPEC.size, SPEC.size)
        checks.check_split(manifest, PER_CLASS)
        checks.check_dataset_clips(ds.clips, manifest)

    seed0 = s.subseed(1000)
    manifest = s.check("reference generation", synthdata.gen_dataset, 8, PER_CLASS, seed0, SPEC, path)
    ds = s.check("reference load", synthdata.load_dataset, path)
    if ds is not None:
        s.check("second generation byte-identical", _check_second_generation, s, seed0, path)
        s.check("moving clips change on every transition",
                lambda: [checks.check_moving_clip(c) for c in _clips_of(ds, manifest, False)])
        s.check("static clips hold every frame",
                lambda: [checks.check_static_clip(c) for c in _clips_of(ds, manifest, True)])
        s.check("values in [-1, 1]", checks.check_frames, ds.clips)
        s.check("file length", checks.check_file_length, path.stat().st_size, n_clips,
                SPEC.frames, SPEC.channels, SPEC.size, SPEC.size)
        s.check("clips bit-equal to gen_clip from the manifest seeds",
                checks.check_rerender, ds.clips, manifest, render)
        s.check("80/20 split within each class", checks.check_split, manifest, PER_CLASS)
    if s.failed:
        return None

    def one_round(r):
        manifest = s.op("gen", lambda: synthdata.gen_dataset(names, PER_CLASS, s.subseed(1000 + r), SPEC, path),
                        units=n_clips)
        if manifest is None:
            s.skip()
            return
        s.op("load", lambda: synthdata.load_dataset(path), units=0, verify=lambda d: verify(d, manifest))

    s.measure(one_round)
    t = s.times["timed"]
    return Outcome(
        figures={
            "gen_clips_per_s": (n_clips * len(t["gen"]) / sum(t["gen"]), "clips/s"),
            "gen_dataset_ms": (median_ms(t["gen"]), "ms"),
            "load_dataset_ms": (median_ms(t["load"]), "ms"),
        },
        slots={"items_per_s": "gen_clips_per_s", "op1_ms": "gen_dataset_ms", "op2_ms": "load_dataset_ms"},
        samples={"gen_dataset_ms": t["gen"], "load_dataset_ms": t["load"]},
        kinds={"gen", "load"},
    )


WORKLOADS = {"train": train, "generate": generate, "gen-data": gen_data}
