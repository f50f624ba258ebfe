"""Write what the default model learns in the 2000-iteration desk run, over
three seeds and a perturbation, to `BENCH_quality.json`:

    python tools/quality.py [--out BENCH_quality.json]

Each run trains `build_model(ModelConfig(), SeededRng(s))` with
`TrainConfig(seed=s)` on the acceptance dataset (4 classes, 50 clips each,
seed 7, 10 frames at 32 px), at seeds 7, 8 and 9, plus seed 7 with every
initial `enc_c` value scaled by (1 + 1e-6): the desk run is bistable on
float32 rounding, so one run says little. Runs use one BLAS thread, two at
a time. Per run the file records:

- the criterion-5 ratio: held-out next-frame L2 over the copy baseline's;
- the held-out content reconstruction L2 at zero noise;
- the mean motion KL over the last 50 motion steps;
- the seconds the training took;
- for the carried rollouts of the acceptance test (200 clips, action
  i % 4 from `SeededRng(9000 + i)`, heatup 2), scored by the classifier
  that `ClassifierConfig()` trains: the inception score, the share labelled
  as their own action, the action-by-label confusion and the energy ratio,
  the rollouts' mean squared frame-to-frame difference over the dataset's.

The figures are a report; the acceptance tests stay the gate.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from motionfuse import checkpoint, losses, metrics, model, training  # noqa: E402
from motionfuse.synthdata import ClipSpec, gen_dataset, load_dataset  # noqa: E402
from motionfuse.tensor import SeededRng  # noqa: E402

RUNS = (
    {"seed": 7, "perturb": False},
    {"seed": 8, "perturb": False},
    {"seed": 9, "perturb": False},
    {"seed": 7, "perturb": True},
)
ROLLOUTS, ROLLOUT_SEED, HEATUP = 200, 9000, 2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            cpu = next(names).strip()
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
    }


def energy(clips: np.ndarray) -> float:
    """Mean squared frame-to-frame difference of (N, T, C, H, W) clips."""
    return float(np.mean(np.square(clips[:, 1:] - clips[:, :-1], dtype=np.float64)))


def held_out_recon_l2(bundle, ds) -> float:
    cfg = bundle.config
    errors = []
    for i in ds.test_ids:
        frames = ds.clips[i]
        onehot = model.one_hot(np.full(len(frames), ds.labels[i]), cfg.classes, frames.dtype)
        zeros = np.zeros((len(frames), cfg.latent_c), frames.dtype)
        cp = model.content_pass(bundle, frames, onehot, zeros)
        errors += [losses.l2_loss(x, f) for x, f in zip(cp.x, frames)]
    return float(np.mean(errors))


def rollout_scores(bundle, cls, cfg, data_energy) -> dict:
    k = cfg.classes
    clips, dists = [], []
    for i in range(ROLLOUTS):
        clip = training.rollout(bundle, i % k, SeededRng(ROLLOUT_SEED + i), heatup=HEATUP)
        clips.append(clip.frames)
        dists.append(model.classifier_probs(cls, cfg, clip.frames[None])[0])
    dists = np.stack(dists)
    actions = np.arange(ROLLOUTS) % k
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (actions, dists.argmax(axis=1)), 1)
    return {
        "inception_score": metrics.inception_score(dists),
        "action_accuracy": float(np.trace(confusion)) / ROLLOUTS,
        "confusion": confusion.tolist(),
        "energy_ratio": energy(np.stack(clips)) / data_energy,
    }


def one_run(data_path, cls_path, run) -> dict:
    ds = load_dataset(data_path)
    cls, cls_cfg = checkpoint.load_classifier(cls_path)
    seed = run["seed"]
    bundle = model.build_model(model.ModelConfig(), SeededRng(seed))
    if run["perturb"]:
        for _, value in bundle.enc_c.items():
            value *= value.dtype.type(1 + 1e-6)
    t0 = time.perf_counter()
    history = training.Trainer(bundle, ds, training.TrainConfig(seed=seed)).train()
    seconds = time.perf_counter() - t0
    motion_kl = [h["kl"] for h in history if h["phase"] == "motion"][-50:]
    baseline = training.copy_baseline_l2(ds, ds.test_ids)
    return {
        **run,
        "criterion5_ratio": training.model_next_frame_l2(bundle, ds, ds.test_ids) / baseline,
        "held_out_recon_l2": held_out_recon_l2(bundle, ds),
        "motion_kl_last50": float(np.mean(motion_kl)),
        "train_seconds": seconds,
        "carry_rollouts": rollout_scores(bundle, cls, cls_cfg, energy(ds.clips)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_quality.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        data_path, cls_path = Path(tmp) / "data.smv", Path(tmp) / "cls.tsvc"
        gen_dataset(4, 50, 7, ClipSpec(frames=10, size=32, channels=1), data_path)
        ds, cfg = load_dataset(data_path), model.ModelConfig()
        t0 = time.perf_counter()
        cls = training.train_classifier(ds, cfg, training.ClassifierConfig())
        classifier = {
            "held_out_accuracy": training.classifier_accuracy(cls, cfg, ds, ds.test_ids),
            "train_seconds": time.perf_counter() - t0,
        }
        checkpoint.save_classifier(cls_path, cls, cfg)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            jobs = [pool.submit(one_run, data_path, cls_path, run) for run in RUNS]
            runs = [job.result() for job in jobs]
    report = {
        "environment": environment(),
        "iterations": training.TrainConfig().iterations,
        "data_energy": energy(ds.clips),
        "classifier": classifier,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for r in runs:
        c = r["carry_rollouts"]
        print(
            f"seed {r['seed']}{' perturbed' if r['perturb'] else '':10s}"
            f" ratio {r['criterion5_ratio']:.3f}"
            f"  recon {r['held_out_recon_l2']:.4f}  motion KL {r['motion_kl_last50']:.2f}"
            f"  {r['train_seconds']:.0f} s  carry IS {c['inception_score']:.2f}"
            f" / acc {c['action_accuracy']:.3f} / energy {c['energy_ratio']:.2f}"
        )


if __name__ == "__main__":
    main()
