"""Print the sha256 of the artifacts a refactor must leave byte for byte.

Run it on two trees (say, a `git archive` of the parent commit and the
working tree) and compare the output:

    python tools/same_bytes.py

It runs the checkout's own `src/` at one BLAS thread, the setting under
which the README promises identical training bytes, and prints seven lines:
the dataset file that everything below trains on, the 10-iteration
checkpoint of the default model, its parameter values, one rollout clip
from the reloaded checkpoint, the 20-iteration clip classifier and its
parameter values, and every gradient of one backward through both streams
of the reloaded model. Training never runs that backward (its motion step
freezes the content stream); the end-to-end gradient checks do. The
dataset line tells a change to rendering apart from a change to training.
A file hash covers the whole checkpoint, format included; a parameter hash
covers only the float32 values, in the order the checkpoint stores them, so
it stays put across a change of file format that leaves training as it is.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads its BLAS

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from motionfuse import checkpoint  # noqa: E402
from motionfuse.model import (  # noqa: E402
    ModelConfig,
    backward_next_frame,
    build_model,
    forward_next_frame,
)
from motionfuse.synthdata import ClipSpec, gen_dataset, load_dataset  # noqa: E402
from motionfuse.tensor import SeededRng  # noqa: E402
from motionfuse.training import (  # noqa: E402
    ClassifierConfig,
    TrainConfig,
    Trainer,
    rollout,
    train_classifier,
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def param_bytes(param_sets) -> bytes:
    """The little-endian float32 values of every parameter, set by set."""
    return b"".join(
        np.ascontiguousarray(value, dtype="<f4").tobytes()
        for ps in param_sets.values()
        for _, value in ps.items()
    )


def both_streams_grads(bundle, ds) -> bytes:
    """The little-endian float32 gradients, set by set, of one `backward_next_frame(content=True, motion=True)`
    on eight training transitions, with seeded normal gradients on every
    output: the next frame, the reconstruction, each refined scale and both
    posteriors."""
    cfg, rng = bundle.config, SeededRng(11)
    ids = np.asarray(ds.train_ids[:8])
    x_t, x_next = ds.clips[ids, 3], ds.clips[ids, 4]
    eta_c = rng.normals((8, cfg.latent_c), np.float32)
    eta_m = rng.normals((8, cfg.latent_m), np.float32)
    res = forward_next_frame(bundle, x_t, x_next - x_t, ds.labels[ids], eta_c, eta_m)

    def like(a):
        return rng.normals(a.shape, np.float32)

    bundle.zero_grads()
    backward_next_frame(
        bundle,
        res,
        d_x_next=like(res.x_next),
        d_x_recon=like(res.x_recon),
        d_refined=[like(r) for r in res.refined],
        d_q_c=(like(res.q_c.mean), like(res.q_c.logvar)),
        d_q_m=(like(res.q_m.mean), like(res.q_m.logvar)),
    )
    return b"".join(
        np.ascontiguousarray(ps.grad(n), dtype="<f4").tobytes()
        for ps in bundle.param_sets().values()
        for n in ps.names()
    )


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gen_dataset(4, 50, 7, ClipSpec(frames=10, size=32, channels=1), tmp / "data.smv")
        ds = load_dataset(tmp / "data.smv")

        bundle = build_model(ModelConfig(), SeededRng(7))
        Trainer(bundle, ds, TrainConfig(iterations=10, seed=7)).train()
        model_path = tmp / "model.tsvc"
        checkpoint.save_model(model_path, bundle)
        loaded = checkpoint.load_model(model_path)
        clip = rollout(loaded, 1, SeededRng(3))

        cls_path = tmp / "cls.tsvc"
        cls = train_classifier(ds, ModelConfig(), ClassifierConfig(iterations=20))
        checkpoint.save_classifier(cls_path, cls, ModelConfig())
        cls_loaded, _ = checkpoint.load_classifier(cls_path)

        for name, data in (
            ("dataset", (tmp / "data.smv").read_bytes()),
            ("checkpoint", model_path.read_bytes()),
            ("checkpoint params", param_bytes(loaded.param_sets())),
            ("rollout clip", clip.frames.tobytes()),
            ("classifier", cls_path.read_bytes()),
            ("classifier params", param_bytes({"cls": cls_loaded})),
            ("both-stream grads", both_streams_grads(loaded, ds)),
        ):
            print(f"{name:20s} {sha(data)}")


if __name__ == "__main__":
    main()
