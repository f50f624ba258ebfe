"""Command-line surface: data generation, training, rollout, evaluation,
gradient checking, benchmarking and frame export.

Every subcommand accepts --seed, --config (inline JSON or a path to a JSON
file) and --out. Exit codes: 0 success, 1 validation/usage error, 2 I/O
error. The --config document may carry "model", "train", "optimizer" and
"weights" sections whose keys override the fields of ModelConfig,
TrainConfig, OptimizerConfig and LossWeights. "optimizer" and "weights" sit
at the top level beside "train", not inside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, checkpoint, gradcheck, metrics, model, synthdata, training
from .losses import LossWeights
from .tensor import SeededRng, ShapeError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(arg):
    if not arg:
        return {}
    text = arg.strip()
    if not text.startswith("{"):
        text = Path(arg).read_text()
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ValueError("--config must hold a JSON object")
    return cfg


def _model_config(cfg_doc, **overrides) -> model.ModelConfig:
    fields = dict(cfg_doc.get("model", {}))
    fields.update({k: v for k, v in overrides.items() if v is not None})
    return model.ModelConfig(**fields)


def _train_config(cfg_doc, **overrides) -> training.TrainConfig:
    fields = dict(cfg_doc.get("train", {}))
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if "optimizer" in cfg_doc:
        fields["optimizer"] = training.OptimizerConfig(**cfg_doc["optimizer"])
    if "weights" in cfg_doc:
        fields["weights"] = LossWeights(**cfg_doc["weights"])
    return training.TrainConfig(**fields)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--config", default=None, help="JSON string or file of overrides")
    parser.add_argument("--out", default=None, help="output path")


def build_parser() -> _Parser:
    parser = _Parser(prog="motionfuse")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a shape-motion dataset")
    _add_common(p)
    p.add_argument("--classes", default="4", help="class count or comma-separated names")
    p.add_argument("--clips-per-class", type=int, default=50)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--channels", type=int, default=1)

    p = sub.add_parser("train", help="train the next-frame model or the classifier")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--classifier", action="store_true", help="train the clip classifier")
    p.add_argument("--log-every", type=int, default=0)

    p = sub.add_parser("rollout", help="generate clips from a trained model")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--action", type=int, default=None, help="class id (default: cycle)")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--heatup", type=int, default=2)

    p = sub.add_parser("eval", help="classifier-based metrics over a dataset")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--classifier-ckpt", required=True)
    p.add_argument("--split", choices=["all", "train", "test"], default="all")

    p = sub.add_parser("gradcheck", help="finite-difference check of one or all ops")
    _add_common(p)
    p.add_argument("--op", default="all", help="op name or 'all'")
    p.add_argument("--seeds", type=int, default=gradcheck.DEFAULT_SEEDS)

    p = sub.add_parser("bench", help="dense vs separable fusion benchmark")
    _add_common(p)
    p.add_argument("--modes", default="dense,separable")
    p.add_argument("--n", default="5,17", help="comma-separated kernel sizes")
    p.add_argument("--scales", default="64", help="comma-separated resolutions per case")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--csv", default=None, help="CSV output path (alias for --out)")

    p = sub.add_parser("export-frames", help="write clip frames as PGM/PPM files")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--clips", default="0", help="comma-separated clip indices")
    return parser


def _cmd_gen_data(args, cfg_doc):
    classes = args.classes
    if "," in classes or not classes.isdigit():
        classes = [c.strip() for c in classes.split(",") if c.strip()]
    else:
        classes = int(classes)
    if args.out is None:
        raise ValueError("gen-data requires --out")
    spec = synthdata.ClipSpec(frames=args.frames, size=args.size, channels=args.channels)
    manifest = synthdata.gen_dataset(classes, args.clips_per_class, args.seed, spec, args.out)
    print(
        f"wrote {len(manifest['clips'])} clips "
        f"({len(manifest['classes'])} classes) to {args.out}"
    )
    return 0


def _cmd_train(args, cfg_doc):
    if args.out is None:
        raise ValueError("train requires --out")
    dataset = synthdata.load_dataset(args.data)
    _, _, channels, size, _ = dataset.clips.shape
    mcfg = _model_config(cfg_doc, classes=len(dataset.classes), size=size, channels=channels)
    if args.classifier:
        defaults = training.ClassifierConfig()
        ccfg = training.ClassifierConfig(
            iterations=args.iters if args.iters is not None else defaults.iterations,
            batch_size=args.batch or defaults.batch_size,
            seed=args.seed,
        )
        params = training.train_classifier(dataset, mcfg, ccfg)
        acc_ids = dataset.test_ids or dataset.train_ids
        acc = training.classifier_accuracy(params, mcfg, dataset, acc_ids)
        checkpoint.save_classifier(args.out, params, mcfg)
        print(f"classifier accuracy on held-out clips: {acc:.3f}; saved {args.out}")
        return 0
    tcfg = _train_config(
        cfg_doc,
        iterations=args.iters,
        batch_size=args.batch,
        seed=args.seed,
    )
    bundle = model.build_model(mcfg, SeededRng(args.seed))
    trainer = training.Trainer(bundle, dataset, tcfg)
    trainer.train(log_every=args.log_every)
    checkpoint.save_model(args.out, bundle)
    base = training.copy_baseline_l2(dataset, dataset.test_ids or dataset.train_ids)
    got = training.model_next_frame_l2(bundle, dataset, dataset.test_ids or dataset.train_ids)
    print(f"saved {args.out}; next-frame L2 {got:.6f} vs copy baseline {base:.6f}")
    return 0


def _cmd_rollout(args, cfg_doc):
    if args.out is None:
        raise ValueError("rollout requires --out")
    bundle = checkpoint.load_model(args.ckpt)
    k = bundle.config.classes
    clips, labels, seeds = [], [], []
    for i in range(args.count):
        action = args.action if args.action is not None else i % k
        rng = SeededRng(synthdata.split_seed(args.seed, i))
        clip = training.rollout(bundle, action, rng, frames=args.frames, heatup=args.heatup)
        clips.append(clip.frames)
        labels.append(action)
        seeds.append(clip.seed)
    synthdata.write_dataset(
        args.out, np.stack(clips), np.asarray(labels), np.asarray(seeds, dtype=np.uint64)
    )
    print(f"wrote {args.count} generated clips to {args.out}")
    return 0


def _cmd_eval(args, cfg_doc):
    dataset = synthdata.load_dataset(args.data)
    params, mcfg = checkpoint.load_classifier(args.classifier_ckpt)
    if args.split == "all":
        ids = list(range(dataset.clips.shape[0]))
    else:
        ids = dataset.train_ids if args.split == "train" else dataset.test_ids
    if not ids:
        raise ValueError(f"split {args.split!r} holds no clips")
    clips = dataset.clips[np.asarray(ids, dtype=np.int64)]
    report = metrics.evaluate_with_classifier(
        clips, lambda clip: model.classifier_probs(params, mcfg, clip[None])[0]
    )
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_gradcheck(args, cfg_doc):
    names = None if args.op == "all" else [args.op]
    try:
        results = gradcheck.run_suite(names, seeds=args.seeds)
    except KeyError as exc:
        raise ValueError(str(exc)) from exc
    worst = 0.0
    for name, err in results.items():
        print(f"{name}: max rel err {err:.3e}")
        worst = max(worst, err)
    if args.out:
        Path(args.out).write_text(json.dumps(results, sort_keys=True, indent=1))
    print(f"worst: {worst:.3e} ({'PASS' if worst < 1e-4 else 'FAIL'} at 1e-4)")
    return 0 if worst < 1e-4 else 1


def _cmd_bench(args, cfg_doc):
    resolutions = tuple(int(r) for r in args.scales.split(","))
    cases = [
        bench.BenchCase(
            mode=mode.strip(),
            kernel_size=int(n),
            resolutions=resolutions,
            channels=args.channels,
            repetitions=args.reps,
            warmup=args.warmup,
        )
        for mode in args.modes.split(",")
        for n in args.n.split(",")
    ]
    results = bench.run_bench(cases, seed=args.seed)
    csv = bench.results_to_csv(results)
    out = args.csv or args.out
    if out:
        Path(out).write_text(csv)
    print(csv, end="")
    return 0


def _cmd_export_frames(args, cfg_doc):
    if args.out is None:
        raise ValueError("export-frames requires --out")
    dataset = synthdata.load_dataset(args.data)
    indices = [int(i) for i in args.clips.split(",")]
    for idx in indices:
        if not 0 <= idx < dataset.clips.shape[0]:
            raise ValueError(f"clip index {idx} outside 0..{dataset.clips.shape[0] - 1}")
        checkpoint.export_frames(dataset.clips[idx], args.out, prefix=f"clip{idx:04d}")
    print(f"exported {len(indices)} clip(s) to {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "rollout": _cmd_rollout,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
    "export-frames": _cmd_export_frames,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg_doc = _load_config(args.config)
        return _COMMANDS[args.command](args, cfg_doc)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ShapeError, KeyError, TypeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
