"""Command-line surface: data generation, training, rollout, evaluation,
gradient checking, benchmarking and frame export. Each subcommand takes only
the flags it reads ([--out] is optional):

  gen-data       --classes --clips-per-class --frames --size --channels --seed --out
  train          --data --iters --batch --classifier --log-every --seed --config --out
  rollout        --ckpt --action --count --frames --heatup --seed --out
  eval           --data --classifier-ckpt --split [--out]
  gradcheck      --op --seeds [--out]
  bench          --modes --n --scales --channels --reps --warmup --seed [--out]
  export-frames  --data --clips --out

`train --config` (inline JSON, or a JSON file) overrides the named keys of
ModelConfig, TrainConfig() and its OptimizerConfig and LossWeights with its
"model", "train", "optimizer" and "weights" sections ("optimizer" and
"weights" sit beside "train"); under --classifier only "model.ngf" applies
and --log-every is rejected. Other sections, non-object sections, the keys
that the dataset or --seed sets (model.classes, model.size, model.channels,
train.seed) and, under --classifier, the other model keys are rejected, as
is a value of the wrong kind: an int key takes an integer, not a bool, and a
float key a finite number.
Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

from . import bench, checkpoint, gradcheck, losses, metrics, model, synthdata, training
from .tensor import SeededRng


class UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser  # whose usage line the error shows


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # exact flag names only: `gradcheck --seed` must not read as `--seeds`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message, self)

    def parse_args(self, args=None, namespace=None):
        # a flag that a subcommand does not take is that subcommand's error
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
        return args


_SECTIONS = ("model", "train", "optimizer", "weights")
# config keys that the dataset or a flag always overrides, and what sets them
_SET_ELSEWHERE = {"model.classes": "the dataset", "model.size": "the dataset",
                  "model.channels": "the dataset", "train.seed": "--seed"}
# the dataclass each section fills, whose int and float fields `_load_config` checks
_SECTION_TYPES = {"model": model.ModelConfig, "train": training.TrainConfig,
                  "optimizer": training.OptimizerConfig, "weights": losses.LossWeights}
# model keys the classifier network never reads: it reads only ngf
_NOT_CLASSIFIER = ("model.latent_c", "model.latent_m", "model.scales", "model.kernel_size")


def _load_config(args):
    """Read `train --config`, rejecting every part the run would ignore."""
    if args.classifier and args.log_every:
        raise ValueError("--log-every does not apply to train --classifier")
    if args.log_every < 0:
        raise ValueError(f"--log-every must be at least 0, got {args.log_every}")
    if args.config is None:
        return {}
    text = args.config.strip()
    cfg = json.loads(text if text.startswith(("{", "[")) else Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"--config must hold a JSON object, got {type(cfg).__name__}")
    run, known = ("train --classifier", ["model"]) if args.classifier else ("train", _SECTIONS)
    for name, section in cfg.items():
        if name not in known:
            raise ValueError(f"{run} reads no --config section {name!r}, only {', '.join(known)}")
        if not isinstance(section, dict):
            raise ValueError(f"--config section {name!r} must be a JSON object")
        kinds = typing.get_type_hints(_SECTION_TYPES[name])
        for key, value in section.items():
            path = f"{name}.{key}"
            if path in _SET_ELSEWHERE:
                raise ValueError(f"--config key {path} is always set by {_SET_ELSEWHERE[path]}")
            if args.classifier and path in _NOT_CLASSIFIER:
                raise ValueError(f"train --classifier reads no --config key {path}: only ngf")
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if kinds.get(key) is int and not (number and isinstance(value, int)):
                raise ValueError(f"--config key {path} must be an integer, got {value!r}")
            if kinds.get(key) is float and not (number and math.isfinite(value)):
                raise ValueError(f"--config key {path} must be a finite number, got {value!r}")
    return cfg


def _int_list(text):
    """argparse type of the comma-separated integer flags."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _seed(text):
    """argparse type of --seed: a seed is 64 bits, so a value outside
    [0, 2^64) would alias one inside it."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {seed}")
    return seed


def build_parser() -> _Parser:
    parser = _Parser(prog="motionfuse")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # by name, for their usage lines

    p = sub.add_parser("gen-data", help="generate a shape-motion dataset")
    p.add_argument("--classes", default="4", help="class count or comma-separated names")
    p.add_argument("--clips-per-class", type=int, default=50)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0, help="master seed")
    p.add_argument("--out", required=True, help="dataset path")

    p = sub.add_parser("train", help="train the next-frame model or the classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--classifier", action="store_true", help="train the clip classifier")
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0, help="master seed")
    p.add_argument("--config", default=None, help="JSON string or file of overrides")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("rollout", help="generate clips from a trained model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--action", type=int, default=None, help="class id (default: cycle)")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--heatup", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=0, help="master seed")
    p.add_argument("--out", required=True, help="dataset path")

    p = sub.add_parser("eval", help="classifier-based metrics over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--classifier-ckpt", required=True)
    p.add_argument("--split", choices=["all", "train", "test"], default="all")
    p.add_argument("--out", default=None, help="JSON report path")

    p = sub.add_parser("gradcheck", help="finite-difference check of one or all ops")
    p.add_argument("--op", default="all", help="op name or 'all'")
    p.add_argument("--seeds", type=int, default=gradcheck.DEFAULT_SEEDS)
    p.add_argument("--out", default=None, help="JSON results path")

    p = sub.add_parser("bench", help="dense vs separable fusion benchmark")
    p.add_argument("--modes", default="dense,separable")
    p.add_argument("--n", type=_int_list, default="5,17", help="comma-separated kernel sizes")
    p.add_argument("--scales", type=_int_list, default="64",
                   help="comma-separated resolutions per case")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0, help="master seed")
    p.add_argument("--out", default=None, help="CSV path")

    p = sub.add_parser("export-frames", help="write clip frames as PGM/PPM files")
    p.add_argument("--data", required=True)
    p.add_argument("--clips", type=_int_list, default="0", help="comma-separated clip indices")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_gen_data(args):
    classes = args.classes
    if "," in classes or not classes.isdigit():
        classes = [c.strip() for c in classes.split(",") if c.strip()]
    else:
        classes = int(classes)
    spec = synthdata.ClipSpec(frames=args.frames, size=args.size, channels=args.channels)
    doc = synthdata.gen_dataset(classes, args.clips_per_class, args.seed, spec, args.out)
    print(f"wrote {len(doc['clips'])} clips ({len(doc['classes'])} classes) to {args.out}")
    return 0


def _cmd_train(args):
    cfg_doc = _load_config(args)
    flags = (("iterations", args.iters), ("batch_size", args.batch))
    given = {name: value for name, value in flags if value is not None}
    dataset = synthdata.load_dataset(args.data)
    _, _, channels, size, _ = dataset.clips.shape
    mcfg = model.ModelConfig(
        **cfg_doc.get("model", {}), classes=len(dataset.classes), size=size, channels=channels
    )
    if args.classifier:
        ccfg = training.ClassifierConfig(**given, seed=args.seed)
        params = training.train_classifier(dataset, mcfg, ccfg)
        acc_ids = dataset.test_ids or dataset.train_ids
        acc = training.classifier_accuracy(params, mcfg, dataset, acc_ids)
        checkpoint.save_classifier(args.out, params, mcfg)
        print(f"classifier accuracy on held-out clips: {acc:.3f}; saved {args.out}")
        return 0
    desk = training.TrainConfig()
    fields = dict(cfg_doc.get("train", {}), **given, seed=args.seed)
    for name in ("optimizer", "weights"):
        if name in cfg_doc:
            try:
                fields[name] = dataclasses.replace(getattr(desk, name), **cfg_doc[name])
            except ValueError as exc:
                raise ValueError(f"--config section {name!r}: {exc}") from None
    tcfg = training.TrainConfig(**fields)
    bundle = model.build_model(mcfg, SeededRng(args.seed))
    trainer = training.Trainer(bundle, dataset, tcfg)
    trainer.train(log_every=args.log_every)
    checkpoint.save_model(args.out, bundle)
    base = training.copy_baseline_l2(dataset, dataset.test_ids or dataset.train_ids)
    got = training.model_next_frame_l2(bundle, dataset, dataset.test_ids or dataset.train_ids)
    print(f"saved {args.out}; next-frame L2 {got:.6f} vs copy baseline {base:.6f}")
    return 0


def _cmd_rollout(args):
    for flag, least in (("count", 1), ("frames", 2), ("heatup", 0)):
        if getattr(args, flag) < least:
            raise ValueError(f"--{flag} must be at least {least}, got {getattr(args, flag)}")
    bundle = checkpoint.load_model(args.ckpt)
    k = bundle.config.classes
    ids = list(range(args.count))
    labels = [args.action if args.action is not None else i % k for i in ids]
    seeds = [synthdata.split_seed(args.seed, i) for i in ids]  # the seed of each clip's rng
    clips = (
        training.rollout(bundle, a, SeededRng(s), frames=args.frames, heatup=args.heatup).frames
        for a, s in zip(labels, seeds)
    )
    classes = [f"class-{c}" for c in range(k)]
    synthdata.write_dataset(args.out, clips, labels, seeds, classes, ids, [])
    print(f"wrote {args.count} generated clips to {args.out}")
    return 0


def _cmd_eval(args):
    dataset = synthdata.load_dataset(args.data)
    params, mcfg = checkpoint.load_classifier(args.classifier_ckpt)
    if args.split == "all":
        ids = list(range(dataset.clips.shape[0]))
    else:
        ids = dataset.train_ids if args.split == "train" else dataset.test_ids
    if not ids:
        raise ValueError(f"split {args.split!r} holds no clips")
    report = metrics.evaluate_with_classifier(
        (dataset.clips[i] for i in ids),
        lambda clip: model.classifier_probs(params, mcfg, clip[None])[0],
    )
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_gradcheck(args):
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


def _cmd_bench(args):
    cases = [
        bench.BenchCase(
            mode=mode.strip(),
            kernel_size=n,
            resolutions=tuple(args.scales),
            channels=args.channels,
            repetitions=args.reps,
            warmup=args.warmup,
        )
        for mode in args.modes.split(",")
        for n in args.n
    ]
    results = bench.run_bench(cases, seed=args.seed)
    csv = bench.results_to_csv(results)
    if args.out:
        Path(args.out).write_text(csv)
    print(csv, end="")
    return 0


def _cmd_export_frames(args):
    dataset = synthdata.load_dataset(args.data)
    for idx in args.clips:
        if not 0 <= idx < dataset.clips.shape[0]:
            raise ValueError(f"clip index {idx} outside 0..{dataset.clips.shape[0] - 1}")
        checkpoint.export_frames(dataset.clips[idx], args.out, prefix=f"clip{idx:04d}")
    print(f"exported {len(args.clips)} clip(s) to {args.out}")
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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
