"""Checkpoint container and frame image export.

TSVC version 2 layout: magic "TSVC", little-endian u32 version, u64
manifest byte length, a UTF-8 JSON manifest {"config": {every ModelConfig
field}, "params": [{name, shape, offset}]} (offsets into the blob section),
then the raw little-endian float32 blobs in manifest order. Parameter names
are "<set>/<param>"; the set names tell a model from a classifier. A
checkpoint is one file, written whole to a temporary file and renamed over
the target, so its config and its weights are always replaced together.

Frames export as binary PGM (P5) for grayscale and PPM (P6) for RGB, with
[-1, 1] mapped to [0, 255] by round-half-up.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from . import model, ops
from .synthdata import atomic_write

_MAGIC = b"TSVC"
_VERSION = 2
_HEAD = struct.Struct("<IQ")
_CONFIG_KEYS = {f.name for f in dataclasses.fields(model.ModelConfig)}


def _save(path, cfg: model.ModelConfig, param_sets: dict[str, ops.ParamSet]):
    entries = []
    blobs = []
    offset = 0
    for sname, ps in param_sets.items():
        for pname, value in ps.items():
            blob = np.ascontiguousarray(value, dtype="<f4").tobytes()
            entries.append(
                {"name": f"{sname}/{pname}", "shape": list(value.shape), "offset": offset}
            )
            blobs.append(blob)
            offset += len(blob)
    doc = {"config": dataclasses.asdict(cfg), "params": entries}
    manifest = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(_HEAD.pack(_VERSION, len(manifest)))
        fh.write(manifest)
        for blob in blobs:
            fh.write(blob)


def _load(path, layout) -> tuple[model.ModelConfig, dict[str, ops.ParamSet]]:
    """The config and every parameter set of a TSVC file. The file is
    rejected, with a ValueError naming it, if its config does not hold
    exactly the ModelConfig fields, if its length differs from what its
    manifest describes (truncated, or with trailing bytes), or if its sets,
    names and shapes differ from `layout(config)`."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a TSVC checkpoint")
    start = 4 + _HEAD.size
    if len(raw) < start:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {start}-byte TSVC header")
    version, mlen = _HEAD.unpack_from(raw, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: TSVC version {version}; only version {_VERSION} is read")
    blob_start = start + mlen
    try:
        if len(raw) < blob_start:
            raise ValueError(f"manifest of {mlen} bytes runs past the end")
        doc = json.loads(raw[start:blob_start].decode())
        entries = [
            (e["name"].split("/", 1), tuple(e["shape"]), e["offset"]) for e in doc["params"]
        ]
        meta = doc["config"]
        if meta.keys() != _CONFIG_KEYS:
            unknown, missing = meta.keys() - _CONFIG_KEYS, _CONFIG_KEYS - meta.keys()
            raise ValueError(f"config keys: unknown {sorted(unknown)}, missing {sorted(missing)}")
        cfg = model.ModelConfig(**meta)
        expected = layout(cfg)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: unreadable TSVC manifest ({exc})") from exc
    offset = 0
    for _, shape, at in entries:
        if at != offset:
            raise ValueError(f"{path}: blob offset {at} where {offset} was expected")
        offset += 4 * int(np.prod(shape))
    if len(raw) != blob_start + offset:
        raise ValueError(
            f"{path}: {len(raw)} bytes, but its manifest describes {blob_start + offset}"
        )
    sets: dict[str, ops.ParamSet] = {}
    for (sname, pname), shape, at in entries:
        count = int(np.prod(shape))
        value = np.frombuffer(raw, dtype="<f4", count=count, offset=blob_start + at)
        sets.setdefault(sname, ops.ParamSet()).add(pname, value.reshape(shape).copy())
    _check_layout(path, sets, expected)
    return cfg, sets


def _check_layout(path, sets, expected):
    """Every set, parameter name and shape of the loaded `sets` must match
    the `expected` layout, the one the file's own config builds."""
    got = {sname: {n: v.shape for n, v in ps.items()} for sname, ps in sets.items()}
    if set(got) != set(expected):
        raise ValueError(f"{path}: parameter sets {sorted(got)} != {sorted(expected)}")
    for sname, need in expected.items():
        have = got[sname]
        if have != need:
            wrong = sorted(n for n in have.keys() | need.keys() if have.get(n) != need.get(n))
            detail = ", ".join(f"{n}: {have.get(n)} vs {need.get(n)}" for n in wrong[:3])
            raise ValueError(
                f"{path}: set {sname!r} does not match its config "
                f"(file vs config: {detail})"
            )


def save_model(path, bundle: model.ModelBundle):
    """One file holding the config and weights, enough to rebuild the bundle."""
    _save(path, bundle.config, bundle.param_sets())


def load_model(path) -> model.ModelBundle:
    cfg, sets = _load(path, model.model_layout)
    return model.ModelBundle(config=cfg, **sets)


def save_classifier(path, params: ops.ParamSet, cfg: model.ModelConfig):
    _save(path, cfg, {"cls": params})


def load_classifier(path):
    cfg, sets = _load(path, model.classifier_layout)
    return sets["cls"], cfg


def frame_to_bytes(frame: np.ndarray) -> bytes:
    """One (C, H, W) frame in [-1, 1] -> binary PGM/PPM payload."""
    c, h, w = frame.shape
    levels = np.clip(np.floor((frame + 1.0) * 0.5 * 255.0 + 0.5), 0, 255).astype(np.uint8)
    if c == 1:
        header = f"P5\n{w} {h}\n255\n".encode()
        return header + levels[0].tobytes()
    if c == 3:
        header = f"P6\n{w} {h}\n255\n".encode()
        return header + np.moveaxis(levels, 0, 2).tobytes()
    raise ValueError(f"cannot export frame with {c} channels")


def export_frames(frames: np.ndarray, out_dir, prefix: str = "frame") -> list[Path]:
    """Write every (C, H, W) frame of a clip as frame_000.pgm / .ppm files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if frames.shape[1] == 1 else "ppm"
    paths = []
    for t in range(frames.shape[0]):
        p = out_dir / f"{prefix}_{t:03d}.{ext}"
        p.write_bytes(frame_to_bytes(frames[t]))
        paths.append(p)
    return paths
