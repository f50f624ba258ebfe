"""Procedural generator of labeled shape-motion video clips.

Each clip shows one anti-aliased shape (rectangle, disc, triangle or cross)
over a flat or gradient background, animated by one of eight parametric
motion classes. A disc looks the same at every angle, so `rotate` clips draw
only the other three shapes: a rotating disc would leave every difference
map zero and be indistinguishable from `static`. Everything — shape,
background, motion parameters — derives from a single 64-bit seed, so clips
and whole datasets are bit-reproducible.

Frames are float32 in [-1, 1], 4x supersampled and average-pooled to keep
sub-pixel motion smooth, in one pass per clip: one sample grid for all its
frames, rotated only if one turns (at +-0.0 the rotation changes no bit).
Datasets are SMV1 files with a JSON manifest (`<file>.manifest.json`), written
by `write_dataset` alone, one clip at a time; `load_dataset` reads the records
in place, holding the clips once, and requires the manifest to match them.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .tensor import SeededRng, split_seed

SUPERSAMPLE = 4

MOTION_CLASSES = (
    "translate-horizontal",
    "rotate",
    "static",
    "small-jitter",
    "translate-vertical",
    "diagonal",
    "scale-oscillate",
    "parabolic-bounce",
)

SHAPE_NAMES = ("rectangle", "disc", "triangle", "cross")

# shapes whose rotation shows in the frames (every one but the disc)
ROTATING_SHAPES = (0, 2, 3)

# ids: 0-2 flat levels, 3 horizontal ramp, 4 vertical ramp, 5 diagonal ramp
BACKGROUND_COUNT = 6

# a shape keeps this many pixels clear of the frame edge on every frame
MARGIN = 1.5

# speed range of the two translation classes, pixels per frame
TRANSLATE_SPEED = (1.0, 1.5)


def _half_extent(size, k):
    """Shape half-extent of palette entry k in 0..2, in pixels."""
    return size * (0.16 + 0.03 * k)


_MAGIC = b"SMV1"
_HEADER = struct.Struct("<7I")
_KEY = [("label", "<u2"), ("seed", "<u8")]  # the head of every SMV1 clip record


def _clip_record(t, c, h, w) -> np.dtype:
    """One packed SMV1 clip record: u16 label, u64 seed, then the clip's
    T*C*H*W LE f32 values in (frame, channel, row) order."""
    return np.dtype(_KEY + [("frames", "<f4", (t, c, h, w))])


def max_frames(size: int) -> int:
    """Most frames a `size` px clip can hold: the slowest translation must
    still fit beside the largest shape and the margins. Faster drawn speeds
    that would not fit are slowed to the room there is (see `_motion_track`)."""
    room = size - 2 * (MARGIN + _half_extent(size, 2))
    return int(np.floor(room / TRANSLATE_SPEED[0])) + 1


@dataclass(frozen=True)
class ClipSpec:
    frames: int = 10
    size: int = 32
    channels: int = 1

    def __post_init__(self):
        if self.frames < 2:
            raise ValueError(f"need at least 2 frames, got {self.frames}")
        if self.size < 16 or self.size % 2:
            raise ValueError(f"frame size must be even and >= 16, got {self.size}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.frames > max_frames(self.size):
            raise ValueError(
                f"{self.frames} frames do not fit a {self.size} px frame: translation at "
                f"{TRANSLATE_SPEED[0]:g} px per frame would carry a shape out of it; at "
                f"most {max_frames(self.size)} frames fit at {self.size} px"
            )


@dataclass
class VideoClip:
    frames: np.ndarray  # (T, C, H, W) float32 in [-1, 1]
    action: int
    action_name: str
    shape_id: int
    background_id: int
    seed: int


def class_names(classes) -> list[str]:
    """Resolve an int (first K of the registry) or an explicit list of
    distinct names."""
    if isinstance(classes, int):
        if not 1 <= classes <= len(MOTION_CLASSES):
            raise ValueError(f"class count must be in 1..{len(MOTION_CLASSES)}, got {classes}")
        return list(MOTION_CLASSES[:classes])
    names = list(classes)
    if not names:
        raise ValueError(f"need at least one motion class, got {names}")
    for i, name in enumerate(names):
        if name not in MOTION_CLASSES:
            raise ValueError(f"unknown motion class {name!r}")
        if name in names[:i]:
            raise ValueError(f"motion class {name!r} named twice in {names}")
    return names


# In units of `half * scl`, each shape but the rectangle (whose row is
# (1, aspect, hypot(1, aspect))) lies within |x| <= a and |y| <= b of its
# centre before rotation, and within r of it: (a, b, r) by name
_SHAPE_BOX = {
    "disc": (1.0, 1.0, 1.0),
    # yr >= -1 and sqrt(3) |xr| + yr <= 1: base vertices (+-2/sqrt(3), -1)
    "triangle": (2.0 / math.sqrt(3.0), 1.0, math.sqrt(7.0 / 3.0)),
    # arm ends (1, 0.38)
    "cross": (1.0, 1.0, math.hypot(1.0, 0.38)),
}


def _half_widths(name, aspect, angle):
    """(x, y) half-widths of shape `name` rotated by `angle`, in units of
    `half * scl`. Before rotation the shape lies within |x| <= a, |y| <= b
    and radius r of its centre (`_SHAPE_BOX`); rotated by the angle t, its
    x offsets then stay within min(r, |cos t| a + |sin t| b) and its y
    offsets within min(r, |cos t| b + |sin t| a)."""
    a, b, r = (1.0, aspect, math.hypot(1.0, aspect)) if name == "rectangle" else _SHAPE_BOX[name]
    c, s = abs(math.cos(angle)), abs(math.sin(angle))
    return min(r, c * a + s * b), min(r, c * b + s * a)


def _clip_coverage(shape_id, cxs, cys, half, aspect, angles, scales, size):
    """Each frame's share of supersamples inside the shape, per pixel: (rows
    (T, h, 1), columns (T, 1, w), float64 coverage (T, h, w)). A frame's window
    is its rotated bounding box (`_half_widths`) plus a pixel for rounding, so
    no pixel outside it is covered; all widen to the clip's largest, moved
    inward at the frame edge. With no turned frame the samples stay unrotated:
    at an angle of 0.0 or -0.0, cos(-angle) is 1.0 and sin(-angle) -0.0 or 0.0,
    so dx cos - dy sin is dx and dx sin + dy cos is dy bit for bit (dx and dy,
    float differences, are never -0.0), and the shape tests run on the axes.
    """
    ss, name, t = SUPERSAMPLE, SHAPE_NAMES[shape_id], len(cxs)
    boxes, widths = [], {a: _half_widths(name, aspect, a) for a in set(angles)}
    for cx, cy, angle, scl in zip(cxs, cys, angles, scales):
        reach_x, reach_y = (half * scl * wd + 1.0 for wd in widths[angle])
        x0, x1 = max(0, int(cx - reach_x)), min(size, int(cx + reach_x) + 1)
        y0, y1 = max(0, int(cy - reach_y)), min(size, int(cy + reach_y) + 1)
        boxes.append((y0, x0, y1 - y0, x1 - x0))
    y0, x0, h, w = np.array(boxes).T
    h, w = h.max(), w.max()
    rows = np.minimum(y0, size - h)[:, None, None] + np.arange(h)[:, None]
    cols = np.minimum(x0, size - w)[:, None, None] + np.arange(w)
    # supersample centres: the sample rows of all pixels as ss planes
    # (ss, T, h, 1), and the columns in (T, ss, w) order, so that the pooling
    # below sums whole planes and then runs of w, not runs of ss
    offsets = np.arange(ss)[:, None] + 0.5
    dys = (rows * ss + offsets[:, None, None]) / ss - np.array(cys)[:, None, None]
    dx = (cols * ss + offsets).reshape(t, 1, ss * w) / ss - np.array(cxs)[:, None, None]
    turned, scaled = any(angles), any(s != 1.0 for s in scales)  # x / 1.0 is x, bit for bit
    scl = np.array(scales)[:, None, None]
    if turned:  # one scalar cos and sin per frame, as a vectorised one may round apart
        ca, sa = (np.array([f(-a) for a in angles])[:, None, None] for f in (np.cos, np.sin))
    # count each pixel's inside-samples in integers (at most ss * ss = 16):
    # its ss sample rows, one plane of all frames at a time so that only one
    # plane of samples is held, then its ss columns. count / ss^2 is exact,
    # so it equals the float mean of the samples bit for bit
    per_column = np.zeros((t, h, ss * w), np.uint8)
    for dy in dys:
        xr, yr = (dx * ca - dy * sa, dx * sa + dy * ca) if turned else (dx, dy)
        if scaled:
            xr, yr = xr / scl, yr / scl
        # all four shapes are symmetric in x, and all but the triangle in y
        xr = np.abs(xr)
        if name != "triangle":
            yr = np.abs(yr)
        if name == "rectangle":
            inside = (xr <= half) & (yr <= half * aspect)
        elif name == "disc":
            inside = xr * xr + yr * yr <= half * half
        elif name == "triangle":
            # equilateral, apex up at (0, half): yr -+ sqrt(3) xr <= half, and
            # yr - u <= yr + u for u >= 0 in any rounding
            xr *= np.sqrt(3.0)
            inside = (yr >= -half) & (yr + xr <= half)
        else:  # cross
            arm = half * 0.38
            inside = ((xr <= arm) & (yr <= half)) | ((yr <= arm) & (xr <= half))
        per_column += inside
    counts = np.add.reduce(per_column.reshape(t, h, ss, w), 2, np.uint8)
    return rows, cols, counts / (ss * ss)


# fixed palette per background id: three flat levels and three ramps
@cache
def _background(background_id, size):
    """The (size, size) background of `background_id`, built once and read-only."""
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, size), indexing="ij"
    )
    if background_id == 0:
        bg = np.full((size, size), -0.75)
    elif background_id == 1:
        bg = np.full((size, size), -0.5)
    elif background_id == 2:
        bg = np.full((size, size), -0.25)
    elif background_id == 3:
        bg = -0.55 + 0.4 * (xx - 0.5)
    elif background_id == 4:
        bg = -0.55 + 0.4 * (yy - 0.5)
    else:
        bg = -0.55 + 0.4 * (xx + yy - 1.0) * 0.5
    bg.flags.writeable = False
    return bg


def _signed(rng, lo, hi):
    mag = lo + rng.uniforms() * (hi - lo)
    return mag if rng.uniforms() < 0.5 else -mag


def _motion_track(name, rng, spec, half, overrides):
    """Per-frame (cx, cy, angle, scale) lists of Python floats for one motion
    class, each value computed as a float64 array would compute it."""
    n, size = spec.frames, spec.size
    t_idx = [float(t) for t in range(n)]
    pitch = 1.0 / SUPERSAMPLE  # spacing of the coverage samples, in pixels
    zeros, ones = [0.0] * n, [1.0] * n
    overrides = overrides or {}

    def pick(key, draw):
        return float(overrides[key]) if key in overrides else float(draw())

    def within(v):
        # a drawn speed whose travel would leave the frame slows to just
        # inside it; speeds that fit are kept as drawn
        room = size - 2 * (MARGIN + half)
        steps = n - 1
        return v if abs(v) * steps <= room else math.copysign(0.999 * room / steps, v)

    def line(start, step):
        return [start + step * t for t in t_idx]

    def jitter(amp):
        return (rng.uniforms() * 2.0 - 1.0) * amp

    def start_inside(travel_x=0.0, travel_y=0.0, pad=0.0):
        reach = MARGIN + half + pad
        lo_x = reach + max(0.0, -travel_x)
        hi_x = size - reach - max(0.0, travel_x)
        lo_y = reach + max(0.0, -travel_y)
        hi_y = size - reach - max(0.0, travel_y)
        if lo_x > hi_x or lo_y > hi_y:
            raise ValueError(
                f"shape of half-extent {half:.1f} too large for {size}px frame "
                f"(travel {travel_x:.1f}, {travel_y:.1f})"
            )
        cx = lo_x + rng.uniforms() * (hi_x - lo_x)
        cy = lo_y + rng.uniforms() * (hi_y - lo_y)
        return cx, cy

    if name == "translate-horizontal":
        vx = pick("vx", lambda: within(_signed(rng, *TRANSLATE_SPEED)))
        cx, cy = start_inside(travel_x=vx * (n - 1))
        return line(cx, vx), [cy] * n, zeros, ones
    if name == "translate-vertical":
        vy = pick("vy", lambda: within(_signed(rng, *TRANSLATE_SPEED)))
        cx, cy = start_inside(travel_y=vy * (n - 1))
        return [cx] * n, line(cy, vy), zeros, ones
    if name == "diagonal":
        vx = pick("vx", lambda: within(_signed(rng, 0.7, 1.1)))
        vy = pick("vy", lambda: within(_signed(rng, 0.7, 1.1)))
        cx, cy = start_inside(vx * (n - 1), vy * (n - 1))
        return line(cx, vx), line(cy, vy), zeros, ones
    if name == "rotate":
        omega = pick("omega", lambda: _signed(rng, np.deg2rad(6.0), np.deg2rad(10.0)))
        phase = rng.uniforms() * 2 * np.pi
        cx, cy = start_inside()
        return [cx] * n, [cy] * n, line(phase, omega), ones
    if name == "static":
        cx, cy = start_inside()
        return [cx] * n, [cy] * n, zeros, ones
    if name == "small-jitter":
        amp = pick("amplitude", lambda: 0.45 + rng.uniforms() * 0.3)
        if amp < pitch:
            raise ValueError(f"jitter amplitude {amp} below the {pitch} px render pitch")
        cx, cy = start_inside(pad=amp)
        jx = [jitter(amp) for _ in range(n)]
        jy = [jitter(amp) for _ in range(n)]
        # redraw a position that lies within one pitch of its predecessor:
        # the frame would render unchanged and the transition look static
        for t in range(1, n):
            while max(abs(jx[t] - jx[t - 1]), abs(jy[t] - jy[t - 1])) < pitch:
                jx[t], jy[t] = jitter(amp), jitter(amp)
        return [cx + j for j in jx], [cy + j for j in jy], zeros, ones
    if name == "scale-oscillate":
        # triangle wave that turns on frames: the scale moves by the same step
        # every frame, large enough to carry every outline at least one pitch
        # (a sampled sine nearly repeats a frame wherever it straddles a peak)
        amp = pick("amplitude", lambda: 0.12 + rng.uniforms() * 0.1)
        steps = 2 + rng.integers(0, 3)  # frames per half swing
        start = rng.integers(0, 2 * steps)
        cx, cy = start_inside(pad=half * amp)
        pos = [(start + t) % (2 * steps) for t in t_idx]
        tri = [(p if p <= steps else 2 * steps - p) / steps for p in pos]
        return [cx] * n, [cy] * n, zeros, [1.0 + amp * (2.0 * v - 1.0) for v in tri]
    if name == "parabolic-bounce":
        period = 6.0 + rng.uniforms() * 3.0
        bounce = pick("height", lambda: 2.5 + rng.uniforms() * 2.5)
        vx = pick("vx", lambda: _signed(rng, 0.3, 0.6))
        cx, cy = start_inside(travel_x=vx * (n - 1), travel_y=-bounce)
        tau = [(t % period) / period for t in t_idx]
        return line(cx, vx), [cy - 4.0 * u * (1.0 - u) * bounce for u in tau], zeros, ones
    raise ValueError(f"unknown motion class {name!r}")


def gen_clip(
    action,
    seed: int,
    spec: ClipSpec = ClipSpec(),
    shape_id=None,
    background_id=None,
    motion_params=None,
) -> VideoClip:
    """Render one clip, fully determined by (action, seed, spec).

    `shape_id`, `background_id` and `motion_params` override the seed-drawn
    choices; they exist for targeted tests and demos.
    """
    if isinstance(action, str):
        if action not in MOTION_CLASSES:
            raise ValueError(f"unknown motion class {action!r}")
        name, action_idx = action, MOTION_CLASSES.index(action)
    else:
        action_idx = int(action)
        if not 0 <= action_idx < len(MOTION_CLASSES):
            raise ValueError(f"action index {action_idx} out of range")
        name = MOTION_CLASSES[action_idx]

    rng = SeededRng(seed)
    if shape_id is not None:
        shape = int(shape_id)
    elif name == "rotate":
        # one draw either way, so every other class renders unchanged
        shape = ROTATING_SHAPES[rng.integers(0, len(ROTATING_SHAPES))]
    else:
        shape = rng.integers(0, len(SHAPE_NAMES))
    bg_id = (
        int(background_id) if background_id is not None else rng.integers(0, BACKGROUND_COUNT)
    )
    # appearance factors come from small fixed palettes so held-out clips
    # recombine values already seen in training rather than novel ones
    half = _half_extent(spec.size, rng.integers(0, 3))
    aspect = (0.75, 1.0, 1.25)[rng.integers(0, 3)]
    fg = (0.5, 0.7, 0.9)[rng.integers(0, 3)]

    cxs, cys, angles, scales = _motion_track(name, rng, spec, half, motion_params)
    bg = _background(bg_id, spec.size)

    # outside the shape's window the blend below would give bg, bit for bit
    frames = np.tile(bg.astype(np.float32), (spec.frames, spec.channels, 1, 1))
    levels = [fg]
    if spec.channels == 3:
        levels = np.clip(fg + (rng.uniforms((3,)) - 0.5) * 0.2, -1.0, 1.0)
    rows, cols, cov = _clip_coverage(shape, cxs, cys, half, aspect, angles, scales, spec.size)
    t, bg_win = np.arange(spec.frames)[:, None, None], bg[rows, cols]
    for ch, level in enumerate(levels):
        frames[t, ch, rows, cols] = bg_win * (1.0 - cov) + level * cov
    np.clip(frames, -1.0, 1.0, out=frames)
    return VideoClip(
        frames=frames,
        action=action_idx,
        action_name=name,
        shape_id=shape,
        background_id=bg_id,
        seed=seed,
    )


def difference_map(clip, t: int) -> np.ndarray:
    """Forward difference frames[t] - frames[t-1] for 1 <= t < T.

    Computed in float64, where the difference of two float32 frames is
    exact, so frames[t-1] + difference_map(clip, t) reproduces frames[t].
    """
    frames = clip.frames if isinstance(clip, VideoClip) else clip
    if not 1 <= t < frames.shape[0]:
        raise ValueError(f"t must be in [1, {frames.shape[0]}), got {t}")
    return frames[t].astype(np.float64) - frames[t - 1].astype(np.float64)


@dataclass
class Dataset:
    clips: np.ndarray  # (N, T, C, H, W) float32
    labels: np.ndarray  # (N,) int
    seeds: np.ndarray  # (N,) uint64
    classes: list[str]
    train_ids: list[int]
    test_ids: list[int]


@contextmanager
def atomic_write(path):
    """Binary handle on a temporary file beside `path`, which replaces
    `path` when the block completes. If the block raises, the temporary
    file is removed and `path` keeps its previous bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def gen_dataset(classes, clips_per_class: int, master_seed: int, spec: ClipSpec, path) -> dict:
    """Generate a balanced dataset, write it (`write_dataset`), return the manifest.

    Clip ids run class-major; each clip's seed is `split_seed(master_seed, id)`.
    The train/test split is 80/20 within every class, by clip id. Each clip
    is rendered as the writer asks for it.
    """
    names = class_names(classes)
    if clips_per_class < 1:
        raise ValueError("need at least one clip per class")
    ids = range(len(names) * clips_per_class)
    labels = [i // clips_per_class for i in ids]
    seeds = [split_seed(master_seed, i) for i in ids]
    clips = (gen_clip(names[labels[i]], seeds[i], spec).frames for i in ids)
    n_train = int(round(clips_per_class * 0.8))
    train_ids = [i for i in ids if i % clips_per_class < n_train]
    test_ids = [i for i in ids if i % clips_per_class >= n_train]
    return write_dataset(path, clips, labels, seeds, names, train_ids, test_ids)


def write_dataset(path, clips, labels, seeds, classes, train_ids, test_ids) -> dict:
    """Write the SMV1 container and then its manifest; return the manifest.

    SMV1: magic, 7 LE u32 header fields, then one `_clip_record` per clip.
    The JSON manifest lists the class names, each clip's {id, action, seed}
    and the train/test split by clip id. `clips` is any iterable of (T, C,
    H, W) clips of one shape, one per label, each packed into one reusable
    record and written as it arrives. A clip holds at least 2 frames, as a
    `ClipSpec` does: every reader takes frame-to-frame transitions. No clip,
    mixed shapes or more or fewer clips than labels is a ValueError naming
    the file, and leaves no file behind."""
    n, record, count = len(labels), None, 0
    if len(seeds) != n:
        raise ValueError(f"{path}: {len(seeds)} seeds for {n} labels")
    with atomic_write(path) as fh:
        for clip in clips:
            if record is None:
                t, c, h, w = shape = np.shape(clip)
                if t < 2:
                    raise ValueError(f"{path}: an SMV1 clip needs at least 2 frames, got {t}")
                record = np.empty(1, _clip_record(t, c, h, w))
                fh.write(_MAGIC + _HEADER.pack(1, n, t, c, h, w, 0))
            if count == n:
                raise ValueError(f"{path}: more clips than the {n} labels")
            if np.shape(clip) != shape:
                raise ValueError(f"{path}: clip {count} is {np.shape(clip)}, clip 0 {shape}")
            record["label"], record["seed"], record["frames"] = labels[count], seeds[count], clip
            fh.write(record.view(np.uint8))
            count += 1
        if not n or count != n:
            raise ValueError(f"{path}: {count} clips for {n} labels")
    split = {"train": list(train_ids), "test": list(test_ids)}
    manifest = {"classes": list(classes), "clips": _clip_entries(labels, seeds), "split": split}
    with atomic_write(manifest_path(path)) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1).encode())
    return manifest


def _clip_entries(labels, seeds) -> list[dict]:
    """The manifest's {id, action, seed} entry of every clip, in id order."""
    pairs = enumerate(zip(labels, seeds))
    return [{"id": i, "action": int(label), "seed": int(seed)} for i, (label, seed) in pairs]


def load_dataset(path) -> Dataset:
    """Read an SMV1 container and its manifest, and check them against each
    other: the manifest must list every clip, in order, as {id, action,
    seed} with the container's label and seed, name a class for every
    label, and split the clip ids into train and test ids that cover each id
    once. Any disagreement, or a container whose length differs from what
    its header describes (checked before anything is allocated), or that
    ends early as each record is read into the returned arrays in place, is
    a ValueError naming the file."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:  # unbuffered, so readv reads on after the header
        size = os.fstat(fh.fileno()).st_size
        head = len(_MAGIC) + _HEADER.size
        header = fh.read(head)
        if header[:4] != _MAGIC:
            raise ValueError(f"{path}: not an SMV1 container")
        if len(header) < head:
            raise ValueError(f"{path}: {len(header)} bytes, shorter than the {head}-byte SMV1 header")
        version, n, t, c, h, w, dtype = _HEADER.unpack_from(header, 4)
        if version != 1 or dtype != 0:
            raise ValueError(f"{path}: unsupported SMV1 version {version} / dtype {dtype}")
        if t < 2:
            raise ValueError(f"{path}: clips of {t} frames, but SMV1 clips hold at least 2")
        record = _clip_record(t, c, h, w)
        expected = head + n * record.itemsize
        if size != expected:
            raise ValueError(
                f"{path}: {size} bytes, but its header describes {n} clips of "
                f"{t}x{c}x{h}x{w} in {expected} bytes"
            )
        keys, frames = np.empty(n, _KEY), np.empty((n, t, c, h, w), "<f4")
        for i in range(n):
            if os.readv(fh.fileno(), (keys[i : i + 1], frames[i])) != record.itemsize:
                raise ValueError(f"{path}: ended within clip {i} of {n}, short of {size} bytes")
    labels = keys["label"].astype(np.int64)
    seeds = keys["seed"].astype(np.uint64)
    clips = frames.astype(np.float32, copy=False)

    mpath = manifest_path(path)
    try:
        doc = json.loads(mpath.read_text())
        classes, entries = list(doc["classes"]), list(doc["clips"])
        train_ids, test_ids = list(doc["split"]["train"]), list(doc["split"]["test"])
        split_ids = sorted(train_ids + test_ids)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{mpath}: unreadable dataset manifest ({exc})") from exc
    if len(entries) != n:
        raise ValueError(f"{mpath}: lists {len(entries)} clips, but {path} holds {n}")
    held = _clip_entries(labels.tolist(), seeds.tolist())
    if entries != held:
        i = next(i for i, (listed, clip) in enumerate(zip(entries, held)) if listed != clip)
        raise ValueError(f"{mpath}: entry {i} is {entries[i]}, but clip {i} of {path} is {held[i]}")
    if n and labels.max() >= len(classes):
        raise ValueError(f"{mpath}: action {labels.max()} outside its {len(classes)} classes")
    if split_ids != list(range(n)):
        raise ValueError(f"{mpath}: train and test ids do not split clip ids 0..{n - 1}")
    return Dataset(clips, labels, seeds, classes, train_ids, test_ids)
