import hashlib
import itertools
import json
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from motionfuse import checkpoint, model, synthdata
from motionfuse.synthdata import ClipSpec, difference_map, gen_clip, gen_dataset, load_dataset
from motionfuse.tensor import SeededRng


class TestGenClip:
    def test_deterministic(self):
        a = gen_clip("rotate", 321)
        b = gen_clip("rotate", 321)
        assert np.array_equal(a.frames, b.frames)
        assert (a.shape_id, a.background_id) == (b.shape_id, b.background_id)

    def test_static_frames_identical(self):
        clip = gen_clip("static", 9)
        for t in range(1, clip.frames.shape[0]):
            assert np.array_equal(clip.frames[t], clip.frames[0])

    def test_translate_integer_velocity_shift(self):
        # flat background so the shifted-frame comparison holds everywhere
        clip = gen_clip(
            "translate-horizontal", 77, background_id=0, motion_params={"vx": 1.0}
        )
        for t in range(clip.frames.shape[0] - 1):
            assert np.array_equal(clip.frames[t + 1][:, :, 1:], clip.frames[t][:, :, :-1])

    def test_pixel_range(self):
        for seed in range(8):
            clip = gen_clip(seed % 8, seed)
            assert clip.frames.min() >= -1.0 and clip.frames.max() <= 1.0

    def test_every_class_renders(self):
        for name in synthdata.MOTION_CLASSES:
            clip = gen_clip(name, 11)
            assert clip.frames.shape == (10, 1, 32, 32)
            assert clip.action_name == name

    def test_rgb_channels(self):
        clip = gen_clip("static", 3, spec=ClipSpec(channels=3))
        assert clip.frames.shape == (10, 3, 32, 32)

    def test_shape_too_large_for_travel(self):
        with pytest.raises(ValueError):
            gen_clip("translate-horizontal", 5, motion_params={"vx": 50.0})

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            gen_clip("orbit", 5)
        with pytest.raises(ValueError):
            gen_clip(99, 5)


class TestMotionVisible:
    SEEDS = range(4)

    def test_moving_classes_change_every_transition(self):
        for name in synthdata.MOTION_CLASSES:
            if name == "static":
                continue
            shapes = (
                synthdata.ROTATING_SHAPES if name == "rotate" else range(len(synthdata.SHAPE_NAMES))
            )
            for shape in shapes:
                for seed in self.SEEDS:
                    clip = gen_clip(name, seed, shape_id=shape)
                    for t in range(1, clip.frames.shape[0]):
                        assert np.any(difference_map(clip, t) != 0), (name, shape, seed, t)

    def test_static_never_changes(self):
        for shape in range(len(synthdata.SHAPE_NAMES)):
            for seed in self.SEEDS:
                clip = gen_clip("static", seed, shape_id=shape)
                for t in range(1, clip.frames.shape[0]):
                    assert np.all(difference_map(clip, t) == 0)

    def test_rotate_never_draws_the_disc(self):
        disc = synthdata.SHAPE_NAMES.index("disc")
        shapes = {gen_clip("rotate", seed).shape_id for seed in range(40)}
        assert disc not in shapes
        assert shapes == set(synthdata.ROTATING_SHAPES)

    def test_jitter_amplitude_below_render_pitch_rejected(self):
        with pytest.raises(ValueError):
            gen_clip("small-jitter", 3, motion_params={"amplitude": 0.1})


def _full_grid_coverage(shape_id, cx, cy, half, aspect, angle, scl, size):
    """The full-grid renderer that the windowed one replaced, kept as its
    oracle: every supersample of one frame on a full meshgrid, pooled by a
    float64 mean."""
    ss = synthdata.SUPERSAMPLE
    coords = (np.arange(size * ss, dtype=np.float64) + 0.5) / ss
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    dx, dy = xx - cx, yy - cy
    ca, sa = np.cos(-angle), np.sin(-angle)
    xr = (dx * ca - dy * sa) / scl
    yr = (dx * sa + dy * ca) / scl
    name = synthdata.SHAPE_NAMES[shape_id]
    if name == "rectangle":
        inside = (np.abs(xr) <= half) & (np.abs(yr) <= half * aspect)
    elif name == "disc":
        inside = xr * xr + yr * yr <= half * half
    elif name == "triangle":
        top = yr >= -half
        left = (np.sqrt(3.0) * xr + yr) <= half
        right = (-np.sqrt(3.0) * xr + yr) <= half
        inside = top & left & right
    else:  # cross
        arm = half * 0.38
        inside = ((np.abs(xr) <= arm) & (np.abs(yr) <= half)) | (
            (np.abs(yr) <= arm) & (np.abs(xr) <= half)
        )
    return inside.astype(np.float64).reshape(size, ss, size, ss).mean(axis=(1, 3))


def _pasted_coverage(shape_id, cxs, cys, half, aspect, angles, scales, size):
    """`synthdata._clip_coverage`'s windows pasted into zero frames: (T, size, size)."""
    args = (shape_id, list(cxs), list(cys), half, aspect, list(angles), list(scales), size)
    rows, cols, cov_w = synthdata._clip_coverage(*args)
    t = len(cxs)
    assert cov_w.dtype == np.float64 and cov_w.shape == (t, rows.shape[1], cols.shape[2])
    # every window lies inside its frame (a negative index would wrap silently)
    assert 0 <= rows.min() and rows.max() < size and 0 <= cols.min() and cols.max() < size
    cov = np.zeros((t, size, size))
    cov[np.arange(t)[:, None, None], rows, cols] = cov_w
    return cov


def _assert_frames_match_the_oracle(shape_id, cxs, cys, half, aspect, angles, scales, size):
    """Each frame of the clip renderer, byte-equal to the full grid of its pose."""
    cov = _pasted_coverage(shape_id, cxs, cys, half, aspect, angles, scales, size)
    for t, pose in enumerate(zip(cxs, cys, angles, scales)):
        cx, cy, angle, scl = pose
        want = _full_grid_coverage(shape_id, cx, cy, half, aspect, angle, scl, size)
        assert cov[t].tobytes() == want.tobytes(), (shape_id, half, aspect, size, t, pose)
    return cov


def _single(shape_id, cx, cy, half, aspect, angle, scl, size):
    """One pose as a one-frame clip, pasted into a (size, size) frame."""
    return _pasted_coverage(shape_id, [cx], [cy], half, aspect, [angle], [scl], size)[0]


class TestShapeCoverage:
    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("shape_id", range(len(synthdata.SHAPE_NAMES)))
    def test_same_bytes_as_the_full_grid_oracle(self, shape_id, size):
        rng = np.random.default_rng(100 * size + shape_id)
        for i in range(150):
            half = synthdata._half_extent(size, int(rng.integers(0, 3)))
            aspect = (0.75, 1.0, 1.25)[rng.integers(0, 3)]
            scl = 0.78 + rng.random() * 0.44 if i % 3 else 1.0
            angle = rng.random() * 2 * np.pi if i % 4 else 0.0
            # odd draws put the centre at the margin gen_clip keeps from the
            # frame edge, nearer to it than the sampled window reaches, so
            # the edge clips the window; even draws anywhere between
            lo, hi = synthdata.MARGIN + half * scl, size - synthdata.MARGIN - half * scl
            cx, cy = (rng.choice([lo, hi]) if i % 2 else rng.uniform(lo, hi) for _ in "xy")
            args = (shape_id, cx, cy, half, aspect, angle, scl, size)
            cov = _single(*args)
            assert cov.shape == (size, size) and cov.dtype == np.float64
            assert cov.tobytes() == _full_grid_coverage(*args).tobytes(), args

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("shape_id", range(len(synthdata.SHAPE_NAMES)))
    def test_same_bytes_where_the_window_is_tightest(self, shape_id, size):
        # the angles at which a rotated box's corner or the shape's radius sets
        # a half-width, at the extreme scales, with centres at the margin; the
        # last two put the cross's arm end and the triangle's base vertex on
        # the x axis, where its reach is its radius
        for k, aspect, scl in itertools.product(range(3), (0.75, 1.0, 1.25), (0.78, 1.22)):
            half = synthdata._half_extent(size, k)
            lo, hi = synthdata.MARGIN + half * scl, size - synthdata.MARGIN - half * scl
            angles = (0.0, np.pi / 6, np.pi / 4, np.pi / 2, np.arctan(aspect),
                      np.arctan(0.38), np.arctan(np.sqrt(3.0) / 2))
            for angle in angles:
                for cx, cy in itertools.product((lo, hi), repeat=2):
                    args = (shape_id, cx, cy, half, aspect, angle, scl, size)
                    cov = _single(*args)
                    assert cov.tobytes() == _full_grid_coverage(*args).tobytes(), args

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("shape_id", range(len(synthdata.SHAPE_NAMES)))
    def test_clip_of_windows_of_different_sizes(self, shape_id, size):
        # one clip mixes turned and unturned frames at different scales, so
        # its frames' own windows differ in height and width and most widen
        # to the clip's largest
        rng = np.random.default_rng(7 * size + shape_id)
        for _ in range(12):
            half = synthdata._half_extent(size, int(rng.integers(0, 3)))
            aspect = (0.75, 1.0, 1.25)[rng.integers(0, 3)]
            scales = [1.0, 0.78, 1.22, 1.0, *(0.78 + rng.random(4) * 0.44)]
            angles = [0.0, 0.0, np.pi / 4, -np.pi / 6, 0.0, *(rng.random(3) * 2 * np.pi)]
            lo = synthdata.MARGIN + half * 1.22
            cxs, cys = (rng.uniform(lo, size - lo, len(scales)) for _ in "xy")
            _assert_frames_match_the_oracle(shape_id, cxs, cys, half, aspect, angles, scales, size)

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("shape_id", range(len(synthdata.SHAPE_NAMES)))
    def test_edge_frames_move_the_common_window_inward(self, shape_id, size):
        # a large turned frame at the centre widens every window; frames at
        # the margin of each edge can only hold it by moving it inward
        for k, aspect in itertools.product(range(3), (0.75, 1.25)):
            half = synthdata._half_extent(size, k)
            lo, hi = synthdata.MARGIN + half * 0.78, size - synthdata.MARGIN - half * 0.78
            mid = size / 2
            cxs = [mid, lo, hi, lo, hi, mid, mid]
            cys = [mid, lo, hi, hi, lo, lo, hi]
            angles = [np.pi / 4] + [0.0] * 6
            scales = [1.22] + [0.78] * 6
            _assert_frames_match_the_oracle(shape_id, cxs, cys, half, aspect, angles, scales, size)

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("shape_id", range(len(synthdata.SHAPE_NAMES)))
    def test_zero_angles_of_either_sign_match_the_rotated_path(self, shape_id, size):
        # at 0.0 or -0.0 a clip skips the rotation; the same frames in a clip
        # whose last frame turns (by a negative angle) take the rotated path,
        # with the same bytes
        rng = np.random.default_rng(11 * size + shape_id)
        for _ in range(8):
            half = synthdata._half_extent(size, int(rng.integers(0, 3)))
            aspect = (0.75, 1.0, 1.25)[rng.integers(0, 3)]
            lo = synthdata.MARGIN + half * 1.22
            cxs, cys = (list(rng.uniform(lo, size - lo, 5)) for _ in "xy")
            scales = [1.0, 0.78, 1.22, 1.0, 0.9]
            rotated = _assert_frames_match_the_oracle(
                shape_id, cxs + [size / 2], cys + [size / 2], half, aspect,
                [0.0, -0.0, 0.0, -0.0, 0.0, -1.0], scales + [1.0], size,
            )
            for angles in ([0.0] * 5, [-0.0] * 5, [-0.0, 0.0, -0.0, 0.0, -0.0]):
                cov = _pasted_coverage(shape_id, cxs, cys, half, aspect, angles, scales, size)
                assert cov.tobytes() == rotated[:5].tobytes(), (shape_id, angles)

    @pytest.mark.parametrize("aspect", (0.75, 1.0, 1.25))
    @pytest.mark.parametrize("shape_id", range(len(synthdata.SHAPE_NAMES)))
    def test_half_widths_hold_every_extreme_point(self, shape_id, aspect):
        # in units of half * scl: the rectangle's corners, the triangle's
        # vertices, the cross's arm ends and, for the disc, its radius in
        # every direction, rotated by +angle as `_clip_coverage` samples
        # them; each rotated extent must lie within the helper's half-width
        name = synthdata.SHAPE_NAMES[shape_id]
        points = {
            "rectangle": [(x, y) for x in (-1, 1) for y in (-aspect, aspect)],
            "disc": [(np.cos(t), np.sin(t)) for t in np.linspace(0, 2 * np.pi, 721)],
            "triangle": [(0, 1), (-2 / np.sqrt(3.0), -1), (2 / np.sqrt(3.0), -1)],
            "cross": [(x, y) for u in (-1, 1) for v in (-0.38, 0.38) for x, y in ((u, v), (v, u))],
        }[name]
        px, py = np.asarray(points, dtype=np.float64).T
        tight = (np.pi / 6, np.pi / 4, np.pi / 2, np.arctan(aspect), np.arctan(1 / aspect),
                 np.arctan(0.38), np.arctan(np.sqrt(3.0) / 2), np.arctan(2 / np.sqrt(3.0)))
        angles = np.concatenate([np.arange(720) * (2 * np.pi / 720), tight, np.negative(tight)])
        for angle in angles:
            c, s = np.cos(angle), np.sin(angle)
            wx, wy = synthdata._half_widths(name, aspect, angle)
            assert np.max(np.abs(px * c - py * s)) <= wx + 1e-12, (name, aspect, angle)
            assert np.max(np.abs(px * s + py * c)) <= wy + 1e-12, (name, aspect, angle)


class TestDifferenceMap:
    def test_static_clip_zero(self):
        clip = gen_clip("static", 2)
        assert np.all(difference_map(clip, 3) == 0)

    def test_reconstructs_next_frame(self):
        clip = gen_clip("diagonal", 4)
        for t in range(1, clip.frames.shape[0]):
            d = difference_map(clip, t)
            assert np.array_equal(clip.frames[t - 1] + d, clip.frames[t])
            assert d.min() >= -2.0 and d.max() <= 2.0

    def test_translate_support_limited_to_shape_edges(self):
        clip = gen_clip(
            "translate-horizontal", 31, background_id=0, motion_params={"vx": 1.0}
        )
        bg = clip.frames[0, 0, 0, 0]
        for t in range(1, clip.frames.shape[0]):
            moving = difference_map(clip, t)[0] != 0
            support = (np.abs(clip.frames[t - 1, 0] - bg) > 1e-6) | (
                np.abs(clip.frames[t, 0] - bg) > 1e-6
            )
            assert np.all(support[moving])

    def test_t_out_of_range(self):
        clip = gen_clip("static", 2)
        with pytest.raises(ValueError):
            difference_map(clip, 0)
        with pytest.raises(ValueError):
            difference_map(clip, 10)


class TestDataset:
    def test_balanced_and_split(self, tmp_path):
        path = tmp_path / "d.smv"
        manifest = gen_dataset(4, 10, 7, ClipSpec(), path)
        assert [c["action"] for c in manifest["clips"]].count(0) == 10
        ds = load_dataset(path)
        assert np.array_equal(np.bincount(ds.labels), [10, 10, 10, 10])
        assert len(ds.train_ids) == 32 and len(ds.test_ids) == 8
        assert not set(ds.train_ids) & set(ds.test_ids)
        assert sorted(ds.train_ids + ds.test_ids) == list(range(40))

    def test_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.smv", tmp_path / "b.smv"
        gen_dataset(2, 4, 99, ClipSpec(frames=4, size=16), p1)
        gen_dataset(2, 4, 99, ClipSpec(frames=4, size=16), p2)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(["rotate", "static"], 3, 5, ClipSpec(frames=5, size=16), path)
        ds = load_dataset(path)
        clip = gen_clip("rotate", synthdata.split_seed(5, 0), ClipSpec(frames=5, size=16))
        assert np.array_equal(ds.clips[0], clip.frames)
        assert ds.classes == ["rotate", "static"]

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(2, 3, 1, ClipSpec(frames=3, size=16), path)
        doc = json.loads(synthdata.manifest_path(path).read_text())
        assert set(doc) == {"classes", "clips", "split"}
        assert doc["clips"][0].keys() == {"id", "action", "seed"}
        assert doc["clips"][0]["seed"] == synthdata.split_seed(1, 0)

    # sha256 of gen_dataset(8 classes, 3 clips per class, seed, spec) files.
    # The 1-channel 16-32 px rows were rendered before ClipSpec bounded the
    # frame count; the 3-channel and 64 px rows were taken from the
    # full-grid renderer (`_full_grid_coverage`) before the windowed one
    # replaced it. A change to rendering or to the seed draws shows here
    @pytest.mark.parametrize(
        "frames,size,channels,seed,digest",
        [
            (3, 16, 1, 1, "e131b0774aabfcdcfda9be2982a915d9dc63cce3391f6ea1d21371f243c37382"),
            (4, 16, 1, 99, "f3f57e96f28cb972e39b7c006114043add512b8ce052d67d46d1588900377069"),
            (5, 16, 1, 5, "556c67f4a93b85a04eb73b58f8ddd3b601c084ea30c0a17648bd24271beca74f"),
            (5, 24, 1, 2, "42c12d73572c4ba843105af7d0c3f000039a74edd149798c038cd0582846e6ff"),
            (10, 32, 1, 7, "b600512c402ef98527ba86eb4af5d695be5af44842bb552d161b87543ea89132"),
            (6, 32, 3, 11, "981930f41ddc937d11fc03fbddad0e40a5987f3d6d43575d7ddd96beb267f8c6"),
            (10, 64, 1, 13, "6c007288b029d618b5cf73f323cbc8e630934c687d7b2b1ceb693f4534ed51de"),
        ],
    )
    def test_pinned_bytes(self, tmp_path, frames, size, channels, seed, digest):
        path = tmp_path / "d.smv"
        gen_dataset(8, 3, seed, ClipSpec(frames=frames, size=size, channels=channels), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_truncated_files_name_the_file_and_length(self, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(2, 1, 3, ClipSpec(frames=3, size=16), path)
        raw = path.read_bytes()
        for cut in (raw[:6], raw[:40], raw[:-1], raw + b"\x00"):
            bad = tmp_path / "bad.smv"
            bad.write_bytes(cut)
            with pytest.raises(ValueError) as err:
                load_dataset(bad)
            assert str(bad) in str(err.value) and f"{len(cut)} bytes" in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.smv"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_missing_manifest_is_an_error(self, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(2, 1, 3, ClipSpec(frames=3, size=16), path)
        synthdata.manifest_path(path).unlink()
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["clips"].pop(), "lists 3 clips, but"),
            (lambda doc: doc["clips"][1].update(action=1), "entry 1 is {'action': 1, 'id': 1,"),
            (lambda doc: doc["clips"][2].update(seed=5), "'id': 2, 'seed': 5}, but clip 2"),
            (lambda doc: doc["clips"][0].update(id=3), "entry 0 is {'action': 0, 'id': 3,"),
            (lambda doc: doc["clips"][0].update(id="0"), "entry 0 is {'action': 0, 'id': '0',"),
            (lambda doc: doc["clips"][1].update(action=0.9), "entry 1 is {'action': 0.9,"),
            (lambda doc: doc["clips"][3].update(shape=2), "entry 3 is"),
            (lambda doc: doc["classes"].pop(), "action 1 outside its 1 classes"),
            (lambda doc: doc["split"]["test"].append(0), "do not split clip ids 0..3"),
            (lambda doc: doc["split"]["train"].remove(0), "do not split clip ids 0..3"),
            (lambda doc: doc["split"]["train"].append(1.5), "do not split clip ids 0..3"),
            (lambda doc: doc["split"]["train"].append("3"), "unreadable dataset manifest"),
            (lambda doc: doc.pop("split"), "unreadable dataset manifest"),
        ],
    )
    def test_manifest_must_match_the_container(self, edit, message, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(2, 2, 3, ClipSpec(frames=3, size=16), path)
        mpath = synthdata.manifest_path(path)
        doc = json.loads(mpath.read_text())
        edit(doc)
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(mpath) in str(err.value) and message in str(err.value)

    def test_unparsable_manifest_names_it(self, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(1, 2, 3, ClipSpec(frames=3, size=16), path)
        synthdata.manifest_path(path).write_text('{"classes": ')
        with pytest.raises(ValueError, match="unreadable dataset manifest"):
            load_dataset(path)

    def test_written_dataset_reads_back(self, tmp_path):
        path = tmp_path / "w.smv"
        clips = np.arange(2 * 2 * 1 * 4 * 4, dtype=np.float32).reshape(2, 2, 1, 4, 4)
        seeds = [7, 2**64 - 1]
        doc = synthdata.write_dataset(path, clips, [1, 0], seeds, ["a", "b"], [1], [0])
        ds = load_dataset(path)
        assert json.loads(synthdata.manifest_path(path).read_text()) == doc
        assert np.array_equal(ds.clips, clips) and ds.labels.tolist() == [1, 0]
        assert ds.seeds.tolist() == seeds and ds.classes == ["a", "b"]
        assert (ds.train_ids, ds.test_ids) == ([1], [0])

    def test_one_frame_clips_are_rejected(self, tmp_path):
        path = tmp_path / "one.smv"
        clips = np.zeros((2, 1, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="at least 2 frames"):
            synthdata.write_dataset(path, clips, [0, 0], [1, 2], ["a"], [0, 1], [])
        assert not path.exists() and not synthdata.manifest_path(path).exists()
        # a hand-written container of one 1-frame clip, with a manifest that
        # agrees with it
        record = np.zeros(1, synthdata._clip_record(1, 1, 4, 4))
        path.write_bytes(b"SMV1" + struct.pack("<7I", 1, 1, 1, 1, 4, 4, 0) + record.tobytes())
        doc = {"classes": ["a"], "clips": [{"id": 0, "action": 0, "seed": 0}],
               "split": {"train": [0], "test": []}}
        synthdata.manifest_path(path).write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(path) in str(err.value) and "at least 2" in str(err.value)

    def test_a_generator_writes_the_bytes_of_the_stacked_array(self, tmp_path):
        spec = ClipSpec(frames=3, size=16, channels=3)
        clips = np.stack([gen_clip(a % 8, 40 + a, spec).frames for a in range(5)])
        args = ([0, 3, 1, 1, 2], [5, 2**64 - 1, 0, 7, 9], ["a", "b", "c", "d"], [0, 1, 2], [3, 4])
        stacked, streamed = tmp_path / "stacked.smv", tmp_path / "streamed.smv"
        doc = synthdata.write_dataset(stacked, clips, *args)
        assert synthdata.write_dataset(streamed, (c for c in clips), *args) == doc
        for file in (lambda p: p, synthdata.manifest_path):
            assert file(streamed).read_bytes() == file(stacked).read_bytes()
        assert np.array_equal(load_dataset(streamed).clips, clips)

    @pytest.mark.parametrize(
        "clips, labels, message",
        [
            ([], [0, 1], "0 clips for 2 labels"),
            ([], [], "0 clips for 0 labels"),
            ([np.zeros((2, 1, 4, 4)), np.zeros((2, 1, 4, 5))], [0, 1],
             "clip 1 is (2, 1, 4, 5), clip 0 (2, 1, 4, 4)"),
            ([np.zeros((2, 1, 4, 4))] * 3, [0, 1], "more clips than the 2 labels"),
            ([np.zeros((2, 1, 4, 4))], [0, 1], "1 clips for 2 labels"),
        ],
    )
    def test_a_bad_clip_stream_names_the_file_and_leaves_nothing(
        self, clips, labels, message, tmp_path
    ):
        path = tmp_path / "s.smv"
        with pytest.raises(ValueError) as err:
            synthdata.write_dataset(path, iter(clips), labels, labels, ["a", "b"], labels, [])
        assert str(path) in str(err.value) and message in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_seeds_must_match_the_labels(self, tmp_path):
        path = tmp_path / "s.smv"
        clips = np.zeros((2, 2, 1, 4, 4))
        with pytest.raises(ValueError, match="3 seeds for 2 labels"):
            synthdata.write_dataset(path, clips, [0, 1], [1, 2, 3], ["a", "b"], [0, 1], [])
        assert list(tmp_path.iterdir()) == []

    def test_a_file_that_shrinks_while_read_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.smv"
        gen_dataset(2, 2, 3, ClipSpec(frames=3, size=16), path)
        raw = path.read_bytes()
        size, record = len(raw), (len(raw) - 32) // 4
        # the header check sees the full length; the records then run short
        monkeypatch.setattr(synthdata.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        for cut, clip in ((size - 1, 3), (size - record + 5, 3), (40, 0)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError) as err:
                load_dataset(path)
            assert str(err.value) == f"{path}: ended within clip {clip} of 4, short of {size} bytes"

    def test_class_names_resolution(self):
        assert synthdata.class_names(4) == [
            "translate-horizontal",
            "rotate",
            "static",
            "small-jitter",
        ]
        with pytest.raises(ValueError):
            synthdata.class_names(9)
        with pytest.raises(ValueError):
            synthdata.class_names(["spin"])
        with pytest.raises(ValueError, match=r"need at least one motion class, got \[\]"):
            synthdata.class_names([])
        with pytest.raises(ValueError, match="'rotate' named twice in \\['rotate', 'static', 'rotate'\\]"):
            synthdata.class_names(["rotate", "static", "rotate"])


class _FailMidWrite:
    """File wrapper that writes half of what it is given, then fails like a
    full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def _write_model(root, seed):
    cfg = model.ModelConfig(
        ngf=4, latent_c=8, latent_m=16, scales=2, kernel_size=3, size=16, classes=1 + seed
    )
    checkpoint.save_model(root / "m.tsvc", model.build_model(cfg, SeededRng(seed)))
    return [root / "m.tsvc"]


def _write_dataset(root, seed):
    gen_dataset(["static"], 2, seed, ClipSpec(frames=4, size=16), root / "d.smv")
    return [root / "d.smv", synthdata.manifest_path(root / "d.smv")]


class TestAtomicWrites:
    """The checkpoint (one file), the dataset and its manifest are each
    written to a temporary file that replaces the target only once it is
    complete."""

    @pytest.mark.parametrize(
        "write, which", [(_write_model, 0), (_write_dataset, 0), (_write_dataset, 1)]
    )
    def test_failed_write_keeps_the_previous_file(self, write, which, tmp_path, monkeypatch):
        targets = write(tmp_path, 1)
        before = [p.read_bytes() for p in targets]
        listing = sorted(tmp_path.iterdir())
        opened = []

        def open_failing_one(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            opened.append(path)
            return _FailMidWrite(fh) if len(opened) == which + 1 else fh

        monkeypatch.setattr(synthdata, "open", open_failing_one, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path, 2)
        monkeypatch.undo()
        assert targets[which].read_bytes() == before[which]
        assert sorted(tmp_path.iterdir()) == listing
        # the same write, left to finish, does change the file
        write(tmp_path, 2)
        assert targets[which].read_bytes() != before[which]


class TestDatasetMemory:
    """The writer holds one clip at a time and the loader one copy of the
    clips: traced peaks against the size of a 200-clip 64 px file."""

    SPEC = ClipSpec(frames=10, size=64)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writing_peaks_below_a_quarter_of_the_file(self, tmp_path):
        path = tmp_path / "d.smv"
        peak = self._peak(gen_dataset, 8, 25, 17, self.SPEC, path)
        size = path.stat().st_size
        assert size == 32 + 200 * (10 + 10 * 64 * 64 * 4)
        assert peak < size / 4, (peak, size)

    def test_loading_peaks_below_1_1_times_the_file(self, tmp_path):
        path = tmp_path / "d.smv"
        gen_dataset(8, 25, 17, self.SPEC, path)
        peak = self._peak(load_dataset, path)
        assert peak < 1.1 * path.stat().st_size, (peak, path.stat().st_size)

    def test_a_header_of_a_million_clips_in_100_bytes_allocates_nothing(self, tmp_path):
        path = tmp_path / "big.smv"
        path.write_bytes(b"SMV1" + struct.pack("<7I", 1, 10**6, 10, 1, 64, 64, 0) + bytes(68))

        def load():
            with pytest.raises(ValueError, match="100 bytes, but its header describes 1000000"):
                load_dataset(path)

        assert self._peak(load) < 2**20


class TestClipSpecValidation:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ClipSpec(frames=1)
        with pytest.raises(ValueError):
            ClipSpec(size=15)
        with pytest.raises(ValueError):
            ClipSpec(size=8)
        with pytest.raises(ValueError):
            ClipSpec(channels=2)

    def test_frame_count_bounded_by_translation_room(self):
        assert synthdata.max_frames(16) == 6 and synthdata.max_frames(32) == 15
        with pytest.raises(ValueError) as err:
            ClipSpec(frames=10, size=16)
        assert "at most 6 frames fit at 16 px" in str(err.value)
        for size in (16, 20, 32):
            ClipSpec(frames=synthdata.max_frames(size), size=size)
            with pytest.raises(ValueError):
                ClipSpec(frames=synthdata.max_frames(size) + 1, size=size)

    @pytest.mark.parametrize("size", [16, 32])
    def test_every_seed_renders_at_the_largest_frame_count(self, size):
        # drawn speeds too fast for the room beside a large shape slow down
        # to fit instead of failing the clip
        spec = ClipSpec(frames=synthdata.max_frames(size), size=size)
        for name in ("translate-horizontal", "translate-vertical", "diagonal", "parabolic-bounce"):
            for seed in range(40):
                frames = gen_clip(name, seed, spec).frames
                assert frames.shape == (spec.frames, 1, size, size)
                assert all(
                    np.any(frames[t] != frames[t - 1]) for t in range(1, spec.frames)
                )


def clip_motion_features(frames):
    """(energy, |mean horizontal moment|, |mean vertical moment|) of the
    difference maps; enough to separate translate / rotate / static."""
    t_dim = frames.shape[0]
    img = frames[:, 0]
    ys, xs = np.meshgrid(
        np.arange(img.shape[1], dtype=np.float64),
        np.arange(img.shape[2], dtype=np.float64),
        indexing="ij",
    )
    energies, mxs, mys = [], [], []
    for t in range(1, t_dim):
        d = img[t] - img[t - 1]
        mass = np.sum(np.abs(d))
        energies.append(mass / d.size)
        if mass > 1e-9:
            cx = np.sum(np.abs(d) * xs) / mass
            cy = np.sum(np.abs(d) * ys) / mass
            mxs.append(np.sum(d * (xs - cx)) / mass)
            mys.append(np.sum(d * (ys - cy)) / mass)
        else:
            mxs.append(0.0)
            mys.append(0.0)
    return np.array([np.mean(energies), abs(np.mean(mxs)), abs(np.mean(mys))])


def test_class_separability_nearest_centroid():
    names = ["translate-horizontal", "rotate", "static"]
    train, test = [], []
    for ci, name in enumerate(names):
        for j in range(12):
            clip = gen_clip(name, synthdata.split_seed(400 + ci, j))
            feats = clip_motion_features(clip.frames)
            (train if j < 8 else test).append((feats, ci))
    centroids = []
    for ci in range(len(names)):
        centroids.append(np.mean([f for f, c in train if c == ci], axis=0))
    scale = np.std([f for f, _ in train], axis=0) + 1e-9
    correct = sum(
        int(np.argmin([np.linalg.norm((f - c) / scale) for c in centroids]) == ci)
        for f, ci in test
    )
    assert correct / len(test) > 0.9
