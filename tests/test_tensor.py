import math

import numpy as np
import pytest

from motionfuse.tensor import SeededRng, split_seed


class TestSeededRng:
    def test_same_seed_bit_identical(self):
        a = SeededRng(42).normals((257,))
        b = SeededRng(42).normals((257,))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).normals((16,)), SeededRng(2).normals((16,)))

    def test_stream_advances(self):
        rng = SeededRng(5)
        assert not np.array_equal(rng.normals((8,)), rng.normals((8,)))

    def test_large_sample_moments(self):
        # tolerance from the std-error oracle: 3 / sqrt(N) ~ 0.003 < 0.01
        x = SeededRng(1).normals((1_000_000,))
        assert -0.01 <= float(x.mean()) <= 0.01
        assert 0.99 <= float(x.var()) <= 1.01

    def test_box_muller_matches_documented_transform(self):
        # independent reimplementation of the documented stream with stdlib math
        mask = (1 << 64) - 1
        golden = 0x9E3779B97F4A7C15
        m1, m2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

        def mix(z):
            z = ((z ^ (z >> 30)) * m1) & mask
            z = ((z ^ (z >> 27)) * m2) & mask
            return z ^ (z >> 31)

        def raw(seed, i):
            return mix((seed + (i + 1) * golden) & mask)

        seed, n = 99, 4
        u1 = [((raw(seed, i) >> 11) + 1) * 2.0**-53 for i in range(2)]
        u2 = [(raw(seed, i) >> 11) * 2.0**-53 for i in range(2, 4)]
        expect = []
        for a, b in zip(u1, u2):
            r = math.sqrt(-2.0 * math.log(a))
            expect.extend([r * math.cos(2 * math.pi * b), r * math.sin(2 * math.pi * b)])
        got = SeededRng(seed).normals((4,))
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_uniform_range(self):
        u = SeededRng(8).uniforms((10_000,))
        assert 0.0 <= u.min() and u.max() < 1.0

    def test_integers_range_and_error(self):
        vals = SeededRng(4).integers(2, 5, (1000,))
        assert set(np.unique(vals)) <= {2, 3, 4}
        with pytest.raises(ValueError):
            SeededRng(4).integers(3, 3)

    def test_split_seed_deterministic_and_spread(self):
        assert split_seed(7, 0) == split_seed(7, 0)
        seeds = {split_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_float32_cast_is_consistent(self):
        a64 = SeededRng(11).normals((50,), dtype=np.float64)
        a32 = SeededRng(11).normals((50,), dtype=np.float32)
        assert np.array_equal(a64.astype(np.float32), a32)


class TestScalarDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_scalar_draws_are_the_array_draws_bit_for_bit(self, seed):
        # scalar draws run on Python ints; a fresh stream that takes every
        # draw as an array call must give the same bits and keep the counter
        # aligned for the draws after it
        rng, ref = SeededRng(seed), SeededRng(seed)
        ranges = [(0, 2), (0, 3), (2, 9), (-7, 5), (0, 2**40), (-(2**31), 2**31)]
        for i in range(48):
            kind = i % 4
            if kind == 0:
                got, want = rng.uniforms(), ref.uniforms((1,))[0]
                assert type(got) is float and got.hex() == float(want).hex()
            elif kind == 1:
                lo, hi = ranges[i // 4 % len(ranges)]
                got, want = rng.integers(lo, hi), ref.integers(lo, hi, (1,))[0]
                assert type(got) is int and got == int(want)
            elif kind == 2:
                shape = (i % 3 + 1, 2)
                assert rng.uniforms(shape).tobytes() == ref.uniforms(shape).tobytes()
            else:
                shape = (i % 5 + 1,)
                assert rng.normals(shape).tobytes() == ref.normals(shape).tobytes()

    @pytest.mark.parametrize(
        "master, index, seed",
        [
            (0, 0, 3246858695411730098),
            (7, 3, 3615367987620402658),
            (-1, 0, 7664177944472012958),
            (-5, 12, 12188053946273277163),
            (2**64 - 1, 199, 15473944481519944918),
            (2**63, 1, 15152587238218763367),
        ],
    )
    def test_split_seed_keeps_its_values(self, master, index, seed):
        # values of the uint64-array implementation the int mixer replaced
        assert split_seed(master, index) == seed
