import tracemalloc

import numpy as np
import pytest

from motionfuse import bench


def small_case(mode="separable", n=3, resolutions=(4, 8)):
    return bench.BenchCase(
        mode=mode, kernel_size=n, resolutions=resolutions, channels=2, repetitions=3, warmup=1
    )


class TestBenchCase:
    def test_descriptor(self):
        assert small_case().descriptor() == "separable-n3-S2"

    def test_validation(self):
        with pytest.raises(ValueError):
            bench.BenchCase("sparse", 3, (8,))
        with pytest.raises(ValueError):
            bench.BenchCase("dense", 4, (8,))
        with pytest.raises(ValueError):
            bench.BenchCase("dense", 3, (8,), repetitions=2)
        with pytest.raises(ValueError):
            bench.BenchCase("dense", 3, (8,), warmup=0)
        with pytest.raises(ValueError):
            bench.BenchCase("dense", 3, ())
        with pytest.raises(ValueError, match="--scales"):
            bench.BenchCase("dense", 3, (8, 0))
        with pytest.raises(ValueError, match="--channels"):
            bench.BenchCase("dense", 3, (8,), channels=0)


class TestRunCase:
    def test_result_fields(self):
        res = bench.run_case(small_case(), seed=1)
        assert res.params_per_pixel == 6
        assert res.total_kernel_values == 6 * (16 + 64)
        assert res.residual < 1e-5
        assert 0 < res.min_ns <= res.median_ns
        assert res.peak_bytes > 0

    def test_peak_bytes_is_the_measured_tracemalloc_peak(self):
        small = bench.run_case(small_case(resolutions=(8,)), seed=1)
        large = bench.run_case(small_case(resolutions=(32,)), seed=1)
        # at least the refined output (channels x 32 x 32 float32) is live,
        # and the working set grows with the frame area
        assert large.peak_bytes >= 2 * 32 * 32 * 4
        assert large.peak_bytes > 4 * small.peak_bytes > 0
        assert not tracemalloc.is_tracing()

    def test_dense_counts(self):
        res = bench.run_case(small_case(mode="dense", n=5, resolutions=(8,)), seed=1)
        assert res.params_per_pixel == 25

    def test_residual_deterministic_under_seed(self):
        a = bench.run_case(small_case(), seed=7)
        b = bench.run_case(small_case(), seed=7)
        assert a.residual == b.residual

    def test_correctness_gate_aborts_timing(self, monkeypatch):
        monkeypatch.setattr(bench, "_residual", lambda *a: 1.0)
        with pytest.raises(bench.BenchCorrectnessError) as err:
            bench.run_case(small_case(), seed=0)
        assert "timing aborted" in str(err.value)


class TestRunBench:
    def test_csv_schema(self):
        results = bench.run_bench(
            [small_case("dense"), small_case("separable")], seed=0
        )
        csv = bench.results_to_csv(results)
        lines = csv.strip().split("\n")
        assert lines[0] == (
            "case,n,S,mode,params_per_pixel,total_kernel_values,median_ns,min_ns,residual,"
            "peak_bytes"
        )
        assert len(lines) == 3
        assert lines[1].startswith("dense-n3-S2,3,2,dense,9,720,")
        assert lines[2].startswith("separable-n3-S2,3,2,separable,6,480,")
        for line, res in zip(lines[1:], results):
            fields = line.split(",")
            assert len(fields) == 10
            assert int(fields[-1]) == res.peak_bytes > 0


def test_published_configuration_counts():
    dense17 = bench.run_case(
        bench.BenchCase("dense", 17, (16,), channels=1, repetitions=3, warmup=1), seed=0
    )
    sep5 = bench.run_case(
        bench.BenchCase("separable", 5, (16,), channels=1, repetitions=3, warmup=1), seed=0
    )
    assert dense17.params_per_pixel == 289
    assert sep5.params_per_pixel == 10
    assert dense17.params_per_pixel / sep5.params_per_pixel == pytest.approx(28.9)
