"""Dense-vs-separable kernel benchmark with a built-in correctness gate.

Every case first verifies the separable fusion path against the dense path
run on the expanded (outer-product) kernels; no timing is reported unless
the relative residual is below 1e-5. Timings are wall-clock per fused
pyramid (one frame), median and min over the repetitions after warmup;
peak bytes are the tracemalloc peak of one more fused pyramid. The
quantity the harness is really about is the per-pixel kernel parameter
count: n*n stored values per pixel for dense fields versus 2n for
separable ones.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import fusion
from .tensor import SeededRng


class BenchCorrectnessError(RuntimeError):
    def __init__(self, case, residual):
        super().__init__(
            f"{case.descriptor()}: residual {residual:.3e} exceeds 1e-5; timing aborted"
        )
        self.case = case
        self.residual = residual


@dataclass(frozen=True)
class BenchCase:
    mode: str
    kernel_size: int
    resolutions: tuple[int, ...]
    channels: int = 4
    repetitions: int = 5
    warmup: int = 1

    def __post_init__(self):
        if self.mode not in ("dense", "separable"):
            raise ValueError(f"mode must be dense|separable, got {self.mode!r}")
        if self.kernel_size % 2 == 0 or self.kernel_size < 3:
            raise ValueError(f"kernel size must be odd >= 3, got {self.kernel_size}")
        if self.repetitions < 3:
            raise ValueError("repetitions must be >= 3")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if not self.resolutions:
            raise ValueError("need at least one resolution")
        if min(self.resolutions) < 1:
            raise ValueError(f"resolutions (--scales) must be >= 1, got {list(self.resolutions)}")
        if self.channels < 1:
            raise ValueError(f"channels (--channels) must be >= 1, got {self.channels}")

    @property
    def scales(self) -> int:
        return len(self.resolutions)

    def descriptor(self) -> str:
        return f"{self.mode}-n{self.kernel_size}-S{self.scales}"


@dataclass
class BenchResult:
    case: BenchCase
    descriptor: str
    params_per_pixel: int
    total_kernel_values: int
    median_ns: int
    min_ns: int
    residual: float
    peak_bytes: int

    def csv_row(self) -> str:
        return (
            f"{self.descriptor},{self.case.kernel_size},{self.case.scales},"
            f"{self.case.mode},{self.params_per_pixel},{self.total_kernel_values},"
            f"{self.median_ns},{self.min_ns},{self.residual:.3e},{self.peak_bytes}"
        )


CSV_HEADER = (
    "case,n,S,mode,params_per_pixel,total_kernel_values,median_ns,min_ns,residual,peak_bytes"
)


def _case_inputs(case: BenchCase, seed: int):
    rng = SeededRng(seed)
    n = case.kernel_size
    pyramid, separable, dense, masks = [], [], [], []
    for res in case.resolutions:
        pyramid.append(rng.normals((case.channels, res, res), dtype=np.float32))
        wv = rng.normals((res, res, n), dtype=np.float32)
        wh = rng.normals((res, res, n), dtype=np.float32)
        separable.append(fusion.SeparableKernelField(wv, wh))
        dense.append(
            fusion.DenseKernelField(fusion.flatten_kernel(fusion.expand_kernel(wv, wh)))
        )
        masks.append(np.full((res, res), 0.5, dtype=np.float32))
    return pyramid, separable, dense, masks


def _residual(pyramid, separable, dense, masks) -> float:
    sep_out, _ = fusion.fuse_pyramid_forward(pyramid, separable, masks)
    den_out, _ = fusion.fuse_pyramid_forward(pyramid, dense, masks)
    worst = 0.0
    for a, b in zip(sep_out, den_out):
        scale = max(float(np.linalg.norm(b)), 1e-12)
        worst = max(worst, float(np.linalg.norm(a - b)) / scale)
    return worst


def run_case(case: BenchCase, seed: int = 0) -> BenchResult:
    pyramid, separable, dense, masks = _case_inputs(case, seed)
    residual = _residual(pyramid, separable, dense, masks)
    if residual >= 1e-5:
        raise BenchCorrectnessError(case, residual)
    kernels = separable if case.mode == "separable" else dense
    for _ in range(case.warmup):
        fusion.fuse_pyramid_forward(pyramid, kernels, masks)
    samples = []
    for _ in range(case.repetitions):
        t0 = time.perf_counter_ns()
        fusion.fuse_pyramid_forward(pyramid, kernels, masks)
        samples.append(time.perf_counter_ns() - t0)
    counts = fusion.kernel_param_count(
        case.kernel_size, case.scales, case.mode, case.resolutions
    )
    return BenchResult(
        case=case,
        descriptor=case.descriptor(),
        params_per_pixel=counts["per_pixel"],
        total_kernel_values=counts["total"],
        median_ns=int(np.median(samples)),
        min_ns=int(np.min(samples)),
        residual=residual,
        peak_bytes=_peak_bytes(pyramid, kernels, masks),
    )


def _peak_bytes(pyramid, kernels, masks) -> int:
    """Peak bytes allocated above the starting level during one fused
    pyramid, as tracemalloc measures it (numpy reports its buffers)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fusion.fuse_pyramid_forward(pyramid, kernels, masks)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def run_bench(cases, seed: int = 0) -> list[BenchResult]:
    """Verify then time every case."""
    return [run_case(case, seed) for case in cases]


def results_to_csv(results) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in results]) + "\n"
