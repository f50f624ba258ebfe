"""motionfuse benchmark: train, generate and gen-data workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own process with one BLAS thread. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`. `--workload all` runs every
workload in a child process in turn and prints their lines, then one JSON
object whose metric names carry the workload as a prefix. Results and span
traces are also written under perfbench/results/.
"""

import os

# pinned before numpy is imported, for this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("train", "generate", "gen-data")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s", "op1_ms": "ms", "op2_ms": "ms"}


def import_program():
    """Import motionfuse from this checkout's source tree, and nowhere else."""
    src = ROOT / "src"
    if not (src / "motionfuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'motionfuse'}")
    sys.path.insert(0, str(src))
    import motionfuse

    if Path(motionfuse.__file__).resolve().parent != src / "motionfuse":
        sys.exit(f"perfbench: imported motionfuse from {motionfuse.__file__}, not {src}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
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


def tail_percentile(n):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it;
    None below forty samples, where it would be no tail."""
    for p in (99, 95, 90, 75):
        if n >= 40 and n * (100 - p) / 100 >= 10:
            return p
    return None


def summarize(samples):
    out = {}
    for name, xs in samples.items():
        row = {"n": len(xs), "median_ms": 1e3 * statistics.median(xs)}
        p = tail_percentile(len(xs))
        if p is not None:
            row[f"p{p}_ms"] = 1e3 * statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
        out[name] = row
    return out


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(args):
    import_program()
    import spans
    import workloads

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    s = workloads.Harness(args.seed, args.seconds, args.trace, work)
    try:
        result = workloads.WORKLOADS[args.workload](s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not s.wrong
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "problems": s.problems, "info": s.info,
              "setup_s_samples": s.setup_times}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for line in s.problems:
        print(f"FAILED {line}", file=sys.stderr)

    metrics = {}
    if result is not None:
        report["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in result.figures.items()}
        report["samples"] = summarize(result.samples)
        report["raw_seconds"] = result.samples
        if args.trace:
            values = s.layer_metrics(result.kinds, result.phases)
            metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in values.items()}
            want = declared("per_layer")
            s.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        else:
            values = dict(s.common_metrics())
            values.update({slot: result.figures[name][0] for slot, name in result.slots.items()})
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            want = declared("end_to_end")
        got = {k: m["unit"] for k, m in metrics.items()}
        if got != want:
            sys.exit(f"perfbench: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
        print_human(args, report, result.figures, metrics)
    out = {"correct": correct, "attempted": s.attempted, "failed": s.failed, "metrics": metrics}
    report["result"] = out
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(out))
    return 0 if correct and result is not None else 1


def print_human(args, report, figures, metrics):
    env = report["environment"]
    print(f"# {args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}  "
          f"numpy {env['numpy']}  {env['blas']}  {env['blas_threads']} BLAS thread  {env['cpu']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        return
    for name, (value, unit) in figures.items():
        print(f"  {name:24s} {value:12.4f} {unit}")
    for name, row in report["samples"].items():
        extra = "  ".join(f"{k} {v:.3f}" for k, v in row.items() if k != "n")
        print(f"  {name:24s} n={row['n']}  {extra}")
    for name in ("setup_s", "peak_rss_mb"):
        print(f"  {name:24s} {metrics[name]['value']:12.4f} {metrics[name]['unit']}")
    for name, value in report["info"].items():
        print(f"  {name:24s} {value}")


def run_all(args):
    """Every workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            code = 1
            continue
        code = code or proc.returncode
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
