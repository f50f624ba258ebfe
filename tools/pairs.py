"""Run the benchmark on two checkouts in alternating pairs and judge each
end-to-end metric by the pair rules:

    python tools/pairs.py PARENT CHANGE --workload train --seed 701 --pairs 10

PARENT and CHANGE are checkout roots, say a `git archive` of the parent
commit and the working tree. Pair i runs `perfbench/run.py --workload W
--seed (base + i) --seconds N --trace 0` in each, one after the other, the
parent first in even pairs and the change first in odd ones, so that a
drift of the host falls on both sides alike. Each run's last output line is
its result. The metrics, their direction and their bounds come from the
parent's `BENCHMARK.json`.

Per metric it prints each side's median and quartiles, how many pairs the
change won (ties count for neither), the median and range of the per-pair
change/parent ratio, and a verdict:

- `gain`: the change won at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's quartile distance;
- `worse`: the change's median is worse than the parent's by more than the
  metric's bound, a share of the parent's median;
- `unresolved`: the parent's quartile distance exceeds that bound, so the
  runs cannot show the metric unchanged, unless every change run reads
  better than every parent run;
- `within bound` otherwise.

It also prints each side's failed and attempted operations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_result(stdout: str) -> dict:
    """The result object of a `perfbench/run.py` run: its last output line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed no result line")
    result = json.loads(lines[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(med), float(q3)


def judge(parent, change, better: str, bound: float) -> dict:
    """Compare one metric over paired runs: `parent[i]` and `change[i]` ran
    as pair i. `better` is "lower" or "higher"; `bound` is the share of the
    parent's median by which the change may worsen."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need paired runs, got {len(parent)} and {len(change)}")
    sign = 1.0 if better == "higher" else -1.0
    p_q, c_q = quartiles(parent), quartiles(change)
    p_med, c_med = p_q[1], c_q[1]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change)]
    spread = p_q[2] - p_q[0]
    gain = sign * (c_med - p_med)  # positive where the change is better
    if wins >= 0.9 * len(parent) and gain > spread:
        verdict = "gain"
    elif -gain > bound * abs(p_med):
        verdict = "worse"
    elif spread > bound * abs(p_med) and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": p_q,
        "change": c_q,
        "wins": wins,
        "pairs": len(parent),
        "ratio": (float(np.median(ratios)), min(ratios), max(ratios)),
        "spread": spread,
        "bound": bound * abs(p_med),
        "verdict": verdict,
    }


def summarize(parent_runs, change_runs, end_to_end) -> dict:
    """{metric: `judge` row} for every end-to-end metric of BENCHMARK.json's
    `end_to_end` list, over parsed results of paired runs."""
    return {
        m["name"]: judge(
            [r["metrics"][m["name"]] for r in parent_runs],
            [r["metrics"][m["name"]] for r in change_runs],
            m["better"],
            m["bound"],
        )
        for m in end_to_end
    }


def format_table(rows: dict) -> str:
    head = (
        "| metric | parent median [q1, q3] | change median [q1, q3] | change won "
        "| pair ratio median (range) | parent q3 - q1 vs bound | verdict |"
    )
    lines = [head, "| --- | --- | --- | --- | --- | --- | --- |"]
    for name, r in rows.items():
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        med, lo, hi = r["ratio"]
        lines.append(
            f"| `{name}` | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] "
            f"| {r['wins']}/{r['pairs']} | {med:.3f} ({lo:.3f}-{hi:.3f}) "
            f"| {r['spread']:.3g} vs {r['bound']:.3g} | {r['verdict']} |"
        )
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return parse_result(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout root of the parent commit")
    ap.add_argument("change", type=Path, help="checkout root of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        values = "  ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]:.4g} -> "
            f"{runs['change'][-1]['metrics'][m['name']]:.4g}"
            for m in end_to_end
        )
        print(f"pair {i + 1} seed {seed} {order[0]} first: {values}", flush=True)
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{side}: {failed} of {attempted} operations failed, all correct: {correct}")
    print(format_table(summarize(runs["parent"], runs["change"], end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
