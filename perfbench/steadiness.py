"""Run one workload over seeds 1 to 10 and report each end-to-end metric's
median and quartile spread (IQR / median), the figure the bounds in
BENCHMARK.json are judged against.

    python3 perfbench/steadiness.py --workload record

Runs go one after another, never in parallel, each for `run_seconds` from
BENCHMARK.json. A spread at or above a third of its bound is flagged WIDE;
one above the bound itself is flagged OVER and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        record = json.loads(proc.stdout.splitlines()[-2])["run_record"]
        print(f"seed {seed}: digest {record['digest_sha256'][:16]} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = False
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        flag = "OVER" if spread > bound else "WIDE" if spread >= bound / 3 else "ok"
        over |= flag == "OVER"
        print(f"{name:14s} median {median:.5g}  spread {spread:.4f}  bound {bound}  {flag}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
