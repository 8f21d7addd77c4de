"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads tiny_threads bulk_grid --seeds 10

Runs ``run.py`` once per seed for each workload (one after another, never
in parallel), then prints, per metric, the median, the inter-quartile
distance as a share of the median and that share against the metric's
bound in ``BENCHMARK.json``.  Exits 1 when a spread (``setup_s`` excepted)
exceeds its bound or a run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run {result}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = stats.relative_iqr(vals)
            bound = bounds[name]
            flag = "" if spread <= bound / 3 else (" >1/3 bound" if spread <= bound else " OVER")
            if spread > bound and name != "setup_s":
                ok = False
            print(
                f"  {name:16s} median {med:12.5g}  spread {spread:6.3f}  "
                f"bound {bound:.2f}{flag}  values {[round(v, 4) for v in vals]}"
            )
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
