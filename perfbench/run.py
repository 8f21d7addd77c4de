"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload tiny_threads --seed 1 --seconds 32 --trace 0

Run from the repository root.  Human-readable lines come first (the host
fingerprint, resolved knobs, sample counts, error rate); the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: How long a child gets to end after SIGTERM before it is killed.
STOP_GRACE_S = 5.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Worker processes the executors start import the package too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )

    import harness
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        names = ", ".join(sorted(workloads.WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r} (have: {names})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    run = harness.Run(wl, args.seed, args.seconds, bool(args.trace))
    run.run()

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": harness.fingerprint(ROOT),
        "notes": run.notes,
        "errors": run.errors,
    }
    for key, value in record["fingerprint"].items():
        print(f"# host.{key} = {value}")
    for key, value in sorted(run.notes.items()):
        print(f"# {key} = {value}")
    for err in run.errors:
        print(f"# error: {err}")

    # Exactly the metrics BENCHMARK.json declares for this mode, in order.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    missing = []
    for spec in names:
        name = spec["name"]
        value, unit = run.metrics.get(name, (None, spec["unit"]))
        if value is None or not math.isfinite(value):
            missing.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    if missing:
        print(f"# not measured: {', '.join(missing)}")
    undeclared = sorted(set(run.metrics) - {spec["name"] for spec in names})
    if undeclared:
        print(f"# measured but not declared: {', '.join(undeclared)}")
    record["metrics"] = metrics
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(harness.OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    correct = run.failed == 0 and not run.errors and not missing
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue  # ended while we looked
        # The command name may hold spaces; the fields after it do not.
        if int(stat[stat.rindex(b")") + 2 :].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The first shared-memory segment (the auto codec's calibration probe
    makes one in every run) starts multiprocessing's resource tracker,
    which by design outlives its parent; it is stopped first, the way it
    expects.  Anything else still a child gets SIGTERM, then SIGKILL."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - fall through to the generic reaper
        pass
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + STOP_GRACE_S
    while pids:
        for pid in list(pids):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pids.remove(pid)
        if pids and time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            break
        if pids:
            time.sleep(0.05)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
