"""Run one workload over several seeds and report each metric's spread.

Run from the checkout root::

    python3 perfbench/spread.py --workload scan-large --seeds 10 --first-seed 100

For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  ``--json`` also writes the values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="write the values to this file")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=400)
        lines = proc.stdout.splitlines()
        result, details = json.loads(lines[-1]), json.loads(lines[-2])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed: {details['failures']}")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in
                                               result["metrics"].items()},
                     "calibration_s": details["calibration_s"],
                     "passes": details["work"]["passes"]})
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bounds[name]}
        print(f"{name}: median {median:.4f} quartiles {q1:.4f}..{q3:.4f} "
              f"spread {(q3 - q1) / median:.3f} (bound {bounds[name]})")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
