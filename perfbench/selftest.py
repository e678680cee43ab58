"""Self-test of the benchmark's traced run.

Run from the checkout root::

    python3 perfbench/selftest.py --workload lattice-full --seed 0

It checks that ``BENCHMARK.json`` names exactly the metrics and units the
benchmark reports, runs the traced workload twice at one seed, and requires every
count (span calls, claim units and the extra counts) to repeat exactly.  It
also reports whether the predicted bypasses read zero: quotient and claim
spans on scan-large and lattice-full, lattice spans on scan-large.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
from run import E2E_UNITS

HERE = Path(__file__).resolve().parent

BYPASSES = {
    "scan-large": ("modules.quotient_module.", "harness.claim.",
                   "modules.enumerate_submodules.", "radical.prime_submodules.",
                   "radical.smallest_semiprime_over.", "predicates.compare_notions."),
    "lattice-full": ("modules.quotient_module.", "harness.claim."),
}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=400)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"traced run failed: {proc.stdout.splitlines()[-2][:2000]}")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="lattice-full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    problems = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != tracing.metric_names():
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_names()")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")

    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    counted = [n for n, unit in tracing.metric_names() if unit != "s"]
    for name in counted:
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"{name}: {first[name]['value']} then {second[name]['value']}")
    print(f"{len(counted)} counts compared across two traced runs")

    for name, m in first.items():
        if name.startswith(BYPASSES.get(args.workload, ())) and m["value"]:
            print(f"predicted bypass is not zero: {name} = {m['value']}")
    overhead = first["trace.overhead_s"]["value"]
    print(f"tracing overhead on {args.workload}: {overhead:.3f} s per pass")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
