"""The modradical benchmark: seeded CLI workloads, checked outputs, named metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan-large --seed 0 --seconds 40 --trace 0

Workloads (closed loop, one client, one operation in flight):

* ``verify-corpus``: one ``verify`` over the default corpus plus the seeded
  ``random`` relation strategy; many tiny modules, full lattices, quotients.
* ``scan-large``: element scans (``radical-trace`` and the four ``check-*``
  commands) on free modules of 1024 to 65536 elements; no lattice.
* ``lattice-full``: ``radical``, ``primes`` and ``compare`` on modules with
  lattices of hundreds to thousands of submodules; no quotients.

Each operation runs ``modradical.cli.main(argv)`` in a fresh interpreter
(``worker.py``), so every operation pays cold caches as a CLI call does.  A
pass runs the workload's operations once, in order; passes repeat until the
next one would end after ``--seconds``.  Outputs are checked after each
operation, outside its timed region; a failed check, a non-zero exit or an
operation over its time cap stops the run, which then fails and exits 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``cpu_s``: sum over the operations of the median, over passes, of the
  process CPU time of ``cli.main`` inside the worker;
* ``setup_s``: the same sum and median for worker set-up, the process CPU
  time from interpreter start until ``import modradical`` returns;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any worker.

Times are CPU times because this program is single-threaded and CPU-bound,
so its CPU time is what a caller waits for on an idle machine, while on a
shared virtual machine the wall time also counts the time the hypervisor
gives the CPU to other guests (steal time, which a guest kernel with
steal-time accounting leaves out of process CPU time).  The wall-time versions (``wall_s``, ``setup_wall_s``
from spawn to import) are in the details line.

With ``--trace 1`` each operation runs untraced and then traced; the line
reports per-layer calls, inclusive and self seconds (wall clock inside the
worker) and counts, as medians over passes, and ``trace.overhead_s``, the
traced minus the untraced CPU time summed over the operations.  The line
before it holds the run's details: the command split of ``cpu_s``,
``failed_frac``, work sizes, the host-noise calibration, the stamp and every
failure.  ``.perfbench/<workload>/`` keeps the run's inputs, outputs, spans
and details until the next run of that workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from worker import parse_structured

HERE = Path(__file__).resolve().parent
OP_CAP_S = 60.0          # one operation over this is killed and counted as a timeout
RUN_BUDGET_S = 165.0     # no operation may run past this point of the run
CALIBRATION_ITERS = 2_000_000

E2E_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

COMMAND_SPLIT = {
    "check_s": ("check-semiprime", "check-prime", "check-dauns", "check-cimpric"),
    "trace_s": ("radical-trace",),
    "radical_s": ("radical",),
    "listing_s": ("primes", "compare"),
}


def calibrate() -> float:
    """Seconds for a fixed CPU-bound loop; recorded as host noise, never applied."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i * i % 7
    return time.perf_counter() - t0


def stamp(root: Path, seed: int) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((root / "src" / "modradical").glob("*.py")))
    return {"commit": _commit(root), "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():    # a plain checkout; git would search its parents
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Runs the passes of one workload and checks every output."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.trace = trace
        self.ops = workloads.WORKLOADS[workload](seed)
        self.dir = root / ".perfbench" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for op in self.ops:
            (self.dir / op.input_name).write_text(op.input_text, encoding="utf-8")
        pins = json.loads((HERE / "digests.json").read_text())
        # Seed-0 outputs are pinned per workload; a workload left out of the file
        # is unpinned, and its digests in the details line are the ones to pin.
        self.pinned = pins.get(workload) if seed == 0 else None
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.started = time.monotonic()

    def run_op(self, op: workloads.Op, pass_no: int, traced: bool) -> dict:
        tag = f"{op.op_id}.{pass_no}" + (".traced" if traced else "")
        out = self.dir / f"{op.op_id}.out"
        path = str(self.dir / op.input_name)
        argv = [a.replace("{input}", path) for a in op.argv] + ["--out", str(out)]
        job = {"op_id": op.op_id, "command": op.command, "argv": argv, "out": str(out),
               "input": path, "trace": traced, "result": str(self.dir / f"{tag}.result.json"),
               "spans": str(self.dir / f"{tag}.spans")}
        job_path = self.dir / f"{tag}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        out.unlink(missing_ok=True)
        cap = min(OP_CAP_S, RUN_BUDGET_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                cwd=self.root, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(cap, 1.0))
        except subprocess.TimeoutExpired:
            return self._fail(op, f"timeout after {cap:.1f} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            return self._fail(op, f"worker exited {proc.returncode}: {tail}")
        result = json.loads(Path(job["result"]).read_text())
        result["setup_wall_s"] = result["ready"] - spawned
        problems = list(result["failures"])
        if result["exit"] != 0:
            problems.append(f"cli exit status {result['exit']}")
        else:
            problems += self.check_output(op, out.read_bytes())
        for p in problems:
            self.failures.append(f"{op.op_id}: {p}")
        result["ok"] = not problems
        return result

    def _fail(self, op, reason: str) -> dict:
        self.failures.append(f"{op.op_id}: {reason}")
        return {"ok": False}

    def check_output(self, op: workloads.Op, data: bytes) -> list[str]:
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(op.op_id, digest)
        if digest != first:
            problems.append("output differs between passes")
        if self.pinned is not None and self.pinned.get(op.op_id) != digest:
            problems.append(f"output digest {digest[:12]} differs from the pinned one")
        if op.golden is not None:
            golden = (self.root / "tests" / "golden" / op.golden).read_bytes()
            if data != golden:
                problems.append(f"output differs from tests/golden/{op.golden}")
        report = parse_structured(data.decode())
        if op.command == "verify":
            if report.get("ok") != "true" or report.get("counterexamples") != "0":
                problems.append("verify reports counterexamples")
            claims = {k.split(".")[1] for k in report if k.startswith("claims.")}
            for cid in claims:
                if report[f"claims.{cid}.checked"] != report[f"claims.{cid}.passed"]:
                    problems.append(f"claim {cid}: checked != passed")
            if len(claims) != len(tracing.CLAIM_CHECKERS):
                problems.append(f"verify reports {len(claims)} claims")
        elif op.command == "radical" and report.get("agree") != "true":
            problems.append("radical methods disagree")
        elif op.command == "compare" and report.get("contradictions") != "0":
            problems.append("compare reports contradictions")
        elif op.command == "primes":
            listed = {k.split(".")[1] for k in report if k.startswith("primes.")}
            if str(len(listed)) != report.get("count"):
                problems.append("primes count does not match the listing")
        return problems

    def run(self, seconds: float) -> list[dict]:
        """Passes until the next would end after ``seconds``.

        When tracing, each operation runs untraced and then traced, so the
        tracing overhead is taken from adjacent runs of the same operation.
        """
        passes: list[dict] = []
        longest = 0.0
        while True:
            t0 = time.monotonic()
            p = {"results": [], "traced": []}
            for op in self.ops:
                p["results"].append(self.run_op(op, len(passes), False))
                if self.trace and not self.failures:
                    p["traced"].append(self.run_op(op, len(passes), True))
                if self.failures:
                    return passes + [p]
            passes.append(p)
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - self.started
            if elapsed + longest > seconds or elapsed >= RUN_BUDGET_S:
                return passes


def end_to_end(ops, passes) -> tuple[dict, dict]:
    untraced = [p["results"] for p in passes]

    def per_op(key):
        return {op.op_id: statistics.median(rs[i][key] for rs in untraced)
                for i, op in enumerate(ops)}

    cpus, walls = per_op("cpu_s"), per_op("wall_s")
    metrics = {
        "cpu_s": sum(cpus.values()),
        "setup_s": sum(per_op("setup_cpu_s").values()),
        "peak_rss_mb": max(r["rss_kb"] for rs in untraced for r in rs) / 1024,
    }
    split = {name: sum(cpus[op.op_id] for op in ops if op.command in commands)
             for name, commands in COMMAND_SPLIT.items()}
    return metrics, {"wall_s": sum(walls.values()),
                     "setup_wall_s": sum(per_op("setup_wall_s").values()),
                     "split_cpu_s": split, "op_cpu_s": cpus, "op_wall_s": walls}


def per_layer(ops, passes) -> tuple[dict, dict]:
    traced = [p["traced"] for p in passes]
    layer = [tracing.layer_metrics([r["trace"] for r in rs]) for rs in traced]
    metrics = {}
    for name, _ in tracing.metric_names():
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m, _ in layer]
        metrics[name] = None if values[0] is None else statistics.median(values)

    def signature(rs):
        return [(r["trace"]["counts"], {n: row[0] for n, row in r["trace"]["per_name"].items()})
                for r in rs]

    metrics["trace.overhead_s"] = sum(
        statistics.median(p["traced"][i]["cpu_s"] - p["results"][i]["cpu_s"]
                          for p in passes)
        for i in range(len(ops)))
    details = {"missing": layer[0][1],
               "counts_repeat": all(signature(rs) == signature(traced[0]) for rs in traced),
               "spans": sum(r["trace"]["spans"] for r in traced[0])}
    return metrics, details


def work_size(runner: Runner, passes) -> dict:
    ops = runner.ops
    size = {"ops_per_pass": len(ops), "passes": len(passes),
            "module_sizes": sorted({op.module_size for op in ops if op.module_size})}
    if any(op.command == "verify" for op in ops):
        report = parse_structured((runner.dir / "verify.out").read_text())
        size["instances"] = int(report["instances"])
        size["submodules"] = int(report["submodules"])
    return size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "modradical" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/modradical", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    calib_start = calibrate()
    runner = Runner(root, args.workload, args.seed, bool(args.trace))
    passes = runner.run(args.seconds)
    calib_end = calibrate()

    results = [r for p in passes for r in p["results"] + p["traced"]]
    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    details = {"workload": args.workload, "stamp": stamp(root, args.seed),
               "calibration_s": {"start": calib_start, "end": calib_end},
               "failed_frac": failed / attempted, "failures": runner.failures,
               "digests": runner.digests}
    metrics: dict = {}
    if not failed:
        details["work"] = work_size(runner, passes)
        e2e, more = end_to_end(runner.ops, passes)
        details.update(more)
        if args.trace:
            metrics, trace_details = per_layer(runner.ops, passes)
            details["trace"] = trace_details
            details["end_to_end"] = e2e
            if not trace_details["counts_repeat"]:
                runner.failures.append("traced counts differ between passes")
        else:
            metrics = e2e
    units = dict(tracing.metric_names()) if args.trace else E2E_UNITS
    correct = not runner.failures
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (runner.dir / "details.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(details))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
