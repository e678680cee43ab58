"""Runs one benchmark operation in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json`` from the checkout root.  The
job names the CLI argv, where the result goes and whether to trace.  The
worker imports ``modradical`` from ``src/`` of the checkout, times
``modradical.cli.main(argv)``, and then, outside the timed region, replays
the output's witnesses against the library.  The result JSON holds the clock
reading and the process CPU time when the imports returned, the op's wall
and CPU time, ``ru_maxrss`` at the end of the timed region, the trace summary
and any check failures.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import time


def _vectors(text: str) -> tuple:
    return tuple(tuple(int(c) for c in body.split(",")) if body else ()
                 for body in re.findall(r"\(([^()]*)\)", text))


def _codes(text: str) -> tuple:
    body = text.strip("[]")
    return tuple(int(c) for c in body.split(",")) if body else ()


def parse_structured(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def replay_checks(command: str, instance_path: str, report: dict) -> list[str]:
    """Re-derive false verdicts and the radical-trace fixpoint from the output."""
    if command != "radical-trace" and not command.startswith("check-"):
        return []
    from modradical.instance import parse_instance
    from modradical.modules import Submodule
    from modradical.predicates import PredicateWitness, is_semiprime_submodule

    with open(instance_path, encoding="utf-8") as fh:
        inst = parse_instance(fh.read())
    M = inst.module
    failures = []
    if command == "radical-trace":
        members = frozenset(M.index_of(v) for v in _vectors(report["fixpoint.members"]))
        if not is_semiprime_submodule(Submodule(M, members, ())).holds:
            failures.append("radical-trace fixpoint is not semiprime")
    elif report.get("holds") == "false" and report.get("witness") != "none":
        w = PredicateWitness(
            kind=report["witness.kind"], submodule=inst.submodules["N"],
            r=int(report["witness.r"]) if "witness.r" in report else None,
            m=_vectors(report["witness.m"])[0],
            colon_members=(_codes(report["witness.colon"])
                           if "witness.colon" in report else None),
            product_members=(_vectors(report["witness.product"])
                             if "witness.product" in report else None),
            scaled_members=(_vectors(report["witness.scaled_module"])
                            if "witness.scaled_module" in report else None))
        if not w.replays():
            failures.append(f"{command} witness does not replay")
    return failures


def main(job_path: str) -> None:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import modradical
    import modradical.cli
    ready = time.monotonic()
    setup_cpu = time.process_time()
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if not os.path.abspath(modradical.__file__).startswith(src + os.sep):
        raise SystemExit(f"modradical imported from {modradical.__file__}, not {src}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer(job["op_id"])
        tracer.install()
    c0, t0 = time.process_time(), time.perf_counter()
    code = modradical.cli.main(job["argv"])
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "setup_cpu_s": setup_cpu, "wall_s": wall, "cpu_s": cpu,
              "exit": code, "rss_kb": rss_kb, "failures": []}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(job["spans"])
        result["trace"] = tracer.summary()
    if code == 0:
        with open(job["out"], encoding="utf-8") as fh:
            report = parse_structured(fh.read())
        result["failures"] = replay_checks(job["command"], job["input"], report)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
