"""Command-line interface: parse an instance file, run a command, emit a report.

Exit status: 0 when the computation succeeded (and, for ``verify``, every
claim passed), 1 when ``verify`` found counterexamples, the methods of
``radical`` disagree or a ``compare`` row contradicts a certified theorem,
2 on input errors (malformed files, unknown names, exceeded bounds).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    CorpusSpec,
    DEFAULT_CORPUS_SPEC,
    VerificationReport,
    verify_all,
)
from .instance import (
    InstanceFile,
    ParseError,
    format_module,
    format_vec,
    format_vec_list,
    parse_instance,
)
from .modules import (
    BoundExceededError,
    DEFAULT_ELEMENT_BOUND,
    DEFAULT_LATTICE_BOUND,
    ModulePresentation,
    Submodule,
)
from .predicates import (
    NotionRow,
    Verdict,
    compare_notions,
    is_cimpric_semiprime,
    is_dauns_semiprime,
    is_prime_submodule,
    is_semiprime_submodule,
)
from .radical import (
    prime_submodules,
    radical_by_iteration,
    radical_by_primes,
    smallest_semiprime_over,
)
from .report import render_structured
from .rings import RingConstructionError

CHECK_COMMANDS = {
    "check-semiprime": is_semiprime_submodule,
    "check-prime": is_prime_submodule,
    "check-dauns": is_dauns_semiprime,
    "check-cimpric": is_cimpric_semiprime,
}


def _context(inst: InstanceFile) -> dict:
    return {"ring": inst.ring.descriptor,
            "module": format_module(inst.module.rank, inst.relations)}


def _named_submodule(inst: InstanceFile, name: str):
    sub = inst.submodules.get(name)
    if sub is None:
        known = ", ".join(inst.submodules) or "none declared"
        raise ValueError(f"unknown submodule {name!r} (known: {known})")
    return sub


class _Texts(dict):
    """``texts[i]`` is the text of the element at index ``i`` of one module,
    formatted on its first use, so a listing that repeats an element formats
    it once and nothing unprinted is formatted."""

    def __init__(self, module: ModulePresentation):
        super().__init__()
        self.elements = module.elements

    def __missing__(self, i: int) -> str:
        self[i] = text = format_vec(self.elements[i])
        return text

    def listing(self, indices) -> str:
        """``format_vec_list`` of the elements at ``indices``, in that order."""
        return "[" + ",".join(map(self.__getitem__, indices)) + "]"

    def members(self, N: Submodule) -> str:
        return self.listing(sorted(N.member_indices))


def _witness_data(verdict: Verdict) -> dict | str:
    w = verdict.witness
    if w is None:
        return "none"
    data: dict = {"kind": w.kind}
    if w.r is not None:
        data["r"] = w.r
    if w.m is not None:
        data["m"] = format_vec(w.m)
    if w.colon_members is not None:
        data["colon"] = "[" + ",".join(map(str, w.colon_members)) + "]"
    if w.product_members is not None:
        data["product"] = format_vec_list(w.product_members)
    if w.scaled_members is not None:
        data["scaled_module"] = format_vec_list(w.scaled_members)
    return data


# -- command implementations -------------------------------------------------------


def _run_check(inst: InstanceFile, command: str, flags: argparse.Namespace) -> dict:
    N = _named_submodule(inst, flags.name)
    verdict = CHECK_COMMANDS[command](N)
    return {
        "command": command,
        **_context(inst),
        "name": flags.name,
        "members": format_vec_list(N.members),
        "holds": verdict.holds,
        "witness": _witness_data(verdict),
    }


def _row_data(row: NotionRow, texts: _Texts) -> dict:
    data = {
        "members": texts.members(row.submodule),
        "prime": row.prime,
        "semiprime": row.semiprime,
        "dauns": row.dauns,
        "flags": list(row.flags),
    }
    if row.cimpric is not None:
        data["cimpric"] = row.cimpric
    return data


def _run_compare(inst: InstanceFile, flags: argparse.Namespace) -> dict:
    rows = compare_notions(inst.module, flags.lattice_bound)
    texts = _Texts(inst.module)
    return {
        "command": "compare",
        **_context(inst),
        "rows": [_row_data(r, texts) for r in rows],
        "contradictions": sum("CONTRADICTS-THEOREM" in r.flags for r in rows),
        # squares condition <=> semiprime over finite rings (PROP-COLON-SEMIPRIME)
        "separations": 0,
    }


def _run_radical(inst: InstanceFile, flags: argparse.Namespace) -> tuple[dict, int]:
    N = _named_submodule(inst, flags.name)
    by_primes = radical_by_primes(N, flags.lattice_bound)
    by_iteration, _ = radical_by_iteration(N)
    smallest = smallest_semiprime_over(N, flags.lattice_bound)
    agree = (by_primes.member_indices == by_iteration.member_indices
             == smallest.member_indices)
    texts = _Texts(inst.module)
    data = {
        "command": "radical",
        **_context(inst),
        "name": flags.name,
        "members": texts.members(by_primes),
        "methods": {
            "primes": texts.members(by_primes),
            "iteration": texts.members(by_iteration),
            "smallest_semiprime": texts.members(smallest),
        },
        "agree": agree,
    }
    return data, (0 if agree else 1)


def _run_radical_trace(inst: InstanceFile, flags: argparse.Namespace) -> dict:
    N = _named_submodule(inst, flags.name)
    _, trace = radical_by_iteration(N)
    texts = _Texts(inst.module)
    steps = []
    products: dict[int, str] = {}   # witnesses share product tuples; format each once
    prev = N
    for k, step in enumerate(trace.steps, start=1):
        witnesses = []
        for w in step.witnesses:
            product = products.get(id(w.product_members))
            if product is None:
                product = products[id(w.product_members)] = format_vec_list(w.product_members)
            witnesses.append({
                "m": format_vec(w.m),
                "colon": "[" + ",".join(map(str, w.colon_members)) + "]",
                "product": product,
            })
        members = step.submodule.member_indices
        steps.append({
            "index": k,
            "members": texts.listing(sorted(members)),
            "new": texts.listing(sorted(members - prev.member_indices)),
            "witnesses": witnesses if witnesses else "none",
        })
        prev = step.submodule
    return {
        "command": "radical-trace",
        **_context(inst),
        "name": flags.name,
        "start": texts.members(N),
        "steps": steps,
        "fixpoint": {
            "index": len(trace.steps),
            "members": texts.members(trace.fixpoint),
        },
    }


def _run_primes(inst: InstanceFile, flags: argparse.Namespace) -> dict:
    primes = prime_submodules(inst.module, flags.lattice_bound)
    texts = _Texts(inst.module)
    return {
        "command": "primes",
        **_context(inst),
        "count": len(primes),
        "primes": [{"members": texts.members(P),
                    "generators": texts.listing(P.generator_indices)} for P in primes],
    }


def _spec_data(spec: CorpusSpec) -> dict:
    return {
        "rings": list(spec.rings),
        "max_rank": spec.max_rank,
        "strategies": list(spec.relation_strategies),
        "element_bound": spec.element_bound,
        "lattice_bound": spec.lattice_bound,
        "seed": spec.seed,
    }


def verify_report_data(report: VerificationReport, include_timing: bool = False) -> dict:
    data: dict = {
        "command": "verify",
        "spec": _spec_data(report.spec),
        "instances": report.instances,
        "submodules": report.submodules,
        "claims": {
            c.claim_id: {"checked": c.checked, "passed": c.passed,
                         "failed": c.failed, "skipped": c.skipped}
            for c in report.claims
        },
        "counterexamples": len(report.findings),
        "findings": [{"claim": f.claim_id, "instance": f.instance_text,
                      "detail": f.detail} for f in report.findings],
        "ok": report.ok,
    }
    if include_timing:
        data["wall_time_seconds"] = f"{report.wall_time:.3f}"
    return data


def _run_verify(flags: argparse.Namespace) -> tuple[dict, int]:
    from .harness import parse_corpus_spec
    if flags.spec is not None:
        spec = parse_corpus_spec(Path(flags.spec).read_text(encoding="utf-8"))
    else:
        spec = DEFAULT_CORPUS_SPEC
    if flags.seed is not None:
        spec = replace(spec, seed=flags.seed)
    report = verify_all(spec)
    data = verify_report_data(report, include_timing=flags.format == "text")
    return data, (0 if report.ok else 1)


def run_command(instance: InstanceFile | None, command: str,
                flags: argparse.Namespace) -> tuple[dict, int]:
    """Dispatch one command against a parsed instance; returns (report, exit code)."""
    if command == "verify":
        return _run_verify(flags)
    if instance is None:
        raise ValueError(f"{command} needs an instance file")
    if command in CHECK_COMMANDS:
        return _run_check(instance, command, flags), 0
    if command == "compare":
        data = _run_compare(instance, flags)
        return data, (1 if data["contradictions"] else 0)
    if command == "radical":
        return _run_radical(instance, flags)
    if command == "radical-trace":
        return _run_radical_trace(instance, flags), 0
    if command == "primes":
        return _run_primes(instance, flags), 0
    raise ValueError(f"unknown command {command!r}")


# -- text rendering ------------------------------------------------------------------


def render_text(data: dict) -> str:
    command = data.get("command", "?")
    lines = [f"{command}: ring {data['ring']}, module {data['module']}"
             if "ring" in data else f"{command}"]
    if command in CHECK_COMMANDS:
        verdict = "holds" if data["holds"] else "FAILS"
        lines.append(f"submodule {data['name']} = {data['members']}")
        lines.append(f"verdict: {verdict}")
        if data["witness"] != "none":
            w = data["witness"]
            parts = [f"{k}={v}" for k, v in w.items()]
            lines.append("witness: " + ", ".join(parts))
    elif command == "compare":
        for i, row in enumerate(data["rows"], 1):
            cim = f" cimpric={_yn(row['cimpric'])}" if "cimpric" in row else ""
            flags = f"  {' '.join(row['flags'])}" if row["flags"] else ""
            lines.append(
                f"row {i}: {row['members']}  prime={_yn(row['prime'])} "
                f"semiprime={_yn(row['semiprime'])} dauns={_yn(row['dauns'])}"
                f"{cim}{flags}")
        lines.append(f"contradictions: {data['contradictions']}, "
                     f"separations: {data['separations']}")
    elif command == "radical":
        lines.append(f"radical of {data['name']}: {data['members']}")
        m = data["methods"]
        lines.append(f"  by primes:             {m['primes']}")
        lines.append(f"  by iteration:          {m['iteration']}")
        lines.append(f"  smallest semiprime:    {m['smallest_semiprime']}")
        lines.append(f"methods agree: {_yn(data['agree'])}")
    elif command == "radical-trace":
        lines.append(f"start {data['name']} = {data['start']}")
        for step in data["steps"]:
            lines.append(f"step {step['index']}: members {step['members']}")
            lines.append(f"  new: {step['new']}")
            if step["witnesses"] != "none":
                for w in step["witnesses"]:
                    lines.append(f"  qualifier m={w['m']}: colon {w['colon']}, "
                                 f"colon*M {w['product']}")
        fp = data["fixpoint"]
        lines.append(f"fixpoint at index {fp['index']}: {fp['members']}")
    elif command == "primes":
        lines.append(f"prime submodules: {data['count']}")
        for i, p in enumerate(data["primes"], 1):
            lines.append(f"  {i}: {p['members']} (generated by {p['generators']})")
    elif command == "verify":
        s = data["spec"]
        lines.append(f"corpus: rings={', '.join(s['rings'])}")
        lines.append(f"        max_rank={s['max_rank']} "
                     f"strategies={', '.join(s['strategies'])} "
                     f"element_bound={s['element_bound']} "
                     f"lattice_bound={s['lattice_bound']} seed={s['seed']}")
        lines.append(f"instances: {data['instances']}, submodules: {data['submodules']}")
        for cid, c in sorted(data["claims"].items()):
            lines.append(f"  {cid}: checked={c['checked']} passed={c['passed']} "
                         f"failed={c['failed']} skipped={c['skipped']}")
        lines.append(f"counterexamples: {data['counterexamples']}")
        for f in data["findings"]:
            lines.append(f"FINDING [{f['claim']}]: {f['detail']}")
            lines.extend("    " + ln for ln in f["instance"].splitlines())
        if "wall_time_seconds" in data:
            lines.append(f"wall time: {data['wall_time_seconds']}s")
        lines.append("result: " + ("all claims pass" if data["ok"] else "FAILURES FOUND"))
    return "\n".join(lines) + "\n"


def _yn(b: bool) -> str:
    return "yes" if b else "no"


# -- argparse wiring -----------------------------------------------------------------


def _at_least(least: int):
    """An argparse type: an int no smaller than ``least``, as in a corpus spec."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its message for a non-integer
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modradical",
        description="Semiprime submodules and radicals over finite commutative rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_name=False, with_file=True, with_lattice=False):
        if with_file:
            p.add_argument("file", help="instance file")
        if with_name:
            p.add_argument("name", help="declared submodule name")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")
        if with_file:  # verify takes its bounds from the corpus spec
            p.add_argument("--element-bound", type=_at_least(1), default=DEFAULT_ELEMENT_BOUND,
                           help="max ambient vectors enumerated per module")
        if with_lattice:  # only these commands enumerate a submodule lattice
            p.add_argument("--lattice-bound", type=_at_least(0), default=DEFAULT_LATTICE_BOUND,
                           help="max module size for submodule-lattice enumeration")

    for cmd in CHECK_COMMANDS:
        common(sub.add_parser(cmd, help=f"decide {cmd.removeprefix('check-')}"),
               with_name=True)
    common(sub.add_parser("compare", help="predicate table over all submodules"),
           with_lattice=True)
    common(sub.add_parser("radical", help="radical by all three methods"),
           with_name=True, with_lattice=True)
    common(sub.add_parser("radical-trace", help="iterated radical with trace"),
           with_name=True)
    common(sub.add_parser("primes", help="list the prime submodules"), with_lattice=True)
    verify = sub.add_parser("verify", help="certify all claims over a corpus")
    common(verify, with_file=False)
    verify.add_argument("--spec", default=None, help="corpus spec file (default corpus if omitted)")
    verify.add_argument("--seed", type=int, default=None, help="override the corpus seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        instance = None
        if "file" in args:  # every command but verify reads an instance file
            text = Path(args.file).read_text(encoding="utf-8")
            instance = parse_instance(text, args.element_bound)
        data, code = run_command(instance, args.command, args)
        rendered = render_structured(data) if args.format == "structured" else render_text(data)
        if args.out is not None:
            Path(args.out).write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    except (ParseError, BoundExceededError, RingConstructionError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
