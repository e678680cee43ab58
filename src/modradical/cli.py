"""Command-line interface: parse an instance file, run a command, emit a report.

Exit status: 0 when the computation succeeded (and, for ``verify``, every
claim passed), 1 when ``verify`` found counterexamples, the methods of
``radical`` disagree or a ``compare`` row contradicts a certified theorem,
2 on input errors (malformed files, unknown names, exceeded bounds).
"""

from __future__ import annotations

import gc
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

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


def _run_check(inst: InstanceFile, flags: SimpleNamespace, command: str) -> tuple[dict, int]:
    N = _named_submodule(inst, flags.name)
    verdict = CHECK_COMMANDS[command](N)
    return {
        "members": format_vec_list(N.members),
        "holds": verdict.holds,
        "witness": _witness_data(verdict),
    }, 0


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


def _run_compare(inst: InstanceFile, flags: SimpleNamespace) -> tuple[dict, int]:
    rows = compare_notions(inst.module, flags.lattice_bound)
    texts = _Texts(inst.module)
    contradictions = sum("CONTRADICTS-THEOREM" in r.flags for r in rows)
    return {
        "rows": [_row_data(r, texts) for r in rows],
        "contradictions": contradictions,
        # squares condition <=> semiprime over finite rings (PROP-COLON-SEMIPRIME)
        "separations": 0,
    }, (1 if contradictions else 0)


def _run_radical(inst: InstanceFile, flags: SimpleNamespace) -> tuple[dict, int]:
    N = _named_submodule(inst, flags.name)
    by_primes = radical_by_primes(N, flags.lattice_bound)
    by_iteration, _ = radical_by_iteration(N)
    smallest = smallest_semiprime_over(N, flags.lattice_bound)
    agree = (by_primes.member_indices == by_iteration.member_indices
             == smallest.member_indices)
    texts = _Texts(inst.module)
    return {
        "members": texts.members(by_primes),
        "methods": {
            "primes": texts.members(by_primes),
            "iteration": texts.members(by_iteration),
            "smallest_semiprime": texts.members(smallest),
        },
        "agree": agree,
    }, (0 if agree else 1)


def _run_radical_trace(inst: InstanceFile, flags: SimpleNamespace) -> tuple[dict, int]:
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
        "start": texts.members(N),
        "steps": steps,
        "fixpoint": {
            "index": len(trace.steps),
            "members": texts.members(trace.fixpoint),
        },
    }, 0


def _run_primes(inst: InstanceFile, flags: SimpleNamespace) -> tuple[dict, int]:
    primes = prime_submodules(inst.module, flags.lattice_bound)
    texts = _Texts(inst.module)
    return {
        "count": len(primes),
        "primes": [{"members": texts.members(P),
                    "generators": texts.listing(P.generator_indices)} for P in primes],
    }, 0


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


def _run_verify(_: None, flags: SimpleNamespace) -> tuple[dict, int]:
    from .harness import parse_corpus_spec
    if flags.spec is not None:
        spec = parse_corpus_spec(Path(flags.spec).read_text(encoding="utf-8"))
    else:
        spec = DEFAULT_CORPUS_SPEC
    if flags.seed is not None:
        spec = spec._replace(seed=flags.seed)
    report = verify_all(spec)
    data = verify_report_data(report, include_timing=flags.format == "text")
    return data, (0 if report.ok else 1)


# -- command table -------------------------------------------------------------------


class Flag(NamedTuple):
    """One flag of ``FLAGS``: how it is shown, read, defaulted and range-checked."""

    metavar: str               # "a|b" lists the values the flag accepts
    type: type                 # int or str
    default: object
    help: str
    least: int | None = None   # an int flag's smallest value, as in a corpus spec


FLAGS = {
    "--format": Flag("text|structured", str, "text", "report format (default text)"),
    "--out": Flag("PATH", str, None, "write the report to this path, not to stdout"),
    "--element-bound": Flag("N", int, DEFAULT_ELEMENT_BOUND, "max ambient vectors "
                            f"enumerated per module (default {DEFAULT_ELEMENT_BOUND})", 1),
    "--lattice-bound": Flag("N", int, DEFAULT_LATTICE_BOUND, "max module size for lattice "
                            f"enumeration (default {DEFAULT_LATTICE_BOUND})", 0),
    "--spec": Flag("FILE", str, None, "corpus spec file (default corpus if omitted)"),
    "--seed": Flag("K", int, None, "override the corpus seed"),
}
ARGS = {"file": "instance file", "name": "declared submodule name"}


class Command(NamedTuple):
    """One command of ``COMMANDS``: what it takes, what runs it and its help line."""

    args: tuple[str, ...]    # positionals, keys of ARGS
    flags: tuple[str, ...]   # keys of FLAGS
    # the report less the header that run_command stamps, and the exit code
    run: Callable[[InstanceFile | None, SimpleNamespace], tuple[dict, int]]
    help: str


# verify takes its bounds from the corpus spec, and only compare, radical and
# primes enumerate a submodule lattice
_REPORT = ("--format", "--out")
_SCAN = (*_REPORT, "--element-bound")
_LATTICE = (*_SCAN, "--lattice-bound")
COMMANDS = {
    **{cmd: Command(("file", "name"), _SCAN, partial(_run_check, command=cmd),
                    f"decide {cmd.removeprefix('check-')}") for cmd in CHECK_COMMANDS},
    "compare": Command(("file",), _LATTICE, _run_compare, "predicate table over all submodules"),
    "radical": Command(("file", "name"), _LATTICE, _run_radical, "radical by all three methods"),
    "radical-trace": Command(("file", "name"), _SCAN, _run_radical_trace,
                             "iterated radical with trace"),
    "primes": Command(("file",), _LATTICE, _run_primes, "list the prime submodules"),
    "verify": Command((), (*_REPORT, "--spec", "--seed"), _run_verify,
                      "certify all claims over a corpus"),
}


def run_command(instance: InstanceFile | None, command: str,
                flags: SimpleNamespace) -> tuple[dict, int]:
    """Dispatch one command against a parsed instance; returns (report, exit code).

    The report's header is stamped here: ``command``, then ``ring`` and
    ``module`` for a command that reads a file and ``name`` for one that
    takes a submodule name.
    """
    entry = COMMANDS.get(command)
    if entry is None:
        raise ValueError(f"unknown command {command!r}")
    if instance is None and entry.args:
        raise ValueError(f"{command} needs an instance file")
    header = {"command": command}
    if "file" in entry.args:
        header.update(ring=instance.ring.descriptor,
                      module=format_module(instance.module.rank, instance.relations))
    if "name" in entry.args:
        header["name"] = flags.name
    report, code = entry.run(instance, flags)
    return {**header, **report}, code


# -- text rendering ------------------------------------------------------------------


def render_text(data: dict) -> str:
    command = data["command"]
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


# -- argument parsing ----------------------------------------------------------------


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: modradical COMMAND ARGS [--format text|structured] [--out PATH]"
    return " ".join(["usage: modradical", command, *map(str.upper, COMMANDS[command].args),
                     *(f"[{f} {FLAGS[f].metavar}]" for f in COMMANDS[command].flags)])


def _help(command: str | None) -> NoReturn:
    if command is None:
        head = ("Semiprime submodules and radicals over finite commutative rings.\n"
                "modradical COMMAND -h lists the arguments of COMMAND.")
        rows = [(name, entry.help) for name, entry in COMMANDS.items()]
    else:
        entry = COMMANDS[command]
        head = entry.help
        rows = [(a.upper(), ARGS[a]) for a in entry.args]
        rows += [(f"{f} {FLAGS[f].metavar}", FLAGS[f].help) for f in entry.flags]
    width = max(len(key) for key, _ in rows)
    sys.stdout.write("\n".join([_usage(command), head, "",
                                *(f"  {key:<{width}}  {text}" for key, text in rows)]) + "\n")
    raise SystemExit(0)


def _fail(command: str | None, message: str) -> NoReturn:
    prog = "modradical" if command is None else f"modradical {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_flag(token: str) -> bool:
    """Whether ``token`` names a flag; a negative number such as ``-1`` is a value."""
    return len(token) > 1 and token[0] == "-" and not token[1:].isdigit()


def _value(command: str, flag: str, text: str):
    spec = FLAGS[flag]
    choices = spec.metavar.split("|")
    if len(choices) > 1 and text not in choices:
        _fail(command, f"argument {flag}: invalid choice: {text!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
    try:
        value = spec.type(text)
    except ValueError:
        _fail(command, f"argument {flag}: invalid {spec.type.__name__} value: {text!r}")
    if spec.least is not None and value < spec.least:
        _fail(command, f"argument {flag}: must be at least {spec.least}, got {value}")
    return value


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its values from ``argv``, read against ``COMMANDS``.

    Flags are spelled in full, as ``--flag value`` or ``--flag=value``, and
    may stand before, between or after the positionals.
    """
    if argv[:1] in (["-h"], ["--help"]):
        _help(None)
    if not argv:
        _fail(None, "the following arguments are required: COMMAND")
    command, *rest = argv
    entry = COMMANDS.get(command)
    if entry is None:
        _fail(None, f"argument COMMAND: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    values = {f: FLAGS[f].default for f in entry.flags}
    positionals: list[str] = []
    unknown: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        flag, eq, text = token.partition("=")
        if token in ("-h", "--help"):
            _help(command)
        elif not _is_flag(token):
            positionals.append(token)
        elif flag not in values:
            unknown.append(token)
        else:
            if not eq:
                text = next(tokens, None)
                if text is None or _is_flag(text):
                    _fail(command, f"argument {flag}: expected one argument")
            values[flag] = _value(command, flag, text)
    if len(positionals) < len(entry.args):
        _fail(command, "the following arguments are required: "
                       + ", ".join(map(str.upper, entry.args[len(positionals):])))
    unknown += positionals[len(entry.args):]
    if unknown:
        _fail(command, "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(command=command, **dict(zip(entry.args, positionals)),
                           **{f[2:].replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # A command's objects form no reference cycles (tests/test_cli.py pins it),
    # so the cyclic collector would only re-traverse its enumerations: pause it
    # until the report is written, and resume it only if it ran before.
    collecting = gc.isenabled()
    gc.disable()
    try:
        instance = None
        if hasattr(args, "file"):  # every command but verify reads an instance file
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
    finally:
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
