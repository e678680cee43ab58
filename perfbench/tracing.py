"""Spans around the public functions of each ``modradical`` layer.

The benchmark wraps library functions from the outside: ``install`` replaces
every binding of each target (module globals, dict values such as the CLI's
command table, class attributes) with a wrapper that records one span per
call.  Spans are kept in flat arrays in the worker and written to disk when
it exits; per-name calls, inclusive time and self time are derived from them.

Per-element primitives (``add_i``, ``scale_i``, ``scaled_row``,
``index_of``, element operators) are not wrapped: they run millions of
times, so the wrapper would become the measurement.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

CLOCK = time.perf_counter

CLAIM_CHECKERS = {
    "PROP-COLON-SEMIPRIME": "_check_colon_semiprime",
    "PROP-FREE-EQUIV": "_check_free_equiv",
    "PROP-INTERSECTION": "_check_intersection",
    "PROP-PRIME-IMPLIES-SP": "_check_prime_implies_sp",
    "PROP-QUOTIENT-CORRESPONDENCE": "_check_quotient",
    "THM-ITERATION": "_check_iteration",
    "THM-RADICAL-EQ-SEMIPRIME": "_check_radical_eq",
}

CLI_COMMANDS = ("verify", "radical", "radical-trace", "check-semiprime", "check-prime",
                "check-dauns", "check-cimpric", "primes", "compare")

PREDICATES = ("is_semiprime_submodule", "is_prime_submodule",
              "is_dauns_semiprime", "is_cimpric_semiprime")


# -- extra counts, taken from a call's arguments and result -------------------------

def _count_len(key):
    def count(tracer, args, result):
        tracer.counts[key] += len(result)
    return count


def _count_false(key):
    def count(tracer, args, result):
        tracer.counts[key] += not result.holds
    return count


def _count_presentation(tracer, args, result):
    tracer.counts["modules.presentation.built"] += 1
    tracer.counts["modules.presentation.elements"] += args[0].element_count


def _count_returned(tracer, args, result):
    tracer.returned.add(id(result))   # interned presentations live until exit


def _count_expand(tracer, args, result):
    tracer.counts["harness.expand_corpus.instances"] += len(result)
    tracer.counts["harness.expand_corpus.submodules"] += sum(
        len(i.submodules) for i in result)


def _count_iteration(tracer, args, result):
    tracer.counts["radical.iteration.steps"] += len(result[1].steps)


# (span name, module, attribute path, extra-count hook, extra counts it feeds)
TARGETS = [
    ("rings.additive_closure", "rings", "additive_closure",
     _count_len("rings.closure.members"), ("rings.closure.members",)),
    ("rings.is_ideal_members", "rings", "is_ideal_members", None, ()),
    ("rings.make_zn", "rings", "make_zn", None, ()),
    ("rings.make_gf", "rings", "make_gf", None, ()),
    ("rings.make_product", "rings", "make_product", None, ()),
    ("modules.ModulePresentation.__init__", "modules", "ModulePresentation.__init__",
     _count_presentation, ("modules.presentation.built", "modules.presentation.elements")),
    ("modules.presented_module", "modules", "presented_module", _count_returned,
     ("modules.presentation.useful_frac",)),
    ("modules.quotient_module", "modules", "quotient_module", None, ()),
    ("modules.enumerate_submodules", "modules", "enumerate_submodules",
     _count_len("modules.enumerate_submodules.submodules"),
     ("modules.enumerate_submodules.submodules",)),
    ("modules.ModulePresentation.ideal_action", "modules",
     "ModulePresentation.ideal_action", None, ()),
    ("modules.colon_codes", "modules", "colon_codes", None, ()),
    ("modules.colon_ideal", "modules", "colon_ideal", None, ()),
    ("modules.submodule_generate", "modules", "submodule_generate", None, ()),
    *((f"predicates.{fn}", "predicates", fn, _count_false(f"predicates.{fn}.false"),
       (f"predicates.{fn}.false",)) for fn in PREDICATES),
    ("predicates.compare_notions", "predicates", "compare_notions", None, ()),
    ("radical.radical_by_iteration", "radical", "radical_by_iteration", _count_iteration,
     ("radical.iteration.steps",)),
    ("radical.first_radical_step", "radical", "first_radical_step", None, ()),
    ("radical.prime_submodules", "radical", "prime_submodules", None, ()),
    ("radical.radical_by_primes", "radical", "radical_by_primes", None, ()),
    ("radical.smallest_semiprime_over", "radical", "smallest_semiprime_over", None, ()),
    ("harness.expand_corpus", "harness", "expand_corpus", _count_expand,
     ("harness.expand_corpus.instances", "harness.expand_corpus.submodules")),
    ("harness.verify_all", "harness", "verify_all", None, ()),
    *((f"harness.claim.{cid}", "harness", fn, None, ())
      for cid, fn in CLAIM_CHECKERS.items()),
    ("harness.parse_corpus_spec", "harness", "parse_corpus_spec", None, ()),
    ("instance.parse_instance", "instance", "parse_instance", None, ()),
    ("report.render_structured", "report", "render_structured",
     _count_len("report.render.bytes"), ("report.render.bytes",)),
    ("cli.run_command", "cli", "run_command", None, ()),
]


def _target_metrics(name: str, extras) -> list[tuple[str, str]]:
    if name.startswith("harness.claim."):
        out = [(f"{name}.s", "s"), (f"{name}.units", "count")]
    elif name == "cli.run_command":
        out = [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    else:
        out = [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    units = {"modules.presentation.useful_frac": "ratio", "report.render.bytes": "bytes"}
    return out + [(e, units.get(e, "count")) for e in extras]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name, _, _, _, extras in TARGETS:
        out += _target_metrics(name, extras)
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records spans (name, start, end, parent) for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list[str] = []
        self.kinds = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.returned: set[int] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, count=None):
        kinds, parents, starts, ends = self.kinds, self.parents, self.starts, self.ends
        stack = self._stack
        label = self._name_id(name)
        per_command = {}
        if name == "cli.run_command":
            per_command = {c: self._name_id(f"cli.{c}") for c in CLI_COMMANDS}

        def wrapper(*args, **kwargs):
            idx = len(starts)
            kinds.append(per_command.get(args[1], label) if per_command else label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = CLOCK()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def install(self, package: str = "modradical") -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, mod_name, path, count, _ in TARGETS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = owner.__dict__.get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, orig, count)
            if outer:
                self._rebind(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = wrapper
                                self._restore.append((value, k, orig, True))

    def _rebind(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, orig, False))

    def uninstall(self) -> None:
        for owner, key, orig, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the extra counts."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        per_name: dict[str, list] = {}
        for i in range(n):
            row = per_name.setdefault(self.names[self.kinds[i]], [0, 0.0, 0.0])
            dur = self.ends[i] - self.starts[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        counts = dict(self.counts)
        counts["modules.presentation.distinct"] = len(self.returned)
        return {"spans": n, "per_name": per_name, "counts": counts,
                "missing": self.missing}

    def write(self, path: str) -> None:
        """One JSON header line (op id, span names, span count), then the raw
        arrays: name index (int32), parent span (int64, -1 for none), start
        and end (float64 ``perf_counter`` seconds)."""
        header = {"op_id": self.op_id, "names": self.names, "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kinds, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def layer_metrics(summaries: list[dict]) -> tuple[dict, list[str]]:
    """Sum per-op summaries of one pass into the named per-layer metrics.

    A target the library no longer has is reported as ``None``, never as 0.
    """
    per_name: dict[str, list] = {}
    counts: Counter = Counter()
    missing: set[str] = set()
    for s in summaries:
        for name, row in s["per_name"].items():
            acc = per_name.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        counts.update(s["counts"])
        missing.update(s["missing"])
    built = counts["modules.presentation.built"]
    counts["modules.presentation.useful_frac"] = (
        counts["modules.presentation.distinct"] / built if built else 0.0)
    out: dict = {}
    for name, _, _, _, extras in TARGETS:
        if name in missing:
            out.update((m, None) for m, _ in _target_metrics(name, extras))
            continue
        calls, total, self_s = per_name.get(name, (0, 0.0, 0.0))
        if name.startswith("harness.claim."):
            out[f"{name}.s"] = total
            out[f"{name}.units"] = calls
        elif name == "cli.run_command":
            for c in CLI_COMMANDS:
                out[f"cli.{c}.s"] = per_name.get(f"cli.{c}", (0, 0.0))[1]
        else:
            out.update({f"{name}.calls": calls, f"{name}.s": total,
                        f"{name}.self_s": self_s})
        out.update((e, counts[e]) for e in extras)
    return out, sorted(missing)
