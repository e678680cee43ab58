from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modradical.cli
import modradical.instance
import modradical.modules
import modradical.rings
from modradical import harness, predicates, radical
from modradical.cli import main
from modradical.instance import parse_instance
from modradical.modules import ModulePresentation, full_submodule, zero_submodule
from modradical.predicates import Verdict
from modradical.rings import make_zn

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden files -------------------------------------------------------------------


STRUCTURED_GOLDENS = [
    ("radical", "z4_zero.instance", "radical_z4_zero.structured"),
    ("radical-trace", "z4sq_torsion.instance", "radical_trace_z4sq.structured"),
    ("check-semiprime", "z6_zero.instance", "check_semiprime_z6_zero.structured"),
]


@pytest.mark.parametrize("command,instance,golden", STRUCTURED_GOLDENS)
def test_documented_commands_match_golden_bytes(capsys, command, instance, golden):
    code, out, err = run_cli(capsys, command, str(GOLDEN / instance), "N",
                             "--format", "structured")
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [c for c in modradical.cli.COMMANDS if c != "verify"])
def test_every_text_report_matches_its_golden_bytes(capsys, command):
    name = ("N",) if "name" in modradical.cli.COMMANDS[command].args else ()
    code, out, err = run_cli(capsys, command, str(GOLDEN / "z4sq_torsion.instance"), *name)
    assert code == 0 and err == ""
    golden = GOLDEN / f"{command.replace('-', '_')}_z4sq.text"
    assert out == golden.read_text(encoding="utf-8")


def test_verify_text_report_matches_its_golden_bytes_but_the_wall_time(capsys):
    code, out, err = run_cli(capsys, "verify", "--spec", str(GOLDEN / "two_rings.spec"))
    assert code == 0 and err == ""
    lines = out.splitlines(keepends=True)
    assert re.fullmatch(r"wall time: \d+\.\d{3}s\n", lines[-2])
    del lines[-2]
    assert "".join(lines) == (GOLDEN / "verify_two_rings.text").read_text(encoding="utf-8")


def test_readme_quick_tour_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == [
        "False",
        "(0, 2)",
        "((0, 0), (0, 2), (2, 0), (2, 2))",
        "2",
        "(0, 2)",
        "True",
    ]


def test_report_prints_the_file_relations_after_another_list_built_the_module(
        tmp_path, capsys):
    parse_instance("ring Z/4\nmodule rank=2 relations=[(2,0),(0,2),(2,2)]\n")
    inst = tmp_path / "m.instance"
    inst.write_text("ring Z/4\nmodule rank=2 relations=[(2,2),(0,2)]\n"
                    "submodule N gens=[]\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "check-semiprime", str(inst), "N",
                           "--format", "structured")
    assert code == 0
    assert "module = rank=2 relations=[(2,2),(0,2)]\n" in out


def test_structured_output_is_stable_across_runs(capsys):
    args = ("radical-trace", str(GOLDEN / "z4sq_torsion.instance"), "N",
            "--format", "structured")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "radical", str(GOLDEN / "z4_zero.instance"), "N",
                           "--format", "structured", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == \
        (GOLDEN / "radical_z4_zero.structured").read_text(encoding="utf-8")


def test_out_to_a_path_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    # exit 1 would read as counterexamples found or methods disagreeing
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "check-semiprime", str(GOLDEN / "z6_zero.instance"),
                             "N", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


# -- text mode ---------------------------------------------------------------------


def test_text_mode_radical(capsys):
    code, out, _ = run_cli(capsys, "radical", str(GOLDEN / "z4_zero.instance"), "N")
    assert code == 0
    assert "radical of N: [(0),(2)]" in out
    assert "methods agree: yes" in out


def test_radical_exits_one_when_methods_disagree(capsys, monkeypatch):
    monkeypatch.setattr(modradical.cli, "radical_by_iteration",
                        lambda N: (full_submodule(N.module), None))
    code, out, _ = run_cli(capsys, "radical", str(GOLDEN / "z4_zero.instance"), "N")
    assert code == 1
    assert "by iteration:          [(0),(1),(2),(3)]" in out
    assert "methods agree: no" in out


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit_path", ["exit-0", "exit-1", "exit-2", "raises"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting, exit_path):
    # main pauses the cyclic collector for the command and resumes it on every
    # way out, but only if it ran on entry
    seen = []
    parse, render = modradical.cli.parse_instance, modradical.cli.render_text
    monkeypatch.setattr(modradical.cli, "parse_instance",
                        lambda *a: seen.append(gc.isenabled()) or parse(*a))
    monkeypatch.setattr(modradical.cli, "render_text",
                        lambda data: seen.append(gc.isenabled()) or render(data))
    argv = ["radical", str(GOLDEN / "z4_zero.instance"), "N"]
    if exit_path == "exit-1":
        monkeypatch.setattr(modradical.cli, "radical_by_iteration",
                            lambda N: (full_submodule(N.module), None))
    elif exit_path == "exit-2":
        argv += ["--lattice-bound", "0"]
    elif exit_path == "raises":
        monkeypatch.setattr(modradical.cli, "radical_by_primes", lambda N, bound: 1 / 0)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if exit_path == "raises":
            with pytest.raises(ZeroDivisionError):
                main(argv)
        else:
            assert main(argv) == int(exit_path[-1])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen and not any(seen)


def test_compare_exits_one_when_a_row_contradicts_a_theorem(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(predicates, "is_dauns_semiprime", lambda N: False)
    out_file = tmp_path / "compare.txt"
    code, out, _ = run_cli(capsys, "compare", str(GOLDEN / "z4_zero.instance"),
                           "--out", str(out_file))
    assert code == 1 and out == ""
    assert "contradictions: 2" in out_file.read_text(encoding="utf-8")


def test_text_mode_check_includes_witness(capsys):
    code, out, _ = run_cli(capsys, "check-semiprime",
                           str(GOLDEN / "z4_zero.instance"), "N")
    assert code == 0
    assert "FAILS" in out and "m=(2)" in out


def test_compare_command(capsys):
    code, out, _ = run_cli(capsys, "compare", str(GOLDEN / "z4_zero.instance"))
    assert code == 0
    assert "contradictions: 0" in out


def test_primes_command(capsys):
    code, out, _ = run_cli(capsys, "primes", str(GOLDEN / "z4_zero.instance"))
    assert code == 0
    assert "prime submodules: 1" in out and "[(0),(2)]" in out


# -- verify ------------------------------------------------------------------------


def test_text_mode_verify_prints_each_finding_with_its_instance(tmp_path, capsys, monkeypatch):
    # a primeness test that holds everywhere makes the zero submodule of Z/4,
    # which is not semiprime, a prime one that is not semiprime, and calls the
    # whole module, which the literal scan finds not proper, prime
    monkeypatch.setattr(harness, "is_prime_submodule", lambda N: Verdict(True))
    spec = tmp_path / "tiny.spec"
    spec.write_text("rings Z/4\nmax_rank 1\nstrategies free\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 1
    lines = out.splitlines()
    assert "  PROP-PRIME-IMPLIES-SP: checked=3 passed=1 failed=2 skipped=0" in lines
    assert "counterexamples: 2" in lines
    finding = lines.index("FINDING [PROP-PRIME-IMPLIES-SP]: prime submodule is not semiprime")
    assert lines[finding + 1:finding + 8] == [
        "    ring Z/4", "    module rank=1 relations=[]", "    submodule N gens=[]",
        "FINDING [PROP-PRIME-IMPLIES-SP]: primeness verdict differs from the literal scan",
        "    ring Z/4", "    module rank=1 relations=[]", "    submodule N gens=[(1)]"]
    assert lines[finding + 8].startswith("wall time: ")
    assert lines[-1] == "result: FAILURES FOUND"


def test_verify_structured_omits_timing(tmp_path, capsys):
    spec = tmp_path / "tiny.spec"
    spec.write_text("rings Z/4\nmax_rank 1\nstrategies free\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec),
                           "--format", "structured")
    assert code == 0
    assert "wall_time" not in out
    assert "ok = true" in out
    _, again, _ = run_cli(capsys, "verify", "--spec", str(spec),
                          "--format", "structured")
    assert out == again


def test_verify_seed_override(tmp_path, capsys):
    spec = tmp_path / "tiny.spec"
    spec.write_text("rings Z/4\nmax_rank 1\nstrategies free\nseed 5\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec),
                           "--format", "structured", "--seed", "9")
    assert code == 0
    assert "spec.seed = 9" in out


@pytest.mark.parametrize("line", ["element_bound -4", "max_rank 0", "rings", "strategies"])
def test_verify_rejects_a_spec_that_admits_nothing(tmp_path, capsys, line):
    spec = tmp_path / "empty.spec"
    spec.write_text(f"rings Z/4\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 2 and out == ""
    assert "corpus spec line 2" in err


def test_verify_rejects_a_spec_ring_past_every_bound(tmp_path, capsys, monkeypatch):
    tabulate = modradical.rings._tabulate

    def bounded(descriptor, n, *args, **kwargs):
        if n > modradical.modules.DEFAULT_ELEMENT_BOUND:
            raise AssertionError(f"tabulated {descriptor}")
        return tabulate(descriptor, n, *args, **kwargs)

    monkeypatch.setattr(modradical.rings, "_tabulate", bounded)
    spec = tmp_path / "huge.spec"
    spec.write_text("max_rank 1\nrings Z/4, Z/70000\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--spec", str(spec))
    assert code == 2 and out == ""
    assert err.startswith("error: corpus spec line 2: ") and "Z/70000" in err and "65536" in err
    # verify takes no --element-bound, so the message does not offer it
    assert "--element-bound" not in err


@pytest.mark.parametrize("flag", ["--element-bound", "--lattice-bound"])
def test_verify_rejects_bound_flags(capsys, flag):
    # the corpus spec carries the bounds verify uses, and only compare, radical
    # and primes enumerate a lattice
    argvs = [["verify", flag, "16"]]
    if flag == "--lattice-bound":
        argvs += [[command, str(GOLDEN / "z4_zero.instance"), "N", flag, "1"]
                  for command in (*modradical.cli.CHECK_COMMANDS, "radical-trace")]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def _argv_ids(cases) -> list[str]:
    return [" ".join(argv) or "(none)" for argv, _ in cases]


BOUND_ERRORS = [
    (["radical", "N", "--lattice-bound", "-3"], "must be at least 0, got -3"),
    (["compare", "--lattice-bound", "-1"], "must be at least 0, got -1"),
    (["primes", "--lattice-bound", "-1"], "must be at least 0, got -1"),
    (["radical", "N", "--element-bound", "0"], "must be at least 1, got 0"),
    (["check-semiprime", "N", "--element-bound", "-4"], "must be at least 1, got -4"),
    (["radical-trace", "N", "--element-bound", "0"], "must be at least 1, got 0"),
    (["radical", "N", "--lattice-bound", "two"], "invalid int value: 'two'"),
    (["compare", "--element-bound=1e3"], "invalid int value: '1e3'"),
]


@pytest.mark.parametrize("argv,message", BOUND_ERRORS, ids=_argv_ids(BOUND_ERRORS))
def test_bound_flags_reject_values_that_cannot_work(capsys, argv, message):
    # the ranges of the corpus spec: element_bound >= 1, lattice_bound >= 0
    argv = [argv[0], str(GOLDEN / "z4_zero.instance"), *argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(a for a in argv if a.startswith("--")).partition("=")[0]
    assert f"modradical {argv[0]}: error: argument {flag}: {message}\n" in capsys.readouterr().err


def test_bound_flags_accept_their_least_values(capsys):
    instance = str(GOLDEN / "z4_zero.instance")
    code, _, err = run_cli(capsys, "radical", instance, "N", "--lattice-bound", "0")
    assert code == 2 and "the bound is 0; raise it with --lattice-bound" in err
    code, _, err = run_cli(capsys, "radical", instance, "N", "--element-bound", "1")
    assert code == 2 and "the bound is 1; raise it with --element-bound" in err


@pytest.mark.parametrize("command", ["primes", "compare", "radical", "radical-trace"])
def test_listings_format_each_element_once(monkeypatch, capsys, command):
    argv = [command, str(GOLDEN / "z4sq_torsion.instance"),
            *(["N"] if command.startswith("radical") else []), "--format", "structured"]
    expected = run_cli(capsys, *argv)
    formatted = []
    fmt = modradical.instance.format_vec
    for owner in (modradical.cli, modradical.instance):
        monkeypatch.setattr(owner, "format_vec", lambda vec: formatted.append(vec) or fmt(vec))
    assert run_cli(capsys, *argv) == expected
    # member listings format each element once; a witness formats its element
    # and each distinct product list once
    lines = expected[1].splitlines()
    vecs = re.compile(r"\([0-9,]*\)")
    listed = {v for line in lines if ".m = " not in line and ".product = " not in line
              for v in vecs.findall(line)}
    witnesses = sum(".m = " in line for line in lines)
    products = {line.split(" = ")[1] for line in lines if ".product = " in line}
    assert listed and len(formatted) == (
        len(listed) + witnesses + sum(len(vecs.findall(p)) for p in products))


# -- argument parsing ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    *([flag] for flag in ("-h", "--help")),
    *([command, *before, flag] for command in modradical.cli.COMMANDS
      for before in ([], ["F", "--format", "text"]) for flag in ("-h", "--help")),
], ids=" ".join)
def test_help_lists_what_the_command_table_gives(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    command = argv[0] if len(argv) > 1 else None
    rows = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    if command is None:
        assert rows == list(modradical.cli.COMMANDS)
    else:
        entry = modradical.cli.COMMANDS[command]
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == set(entry.flags)
        assert rows == [*map(str.upper, entry.args), *entry.flags]


ACCEPTED_FORMS = [
    (["radical", "F", "N"],
     dict(file="F", name="N", format="text", out=None, element_bound=65536,
          lattice_bound=256)),
    (["radical", "--format=structured", "F", "--lattice-bound", "0", "N", "--out=o"],
     dict(file="F", name="N", format="structured", out="o", element_bound=65536,
          lattice_bound=0)),
    (["check-prime", "--element-bound", "1", "F", "N", "--element-bound=7"],
     dict(file="F", name="N", format="text", out=None, element_bound=7)),
    (["primes", "F", "--out", "-"],
     dict(file="F", format="text", out="-", element_bound=65536, lattice_bound=256)),
    (["verify", "--seed", "-1"], dict(format="text", out=None, spec=None, seed=-1)),
    (["verify", "--spec=s=t", "--seed=-12", "--format", "structured"],
     dict(format="structured", out=None, spec="s=t", seed=-12)),
]


@pytest.mark.parametrize("argv,parsed", ACCEPTED_FORMS, ids=_argv_ids(ACCEPTED_FORMS))
def test_accepted_argument_forms(argv, parsed):
    assert vars(modradical.cli._parse_args(argv)) == {"command": argv[0], **parsed}


REJECTED_FORMS = [
    ([], "modradical: error: the following arguments are required: COMMAND"),
    (["nope"], "modradical: error: argument COMMAND: invalid choice: 'nope' "
               "(choose from 'check-semiprime', "),
    (["--format", "text", "radical"], "modradical: error: argument COMMAND: invalid choice"),
    (["radical", "F"], "modradical radical: error: the following arguments are "
                       "required: NAME"),
    (["compare"], "modradical compare: error: the following arguments are required: FILE"),
    (["radical", "F", "N", "X"], "modradical radical: error: unrecognized arguments: X"),
    (["verify", "F"], "modradical verify: error: unrecognized arguments: F"),
    (["radical", "F", "N", "--out"],
     "modradical radical: error: argument --out: expected one argument"),
    (["radical", "F", "N", "--lattice-bound", "--format", "text"],
     "modradical radical: error: argument --lattice-bound: expected one argument"),
    (["radical", "F", "N", "--format", "xml"], "modradical radical: error: argument "
     "--format: invalid choice: 'xml' (choose from 'text', 'structured')"),
    (["verify", "--seed", "1.5"],
     "modradical verify: error: argument --seed: invalid int value: '1.5'"),
    # flags are spelled in full: an abbreviation is not a flag the command takes
    (["radical", "F", "N", "--form", "structured"],
     "modradical radical: error: unrecognized arguments: --form structured"),
    (["radical", "F", "N", "--form=structured"],
     "modradical radical: error: unrecognized arguments: --form=structured"),
    (["verify", "-s", "x"], "modradical verify: error: unrecognized arguments: -s x"),
]


@pytest.mark.parametrize("argv,message", REJECTED_FORMS, ids=_argv_ids(REJECTED_FORMS))
def test_rejected_argument_forms(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: modradical ") and error.startswith(message)


def test_importing_the_cli_leaves_argparse_gettext_dataclasses_and_inspect_unloaded():
    # each costs milliseconds on every command line; dataclasses loads inspect
    code = ("import sys, modradical.cli; "
            "print(sorted({'argparse', 'gettext', 'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_readme_command_table_matches_the_cli():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    usage = section.split("```\n", 2)[1].splitlines()[0]
    assert "usage: " + usage == modradical.cli._usage(None)
    table = next(block for block in section.split("\n\n") if block.startswith("| command |"))
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    report = ("--format", "--out")   # every command takes these; the table leaves them out
    documented = {cmd.strip(" `"): args.strip(" `").split() for cmd, args in rows}
    assert documented == {
        name: [*map(str.upper, entry.args),
               *(word for f in entry.flags if f not in report
                 for word in (f"[{f}", f"{modradical.cli.FLAGS[f].metavar}]"))]
        for name, entry in modradical.cli.COMMANDS.items()}
    assert all(entry.flags[:2] == report for entry in modradical.cli.COMMANDS.values())


# -- error handling ------------------------------------------------------------------


def test_unknown_submodule_name_exits_two(capsys):
    code, _, err = run_cli(capsys, "radical", str(GOLDEN / "z4_zero.instance"), "X")
    assert code == 2
    assert "unknown submodule" in err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.instance"
    bad.write_text("ring Z/4\nmodule rank=2 relations=[]\nsubmodule N gens=[(9,0)]\n",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "radical", str(bad), "N")
    assert code == 2
    assert "line 3" in err and "out of range" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "radical", "/nonexistent/path.instance", "N")
    assert code == 2
    assert "error:" in err


def test_lattice_bound_exceeded_names_flag(tmp_path, capsys):
    inst = tmp_path / "big.instance"
    inst.write_text("ring Z/8\nmodule rank=2 relations=[]\nsubmodule N gens=[]\n",
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "radical", str(inst), "N",
                           "--lattice-bound", "16")
    assert code == 2
    assert "--lattice-bound" in err


def test_lattice_bound_gates_the_module_not_its_quotient(tmp_path, capsys):
    # radical walks the lattice of M/N, whose 128 elements fit the bound, but
    # the bound gates |M| = 256
    inst = tmp_path / "big.instance"
    inst.write_text("ring Z/4\nmodule rank=4 relations=[]\nsubmodule N gens=[(2,0,0,0)]\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "radical", str(inst), "N", "--lattice-bound", "200")
    assert (code, out) == (2, "")
    assert err == ("error: submodule lattice of Module(Z/4^4, 256 elements) needs 256 "
                   "elements but the bound is 200; raise it with --lattice-bound\n")


def test_element_bound_exceeded_names_flag(tmp_path, capsys):
    inst = tmp_path / "huge.instance"
    inst.write_text("ring Z/12\nmodule rank=3 relations=[]\nsubmodule N gens=[]\n",
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "radical", str(inst), "N",
                           "--element-bound", "100")
    assert code == 2
    assert "--element-bound" in err
    # a power past the bound is never built, so it cannot overflow the message
    inst.write_text("ring Z/2\nmodule rank=20000 relations=[]\nsubmodule N gens=[]\n",
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "radical", str(inst), "N")
    assert code == 2
    assert err == ("error: enumerating Z/2^20000 needs 2^20000 elements but the bound "
                   "is 65536; raise it with --element-bound\n")


@pytest.mark.parametrize("ring,rank,size", [
    ("Z/2000", 1, 2000),
    ("Z/2000", 0, 2000),
    ("GF(128) poly=[1,1,0,0,0,0,0,1]", 1, 128),
    ("product(Z/20, Z/10)", 1, 200),
])
def test_a_ring_past_the_element_bound_is_rejected_before_tabulation(
        monkeypatch, tmp_path, capsys, ring, rank, size):
    # |R| is read from the descriptor, so even a rank-0 module (one element)
    # over too large a ring exits 2, and the ring's tables are never built
    monkeypatch.setattr(modradical.rings, "_RING_CACHE", {})
    inst = tmp_path / "big_ring.instance"
    inst.write_text(f"ring {ring}\nmodule rank={rank} relations=[]\nsubmodule N gens=[]\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "check-prime", str(inst), "N", "--element-bound", "100")
    assert (code, out) == (2, "")
    assert err == (f"error: tabulating the ring {ring} needs {size} elements but the "
                   "bound is 100; raise it with --element-bound\n")
    assert all(r.size <= 100 for r in modradical.rings._RING_CACHE.values())


def test_a_ring_at_the_element_bound_is_accepted(tmp_path, capsys):
    inst = tmp_path / "ring.instance"
    inst.write_text("ring product(Z/5, Z/4)\nmodule rank=0 relations=[]\n"
                    "submodule N gens=[]\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check-prime", str(inst), "N", "--element-bound", "20")
    assert (code, err) == (0, "") and out.endswith("verdict: FAILS\n")


def test_check_cimpric_rejects_non_free_instance(tmp_path, capsys):
    inst = tmp_path / "quotient.instance"
    inst.write_text("ring Z/4\nmodule rank=1 relations=[(2)]\nsubmodule N gens=[]\n",
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "check-cimpric", str(inst), "N")
    assert code == 2
    assert "free modules" in err


# -- benchmark tooling ------------------------------------------------------------------


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # a dataclass looks its own module up while it is built
    spec.loader.exec_module(module)
    return module


def _pinned_ops(tmp_path):
    """(workload, op id, argv) of every op whose seed-0 output
    ``perfbench/digests.json`` pins, with its input written under ``tmp_path``."""
    workloads = _benchmark_module("workloads")
    for workload in json.loads((PERFBENCH / "digests.json").read_text()):
        for op in workloads.WORKLOADS[workload](0):
            path = tmp_path / op.input_name
            path.write_text(op.input_text, encoding="utf-8")
            yield workload, op.op_id, [a.replace("{input}", str(path)) for a in op.argv]


def test_benchmark_outputs_match_their_pinned_digests(tmp_path, monkeypatch):
    # every op whose seed-0 output the benchmark pins, run in-process: a change
    # to any report byte fails here and not only in a benchmark run; its
    # modules are interned apart, so other tests still find theirs cold
    monkeypatch.setattr(modradical.modules, "_PRESENTATION_CACHE", {})
    pins = json.loads((PERFBENCH / "digests.json").read_text())
    digests = {}
    for workload, op_id, argv in _pinned_ops(tmp_path):
        out = tmp_path / f"{op_id}.out"
        assert main(argv + ["--out", str(out)]) == 0, op_id
        digests.setdefault(workload, {})[op_id] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == pins


# A copy of ``CORPUS_SPEC`` in perfbench/workloads.py: the default corpus plus
# the seeded ``random`` relation strategy, which the verify-corpus workload runs.
BENCHMARK_CORPUS_SPEC = """\
rings Z/2, Z/3, Z/4, Z/5, Z/6, Z/8, Z/9, Z/12, GF(4) poly=[1,1,1], product(Z/2, Z/4)
max_rank 2
strategies free, cyclic, random
element_bound 64
lattice_bound 256
seed 0
"""


@pytest.mark.parametrize("seed,digest", [
    (0, "b573c101018418c2cb7cddae394e1f42687d7b4103a2824fd33d08b1d1e9c197"),
    (1, "7715e08bc513ea38521cf9d6fe95ab271ab975ed6c64bfd7fd9c98f4ca909543"),
    (2, "c7a8a73a406a040ecf6ce9c71a684d5d98eb69fb8e61d106b4522835aa420342"),
])
def test_structured_verify_of_the_benchmark_corpus_is_pinned(tmp_path, seed, digest):
    spec, out = tmp_path / "corpus.spec", tmp_path / "verify.out"
    spec.write_text(BENCHMARK_CORPUS_SPEC, encoding="utf-8")
    argv = ["verify", "--spec", str(spec), "--seed", str(seed), "--format", "structured"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_no_command_leaves_garbage_for_the_cyclic_collector(tmp_path, monkeypatch, capsys):
    # main pauses the cyclic collector for the whole command, which is safe
    # only while reference counting frees everything a command drops: every
    # command path must leave no unreachable cycle behind.  The collector is
    # off throughout, so main leaves it off and no automatic pass can clear a
    # cycle before the explicit one counts it.
    monkeypatch.setattr(modradical.modules, "_PRESENTATION_CACHE", {})
    out = str(tmp_path / "report")
    runs = [(argv + ["--out", out], 0) for _, _, argv in _pinned_ops(tmp_path)]
    runs += [([command, str(GOLDEN / instance), "N", "--format", "structured"], 0)
             for command, instance, _ in STRUCTURED_GOLDENS]
    runs += [([command, str(GOLDEN / "z4sq_torsion.instance"),
               *(["N"] if "name" in entry.args else [])], 0)
             for command, entry in modradical.cli.COMMANDS.items() if command != "verify"]
    runs.append((["verify", "--spec", str(GOLDEN / "two_rings.spec")], 0))
    malformed = tmp_path / "malformed.instance"
    malformed.write_text("ring Z/4\nmodule rank=1 relations=[(1]\n", encoding="utf-8")
    runs += [(["check-prime", str(malformed), "N"], 2),
             (["radical", str(GOLDEN / "z4sq_torsion.instance"), "N", "--lattice-bound", "3"], 2),
             (["check-prime", str(GOLDEN / "z4sq_torsion.instance"), "P"], 2)]
    was = gc.isenabled()
    gc.disable()
    try:
        for argv, expected in runs:
            gc.collect()
            code = main(argv)
            assert (code, gc.collect()) == (expected, 0), argv
            capsys.readouterr()
    finally:
        if was:
            gc.enable()


def test_benchmark_tracer_finds_every_target():
    # perfbench wraps library functions by name; a renamed one would turn its
    # per-layer metrics into null without failing anything
    tracing = _benchmark_module("tracing")
    tracer = tracing.Tracer("tier-1 guard")
    M = ModulePresentation(make_zn(4), 2)   # built directly: a cold table
    try:
        tracer.install()
        assert tracer.missing == []
        radical.radical_by_primes(zero_submodule(M))
        assert tracer.summary()["per_name"]["radical.prime_submodules"][0] == 1
        # the step count is read off the returned trace
        _, trace = radical.radical_by_iteration(zero_submodule(M))
        assert tracer.counts["radical.iteration.steps"] == len(trace.steps)
    finally:
        tracer.uninstall()
    # derived values are built by private functions that the tracer leaves alone
    assert M.derived and all(build.__module__.startswith("modradical.")
                             for build, _ in M.derived)


def test_benchmark_tracer_counts_every_claim_unit():
    # the tracer spans a claim by rebinding the checker that is its CLAIMS
    # value, so each span must see exactly the units verify_all counts
    tracing = _benchmark_module("tracing")
    assert set(tracing.CLAIM_CHECKERS) == set(harness.CLAIM_IDS)
    tracer = tracing.Tracer("tier-1 guard")
    try:
        tracer.install()
        report = harness.verify_all(harness.CorpusSpec(rings=("Z/4", "Z/6")))
    finally:
        tracer.uninstall()
    per_name = tracer.summary()["per_name"]
    assert {c.claim_id: c.checked for c in report.claims} == {
        cid: per_name.get(f"harness.claim.{cid}", (0,))[0] for cid in harness.CLAIM_IDS}
    assert all(c.checked for c in report.claims)
