from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from modradical import harness, modules, predicates, radical, rings
from modradical.cli import verify_report_data
from modradical.harness import (
    CLAIM_IDS,
    CorpusSpec,
    DEFAULT_CORPUS_SPEC,
    Finding,
    expand_corpus,
    find_separation,
    parse_corpus_spec,
    verify_all,
)
from modradical.instance import ParseError, format_vec, parse_instance
from modradical.modules import presented_module, submodule_generate
from modradical.predicates import Verdict, _semiprime_verdict, is_semiprime_submodule
from modradical.report import render_structured


def spec_of(**kw) -> CorpusSpec:
    kw.setdefault("rings", ("Z/4",))
    return CorpusSpec(**kw)


# -- claim manifest -------------------------------------------------------------


def test_claim_manifest_is_pinned():
    assert CLAIM_IDS == (
        "PROP-COLON-SEMIPRIME",
        "PROP-FREE-EQUIV",
        "PROP-INTERSECTION",
        "PROP-PRIME-IMPLIES-SP",
        "PROP-QUOTIENT-CORRESPONDENCE",
        "THM-ITERATION",
        "THM-RADICAL-EQ-SEMIPRIME",
    )
    assert CLAIM_IDS == tuple(cid for cid, _, _ in harness.CLAIMS)


def test_every_claims_entry_is_certified_and_replayed(monkeypatch):
    # a CLAIMS entry is run by verify_all without being listed anywhere else
    monkeypatch.setitem(harness.CLAIMS, ("TEST-ZERO-IS-PROPER", "N", False),
                        lambda module, subs, *_: None if subs["N"].is_proper else "full")
    report = verify_all(spec_of(max_rank=1, relation_strategies=("free",)))
    extra = report.claims[-1]
    assert [c.claim_id for c in report.claims] == [*CLAIM_IDS, "TEST-ZERO-IS-PROPER"]
    assert (extra.checked, extra.passed, extra.failed) == (3, 2, 1)
    assert not report.ok
    assert extra.findings[0].replay()


# -- corpus expansion -----------------------------------------------------------


def test_expand_z4_rank1_free_only():
    corpus = expand_corpus(spec_of(rings=("Z/4",), max_rank=1,
                                   relation_strategies=("free",)))
    assert len(corpus) == 1
    inst = corpus[0]
    assert inst.module.element_count == 4
    assert len(inst.submodules) == 3
    assert inst.lattice_complete


def test_expand_z2_rank2_free_includes_plane():
    corpus = expand_corpus(spec_of(rings=("Z/2",), max_rank=2,
                                   relation_strategies=("free",)))
    by_count = {inst.module.element_count: inst for inst in corpus}
    assert 4 in by_count
    assert len(by_count[4].submodules) == 5


def test_expand_empty_ring_list():
    assert expand_corpus(spec_of(rings=())) == []


def test_expand_dedupes_equal_presentations():
    # the zero relation vector generates the same module as the free one
    corpus = expand_corpus(spec_of(rings=("Z/4",), max_rank=1,
                                   relation_strategies=("free", "cyclic")))
    keys = [(inst.module.ring.descriptor, inst.module.rank,
             inst.module.relation_members) for inst in corpus]
    assert len(keys) == len(set(keys))
    # free Z/4, Z/4 / <1> (zero module), Z/4 / <2>
    assert sorted(inst.module.element_count for inst in corpus) == [1, 2, 4]


def test_expand_skips_ranks_past_the_default_element_bound():
    # |R|^rank above DEFAULT_ELEMENT_BOUND is skipped whatever element_bound says:
    # Z/300 has 300 elements, (Z/300)^2 has 90000 ambient vectors
    assert 300 < modules.DEFAULT_ELEMENT_BOUND < 300 ** 2
    corpus = expand_corpus(spec_of(rings=("Z/300",), max_rank=2,
                                   relation_strategies=("free",),
                                   element_bound=10 ** 6, submodule_samples=1))
    assert [inst.module.rank for inst in corpus] == [1]


def test_expand_stops_at_the_first_rank_past_the_default_element_bound():
    # |R|^rank only grows, so ranks past the first one over the bound admit
    # nothing and are not visited; in a subprocess, so a loop over every rank
    # up to max_rank times out instead of hanging the suite
    done = _run_python("from modradical.harness import CorpusSpec, expand_corpus\n"
                       "for max_rank in (16, 10 ** 6):\n"
                       "    spec = CorpusSpec(rings=('Z/2', 'Z/3'), max_rank=max_rank,\n"
                       "                      relation_strategies=('free',))\n"
                       "    print([inst.instance_id for inst in expand_corpus(spec)])\n",
                       timeout=20)
    assert done.returncode == 0, done.stderr
    few, many = done.stdout.splitlines()
    assert few == many and "Z/3 rank=3 relations=[]" in few


def test_expand_skips_candidates_that_cannot_be_admitted_before_building_them():
    # one relation leaves |M| >= |R|^(rank-1): every cyclic module of rank 3
    # over Z/27 has at least 729 elements.  Building the 19683 candidates
    # takes well over a gigabyte, so the subprocess caps its address space.
    done = _run_python("import resource\n"
                       "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                       "from modradical.harness import CorpusSpec, expand_corpus\n"
                       "spec = CorpusSpec(rings=('Z/27',), max_rank=3,\n"
                       "                  relation_strategies=('cyclic',), element_bound=256)\n"
                       "corpus = expand_corpus(spec)\n"
                       "print(len(corpus), max(inst.module.rank for inst in corpus))\n",
                       timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["56", "2"]


def _run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_each_distinct_presentation_is_constructed_once(monkeypatch):
    # quotients are looked up by their relation submodule before any coset is built
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    built = []
    init = modules.ModulePresentation.__init__
    monkeypatch.setattr(modules.ModulePresentation, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    report = verify_all(spec_of(rings=("Z/4", "Z/6"),
                                relation_strategies=("free", "cyclic", "random")))
    assert report.ok and report.instances > 0
    interned = modules._PRESENTATION_CACHE.values()
    assert len(built) == len(interned)
    assert {id(M) for M in built} == {id(M) for M in interned}


def test_expand_respects_element_bound():
    corpus = expand_corpus(spec_of(rings=("Z/12",), max_rank=2,
                                   relation_strategies=("free",),
                                   element_bound=64))
    # 12^2 = 144 > 64: only the rank-1 free module survives
    assert [inst.module.element_count for inst in corpus] == [12]


def test_expand_is_deterministic(monkeypatch):
    spec = spec_of(rings=("Z/6", "Z/4"), max_rank=2)
    a = expand_corpus(spec)
    b = expand_corpus(spec)
    assert [i.instance_id for i in a] == [i.instance_id for i in b]
    assert all(x.module is y.module for x, y in zip(a, b))
    # cold vs warm: a run at another seed first interns some of these modules
    # from other relation lists, which the ids must not pick up
    spec = spec_of(rings=("Z/2", "Z/3"), relation_strategies=("free", "cyclic", "random"))
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    cold = [i.instance_id for i in expand_corpus(spec)]
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    verify_all(spec_of(rings=spec.rings, relation_strategies=spec.relation_strategies, seed=3))
    assert [i.instance_id for i in expand_corpus(spec)] == cold


def test_sampled_submodules_when_lattice_bound_is_zero():
    spec = spec_of(rings=("Z/4",), max_rank=1, relation_strategies=("free",),
                   lattice_bound=0, submodule_samples=4, seed=7)
    corpus = expand_corpus(spec)
    inst = corpus[0]
    assert not inst.lattice_complete
    sizes = [N.size for N in inst.submodules]
    assert 1 in sizes and 4 in sizes  # zero and full are always included
    again = expand_corpus(spec)[0]
    assert [N.member_indices for N in again.submodules] == \
        [N.member_indices for N in inst.submodules]


def test_random_relation_strategy_is_seeded():
    spec = spec_of(rings=("Z/6",), max_rank=2,
                   relation_strategies=("random",), relation_samples=3, seed=11)
    a = [i.instance_id for i in expand_corpus(spec)]
    b = [i.instance_id for i in expand_corpus(spec)]
    assert a == b and len(a) >= 1


# -- verification ----------------------------------------------------------------


def test_verify_all_passes_on_small_corpus():
    report = verify_all(spec_of(rings=("Z/4", "Z/6"), max_rank=1))
    assert report.ok
    assert report.findings == ()
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["THM-ITERATION"].checked == report.submodules
    assert by_id["THM-ITERATION"].failed == 0
    assert all(c.failed == 0 for c in report.claims)


def test_verify_z4_alone_checks_iteration_on_three_submodules():
    report = verify_all(spec_of(rings=("Z/4",), max_rank=1,
                                relation_strategies=("free",)))
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["THM-ITERATION"].checked == 3
    assert by_id["THM-ITERATION"].failed == 0


@pytest.mark.parametrize("nil_agrees,detail", [
    (False, "iterated radical differs from N + Nil(R)M: "),
    (True, "iterated radical differs from the intersection of primes: "),
])
def test_iteration_fails_when_the_first_step_is_the_whole_module(monkeypatch, nil_agrees,
                                                                  detail):
    # a first step of M leaves the chain growing and its fixpoint semiprime,
    # so only the comparisons with N + Nil(R)M and, when that closed form is
    # made to agree with the fault, with the intersection of primes catch it
    monkeypatch.setattr(radical, "first_radical_step",
                        lambda N: (modules.full_submodule(N.module), ()))
    if nil_agrees:
        monkeypatch.setattr(harness, "radical_by_nil",
                            lambda N: modules.full_submodule(N.module))
    report = verify_all(spec_of(rings=("Z/4", "Z/6"), max_rank=1))
    by_id = {c.claim_id: c for c in report.claims}
    tally = by_id.pop("THM-ITERATION")
    assert (tally.checked, tally.failed) == (15, 8)
    assert all(f.detail.startswith(detail) for f in tally.findings)
    assert all(f.replay() for f in tally.findings)
    assert all(c.failed == 0 for c in by_id.values())


@pytest.mark.parametrize("decision,failed", [(True, 1), (False, 14)])
def test_a_wrong_semiprime_decision_fails_iteration(monkeypatch, decision, failed):
    # Z/4 has one non-semiprime submodule, 0, and Z/4, Z/6 fourteen semiprime
    # ones; a closed form that answers one way for all is caught against the
    # literal scan either way, as a finding and not as the library's error
    for mod in (predicates, radical, harness):
        monkeypatch.setattr(mod, "semiprime_by_nil", lambda N: decision)
    report = verify_all(spec_of(rings=("Z/4", "Z/6"), max_rank=1))
    by_id = {c.claim_id: c for c in report.claims}
    tally = by_id.pop("THM-ITERATION")
    assert (tally.checked, tally.failed) == (15, failed) and not report.ok
    assert [f.detail for f in tally.findings] == [
        "semiprime decision from Nil(R)M differs from the literal scan"] * failed
    assert all(c.failed == 0 for c in by_id.values())
    assert all(f.replay() for f in tally.findings)
    monkeypatch.undo()
    assert not any(f.replay() for f in tally.findings)


def test_verify_surfaces_a_shrinking_chain_as_the_library_error(monkeypatch):
    # radical_by_iteration raises on a step that shrinks, so THM-ITERATION
    # never sees such a chain and keeps no check of its own
    monkeypatch.setattr(radical, "first_radical_step",
                        lambda N: (modules.zero_submodule(N.module), ()))
    with pytest.raises(AssertionError, match="^radical chain shrank at step 1$"):
        verify_all(spec_of(rings=("Z/4",), max_rank=1))


def _witnesses_with_a_wrong_colon(N):
    fixpoint, trace = radical.radical_by_iteration(N)
    return fixpoint, trace._replace(steps=tuple(
        step._replace(witnesses=tuple(w._replace(colon_members=()) for w in step.witnesses))
        for step in trace.steps))


def _semiprime_flipped_for_the_radical_claim(N):
    # every claim asks whether N is semiprime; only THM-RADICAL-EQ-SEMIPRIME hears a lie
    verdict = predicates.semiprime_by_scan(N)
    if sys._getframe(1).f_code is harness._check_radical_eq.__code__:
        return Verdict(not verdict.holds)
    return verdict


@pytest.mark.parametrize("name,fault,claim_id,checked,failed,detail", [
    ("is_prime_submodule", lambda N: Verdict(True),
     "PROP-PRIME-IMPLIES-SP", 15, 9,
     r"prime submodule is not semiprime|primeness verdict differs from the literal scan"),
    ("is_cimpric_semiprime", lambda N: Verdict(False),
     "PROP-FREE-EQUIV", 7, 6, r"semiprime and coordinate conditions disagree on a free module"),
    ("intersect", lambda N1, N2: modules.zero_submodule(N1.module),
     "PROP-INTERSECTION", 10, 1, r"intersection of two semiprime submodules is not semiprime"),
    ("radical_by_iteration", _witnesses_with_a_wrong_colon,
     "THM-ITERATION", 15, 1, r"step 1 witness \(2\) does not replay"),
    ("smallest_semiprime_over", lambda N, bound: modules.full_submodule(N.module),
     "THM-RADICAL-EQ-SEMIPRIME", 15, 8,
     r"radical differs from the smallest semiprime overmodule: \[[(),0-9]*\] vs \[[(),0-9]*\]"),
    ("semiprime_by_scan", _semiprime_flipped_for_the_radical_claim,
     "THM-RADICAL-EQ-SEMIPRIME", 15, 8,
     r"semiprime does not coincide with being a radical submodule"),
    ("radical_by_nil", lambda N: N,
     "THM-ITERATION", 15, 1,
     r"iterated radical differs from N \+ Nil\(R\)M: \[[(),0-9]*\] vs \[[(),0-9]*\]"),
])
def test_each_claim_failure_surfaces_as_a_finding_that_replays(
        monkeypatch, name, fault, claim_id, checked, failed, detail):
    monkeypatch.setattr(harness, name, fault)
    report = verify_all(spec_of(rings=("Z/4", "Z/6"), max_rank=1))
    by_id = {c.claim_id: c for c in report.claims}
    tally = by_id.pop(claim_id)
    assert (tally.checked, tally.failed) == (checked, failed) and not report.ok
    assert all(re.fullmatch(detail, f.detail) for f in tally.findings)
    assert all(c.failed == 0 for c in by_id.values())
    assert all(f.replay() for f in tally.findings)
    monkeypatch.undo()
    assert not any(f.replay() for f in tally.findings)


def test_a_colon_test_that_calls_every_colon_prime_fails_against_the_literal_scan(monkeypatch):
    # the zero submodule of Z/6 is semiprime but not prime, so only the scan
    # comparison catches the fault; the cache is fresh because the fault
    # would otherwise stay in the modules' prime lists
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    monkeypatch.setattr(predicates, "_colon_is_prime", lambda M, codes: True)
    report = verify_all(spec_of(rings=("Z/6",), max_rank=1))
    by_id = {c.claim_id: c for c in report.claims}
    tally = by_id.pop("PROP-PRIME-IMPLIES-SP")
    assert (tally.checked, tally.failed) == (9, 1) and not report.ok
    assert [f.detail for f in tally.findings] == [
        "primeness verdict differs from the literal scan"]
    assert all(c.failed == 0 for c in by_id.values())
    assert tally.findings[0].replay()
    monkeypatch.undo()
    assert not tally.findings[0].replay()


def test_verify_gating_with_lattice_bound_zero():
    report = verify_all(spec_of(rings=("Z/4",), max_rank=1,
                                relation_strategies=("free",),
                                lattice_bound=0, submodule_samples=2))
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["THM-RADICAL-EQ-SEMIPRIME"].checked == 0
    assert by_id["THM-RADICAL-EQ-SEMIPRIME"].skipped > 0
    assert by_id["THM-ITERATION"].checked > 0
    assert by_id["THM-ITERATION"].skipped == 0
    assert report.ok


def test_verify_reports_are_deterministic():
    spec = spec_of(rings=("Z/4", "GF(4) poly=[1,1,1]"), max_rank=2)
    a = render_structured(verify_report_data(verify_all(spec)))
    b = render_structured(verify_report_data(verify_all(spec)))
    assert a == b


def test_verify_report_counts_are_consistent():
    report = verify_all(spec_of(rings=("Z/6",), max_rank=2))
    for c in report.claims:
        assert c.checked == c.passed + c.failed
        assert (c.failed > 0) == bool(c.findings)


# -- separations -------------------------------------------------------------------


def test_separation_semiprime_not_prime_on_z6():
    findings = find_separation(spec_of(rings=("Z/6",), max_rank=1,
                                       relation_strategies=("free",)))
    assert len(findings) == 1
    f = findings[0]
    assert f.claim_id == "SEP-SEMIPRIME-NOT-PRIME"
    assert "submodule N gens=[]" in f.instance_text
    assert f.replay()


def test_separations_of_the_default_corpus_lie_on_the_non_local_rings():
    # over a local ring a proper semiprime submodule is prime
    by_ring: dict[str, int] = {}
    for f in find_separation(DEFAULT_CORPUS_SPEC):
        ring_line = f.instance_text.splitlines()[0]
        by_ring[ring_line] = by_ring.get(ring_line, 0) + 1
    assert by_ring == {"ring product(Z/2, Z/4)": 156, "ring Z/12": 120, "ring Z/6": 64}


def test_separation_on_empty_corpus():
    assert find_separation(spec_of(rings=())) == []


# -- squares condition <=> semiprime -------------------------------------------------


@pytest.mark.parametrize("squares,failed", [(True, 1), (False, 2)])
def test_colon_semiprime_certifies_both_directions(monkeypatch, squares, failed):
    # of the 3 submodules of Z/4, 0 is not semiprime and (2), Z/4 are: forcing
    # the squares condition to hold (fail) everywhere fails 0 ((2) and Z/4)
    monkeypatch.setattr(harness, "is_dauns_semiprime", lambda N: Verdict(squares))
    report = verify_all(spec_of(rings=("Z/4",), max_rank=1, relation_strategies=("free",)))
    tally = {c.claim_id: c for c in report.claims}["PROP-COLON-SEMIPRIME"]
    assert (tally.checked, tally.failed) == (3, failed)
    assert all(f.replay() for f in tally.findings)


def test_colon_semiprime_names_the_first_element_of_a_rejected_colon(monkeypatch):
    # each distinct colon is checked once, at its first element; rejecting the
    # maximal ideal (2) of Z/4 must still name the first element with that colon
    rejected = frozenset({0, 2})
    monkeypatch.setattr(harness, "is_semiprime_ideal",
                        lambda I: I.members != rejected and rings.is_semiprime_ideal(I))
    spec = spec_of(rings=("Z/4",), relation_strategies=("free",))
    report = verify_all(spec)
    tally = {c.claim_id: c for c in report.claims}["PROP-COLON-SEMIPRIME"]
    expected = []   # every semiprime N with that colon somewhere fails, and no other
    for inst in expand_corpus(spec):
        M = inst.module
        rows = modules.scaled_rows(M)
        for N in inst.submodules:
            hits = [i for i in range(M.element_count)
                    if modules.colon_codes(N, i, rows) == rejected]
            if hits and is_semiprime_submodule(N).holds:
                expected.append(f"colon ideal at {format_vec(M.elements[hits[0]])} "
                                "is not semiprime")
    assert expected and [f.detail for f in tally.findings] == expected
    assert all(f.replay() for f in tally.findings)


def test_colon_semiprime_reports_a_column_that_disagrees_with_colon_ideal(monkeypatch):
    # a column read that is not the literal colon ideal is a finding, even
    # when it is a new set that no other element shares
    colon_sets = modules.colon_sets

    def misread(N):
        for i, colon in enumerate(colon_sets(N)):
            yield colon | {N.module.ring.size} if i == 1 else colon

    monkeypatch.setattr(harness, "colon_sets", misread)
    report = verify_all(spec_of(rings=("Z/4",), max_rank=1, relation_strategies=("free",)))
    tally = {c.claim_id: c for c in report.claims}["PROP-COLON-SEMIPRIME"]
    # (2) and Z/4 are the semiprime submodules of Z/4
    assert (tally.checked, tally.failed) == (3, 2)
    assert [f.detail for f in tally.findings] == [
        "colon ideal at (1) is [0, 2] but its column reads [0, 2, 4]",
        "colon ideal at (1) is [0, 1, 2, 3] but its column reads [0, 1, 2, 3, 4]",
    ]


def test_colon_scans_make_pinned_numbers_of_calls(monkeypatch):
    # one column-wise read per scan: colon_codes runs only inside colon_ideal
    # and witness replays, colon_ideal once per distinct colon of a semiprime
    # N, and the iteration runs each chain step once
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    calls = {}
    for fn in (modules.colon_codes, modules.colon_ideal, radical.first_radical_step):
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for mod in (modules, predicates, radical, harness):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, counted)
    report = verify_all(spec_of(rings=("Z/4", "Z/6")))
    assert report.ok and (report.instances, report.submodules) == (37, 226)
    assert calls == {"colon_codes": 528, "colon_ideal": 491, "first_radical_step": 252}


# -- quotient correspondence ---------------------------------------------------------


def quotient_tally(spec):
    report = verify_all(spec)
    others = [c for c in report.claims if c.claim_id != "PROP-QUOTIENT-CORRESPONDENCE"]
    assert all(c.failed == 0 for c in others)
    return {c.claim_id: c for c in report.claims}["PROP-QUOTIENT-CORRESPONDENCE"]


def test_quotient_reports_a_backward_map_that_drops_a_member(monkeypatch):
    backward = modules.Quotient.backward_submodule

    def dropping(self, Nq):
        B = backward(self, Nq)
        if B.size == 1:
            return B
        return modules.Submodule(B.module, B.member_indices - {max(B.member_indices)},
                                 B.generator_indices)

    monkeypatch.setattr(modules.Quotient, "backward_submodule", dropping)
    tally = quotient_tally(spec_of(rings=("Z/4", "Z/6")))
    # only the two zero modules pass: every preimage there has one member
    assert (tally.checked, tally.failed) == (226, 224)
    assert all(f.detail.startswith("backward(forward(N)) != N for [")
               for f in tally.findings)
    assert all(f.replay() for f in tally.findings[:5])


def test_quotient_reports_a_flipped_quotient_verdict(monkeypatch):
    # the zero submodule of Z/4 / <(2)> is semiprime; its verdict is flipped
    # where it is asked as a forward image: for N = M' = <(2)> in free Z/4, and
    # for N = M' = 0 in Z/4 / <(2)> itself, whose quotient by 0 is itself
    target = presented_module(rings.make_zn(4), 1, [(2,)])
    forward, verdict = modules.Quotient.forward_submodule, harness.semiprime_by_scan
    images = []

    def remembered(self, N):
        images.append(forward(self, N))
        return images[-1]

    def flipped(N):
        found = verdict(N)
        if images and N is images[-1] and N.module is target and N.size == 1:
            return Verdict(not found.holds)
        return found

    monkeypatch.setattr(modules.Quotient, "forward_submodule", remembered)
    monkeypatch.setattr(harness, "semiprime_by_scan", flipped)
    tally = quotient_tally(spec_of(rings=("Z/4", "Z/6")))
    assert (tally.checked, tally.failed) == (226, 2)
    assert [f.detail for f in tally.findings] == [
        "semiprimeness not preserved for [(0),(2)] under the quotient map",
        "semiprimeness not preserved for [(0)] under the quotient map"]
    assert all(f.replay() for f in tally.findings)


def test_quotient_reports_images_missing_from_the_quotient_lattice(monkeypatch):
    # the quotient's lattice loses its 2-element submodules, which are still
    # images of submodules above the kernel
    quotient_module, lattice = harness.quotient_module, harness.enumerate_submodules
    quotients = []

    def remembered(M, sub):
        quotients.append(quotient_module(M, sub))
        return quotients[-1]

    def thinned(M, bound):
        found = lattice(M, bound)
        if quotients and M is quotients[-1].module:
            return [N for N in found if N.size != 2]
        return found

    monkeypatch.setattr(harness, "quotient_module", remembered)
    monkeypatch.setattr(harness, "enumerate_submodules", thinned)
    tally = quotient_tally(spec_of(rings=("Z/4", "Z/6")))
    assert (tally.checked, tally.failed) == (226, 117)
    assert all(re.fullmatch(r"submodules above the kernel do not map onto the "
                            r"quotient's: (\d+) images vs (\d+)", f.detail)
               for f in tally.findings)
    assert "submodules above the kernel do not map onto the quotient's: 4 images vs 3" in [
        f.detail for f in tally.findings]


def test_quotient_walks_each_pair_once(monkeypatch):
    # one forward and one backward call per kernel M' and N above it, over
    # the lattice when it was enumerated and the selected submodules otherwise
    calls = {"forward_submodule": 0, "backward_submodule": 0}
    for name in calls:
        method = getattr(modules.Quotient, name)

        def counted(self, N, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, N)

        monkeypatch.setattr(modules.Quotient, name, counted)
    spec = spec_of(rings=("Z/4", "Z/6"), relation_strategies=("free", "cyclic", "random"),
                   lattice_bound=8)
    report = verify_all(spec)
    assert report.ok
    pairs = 0
    for inst in expand_corpus(spec):
        candidates = (modules.enumerate_submodules(inst.module, spec.lattice_bound)
                      if inst.lattice_complete else inst.submodules)
        pairs += sum(mp.issubset(N) for mp in inst.submodules for N in candidates)
    assert calls == {"forward_submodule": pairs, "backward_submodule": pairs} == {
        "forward_submodule": 393, "backward_submodule": 393}


# -- finding replay ------------------------------------------------------------------


def test_finding_replay_rejects_non_failures():
    # a hand-built "finding" whose instance actually satisfies the claim
    text = "ring Z/4\nmodule rank=1 relations=[]\nsubmodule N gens=[(2)]\n"
    bogus = Finding("THM-RADICAL-EQ-SEMIPRIME", text, "made up")
    assert not bogus.replay()


def test_finding_replay_catches_real_violations():
    # the zero submodule of Z/6 genuinely separates semiprime from prime
    text = "ring Z/6\nmodule rank=1 relations=[]\nsubmodule N gens=[]\n"
    real = Finding("SEP-SEMIPRIME-NOT-PRIME", text, "semiprime but not prime")
    assert real.replay()


def test_finding_replay_rejects_an_unknown_claim_id():
    text = "ring Z/4\nmodule rank=1 relations=[]\nsubmodule N gens=[]\n"
    with pytest.raises(ValueError, match="unknown claim id 'NO-SUCH-CLAIM'"):
        Finding("NO-SUCH-CLAIM", text, "").replay()


# -- corpus spec files ----------------------------------------------------------------


def test_parse_corpus_spec_full():
    spec = parse_corpus_spec("""
# toy corpus
rings Z/4, GF(4) poly=[1,1,1], product(Z/2, Z/4)
max_rank 1
strategies free, cyclic
element_bound 32
lattice_bound 128
seed 3
submodule_samples 5
""")
    assert spec.rings == ("Z/4", "GF(4) poly=[1,1,1]", "product(Z/2, Z/4)")
    assert spec.max_rank == 1
    assert spec.relation_strategies == ("free", "cyclic")
    assert spec.element_bound == 32
    assert spec.lattice_bound == 128
    assert spec.seed == 3
    assert spec.submodule_samples == 5


def test_parse_corpus_spec_defaults_and_errors():
    spec = parse_corpus_spec("rings Z/2\n")
    assert spec.max_rank == DEFAULT_CORPUS_SPEC.max_rank
    with pytest.raises(ValueError):
        parse_corpus_spec("max_rank 2\n")  # no rings
    with pytest.raises(ValueError):
        parse_corpus_spec("rings Z/2\nmax_rank two\n")
    with pytest.raises(ValueError):
        parse_corpus_spec("rings Z/2\nstrategies diagonal\n")
    with pytest.raises(ValueError):
        parse_corpus_spec("rings Q/2\n")


@pytest.mark.parametrize("key,value", [
    ("max_rank", 0), ("element_bound", -4), ("element_bound", 0), ("lattice_bound", -1),
    ("relation_samples", -1), ("submodule_samples", -1),
])
def test_parse_corpus_spec_rejects_degenerate_bounds(key, value):
    with pytest.raises(ValueError, match=f"line 3: {key} must be at least"):
        parse_corpus_spec(f"rings Z/2\n# a degenerate bound\n{key} {value}\n")


@pytest.mark.parametrize("line,message", [
    ("rings", "rings lists nothing"),
    ("strategies", "strategies lists nothing"),
    ("strategies free, diagonal", "unknown relation strategy 'diagonal'"),
    ("rings Z/4, Q/2", "unknown ring descriptor"),
])
def test_parse_corpus_spec_reports_the_line_of_a_bad_entry(line, message):
    with pytest.raises(ValueError) as err:
        parse_corpus_spec(f"rings Z/2\nmax_rank 1\n# a bad entry\n{line}\n")
    text = str(err.value)
    assert text.startswith("corpus spec line 4: ") and message in text
    assert "col" not in text


UNKNOWN_RING = "unknown ring descriptor (expected Z/n, GF(q), or product(...))"


@pytest.mark.parametrize("line,parsed", [
    ("rings product(product(Z/2,Z/3) , GF(4) poly=[ 1,1 ,1 ]) ,Z/4",
     ("product(product(Z/2,Z/3) , GF(4) poly=[ 1,1 ,1 ])", "Z/4")),
    ("strategies random ,free", ("random", "free")),
    ("rings Z/2,", "corpus spec line 2: " + UNKNOWN_RING),
    ("rings ,Z/2", "corpus spec line 2: " + UNKNOWN_RING),
    ("rings Z/2,,Z/3", "corpus spec line 2: " + UNKNOWN_RING),
    ("rings product(Z/2, Z/3", "corpus spec line 2: expected ')'"),
    ("rings GF(4) poly=[1,1,1", "corpus spec line 2: expected ']'"),
    ("rings GF(4) poly=[1,1,1,]", "corpus spec line 2: expected an integer"),
    ("rings Z/2 Z/3", "corpus spec line 2: trailing text after ring descriptor"),
    ("strategies free,", "corpus spec line 2: expected a name"),
    ("strategies ,free", "corpus spec line 2: expected a name"),
    ("strategies free,,cyclic", "corpus spec line 2: expected a name"),
    ("strategies free cyclic", "corpus spec line 2: trailing text"),
])
def test_corpus_spec_lists_follow_the_one_list_rule(line, parsed):
    text = f"# lists\n{line}\n" + ("" if line.startswith("rings") else "rings Z/2\n")
    if isinstance(parsed, str):
        with pytest.raises(ValueError) as err:
            parse_corpus_spec(text)
        assert str(err.value) == parsed
    else:
        spec = parse_corpus_spec(text)
        assert parsed in (spec.rings, spec.relation_strategies)


@pytest.mark.parametrize("entries", ["Z/2,", ",Z/2", "Z/2,,Z/3", "product(Z/2,",
                                     "GF(4) poly=[1,1,]", "Z/2, GF(4) poly=[1,1"])
def test_instance_files_and_corpus_specs_reject_the_same_list_forms(entries):
    with pytest.raises(ParseError) as in_instance:
        parse_instance(f"ring product({entries})\nmodule rank=1 relations=[]\n")
    with pytest.raises(ValueError) as in_spec:
        parse_corpus_spec(f"rings {entries}\n")
    assert str(in_spec.value) == f"corpus spec line 1: {in_instance.value.message}"


@pytest.mark.parametrize("gap", ["\t", "\t  ", " \t"])
def test_corpus_spec_key_ends_at_a_space_or_tab(gap):
    spec = parse_corpus_spec(f"rings{gap}Z/2, Z/3\nmax_rank{gap}2\nstrategies{gap}free\n")
    assert (spec.rings, spec.max_rank, spec.relation_strategies) == (
        ("Z/2", "Z/3"), 2, ("free",))
    with pytest.raises(ValueError) as err:
        parse_corpus_spec(f"rings Z/2\nma-x{gap}2\n")
    assert str(err.value) == "corpus spec line 2: unknown key 'ma-x'"


@pytest.mark.parametrize("repeat", ["rings Z/2", "max_rank 1", "strategies free"])
def test_parse_corpus_spec_rejects_a_repeated_key(repeat):
    key = repeat.split()[0]
    with pytest.raises(ValueError) as err:
        parse_corpus_spec(f"rings Z/4, Z/6\nmax_rank 1\nstrategies free\n\n{repeat}\n")
    first = {"rings": 1, "max_rank": 2, "strategies": 3}[key]
    assert str(err.value) == f"corpus spec line 5: {key} was already given on line {first}"


# -- the derived-value table -----------------------------------------------------


def test_derived_table_keys_and_shared_semiprime_entries(monkeypatch):
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    spec = spec_of(rings=("Z/4",), relation_strategies=("free", "cyclic"))
    assert verify_all(spec).ok
    for M in modules._PRESENTATION_CACHE.values():
        for build, key in M.derived:
            assert build.__name__.startswith("_")
            assert key is None or type(key) in (int, frozenset)
    # <(2,0)> of (Z/4)^2 is not semiprime; two generator lists, one entry
    M = next(i.module for i in expand_corpus(spec) if i.module.is_free and i.module.rank == 2)
    N1 = submodule_generate(M, [(2, 0)])
    N2 = submodule_generate(M, [(0, 0), (2, 0), (2, 0)])
    assert N1.member_indices == N2.member_indices
    assert N1.generator_indices != N2.generator_indices
    entries = len(M.derived)
    verdict = is_semiprime_submodule(N1)
    assert is_semiprime_submodule(N2) is verdict
    assert len(M.derived) == entries   # the run already asked about this member set
    assert M.derived[_semiprime_verdict, N1.member_indices] is verdict
    assert not verdict.holds and verdict.witness.replays()
    assert verdict.witness.submodule.generator_indices == tuple(sorted(N1.member_indices))
