"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The heavy sweeps share the default corpus through session fixtures; module
interning means the predicate/radical caches are shared too, so the whole
suite stays well under the runtime target.
"""

from __future__ import annotations

import time

import pytest

from modradical.cli import main, verify_report_data
from modradical.harness import DEFAULT_CORPUS_SPEC, expand_corpus, verify_all
from modradical.modules import free_module, submodule_generate, zero_submodule
from modradical.predicates import (
    is_cimpric_semiprime,
    is_dauns_semiprime,
    is_prime_submodule,
    is_semiprime_submodule,
)
from modradical.radical import (
    first_radical,
    prime_submodules,
    radical_by_iteration,
    radical_by_primes,
    smallest_semiprime_over,
)
from modradical.report import render_structured
from modradical.rings import (
    enumerate_ideals,
    ideal_generate,
    nilpotent_radical_of_ideal,
)
from modradical.instance import parse_ring_descriptor

import oracles

RUNTIME_TARGET_SECONDS = 300


@pytest.fixture(scope="session")
def corpus():
    return expand_corpus(DEFAULT_CORPUS_SPEC)


@pytest.fixture(scope="session")
def report():
    return verify_all(DEFAULT_CORPUS_SPEC)


def _announce(n: int, text: str):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_three_way_radical_agreement(corpus, report):
    t0 = time.perf_counter()
    assert all(inst.lattice_complete for inst in corpus), \
        "every corpus module must carry its full submodule lattice"
    checked = 0
    for inst in corpus:
        for N in inst.submodules:
            by_primes = radical_by_primes(N)
            by_iteration, _ = radical_by_iteration(N)
            smallest = smallest_semiprime_over(N)
            assert by_primes.member_indices == by_iteration.member_indices, \
                f"{inst.instance_id}: primes vs iteration disagree on {N.members}"
            assert by_primes.member_indices == smallest.member_indices, \
                f"{inst.instance_id}: primes vs smallest-semiprime disagree on {N.members}"
            checked += 1
    elapsed = time.perf_counter() - t0 + report.wall_time
    assert elapsed < RUNTIME_TARGET_SECONDS
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["THM-ITERATION"].failed == 0
    assert by_id["THM-RADICAL-EQ-SEMIPRIME"].failed == 0
    _announce(1, f"radical_by_primes = radical_by_iteration = smallest_semiprime_over "
                 f"on {checked} submodules across {len(corpus)} modules "
                 f"({elapsed:.1f}s)")


def test_criterion_2_semiprime_iff_radical(corpus):
    checked = 0
    for inst in corpus:
        for N in inst.submodules:
            if not N.is_proper:
                continue
            is_radical = radical_by_primes(N).member_indices == N.member_indices
            assert is_semiprime_submodule(N).holds == is_radical, \
                f"{inst.instance_id}: semiprime/radical mismatch on {N.members}"
            checked += 1
    _announce(2, f"semiprime <=> radical submodule on {checked} proper submodules")


def test_criterion_3_anchor_z4():
    M = free_module(parse_ring_descriptor("Z/4"), 1)
    N = zero_submodule(M)

    verdict = is_semiprime_submodule(N)
    assert not verdict.holds and verdict.witness.m == (2,)

    assert set(first_radical(N).members) == {(0,), (2,)}

    fixpoint, trace = radical_by_iteration(N)
    assert set(fixpoint.members) == {(0,), (2,)}
    assert len(trace.steps) == 2

    # primes of Z/4 over itself, against the subset-enumeration oracle
    expected_primes = {frozenset(s) for s in oracles.prime_sets_by_definition(M)}
    assert expected_primes == {frozenset({M.index_of((0,)), M.index_of((2,))})}
    assert {P.member_indices for P in prime_submodules(M)} == expected_primes
    _announce(3, "Z/4 anchor: witness m=(2), first radical {0,2}, "
                 "fixpoint at index 2, primes = {{0,2}}")


def test_criterion_4_anchor_z12():
    ring = parse_ring_descriptor("Z/12")
    M = free_module(ring, 1)
    N = submodule_generate(M, [(4,)])
    expected = {(0,), (2,), (4,), (6,), (8,), (10,)}
    assert set(radical_by_primes(N).members) == expected
    fixpoint, _ = radical_by_iteration(N)
    assert set(fixpoint.members) == expected
    assert set(smallest_semiprime_over(N).members) == expected
    ideal_radical = nilpotent_radical_of_ideal(ideal_generate(ring, [4]))
    assert ideal_radical.members == frozenset({0, 2, 4, 6, 8, 10})
    assert oracles.radical_by_powers(ring, frozenset({0, 4, 8})) == ideal_radical.members
    _announce(4, "Z/12 anchor: radical of (4) is (2) by all three methods "
                 "and matches the ideal radical")


def test_criterion_5_ideal_cross_check():
    checked = 0
    for desc in DEFAULT_CORPUS_SPEC.rings:
        ring = parse_ring_descriptor(desc)
        M = free_module(ring, 1)
        for I in enumerate_ideals(ring):
            N = submodule_generate(M, [(c,) for c in sorted(I.members)])
            fixpoint, _ = radical_by_iteration(N)
            got = {vec[0] for vec in fixpoint.members}
            assert got == set(nilpotent_radical_of_ideal(I).members), \
                f"{desc}: iterated radical of {sorted(I.members)} disagrees"
            checked += 1
    _announce(5, f"module radical = ideal radical on {checked} ideals "
                 f"over {len(DEFAULT_CORPUS_SPEC.rings)} rings")


def test_criterion_6_proposition_suite(report):
    by_id = {c.claim_id: c for c in report.claims}
    for cid in ("PROP-PRIME-IMPLIES-SP", "PROP-INTERSECTION",
                "PROP-COLON-SEMIPRIME", "PROP-FREE-EQUIV",
                "PROP-QUOTIENT-CORRESPONDENCE"):
        claim = by_id[cid]
        assert claim.checked > 0, f"{cid} never ran"
        assert claim.failed == 0, f"{cid} has counterexamples: {claim.findings}"
        assert claim.skipped == 0, f"{cid} was partially skipped"
    _announce(6, "all five proposition claims exhaustive with zero exceptions "
                 f"({sum(by_id[c].checked for c in by_id)} units)")


def test_criterion_7_first_radical_absorption(corpus):
    checked = 0
    for inst in corpus:
        primes = prime_submodules(inst.module)
        for N in inst.submodules:
            fr = first_radical(N)
            for P in primes:
                if N.issubset(P):
                    assert fr.issubset(P), \
                        f"{inst.instance_id}: first radical escapes a prime over {N.members}"
                    checked += 1
    _announce(7, f"first_radical(N) <= P for all {checked} (N, prime P >= N) pairs")


def test_criterion_8_determinism_and_witness_replay(corpus, report):
    second = verify_all(DEFAULT_CORPUS_SPEC)
    first_text = render_structured(verify_report_data(report))
    second_text = render_structured(verify_report_data(second))
    assert first_text == second_text

    replayed = 0
    for inst in corpus:
        for N in inst.submodules:
            verdicts = [is_semiprime_submodule(N), is_dauns_semiprime(N)]
            if N.is_proper:
                verdicts.append(is_prime_submodule(N))
            if inst.module.is_free:
                verdicts.append(is_cimpric_semiprime(N))
            for v in verdicts:
                if not v.holds and v.witness is not None:
                    assert v.witness.replays(), \
                        f"{inst.instance_id}: witness fails to replay on {N.members}"
                    replayed += 1
    assert replayed > 0
    _announce(8, f"verify reports byte-identical; {replayed} witnesses replayed")


def test_criterion_9_cli_golden_files(capsys, tmp_path):
    from pathlib import Path
    golden = Path(__file__).parent / "golden"
    cases = [
        (("radical", str(golden / "z4_zero.instance"), "N"),
         golden / "radical_z4_zero.structured"),
        (("radical-trace", str(golden / "z4sq_torsion.instance"), "N"),
         golden / "radical_trace_z4sq.structured"),
        (("check-semiprime", str(golden / "z6_zero.instance"), "N"),
         golden / "check_semiprime_z6_zero.structured"),
    ]
    for argv, expected in cases:
        code = main([*argv, "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == expected.read_text(encoding="utf-8"), f"golden mismatch for {argv[0]}"
    _announce(9, "three documented commands byte-identical to golden files")
