from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from modradical import modules, predicates
from modradical.cli import main
from modradical.modules import (
    enumerate_submodules,
    free_module,
    full_submodule,
    intersect,
    presented_module,
    quotient_module,
    submodule_generate,
    zero_submodule,
)
from modradical.predicates import (
    Verdict,
    compare_notions,
    is_cimpric_semiprime,
    is_dauns_semiprime,
    is_prime_submodule,
    is_semiprime_submodule,
    prime_by_colon,
    prime_by_scan,
    semiprime_by_scan,
)
from modradical.radical import first_radical_step, prime_submodules
from modradical.rings import is_semiprime_ideal, make_gf, make_product, make_zn
from modradical.modules import colon_ideal

import oracles


@pytest.fixture
def z4_line():
    return free_module(make_zn(4), 1)


@pytest.fixture
def z6_line():
    return free_module(make_zn(6), 1)


@pytest.fixture
def z4_plane():
    return free_module(make_zn(4), 2)


SMALL_MODULES = [
    lambda: free_module(make_zn(4), 1),
    lambda: free_module(make_zn(6), 1),
    lambda: free_module(make_zn(2), 2),
    lambda: free_module(make_zn(4), 2),
    lambda: free_module(make_zn(12), 1),
    lambda: free_module(make_gf(2, 2, [1, 1, 1]), 1),
    lambda: free_module(make_product([make_zn(2), make_zn(4)]), 1),
    lambda: presented_module(make_zn(4), 2, [(2, 2)]),
    lambda: presented_module(make_zn(8), 1, [(4,)]),
]


# -- prime ---------------------------------------------------------------------


def test_prime_examples(z4_line):
    two = submodule_generate(z4_line, [(2,)])
    assert is_prime_submodule(two).holds
    v = is_prime_submodule(zero_submodule(z4_line))
    assert not v.holds
    assert v.witness.r == 2 and v.witness.m == (2,)
    assert not is_prime_submodule(full_submodule(z4_line)).holds


def test_prime_matches_definition_oracle():
    for factory in SMALL_MODULES:
        M = factory()
        if M.element_count > 16:
            continue
        expected = {frozenset(s) for s in oracles.prime_sets_by_definition(M)}
        got = {N.member_indices for N in enumerate_submodules(M)
               if is_prime_submodule(N).holds}
        assert got == expected


# -- prime, decided from (P:M) --------------------------------------------------


PRIME_ORACLE_MODULES = SMALL_MODULES + [
    lambda: free_module(make_zn(4), 3),
    lambda: free_module(make_gf(2, 2, [1, 1, 1]), 2),
    lambda: free_module(make_product([make_zn(2), make_zn(4)]), 2),
    lambda: free_module(make_zn(6), 2),
]


def _first_violator(P):
    """The first (r, m index) with r*m in P, m outside P and r*M not inside P."""
    M = P.module
    ms = P.member_indices
    for r in range(M.ring.size):
        scaled = [M.scale_i(r, i) for i in range(M.element_count)]
        if set(scaled) <= ms:
            continue
        for mi, rm in enumerate(scaled):
            if rm in ms and mi not in ms:
                return r, mi
    return None


@pytest.mark.parametrize("index", range(len(PRIME_ORACLE_MODULES)))
def test_prime_verdicts_and_witnesses_match_the_literal_definition(index):
    M = PRIME_ORACLE_MODULES[index]()
    for N in enumerate_submodules(M):
        verdict = is_prime_submodule(N)
        assert (verdict.holds == prime_by_colon(N)
                == oracles.is_prime_by_definition(M, N.member_indices))
        if verdict.holds or not N.is_proper:
            assert verdict.witness is None
            continue
        r, mi = _first_violator(N)
        assert (verdict.witness.r, verdict.witness.m) == (r, M.elements[mi])
        assert verdict.witness.replays() and verdict == prime_by_scan(N)


def _gaussian_binomial(n: int, d: int, q: int) -> int:
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("ring,rank,residue_sizes,count", [
    (lambda: make_zn(4), 4, (2,), 66),
    (lambda: make_zn(6), 3, (2, 3), 42),
    (lambda: make_zn(3), 5, (3,), 2663),
    (lambda: make_zn(2), 6, (2,), 2824),
    (lambda: make_gf(2, 2, [1, 1, 1]), 4, (4,), 528),
    (lambda: make_zn(16), 2, (2,), 4),
    (lambda: make_product([make_zn(2), make_zn(8)]), 2, (2, 2), 8),
])
def test_prime_count_is_the_gaussian_binomial_sum(ring, rank, residue_sizes, count):
    # the primes P with (P:M) = p are the preimages of the proper subspaces of
    # M/pM = (R/p)^rank, one residue field size q = |R/p| per maximal ideal p
    expected = sum(_gaussian_binomial(rank, d, q) for q in residue_sizes for d in range(rank))
    assert expected == count
    assert len(prime_submodules(free_module(ring(), rank))) == count


Z16_RANK4 = "ring Z/16\nmodule rank=4 relations=[]\n"


def _scaled_rows_built(M):
    return [r for build, r in M.derived if build is modules._scaled_row]


def _check_prime_on_z16_rank4(monkeypatch, tmp_path, capsys, gens):
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    path = tmp_path / "z16.instance"
    path.write_text(f"{Z16_RANK4}submodule P gens=[{gens}]\n", encoding="utf-8")
    assert main(["check-prime", str(path), "P", "--format", "structured"]) == 0
    (M,) = modules._PRESENTATION_CACHE.values()
    return M, capsys.readouterr().out.splitlines()


def test_a_true_prime_verdict_on_z16_rank4_builds_no_scaled_row(monkeypatch, tmp_path, capsys):
    M, out = _check_prime_on_z16_rank4(monkeypatch, tmp_path, capsys,
                                       "(1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,2)")
    assert "holds = true" in out
    assert _scaled_rows_built(M) == []


def test_a_false_prime_verdict_on_z16_rank4_skips_the_units(monkeypatch, tmp_path, capsys):
    M, out = _check_prime_on_z16_rank4(monkeypatch, tmp_path, capsys, "(4,0,0,0)")
    assert "holds = false" in out
    assert "witness.r = 2" in out and "witness.m = (0,0,0,8)" in out
    # (P:M) = {0}; 1 is a unit, so 2 is the first scalar scanned
    assert _scaled_rows_built(M) == [2]
    P = submodule_generate(M, [(4, 0, 0, 0)])
    assert is_prime_submodule(P) == prime_by_scan(P)


def test_a_true_semiprime_verdict_on_z16_rank4_scans_nothing(monkeypatch, tmp_path):
    # N = <e1, 2e2, 2e3, 2e4> contains Nil(Z/16)M = 2M, so the verdict is decided
    # from (N:M) without a qualifier scan or a scaled row
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    scans = []
    qualifiers = predicates._qualifiers
    monkeypatch.setattr(predicates, "_qualifiers",
                        lambda N: scans.append(N) or qualifiers(N))
    path = tmp_path / "z16.instance"
    path.write_text(f"{Z16_RANK4}submodule N gens=[(1,0,0,0),(0,2,0,0),(0,0,2,0),(0,0,0,2)]\n",
                    encoding="utf-8")
    assert main(["check-semiprime", str(path), "N", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_text(encoding="utf-8").endswith("verdict: holds\n")
    (M,) = modules._PRESENTATION_CACHE.values()
    assert scans == [] and _scaled_rows_built(M) == []


def test_a_false_semiprime_verdict_on_z16_rank4_is_the_literal_scan(monkeypatch):
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    M = free_module(make_zn(16), 4)
    N = submodule_generate(M, [(4, 0, 0, 0)])
    verdict = is_semiprime_submodule(N)
    assert not verdict.holds and verdict.witness.replays()
    assert verdict.witness.m == (0, 0, 0, 4)
    assert verdict is semiprime_by_scan(N)


def test_a_false_semiprime_decision_on_a_semiprime_raises_under_optimize():
    # the raise is no assert statement, so it also holds under python -O
    code = ("from modradical import predicates\n"
            "from modradical.modules import free_module, submodule_generate\n"
            "from modradical.rings import make_zn\n"
            "two = submodule_generate(free_module(make_zn(4), 1), [(2,)])\n"
            "predicates.semiprime_by_nil = lambda N: False\n"
            "try:\n"
            "    predicates.is_semiprime_submodule(two)\n"
            "except AssertionError as exc:\n"
            "    print('rejected:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("rejected: Nil(R)M is not inside N, yet no element "
                           "violates semiprimeness\n")


def test_a_false_decision_on_a_prime_raises(monkeypatch, z4_line):
    two = submodule_generate(z4_line, [(2,)])
    monkeypatch.setattr(predicates, "prime_by_colon", lambda P: False)
    with pytest.raises(AssertionError, match="no scalar violates primeness"):
        is_prime_submodule(two)


# -- semiprime -----------------------------------------------------------------


def test_semiprime_examples(z4_line, z6_line):
    v = is_semiprime_submodule(zero_submodule(z4_line))
    assert not v.holds
    w = v.witness
    assert w.m == (2,)
    assert w.colon_members == (0, 2)
    assert w.product_members == ((0,), (2,))
    assert is_semiprime_submodule(zero_submodule(z6_line)).holds
    assert is_semiprime_submodule(full_submodule(z4_line)).holds


def test_semiprime_matches_definition_oracle():
    for factory in SMALL_MODULES:
        M = factory()
        if M.element_count > 16:
            continue
        expected = {frozenset(s) for s in oracles.semiprime_sets_by_definition(M)}
        got = {N.member_indices for N in enumerate_submodules(M)
               if is_semiprime_submodule(N).holds}
        assert got == expected
        # over a finite ring the squares condition is semiprimeness
        squares = {N.member_indices for N in enumerate_submodules(M)
                   if is_dauns_semiprime(N).holds}
        assert squares == expected


@pytest.mark.parametrize("index", range(len(SMALL_MODULES)))
def test_semiprime_verdict_and_radical_step_share_one_scan(index):
    M = SMALL_MODULES[index]()
    semiprime = {frozenset(s) for s in oracles.semiprime_sets_by_definition(M)}
    for N in enumerate_submodules(M):
        step, witnesses = first_radical_step(N)
        assert (step == N) == (N.member_indices in semiprime)
        verdict = is_semiprime_submodule(N)
        assert verdict.holds == (not witnesses)
        if not verdict.holds:
            w, first = verdict.witness, witnesses[0]
            assert (w.m, w.colon_members, w.product_members) == (
                first.m, first.colon_members, first.product_members)
        shared: dict = {}
        for w in witnesses:
            assert shared.setdefault(w.product_members, w.product_members) is w.product_members


# -- squares condition -----------------------------------------------------------


def test_dauns_examples(z4_line, z6_line):
    v = is_dauns_semiprime(zero_submodule(z4_line))
    assert not v.holds
    assert v.witness.r == 2 and v.witness.m == (1,)
    assert is_dauns_semiprime(zero_submodule(z6_line)).holds
    assert is_dauns_semiprime(full_submodule(z4_line)).holds


# -- coordinate condition on free modules ------------------------------------------


def test_cimpric_examples(z4_plane):
    N = submodule_generate(z4_plane, [(2, 0)])
    v = is_cimpric_semiprime(N)
    assert not v.holds
    assert v.witness.m == (0, 2)
    two_m = submodule_generate(z4_plane, [(2, 0), (0, 2)])
    assert is_cimpric_semiprime(two_m).holds
    assert is_cimpric_semiprime(full_submodule(z4_plane)).holds


def test_cimpric_rejects_non_free():
    M = presented_module(make_zn(4), 1, [(2,)])
    with pytest.raises(ValueError):
        is_cimpric_semiprime(zero_submodule(M))


# -- implications over small corpora -------------------------------------------------


def test_prime_implies_semiprime():
    for factory in SMALL_MODULES:
        M = factory()
        for N in enumerate_submodules(M):
            if is_prime_submodule(N).holds:
                assert is_semiprime_submodule(N).holds


def test_semiprime_implies_dauns_and_semiprime_colons():
    for factory in SMALL_MODULES:
        M = factory()
        for N in enumerate_submodules(M):
            if is_semiprime_submodule(N).holds:
                assert is_dauns_semiprime(N).holds
                for rep in M.elements:
                    assert is_semiprime_ideal(colon_ideal(N, rep))


def test_free_semiprime_iff_cimpric():
    for factory in SMALL_MODULES:
        M = factory()
        if not M.is_free:
            continue
        for N in enumerate_submodules(M):
            assert is_semiprime_submodule(N).holds == is_cimpric_semiprime(N).holds


def test_intersections_of_semiprimes_are_semiprime():
    for factory in SMALL_MODULES:
        M = factory()
        semis = [N for N in enumerate_submodules(M)
                 if is_semiprime_submodule(N).holds]
        for i, N1 in enumerate(semis):
            for N2 in semis[i:]:
                assert is_semiprime_submodule(intersect(N1, N2)).holds


def test_quotient_correspondence_preserves_semiprimeness():
    for factory in SMALL_MODULES:
        M = factory()
        for mp in enumerate_submodules(M):
            q = quotient_module(M, mp)
            for N in enumerate_submodules(M):
                if not mp.issubset(N):
                    continue
                assert is_semiprime_submodule(N).holds == \
                    is_semiprime_submodule(q.forward_submodule(N)).holds
            for Nq in enumerate_submodules(q.module):
                assert is_semiprime_submodule(Nq).holds == \
                    is_semiprime_submodule(q.backward_submodule(Nq)).holds


# -- witnesses -------------------------------------------------------------------


def test_every_false_verdict_ships_a_replaying_witness():
    for factory in SMALL_MODULES:
        M = factory()
        for N in enumerate_submodules(M):
            for pred in (is_semiprime_submodule, is_dauns_semiprime):
                v = pred(N)
                if not v.holds:
                    assert v.witness is not None and v.witness.replays()
            v = is_prime_submodule(N)
            if not v.holds and N.is_proper:
                assert v.witness is not None and v.witness.replays()
            if M.is_free:
                v = is_cimpric_semiprime(N)
                if not v.holds:
                    assert v.witness is not None and v.witness.replays()


# -- comparison table -------------------------------------------------------------


def test_compare_notions_z4(z4_line):
    rows = compare_notions(z4_line)
    table = {N_row.submodule.members: (N_row.prime, N_row.semiprime, N_row.dauns)
             for N_row in rows}
    assert table[((0,),)] == (False, False, False)
    assert table[((0,), (2,))] == (True, True, True)
    assert table[((0,), (1,), (2,), (3,))] == (False, True, True)
    assert all(not row.flags for row in rows)


def test_compare_notions_flags_squares_without_semiprime(monkeypatch, z4_line):
    # over a finite ring the squares condition is semiprimeness (PROP-COLON-SEMIPRIME)
    monkeypatch.setattr(predicates, "is_dauns_semiprime", lambda N: Verdict(True))
    flagged = {row.submodule.members: row.flags for row in compare_notions(z4_line)
               if row.flags}
    assert flagged == {((0,),): ("CONTRADICTS-THEOREM",)}


def test_compare_notions_z6(z6_line):
    rows = compare_notions(z6_line)
    zero_row = next(r for r in rows if r.submodule.is_zero)
    assert (zero_row.prime, zero_row.semiprime, zero_row.dauns) == (False, True, True)


def test_compare_notions_zero_module():
    M = free_module(make_zn(3), 0)
    rows = compare_notions(M)
    assert len(rows) == 1
    row = rows[0]
    assert not row.prime and row.semiprime and row.dauns and row.cimpric
