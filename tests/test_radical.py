from __future__ import annotations

import ast
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from modradical import modules, predicates, radical
from modradical.harness import DEFAULT_CORPUS_SPEC, expand_corpus
from modradical.modules import (
    BoundExceededError,
    ModulePresentation,
    enumerate_submodules,
    free_module,
    full_submodule,
    presented_module,
    submodule_generate,
    zero_submodule,
)
from modradical.predicates import is_semiprime_submodule, prime_by_scan, semiprime_by_scan
from modradical.radical import (
    first_radical,
    first_radical_step,
    prime_submodules,
    radical_by_iteration,
    radical_by_nil,
    radical_by_primes,
    smallest_semiprime_over,
)
from modradical.rings import make_gf, make_product, make_zn

import oracles
from test_predicates import SMALL_MODULES as PREDICATE_MODULES


@pytest.fixture
def z4_line():
    return free_module(make_zn(4), 1)


@pytest.fixture
def z12_line():
    return free_module(make_zn(12), 1)


@pytest.fixture
def z4_plane():
    return free_module(make_zn(4), 2)


SMALL_MODULES = [
    lambda: free_module(make_zn(4), 1),
    lambda: free_module(make_zn(6), 1),
    lambda: free_module(make_zn(8), 1),
    lambda: free_module(make_zn(12), 1),
    lambda: free_module(make_zn(2), 2),
    lambda: free_module(make_zn(4), 2),
    lambda: free_module(make_gf(2, 2, [1, 1, 1]), 1),
    lambda: free_module(make_product([make_zn(2), make_zn(4)]), 1),
    lambda: presented_module(make_zn(8), 2, [(2, 4)]),
]


def members_of(N):
    return set(N.members)


# -- prime enumeration ---------------------------------------------------------


def test_prime_submodules_of_z4(z4_line):
    primes = prime_submodules(z4_line)
    assert [members_of(P) for P in primes] == [{(0,), (2,)}]


def test_bounds_hold_with_warm_caches(z4_plane):
    N = zero_submodule(z4_plane)
    assert len(prime_submodules(z4_plane, 256)) == 4
    radical_by_primes(N, 256)
    with pytest.raises(BoundExceededError):
        prime_submodules(z4_plane, 8)
    with pytest.raises(BoundExceededError):
        radical_by_primes(N, 8)


def test_prime_submodules_match_definition_oracle():
    for factory in SMALL_MODULES:
        M = factory()
        if M.element_count > 16:
            continue
        expected = {frozenset(s) for s in oracles.prime_sets_by_definition(M)}
        assert {P.member_indices for P in prime_submodules(M)} == expected


# -- radical by primes ----------------------------------------------------------


def test_radical_by_primes_examples(z4_line, z12_line):
    assert members_of(radical_by_primes(zero_submodule(z4_line))) == {(0,), (2,)}
    four = submodule_generate(z12_line, [(4,)])
    assert members_of(radical_by_primes(four)) == {(0,), (2,), (4,), (6,), (8,), (10,)}
    whole = full_submodule(z4_line)
    assert radical_by_primes(whole).member_indices == whole.member_indices


# -- first radical ----------------------------------------------------------------


def test_first_radical_examples(z4_line, z4_plane):
    assert members_of(first_radical(zero_submodule(z4_line))) == {(0,), (2,)}
    semiprime = submodule_generate(z4_line, [(2,)])
    assert first_radical(semiprime).member_indices == semiprime.member_indices
    N = submodule_generate(z4_plane, [(2, 0)])
    assert members_of(first_radical(N)) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_first_radical_qualifiers_recorded(z4_plane):
    from modradical.radical import first_radical_step
    N = submodule_generate(z4_plane, [(2, 0)])
    _, witnesses = first_radical_step(N)
    assert [w.m for w in witnesses] == [(0, 2), (2, 2)]
    for w in witnesses:
        assert w.submodule == N and w.replays()


def test_first_radical_step_matches_generation_from_a_full_scan(monkeypatch):
    scans = []

    def counted(N):
        scans.append(N.member_indices)
        return predicates._qualifiers(N)

    monkeypatch.setattr(radical, "_qualifiers", counted)
    for factory in SMALL_MODULES + [lambda: free_module(make_gf(2, 2, [1, 1, 1]), 2),
                                    lambda: presented_module(make_zn(6), 2, [(2, 4)]),
                                    lambda: free_module(make_zn(4), 0)]:
        # built directly from its relation submodule: not interned, so every
        # semiprime verdict starts cold
        interned = factory()
        ring, rank = interned.ring, interned.rank
        M = ModulePresentation(ring, rank, modules._relation_span(
            ring, rank, interned.relation_members))
        for N in enumerate_submodules(M):
            qualifying = dict(predicates._qualifiers(N))
            expected = modules._generate_from_indices(
                M, sorted(N.member_indices.union(qualifying)))
            assert M.derived.get((predicates._semiprime_verdict, N.member_indices)) is None
            cold = first_radical_step(N)
            semiprime = is_semiprime_submodule(N).holds
            warm = first_radical_step(N)
            for step, witnesses in (cold, warm):
                assert step.member_indices == expected.member_indices
                assert step.generator_indices == expected.generator_indices
                assert witnesses == tuple(qualifying.values())
            # a member set that contains Nil(R)M is its own step, with no scan
            assert scans == [N.member_indices] * (0 if semiprime else 2)
            scans.clear()


# -- iteration --------------------------------------------------------------------


def test_radical_by_iteration_z4(z4_line):
    N = zero_submodule(z4_line)
    fixpoint, trace = radical_by_iteration(N)
    assert members_of(fixpoint) == {(0,), (2,)}
    assert len(trace.steps) == 2
    assert members_of(trace.steps[0].submodule) == {(0,), (2,)}
    chain = [N] + [step.submodule for step in trace.steps]
    assert [members_of(after) - members_of(before)
            for before, after in zip(chain, chain[1:])] == [{(2,)}, set()]


def test_radical_by_iteration_semiprime_is_immediate(z4_line):
    semiprime = submodule_generate(z4_line, [(2,)])
    fixpoint, trace = radical_by_iteration(semiprime)
    assert fixpoint.member_indices == semiprime.member_indices
    assert len(trace.steps) == 1


def test_radical_by_iteration_plane(z4_plane):
    N = submodule_generate(z4_plane, [(2, 0)])
    fixpoint, trace = radical_by_iteration(N)
    assert members_of(fixpoint) == {(0, 0), (0, 2), (2, 0), (2, 2)}
    assert len(trace.steps) == 2


def test_cold_iteration_scans_once_per_chain_step(monkeypatch):
    # the closed form decides that the fixpoint is semiprime, so every chain
    # member but the fixpoint is scanned once and the fixpoint not at all
    scans = []

    def counted(N):
        scans.append(N.member_indices)
        return qualifiers(N)

    qualifiers = predicates._qualifiers
    for mod in (radical, predicates):
        monkeypatch.setattr(mod, "_qualifiers", counted)
    for ring, rank in ((make_zn(4), 2), (make_zn(8), 1), (make_zn(12), 1)):
        M = ModulePresentation(ring, rank)   # built directly: a cold table
        fixpoints = []
        for N in enumerate_submodules(M):
            scans.clear()
            fixpoint, trace = radical_by_iteration(N)
            chain = [N] + [step.submodule for step in trace.steps[:-1]]
            assert chain[-1].member_indices == fixpoint.member_indices
            assert scans == [S.member_indices for S in chain[:-1]]
            fixpoints.append(fixpoint)
        # checked once every chain has run, as a literal verdict would warm the table
        assert all(predicates.semiprime_by_scan(F).holds for F in fixpoints)


def test_trace_chain_is_weakly_increasing_and_replayable():
    for factory in SMALL_MODULES:
        M = factory()
        for N in enumerate_submodules(M):
            fixpoint, trace = radical_by_iteration(N)
            prev = N
            for step in trace.steps:
                assert prev.member_indices <= step.submodule.member_indices
                for w in step.witnesses:
                    assert w.submodule == prev and w.replays()
                prev = step.submodule
            assert len(trace.steps) <= M.element_count or M.element_count == 0
            assert fixpoint.member_indices == trace.fixpoint.member_indices


# -- smallest semiprime -------------------------------------------------------------


def test_smallest_semiprime_examples(z4_line, z12_line):
    assert members_of(smallest_semiprime_over(zero_submodule(z4_line))) == {(0,), (2,)}
    semiprime = submodule_generate(z4_line, [(2,)])
    assert smallest_semiprime_over(semiprime).member_indices == semiprime.member_indices
    four = submodule_generate(z12_line, [(4,)])
    assert members_of(smallest_semiprime_over(four)) == \
        {(0,), (2,), (4,), (6,), (8,), (10,)}


# -- agreement and characterization ---------------------------------------------------


def test_three_methods_agree_on_small_modules():
    for factory in SMALL_MODULES:
        M = factory()
        for N in enumerate_submodules(M):
            by_primes = radical_by_primes(N)
            by_iter, _ = radical_by_iteration(N)
            by_smallest = smallest_semiprime_over(N)
            assert by_primes.member_indices == by_iter.member_indices
            assert by_primes.member_indices == by_smallest.member_indices
            assert by_primes.member_indices == radical_by_nil(N).member_indices


def _meets_above(M):
    """The reference for the two lattice methods, read off all of M's lattice:
    for each N, the intersections of the primes and of the semiprimes above
    N, both by the literal scans."""
    lattice = enumerate_submodules(M, M.element_count)
    primes = [P.member_indices for P in lattice if prime_by_scan(P).holds]
    semiprimes = [S.member_indices for S in lattice if semiprime_by_scan(S).holds]
    whole = frozenset(range(M.element_count))

    def meet(family, ms):
        return reduce(frozenset.intersection, [F for F in family if ms <= F], whole)

    return {N.member_indices: (meet(primes, N.member_indices), meet(semiprimes, N.member_indices))
            for N in lattice}


def test_lattice_methods_match_the_full_lattice_of_m():
    # both methods walk M/N and pull back; the reference walks M itself
    modules_seen = {}
    for seed in range(3):
        spec = DEFAULT_CORPUS_SPEC._replace(
            seed=seed, relation_strategies=("free", "cyclic", "random"))
        for inst in expand_corpus(spec):
            if inst.lattice_complete:
                modules_seen[id(inst.module)] = inst.module
    for factory in PREDICATE_MODULES:
        M = factory()
        modules_seen[id(M)] = M
    assert len(modules_seen) > 200
    for M in modules_seen.values():
        meets = _meets_above(M)
        for N in enumerate_submodules(M):
            by_primes, smallest = meets[N.member_indices]
            assert radical_by_primes(N).member_indices == by_primes, (M, N)
            assert smallest_semiprime_over(N).member_indices == smallest, (M, N)


def test_semiprime_iff_radical_fixpoint():
    for factory in SMALL_MODULES:
        M = factory()
        for N in enumerate_submodules(M):
            if not N.is_proper:
                continue
            fixed = radical_by_primes(N).member_indices == N.member_indices
            assert is_semiprime_submodule(N).holds == fixed


def test_radical_monotone_and_idempotent():
    for factory in SMALL_MODULES[:6]:
        M = factory()
        lat = enumerate_submodules(M)
        rads = {N.member_indices: radical_by_primes(N) for N in lat}
        for N1 in lat:
            r1 = rads[N1.member_indices]
            again = radical_by_primes(r1)
            assert again.member_indices == r1.member_indices
            for N2 in lat:
                if N1.issubset(N2):
                    assert r1.issubset(rads[N2.member_indices])


def test_first_radical_absorbed_by_every_prime_above():
    for factory in SMALL_MODULES:
        M = factory()
        primes = prime_submodules(M)
        for N in enumerate_submodules(M):
            fr = first_radical(N)
            for P in primes:
                if N.issubset(P):
                    assert fr.issubset(P)


def test_whole_module_radical_is_whole_module():
    for factory in SMALL_MODULES[:4]:
        M = factory()
        whole = full_submodule(M)
        assert radical_by_primes(whole).member_indices == whole.member_indices
        fixpoint, _ = radical_by_iteration(whole)
        assert fixpoint.member_indices == whole.member_indices
        assert smallest_semiprime_over(whole).member_indices == whole.member_indices


def test_radical_invariants_are_checked_under_optimize():
    # a literal scan that rejects everything breaks the semiprime intersection
    # check, a step that drops to zero breaks the growing chain, and an ideal
    # test that rejects everything breaks the colon-ideal check
    code = ("from modradical import radical\n"
            "from modradical.modules import free_module, full_submodule, zero_submodule\n"
            "from modradical.predicates import Verdict\n"
            "from modradical.rings import make_zn\n"
            "M = free_module(make_zn(4), 1)\n"
            "def rejected(method, N):\n"
            "    try:\n"
            "        method(N)\n"
            "    except AssertionError as exc:\n"
            "        print('rejected:', exc)\n"
            "radical.semiprime_by_scan = lambda N: Verdict(False)\n"
            "rejected(radical.smallest_semiprime_over, zero_submodule(M))\n"
            "radical.first_radical_step = lambda N: (zero_submodule(M), ())\n"
            "rejected(radical.radical_by_iteration, full_submodule(M))\n"
            "from modradical import modules\n"
            "modules.is_ideal_members = lambda ring, members: False\n"
            "rejected(lambda N: modules.colon_ideal(N, 0), zero_submodule(M))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected: intersection [0, 1, 2, 3] of semiprimes is not semiprime",
        "rejected: radical chain shrank at step 1",
        "rejected: colon set [0, 1, 2, 3] is not an ideal in Z/4",
    ]


def test_package_has_no_assert_statements():
    # an assert vanishes under python -O; every invariant check must raise instead
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "modradical").glob("*.py"))
    assert "modules.py" in [path.name for path in paths]
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
