"""Invariant checks driven by randomized instances (hypothesis)."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

import oracles

from modradical.instance import parse_instance, parse_ring_descriptor, render_instance
from modradical.modules import (
    colon_ideal,
    colon_module,
    enumerate_submodules,
    ideal_times_module,
    intersect,
    join,
    presented_module,
    submodule_generate,
)
from modradical.predicates import is_semiprime_submodule, semiprime_by_scan
from modradical.radical import radical_by_iteration, radical_by_nil, radical_by_primes
from modradical.report import render_structured
from modradical.rings import (
    ideal_generate,
    is_ideal_members,
    make_gf,
    make_product,
    make_zn,
)

SMALL_RINGS = [
    make_zn(2), make_zn(3), make_zn(4), make_zn(6), make_zn(8), make_zn(9),
    make_zn(12), make_gf(2, 2, [1, 1, 1]), make_gf(3, 2, [1, 0, 1]),
    make_product([make_zn(2), make_zn(4)]), make_product([make_zn(3), make_zn(3)]),
]

rings = st.sampled_from(SMALL_RINGS)


@st.composite
def ring_and_codes(draw, max_codes=4):
    ring = draw(rings)
    count = draw(st.integers(0, max_codes))
    codes = [draw(st.integers(0, ring.size - 1)) for _ in range(count)]
    return ring, codes


@st.composite
def presentations(draw):
    ring = draw(rings)
    rank = draw(st.integers(1, 2))
    nrels = draw(st.integers(0, 2))
    rels = [tuple(draw(st.integers(0, ring.size - 1)) for _ in range(rank))
            for _ in range(nrels)]
    return presented_module(ring, rank, rels)


@st.composite
def module_and_submodule(draw):
    M = draw(presentations())
    count = draw(st.integers(0, 2))
    gens = [M.elements[draw(st.integers(0, M.element_count - 1))]
            for _ in range(count)]
    return M, submodule_generate(M, gens)


@given(ring_and_codes())
@settings(max_examples=60, deadline=None)
def test_ideal_generate_is_idempotent_and_an_ideal(data):
    ring, codes = data
    I = ideal_generate(ring, codes)
    assert is_ideal_members(ring, I.members)
    assert ideal_generate(ring, sorted(I.members)).members == I.members


@given(st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_zn_descriptor_round_trip(n):
    ring = make_zn(n)
    assert parse_ring_descriptor(ring.descriptor) is ring


@given(presentations(), st.data())
@settings(max_examples=40, deadline=None)
def test_reduction_respects_cosets(M, data):
    ring = M.ring
    vec = lambda: tuple(data.draw(st.integers(0, ring.size - 1))
                        for _ in range(M.rank))
    v, w = vec(), vec()
    diff = tuple(ring.sub(a, b) for a, b in zip(v, w))
    assert (M.reduce(v) == M.reduce(w)) == (diff in M.relation_members)
    assert M.reduce(M.reduce(v)) == M.reduce(v)


@given(presentations())
@settings(max_examples=30, deadline=None)
def test_lattice_matches_breadth_first_reference(M):
    assume(M.element_count <= 64)
    expected = oracles.breadth_first_joins(M.element_count, M.zero_index, M.add_i,
                                           M.scale_i, range(M.ring.size))
    got = [(sorted(N.member_indices), N.generator_indices) for N in enumerate_submodules(M)]
    assert got == expected


@given(module_and_submodule(), st.data())
@settings(max_examples=40, deadline=None)
def test_colon_containments(pair, data):
    M, N = pair
    m = M.elements[data.draw(st.integers(0, M.element_count - 1))]
    full_colon = colon_module(N, M)
    assert full_colon.members <= colon_ideal(N, m).members
    assert ideal_times_module(full_colon, M).issubset(N)


@given(module_and_submodule(), st.data())
@settings(max_examples=30, deadline=None)
def test_intersection_of_semiprimes_is_semiprime(pair, data):
    M, N1 = pair
    count = data.draw(st.integers(0, 2))
    gens = [M.elements[data.draw(st.integers(0, M.element_count - 1))]
            for _ in range(count)]
    N2 = submodule_generate(M, gens)
    S1 = radical_by_primes(N1)   # radicals are semiprime
    S2 = radical_by_primes(N2)
    assert is_semiprime_submodule(intersect(S1, S2)).holds


@given(module_and_submodule(), st.data())
@settings(max_examples=30, deadline=None)
def test_radical_is_monotone_under_join(pair, data):
    M, N1 = pair
    count = data.draw(st.integers(0, 2))
    gens = [M.elements[data.draw(st.integers(0, M.element_count - 1))]
            for _ in range(count)]
    N2 = submodule_generate(M, gens)
    bigger = join(N1, N2)
    assert radical_by_primes(N1).issubset(radical_by_primes(bigger))


NIL_RINGS = [make_zn(n) for n in (2, 3, 4, 6, 8, 9, 12, 16)] + [
    make_gf(2, 2, [1, 1, 1]), make_product([make_zn(2), make_zn(4)])]


@st.composite
def small_module_and_submodule(draw):
    """A free or presented module of at most 16 elements, so that the
    definition oracle stays quick, and a submodule of it."""
    ring = draw(st.sampled_from(NIL_RINGS))
    rank = draw(st.integers(0, 2))
    rels = [tuple(draw(st.integers(0, ring.size - 1)) for _ in range(rank))
            for _ in range(draw(st.integers(0, 2)))]
    M = presented_module(ring, rank, rels)
    assume(M.element_count <= 16)
    gens = [M.elements[draw(st.integers(0, M.element_count - 1))]
            for _ in range(draw(st.integers(0, 2)))]
    return M, submodule_generate(M, gens)


@given(small_module_and_submodule())
@settings(max_examples=80, deadline=None)
def test_semiprime_decision_from_nil_matches_the_literal_scan(pair):
    M, N = pair
    verdict = is_semiprime_submodule(N)
    assert verdict == semiprime_by_scan(N)
    assert verdict.holds == oracles.is_semiprime_by_definition(M, N.member_indices)
    assert verdict.holds or verdict.witness.replays()
    assert radical_by_nil(N).member_indices == radical_by_iteration(N)[0].member_indices


@given(module_and_submodule())
@settings(max_examples=30, deadline=None)
def test_instance_render_parse_round_trip(pair):
    M, N = pair
    text = (f"ring {M.ring.descriptor}\n"
            f"module rank={M.rank} relations="
            f"[{','.join('(' + ','.join(map(str, r)) + ')' for r in sorted(M.relation_members))}]\n"
            f"submodule N gens="
            f"[{','.join('(' + ','.join(map(str, g)) + ')' for g in N.generators)}]\n")
    first = parse_instance(text)
    second = parse_instance(render_instance(first))
    assert second.module == first.module
    assert second.submodules["N"].member_indices == \
        first.submodules["N"].member_indices


# Report trees whose dict keys never tie once rendered: distinct text under
# str, and digit keys only as str of an int, so no "01" beside "1".
report_scalars = st.none() | st.booleans() | st.integers(-3, 30) | st.text("ab.\\\n9 ", max_size=3)
report_keys = st.integers(0, 30) | st.integers(0, 30).map(str) | st.text("abz_.-", max_size=3)
report_trees = st.recursive(
    report_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(st.tuples(report_keys, children), max_size=4,
                                 unique_by=lambda kv: str(kv[0])).map(dict)),
    max_leaves=25)


@given(st.lists(st.tuples(report_keys, report_trees), max_size=5,
                unique_by=lambda kv: str(kv[0])).map(dict))
@settings(max_examples=100, deadline=None)
def test_structured_report_walk_writes_the_sorted_lines(data):
    assert render_structured(data) == oracles.structured_by_sorting(data)
