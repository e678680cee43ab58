from __future__ import annotations

import pytest

from modradical import modules, rings
from modradical.instance import parse_instance
from modradical.modules import (
    BoundExceededError,
    ModuleElement,
    ModulePresentation,
    colon_ideal,
    colon_module,
    contains,
    enumerate_submodules,
    free_module,
    full_submodule,
    ideal_times_module,
    intersect,
    join,
    presented_module,
    quotient_module,
    submodule_generate,
    zero_submodule,
)
from modradical.rings import (
    RingElement,
    ideal_generate,
    is_ideal_members,
    make_gf,
    make_product,
    make_zn,
    unit_ideal,
    zero_ideal,
)

import oracles


def xy_ring():
    """F2[x,y]/(x,y)^2, tabulated from the oracle's operations."""
    return rings._tabulate("F2[x,y]/(x,y)^2", 8,
                           oracles.row_builders(oracles.truncated_xy_operations, 8))


def rows_built(M, build):
    """Keys of the rows of kind ``build`` in the derived table of ``M``."""
    return [key for b, key in M.derived if b is build]


@pytest.fixture
def z4():
    return make_zn(4)


@pytest.fixture
def z4_line(z4):
    return free_module(z4, 1)


@pytest.fixture
def z4_plane(z4):
    return free_module(z4, 2)


def members_of(N):
    return set(N.members)


# -- construction and canonical forms -----------------------------------------


def test_free_module_sizes(z4):
    assert free_module(z4, 2).element_count == 16
    assert free_module(make_zn(2), 0).element_count == 1
    assert free_module(make_zn(12), 1).element_count == 12


def test_free_module_every_vector_is_its_own_rep(z4_plane):
    for vec in z4_plane.elements:
        assert z4_plane.reduce(vec) == vec


def test_element_bound_is_enforced():
    with pytest.raises(BoundExceededError) as err:
        free_module(make_zn(12), 5)  # 12^5 = 248832
    assert "--element-bound" in str(err.value)


def test_presented_module_interning(z4):
    a = presented_module(z4, 2, [(2, 0)])
    b = presented_module(z4, 2, [(2, 0), (0, 0)])
    assert a is b  # same relation submodule


def test_relation_submodule_is_generated_at_most_once_per_cold_request(monkeypatch, z4):
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    calls = []
    span = modules._relation_span
    monkeypatch.setattr(modules, "_relation_span",
                        lambda *args: calls.append(args) or span(*args))
    M = presented_module(z4, 2, [(2, 0)])
    assert len(calls) == 1
    calls.clear()
    q = quotient_module(M, submodule_generate(M, [(0, 2)]))
    assert q.module.element_count == 4 and calls == []


def test_reduction_canonicalization_exhaustive():
    # reduce(v) == reduce(w) iff v - w lies in the relation submodule
    cases = [
        presented_module(make_zn(4), 1, [(2,)]),
        presented_module(make_zn(6), 1, [(4,)]),
        presented_module(make_zn(4), 2, [(2, 0)]),
        presented_module(make_zn(2), 3, [(1, 1, 0)]),
    ]
    for M in cases:
        ring = M.ring
        vectors = list(__import__("itertools").product(range(ring.size), repeat=M.rank))
        assert len(vectors) <= 256
        for v in vectors:
            for w in vectors:
                diff = tuple(ring.sub(a, b) for a, b in zip(v, w))
                same = M.reduce(v) == M.reduce(w)
                assert same == (diff in M.relation_members)


def test_rep_of_rep_is_itself():
    M = presented_module(make_zn(6), 2, [(3, 3)])
    for rep in M.elements:
        assert M.reduce(rep) == rep


def test_coset_count_times_relation_size_is_ambient():
    M = presented_module(make_zn(6), 2, [(2, 0), (0, 3)])
    assert M.element_count * len(M.relation_members) == 36


_Z2Z4 = [make_zn(2), make_zn(4)]


@pytest.mark.parametrize("ring, rank, relations", [
    pytest.param(make_zn(12), 1, [], id="z12-rank1"),
    pytest.param(make_zn(12), 2, [], id="z12-rank2"),
    pytest.param(make_zn(12), 3, [], id="z12-rank3"),
    pytest.param(make_gf(2, 2, [1, 1, 1]), 2, [], id="gf4-rank2"),
    pytest.param(make_product(_Z2Z4), 2, [], id="z2z4-rank2"),
    pytest.param(make_zn(4), 0, [], id="z4-rank0"),
    pytest.param(make_zn(4), 2, [(2, 0)], id="z4-rank2-mod-20"),
    pytest.param(make_zn(4), 3, [(1, 2, 3), (0, 2, 2)], id="z4-rank3-mod-123-022"),
    pytest.param(make_product(_Z2Z4), 2, [(3, 2)], id="z2z4-rank2-mod-32"),
])
def test_coded_arithmetic_matches_tuple_oracle(ring, rank, relations):
    # built directly, so not interned: no row exists before the lone products
    M = ModulePresentation(ring, rank, modules._relation_span(ring, rank, relations))
    oracle = oracles.CosetArithmetic(ring, rank, relations)
    assert list(M.elements) == oracle.elements
    n, scalars = M.element_count, range(ring.size)
    scaled = [[oracle.scale(r, i) for i in range(n)] for r in scalars]
    js = range(0, n, max(1, n // 100))   # every summand i, a spread of j
    sums = [[oracle.add(i, j) for j in js] for i in range(n)]
    assert [[M.scale_i(r, i) for i in range(n)] for r in scalars] == scaled
    assert [[M.add_i(i, j) for j in js] for i in range(n)] == sums
    assert not rows_built(M, modules._scaled_row) and not rows_built(M, modules._add_row)
    assert [M.scaled_row(r) for r in scalars] == scaled
    assert [[M.add_row(i)[j] for j in js] for i in range(n)] == sums
    for vec in oracle.vectors:
        assert M.reduce(vec) == oracle.reduce(vec)
        assert M.index_of(vec) == oracle.index_of(vec)
    assert M.zero_index == oracle.index_of((ring.zero,) * rank)


def test_module_element_rejects_non_canonical_reps():
    M = presented_module(make_zn(4), 2, [(2, 0)])
    assert M.element((2, 1)).rep == (0, 1)
    for rep in [(2, 1), (0, 4), (0,), (0, 1, 0), [0, 1], ("0", 1)]:
        with pytest.raises(ValueError):
            ModuleElement(M, rep)
    assert ModuleElement(M, (1, 3)).rep == (1, 3)


# -- the two argument rules: rings._as_code for a scalar, index_of for an element ------

Z4 = make_zn(4)
PLANE = free_module(Z4, 2)   # (Z/4)^2, where the index of (a, b) is 4a + b
N20 = submodule_generate(PLANE, [(2, 0)])
Q20 = quotient_module(PLANE, N20)

# each entry point with its argument x put where a scalar goes
SCALAR_SLOTS = {
    "submodule_generate": lambda x: submodule_generate(PLANE, [(x, 0)]),
    "colon_ideal": lambda x: colon_ideal(N20, (x, 0)),
    "Quotient.forward": lambda x: Q20.forward((x, 0)),
    "presented_module relations": lambda x: presented_module(Z4, 2, [(x, 0)]),
    "ideal_generate": lambda x: ideal_generate(Z4, [x]),
    "RingElement": lambda x: RingElement(Z4, x),
    "r * m": lambda x: x * PLANE.element((1, 2)),
}
NOT_A_SCALAR = "a scalar of Z/4 is an element or an int code, not "
BAD_SCALARS = {
    "float": (2.5, TypeError, NOT_A_SCALAR + "float 2.5"),
    "str": ("1", TypeError, NOT_A_SCALAR + "str '1'"),
    "bool": (True, TypeError, NOT_A_SCALAR + "bool True"),
    "negative": (-1, ValueError, "code -1 out of range for Z/4"),
    "too-large": (4, ValueError, "code 4 out of range for Z/4"),
    "other-ring": (make_zn(8).element(3), ValueError,
                   "elements of different rings: 3@Z/8 is not in Z/4"),
}
OUT_OF_PLANE = "out of range for Module(Z/4^2, 16 elements)"
REJECTED = [
    *(pytest.param(SCALAR_SLOTS[entry], *BAD_SCALARS[kind], id=f"{entry}-{kind}")
      for entry in SCALAR_SLOTS for kind in BAD_SCALARS
      # RingElement gave this range error already; the pinned text is its own
      if not (entry == "RingElement" and kind in ("negative", "too-large"))),
    # an int in an element's place is an index, checked as one
    *(pytest.param(call, x, error, message, id=f"{entry}-index-{kind}")
      for entry, call in [("submodule_generate", lambda x: submodule_generate(PLANE, [x])),
                          ("colon_ideal", lambda x: colon_ideal(N20, x)),
                          ("Quotient.forward", Q20.forward)]
      for kind, x, error, message in [
          ("negative", -1, ValueError, "index -1 " + OUT_OF_PLANE),
          ("too-large", 16, ValueError, "index 16 " + OUT_OF_PLANE),
          ("bool", True, TypeError, "'bool' object is not iterable")]),
    pytest.param(lambda x: ModuleElement(PLANE, (x, 0)), True, ValueError,
                 "(True, 0) is not a canonical representative", id="ModuleElement-bool"),
]


@pytest.mark.parametrize("call, x, error, message", REJECTED)
def test_every_public_argument_passes_the_one_rule_of_its_kind(call, x, error, message):
    with pytest.raises(error) as err:
        call(x)
    assert str(err.value) == message


def test_each_accepted_argument_form_names_what_it_named_before():
    m = PLANE.element((1, 2))
    for g in [(1, 2), (Z4.element(1), 2), m, 6]:   # a vector, an element, an index
        assert submodule_generate(PLANE, [g]).members == ((0, 0), (1, 2), (2, 0), (3, 2))
        assert submodule_generate(PLANE, [g]).generator_indices == (6,)
        assert colon_ideal(N20, g).members == frozenset({0, 2})
        assert Q20.forward(g).rep == (1, 2)
    for r in [2, Z4.element(2)]:   # an int code, an element
        assert r * m == PLANE.element((2, 0))
        assert ideal_generate(Z4, [r]).members == frozenset({0, 2})
        assert presented_module(Z4, 2, [(r, 0)]) is Q20.module
        assert submodule_generate(PLANE, [(r, 0)]) == N20
    assert RingElement(Z4, 3).code == 3 and (-m).rep == (3, 2)
    assert 8 in N20 and 16 not in N20 and -1 not in N20   # an absent index is no member


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("method, key, error, message", [
    *((method, key, ValueError, f"code {key} out of range for Z/4")
      for method in ("scaled_row", "image_set", "scale_i") for key in (-1, 4)),
    *(("add_row", key, ValueError, f"index {key} " + OUT_OF_PLANE) for key in (-1, 16)),
    # a valid scalar or element in another form is not the key of a row
    ("scaled_row", Z4.element(1), TypeError, None),
    ("add_row", (1, 0), TypeError, None),
])
def test_index_arithmetic_rejects_a_bad_key_and_keeps_no_row(method, key, error, message,
                                                              warm):
    M = ModulePresentation(Z4, 2)   # built directly: a table of its own
    if warm:
        for r in range(Z4.size):
            M.image_set(r)
        for i in range(M.element_count):
            M.add_row(i)
    before = set(M.derived)
    call = getattr(M, method)
    with pytest.raises(error) as err:
        call(key, 5) if method == "scale_i" else call(key)
    assert message is None or str(err.value) == message
    assert set(M.derived) == before


def test_parsing_one_generator_instance_builds_no_scaled_row(monkeypatch):
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    inst = parse_instance("ring Z/16\nmodule rank=4 relations=[]\n"
                          "submodule N gens=[(4,0,0,0)]\n")
    assert inst.submodules["N"].size == 4
    assert not rows_built(inst.module, modules._scaled_row)


def test_generating_from_zero_builds_no_add_row(monkeypatch):
    # grown from zero, a submodule is the cyclic set R*g, already closed under +
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    inst = parse_instance("ring Z/16\nmodule rank=4 relations=[]\n"
                          "submodule N gens=[(4,0,0,0)]\n")
    assert inst.submodules["N"].members == ((0, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0),
                                            (12, 0, 0, 0))
    assert not rows_built(inst.module, modules._add_row)
    # a second generator joins R*g with additions, which do build rows
    two = submodule_generate(inst.module, [(4, 0, 0, 0), (0, 8, 0, 0)])
    assert two.size == 8 and rows_built(inst.module, modules._add_row)


# -- quotients -----------------------------------------------------------------


def test_quotient_of_z4_by_two_torsion_behaves_like_z2(z4_line):
    two = submodule_generate(z4_line, [(2,)])
    q = quotient_module(z4_line, two)
    Q = q.module
    assert Q.element_count == 2
    one = Q.index_of((1,))
    assert Q.add_i(one, one) == Q.zero_index


def test_quotient_by_zero_is_identity_on_reps(z4_line):
    q = quotient_module(z4_line, zero_submodule(z4_line))
    assert q.module.element_count == 4
    for rep in z4_line.elements:
        assert q.forward(rep).rep == rep


def test_quotient_by_whole_module_is_zero(z4_line):
    q = quotient_module(z4_line, full_submodule(z4_line))
    assert q.module.element_count == 1


def test_quotient_correspondence_round_trip(z4_plane):
    mp = submodule_generate(z4_plane, [(2, 0)])
    q = quotient_module(z4_plane, mp)
    for N in enumerate_submodules(z4_plane):
        if not mp.issubset(N):
            continue
        back = q.backward_submodule(q.forward_submodule(N))
        assert back.member_indices == N.member_indices
    for Nq in enumerate_submodules(q.module):
        fwd = q.forward_submodule(q.backward_submodule(Nq))
        assert fwd.member_indices == Nq.member_indices


@pytest.mark.parametrize("ring, rank, relations", [
    pytest.param(make_zn(4), 2, [], id="z4-rank2"),
    pytest.param(make_zn(4), 2, [(2, 0)], id="z4-rank2-mod-20"),
    pytest.param(make_product(_Z2Z4), 1, [], id="z2z4-rank1"),
])
def test_backward_submodule_is_span_of_lifts_and_kernel(ring, rank, relations):
    M = presented_module(ring, rank, relations)
    for Mp in enumerate_submodules(M):
        q = quotient_module(M, Mp)
        for Nq in enumerate_submodules(q.module):
            back = q.backward_submodule(Nq)
            lifted = tuple(M.index_of(q.module.elements[i]) for i in Nq.generator_indices)
            assert back.generator_indices == lifted + Mp.generator_indices
            assert back.member_indices == oracles.preimage_span(M, lifted, Mp.member_indices)


# -- submodule generation and membership ----------------------------------------


def test_submodule_generate_examples(z4_plane):
    N = submodule_generate(z4_plane, [(2, 0)])
    assert members_of(N) == {(0, 0), (2, 0)}
    assert members_of(submodule_generate(z4_plane, [])) == {(0, 0)}
    assert submodule_generate(z4_plane, [(1, 0), (0, 1)]).size == 16


def test_contains(z4_line):
    N = submodule_generate(z4_line, [(2,)])
    assert contains(N, (2,))
    assert not contains(N, (1,))
    assert contains(N, (0,))


def test_submodule_contains_reduces_vectors():
    M = presented_module(make_zn(4), 1, [(2,)])
    N = zero_submodule(M)
    # (2,) reduces to the zero coset in Z/4 / <2>
    assert (2,) in N and (1,) not in N


# -- colon ideals -----------------------------------------------------------------


def test_colon_ideal_examples(z4_line, z4_plane):
    N0 = zero_submodule(z4_line)
    assert colon_ideal(N0, (2,)).members == frozenset({0, 2})
    N = submodule_generate(z4_line, [(2,)])
    assert colon_ideal(N, (2,)).members == frozenset(range(4))  # m in N
    N2 = submodule_generate(z4_plane, [(2, 0)])
    assert colon_ideal(N2, (0, 2)).members == frozenset({0, 2})


def test_colon_ideal_is_always_an_ideal(z4_plane):
    for N in enumerate_submodules(z4_plane):
        for rep in z4_plane.elements:
            I = colon_ideal(N, rep)
            assert is_ideal_members(z4_plane.ring, I.members)


def test_colon_module_examples(z4_plane):
    two_m = submodule_generate(z4_plane, [(2, 0), (0, 2)])
    assert colon_module(two_m, z4_plane).members == frozenset({0, 2})
    assert colon_module(full_submodule(z4_plane), z4_plane).members == frozenset(range(4))
    z6_plane = free_module(make_zn(6), 2)
    assert colon_module(zero_submodule(z6_plane), z6_plane).members == frozenset({0})


def test_colon_module_is_intersection_of_element_colons(z4_plane):
    for N in enumerate_submodules(z4_plane):
        expected = frozenset(range(4))
        for rep in z4_plane.elements:
            expected &= colon_ideal(N, rep).members
        assert colon_module(N, z4_plane).members == expected


def test_colon_module_contained_in_every_colon_ideal(z4_plane):
    for N in enumerate_submodules(z4_plane):
        cm = colon_module(N, z4_plane).members
        for rep in z4_plane.elements:
            assert cm <= colon_ideal(N, rep).members


# -- ideal action -----------------------------------------------------------------


def test_ideal_times_module_examples(z4_plane):
    ring = z4_plane.ring
    two = ideal_generate(ring, [2])
    N = ideal_times_module(two, z4_plane)
    assert members_of(N) == {(0, 0), (0, 2), (2, 0), (2, 2)}
    assert ideal_times_module(zero_ideal(ring), z4_plane).is_zero
    assert ideal_times_module(unit_ideal(ring), z4_plane).size == 16


def test_colon_module_action_is_contained_in_submodule(z4_plane):
    # (N : M) * M <= N for every submodule N
    for N in enumerate_submodules(z4_plane):
        I = colon_module(N, z4_plane)
        assert ideal_times_module(I, z4_plane).issubset(N)


# -- intersection and join ---------------------------------------------------------


def test_intersect_and_join_examples(z4_line, z4_plane):
    two = submodule_generate(z4_line, [(2,)])
    whole = full_submodule(z4_line)
    assert intersect(two, whole).member_indices == two.member_indices
    assert intersect(two, two).member_indices == two.member_indices
    a = submodule_generate(z4_plane, [(2, 0)])
    b = submodule_generate(z4_plane, [(0, 2)])
    assert members_of(join(a, b)) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_intersect_rejects_module_mismatch(z4_line, z4_plane):
    with pytest.raises(ValueError):
        intersect(zero_submodule(z4_line), zero_submodule(z4_plane))
    with pytest.raises(ValueError):
        join(zero_submodule(z4_line), zero_submodule(z4_plane))


# -- lattice enumeration ------------------------------------------------------------


def test_enumerate_submodules_examples(z4_line):
    lat = enumerate_submodules(z4_line)
    assert [members_of(N) for N in lat] == [{(0,)}, {(0,), (2,)}, {(0,), (1,), (2,), (3,)}]
    z2_plane = free_module(make_zn(2), 2)
    assert len(enumerate_submodules(z2_plane)) == 5
    zero_mod = free_module(make_zn(2), 0)
    assert len(enumerate_submodules(zero_mod)) == 1


def test_enumerate_submodules_matches_subset_oracle():
    cases = [
        free_module(make_zn(4), 1),
        free_module(make_zn(2), 2),
        free_module(make_zn(6), 1),
        free_module(make_zn(4), 2),          # 16 elements
        presented_module(make_zn(4), 2, [(2, 2)]),
        free_module(make_zn(12), 1),
    ]
    for M in cases:
        expected = sorted(oracles.all_submodule_sets(M),
                          key=lambda s: (len(s), sorted(s)))
        got = enumerate_submodules(M)
        assert [sorted(N.member_indices) for N in got] == [sorted(s) for s in expected]


@pytest.mark.parametrize("make_module", [
    pytest.param(lambda: free_module(make_zn(3), 2), id="z3-rank2"),
    pytest.param(lambda: free_module(make_zn(2), 3), id="z2-rank3"),
    pytest.param(lambda: free_module(make_zn(4), 2), id="z4-rank2"),
    pytest.param(lambda: presented_module(make_zn(4), 2, [(2, 2)]), id="z4-rank2-mod-22"),
    pytest.param(lambda: free_module(make_product([make_zn(2), make_zn(4)]), 1),
                 id="z2z4-rank1"),
    # non-field modules where a cyclic set inside S + C joins S to a smaller set
    pytest.param(lambda: free_module(make_zn(8), 2), id="z8-rank2"),
    pytest.param(lambda: free_module(make_zn(6), 2), id="z6-rank2"),
    pytest.param(lambda: free_module(make_product([make_zn(2), make_zn(4)]), 2),
                 id="z2z4-rank2"),
    pytest.param(lambda: free_module(make_gf(2, 2, [1, 1, 1]), 2), id="gf4-rank2"),
    pytest.param(lambda: presented_module(make_product([make_zn(2), make_zn(4)]), 2, [(1, 2)]),
                 id="z2z4-rank2-mod-12"),
    # over a local ring whose maximal ideal is not principal
    pytest.param(lambda: free_module(xy_ring(), 2), id="xy-rank2"),
    # recorded tuples of length 3 and 4, so that sets drop more than one element
    pytest.param(lambda: free_module(make_zn(2), 4), id="z2-rank4"),
    pytest.param(lambda: free_module(make_zn(3), 3), id="z3-rank3"),
])
def test_enumerate_submodules_matches_breadth_first_reference(make_module):
    M = make_module()
    expected = oracles.breadth_first_joins(M.element_count, M.zero_index, M.add_i,
                                           M.scale_i, range(M.ring.size))
    got = [(sorted(N.member_indices), N.generator_indices) for N in enumerate_submodules(M)]
    assert got == expected


@pytest.mark.parametrize("make_module", [
    pytest.param(lambda: free_module(make_zn(6), 2), id="z6-rank2"),
    pytest.param(lambda: free_module(make_product([make_zn(2), make_zn(4)]), 1),
                 id="z2z4-rank1"),
    pytest.param(lambda: free_module(make_zn(3), 3), id="z3-rank3"),
    pytest.param(lambda: free_module(make_zn(2), 4), id="z2-rank4"),
    pytest.param(lambda: presented_module(make_zn(4), 2, [(2, 2)]), id="z4-rank2-mod-22"),
    pytest.param(lambda: free_module(xy_ring(), 1), id="xy-rank1"),
])
def test_listed_generators_are_the_least_shortest_cyclic_tuples(make_module):
    M = make_module()
    got = {N.member_indices: N.generator_indices for N in enumerate_submodules(M)}
    assert got == oracles.least_generator_tuples(M)


@pytest.mark.parametrize("ring, rank, distinct_joins, closures", [
    # 13 lines from zero, 4 planes above each line, the whole space above each plane.
    # The walk joins 13 times from zero, once per line; 39 times from the lines, as
    # each of the 13 planes is joined from each of its 4 lines but the last in the
    # cyclic order; and once from the planes.  In that order the lines are 1-13,
    # and lines 1-4 make up the plane x = 0.  Every other plane is recorded as a
    # pair (a, b) with b >= 5, and for a later line c the plane through lines b
    # and c meets x = 0 in a line before b, so (b, c) is not recorded.  The plane
    # x = 0 reaches the whole space with its first join.
    (make_zn(3), 3, 13 + 13 * 4 + 13 * 1, 13 + 13 * 3 + 1),
    (make_product([make_zn(2), make_zn(4)]), 2, 552, 307),
], ids=["z3-rank3", "z2z4-rank2"])
def test_lattice_joins_only_candidates_with_recorded_subtuples(monkeypatch, ring, rank,
                                                               distinct_joins, closures):
    # built directly, so not interned: nothing about its lattice is cached yet
    M = ModulePresentation(ring, rank)
    computed = []
    closure = rings.additive_closure

    def record(start, gens, row_of):
        members = closure(start, gens, row_of)
        computed.append((frozenset(start), frozenset(members)))
        return members

    monkeypatch.setattr(rings, "additive_closure", record)
    subs = [N.member_indices for N in enumerate_submodules(M)]
    cyclics = {frozenset(M.scale_i(r, x) for r in range(ring.size))
               for x in range(M.element_count)}
    add = oracles.tabulated(M.add_i, M.element_count)
    joins = {(S, oracles.pairwise_span(S | C, add)) for S in subs for C in cyclics if not C <= S}
    assert len(joins) == distinct_joins
    assert len(computed) == closures < distinct_joins
    # no join is computed twice from one set
    assert len(set(computed)) == closures


def test_enumerate_submodules_closure_invariants(z4_plane):
    lat = enumerate_submodules(z4_plane)
    seen = set()
    for N in lat:
        assert N.member_indices not in seen
        seen.add(N.member_indices)
        regen = submodule_generate(z4_plane, list(N.generator_indices))
        assert regen.member_indices == N.member_indices


def test_enumerate_submodules_bound(z4_plane):
    with pytest.raises(BoundExceededError) as err:
        enumerate_submodules(z4_plane, lattice_bound=8)
    assert "--lattice-bound" in str(err.value)


def test_rank_zero_module_fully_supported(z4):
    M = free_module(z4, 0)
    assert M.element_count == 1
    assert enumerate_submodules(M)[0].size == 1
    N = zero_submodule(M)
    assert colon_ideal(N, ()).members == frozenset(range(4))
    assert not N.is_proper


# -- the column-wise colon kernel -------------------------------------------------------


COLON_MODULES = [
    pytest.param(lambda: make_zn(4), 2, [], id="z4-rank2"),
    pytest.param(lambda: make_zn(6), 2, [(2, 4)], id="z6-rank2-mod-24"),
    pytest.param(lambda: make_product([make_zn(2), make_zn(4)]), 2, [], id="z2z4-rank2"),
    pytest.param(lambda: make_gf(2, 2, [1, 1, 1]), 2, [], id="gf4-rank2"),
    pytest.param(lambda: make_zn(4), 0, [], id="z4-rank0"),
]


@pytest.mark.parametrize("make_ring, rank, relations", COLON_MODULES)
def test_colon_sets_match_per_element_colons_and_vector_oracle(make_ring, rank, relations):
    ring = make_ring()
    M = presented_module(ring, rank, relations)
    arith = oracles.CosetArithmetic(ring, rank, relations)
    assert list(M.elements) == arith.elements
    for N in enumerate_submodules(M):
        colons = list(modules.colon_sets(N))
        assert colons == [modules.colon_codes(N, i) for i in range(M.element_count)]
        reps = set(N.members)
        assert colons == [oracles.colon_by_vectors(arith, reps, m) for m in M.elements]
        # equal columns share one frozenset
        assert len({id(c) for c in colons}) == len(set(colons))

