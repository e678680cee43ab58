from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from modradical import rings
from modradical.harness import DEFAULT_CORPUS_SPEC
from modradical.instance import parse_ring_descriptor
from modradical.rings import (
    FiniteRing,
    RingConstructionError,
    RingElement,
    _prime_power,
    additive_closure,
    enumerate_ideals,
    ideal_generate,
    is_ideal_members,
    is_prime_ideal,
    is_semiprime_ideal,
    make_gf,
    make_product,
    make_zn,
    nilpotent_radical_of_ideal,
    unit_ideal,
    zero_ideal,
)

import oracles


SMALL_RING_FACTORIES = [
    lambda: make_zn(2),
    lambda: make_zn(3),
    lambda: make_zn(4),
    lambda: make_zn(6),
    lambda: make_zn(8),
    lambda: make_zn(9),
    lambda: make_zn(12),
    lambda: make_gf(2, 2, [1, 1, 1]),
    lambda: make_product([make_zn(2), make_zn(4)]),
]


def test_make_zn_basic_arithmetic():
    z4 = make_zn(4)
    assert z4.size == 4 and z4.zero == 0 and z4.one == 1
    assert z4.mul(2, 2) == 0
    assert z4.mul(3, 3) == 1
    z2 = make_zn(2)
    assert z2.add(1, 1) == 0 and z2.mul(1, 1) == 1
    z12 = make_zn(12)
    assert z12.mul(4, 3) == 0


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_make_zn_rejects_small_moduli(bad):
    with pytest.raises(RingConstructionError):
        make_zn(bad)


def test_make_gf4_square_law():
    # In GF(4) with x^2 + x + 1 = 0, both non-identity units satisfy u^2 = u + 1.
    gf4 = make_gf(2, 2, [1, 1, 1])
    assert gf4.size == 4
    for u in (2, 3):
        assert gf4.mul(u, u) == gf4.add(u, 1)
    # multiplicative group has order 3
    assert gf4.pow(2, 3) == 1


def test_make_gf_degree_one_matches_zn():
    gf2 = make_gf(2, 1, [0, 1])
    z2 = make_zn(2)
    assert [[gf2.add(a, b) for b in range(2)] for a in range(2)] == \
           [[z2.add(a, b) for b in range(2)] for a in range(2)]
    assert [[gf2.mul(a, b) for b in range(2)] for a in range(2)] == \
           [[z2.mul(a, b) for b in range(2)] for a in range(2)]


def test_make_gf_rejects_reducible_poly():
    with pytest.raises(RingConstructionError):
        make_gf(2, 2, [0, 0, 1])  # x^2 = x * x


def test_make_gf_rejects_composite_characteristic():
    with pytest.raises(RingConstructionError):
        make_gf(4, 1, [0, 1])


@pytest.mark.parametrize("p", [0, 1, 6, 12, 2.0, "2"])
def test_make_gf_rejects_a_characteristic_that_is_not_prime(p):
    with pytest.raises(RingConstructionError, match="characteristic must be prime"):
        make_gf(p, 1, [0, 1])


def test_prime_power_matches_a_table_of_prime_powers():
    primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
    powers = {p ** k: (p, k) for p in primes for k in range(1, 9) if p ** k < 300}
    assert [_prime_power(q) for q in range(-2, 300)] == \
        [powers.get(q) for q in range(-2, 300)]
    assert _prime_power(4.0) is None and _prime_power("4") is None


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                 (5, 2), (7, 2)])
def test_make_gf_tabulates_exactly_the_irreducible_polys(monkeypatch, p, k):
    # every monic poly of degree k; with a fresh cache, the accepted ones are
    # exactly the interned rings, so a rejected poly leaves no entry.  The
    # oracle pins every table entry.
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    reducible = oracles.monic_products(p, k)
    size = p ** k
    digits = [[a // p ** i % p for i in range(k)] for a in range(size)]
    code = {tuple(d): a for a, d in enumerate(digits)}.__getitem__
    accepted = []
    for low in product(range(p), repeat=k):
        poly = low + (1,)
        if poly in reducible:
            with pytest.raises(RingConstructionError, match="is reducible"):
                make_gf(p, k, poly)
            continue
        ring = make_gf(p, k, poly)
        accepted.append(ring.descriptor)
        for a, da in enumerate(digits):
            assert ring._add[a] == tuple(
                code(tuple((x + y) % p for x, y in zip(da, db))) for db in digits)
            assert ring._mul[a] == tuple(
                code(tuple(oracles.poly_residue_product(da, db, poly, p))) for db in digits)
    assert list(rings._RING_CACHE) == accepted
    assert len(accepted) == size - len(reducible)


def test_tabulate_sets_up_a_ring_only_on_a_cache_miss(monkeypatch):
    # operations() holds the set-up a hit skips: make_gf's field check, make_product's parts
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    calls = []

    def operations():
        calls.append("Z/3")
        return (lambda a, b: (a + b) % 3), (lambda a, b: a * b % 3)

    rows = oracles.row_builders(operations, 3)
    ring = rings._tabulate("Z/3", 3, rows)
    assert rings._tabulate("Z/3", 3, rows) is ring and calls == ["Z/3"]


def test_make_gf_rejects_non_monic():
    with pytest.raises(RingConstructionError):
        make_gf(3, 2, [1, 1, 2])


def test_product_of_coprime_factors_is_crt_isomorphic():
    prod = make_product([make_zn(2), make_zn(3)])
    assert prod.size == 6
    assert oracles.crt_map_is_ring_isomorphism(prod, 6)


def test_product_singleton_matches_factor():
    z4 = make_zn(4)
    prod = make_product([z4])
    assert all(prod.add(a, b) == z4.add(a, b) for a in range(4) for b in range(4))
    assert all(prod.mul(a, b) == z4.mul(a, b) for a in range(4) for b in range(4))


def test_product_z2_z2_has_characteristic_two():
    prod = make_product([make_zn(2), make_zn(2)])
    assert all(prod.add(a, a) == prod.zero for a in range(prod.size))


def test_product_arithmetic_is_componentwise():
    prod = make_product([make_zn(2), make_zn(4)])
    for a in range(prod.size):
        for b in range(prod.size):
            pa, pb = prod.split(a), prod.split(b)
            assert prod.split(prod.add(a, b)) == (
                (pa[0] + pb[0]) % 2, (pa[1] + pb[1]) % 4)
            assert prod.split(prod.mul(a, b)) == (
                (pa[0] * pb[0]) % 2, (pa[1] * pb[1]) % 4)


def test_product_rejects_empty_list():
    with pytest.raises(RingConstructionError):
        make_product([])


def test_ring_interning_by_descriptor():
    assert make_zn(6) is make_zn(6)
    assert make_gf(2, 2, [1, 1, 1]) is make_gf(2, 2, [1, 1, 1])


# SHA-256 of repr((descriptor, add table, mul table, zero, one)) for every
# default-corpus ring and every ring the benchmark builds: a change in code
# encoding fails here rather than only in the benchmark digests.
RING_TABLE_SHA256 = {
    "Z/2": "1a0f0ce6b3b8917f3d9271e696e653ca1d3216e497e633ba7180c5e0ce5d36a6",
    "Z/3": "080f7fed61c9e7f47315be206625a7572950374cfd5ab6e7158184405660cbe8",
    "Z/4": "7cda9110df3d9f8b48b21a8f1a8b2627aea1dddf43386e2a6aac3934c882ebed",
    "Z/5": "4cb5362f7e5e90d364bff11d13a123283894730193eec0f99c0b7c11b60b1bfd",
    "Z/6": "81e6dcb8a84bf16d4565a373da9586130ac60c115caeed13ea932593d8c9f2fe",
    "Z/8": "c09ca18474c7c4a49d42882dcf3e532d1cf9c245cf08cd0211dd12c3194d7985",
    "Z/9": "c955830d11d5ddf52d79380659ef314e722caae97205d946f75f9c81af93be40",
    "Z/12": "61ac0f675e43eb685b832614395bd466dd975c640d22cba0d0fe2222dc76ce6d",
    "GF(4) poly=[1,1,1]": "5410b0fadfb9f7976e4ea2d7f0785170d656df618e39d02ee77a754aa946a3e7",
    "product(Z/2, Z/4)": "93705bfd9ba3aca4739600bd6196f4ad03f5138de4629f02f2a6a36708839438",
    "Z/16": "51a8c77a9594272c047bddf19508fa12d10036d287490687768bdbc323d84a3c",
    "product(Z/2, Z/8)": "41c95a4475245f1061f63d985dba41c78d6aa776b4423ecce53c03c2ba9f77fb",
}


def test_ring_tables_are_pinned():
    assert set(DEFAULT_CORPUS_SPEC.rings) <= set(RING_TABLE_SHA256)
    for descriptor, digest in RING_TABLE_SHA256.items():
        r = parse_ring_descriptor(descriptor)
        table = repr((r.descriptor, r._add, r._mul, r.zero, r.one)).encode()
        assert hashlib.sha256(table).hexdigest() == digest, descriptor


def test_ring_element_operators():
    z12 = make_zn(12)
    a, b = z12.element(7), z12.element(9)
    assert (a + b).code == 4
    assert (a * b).code == 3
    assert (a - b).code == 10
    assert (-a).code == 5
    assert (a ** 2).code == 1
    assert (a + 5).code == 0
    with pytest.raises(ValueError):
        RingElement(z12, 12)


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__radd__", "__rmul__"])
def test_ring_element_operators_reject_what_is_not_an_element_of_their_ring(op):
    a = make_zn(12).element(7)
    with pytest.raises(ValueError, match="elements of different rings"):
        getattr(a, op)(make_zn(6).element(1))
    for code in (12, -1):
        with pytest.raises(ValueError, match=f"code {code} out of range for Z/12"):
            getattr(a, op)(code)
    with pytest.raises(TypeError, match="cannot combine a tuple"):
        getattr(a, op)((1,))
    assert getattr(a, op)(1.5) is NotImplemented


def test_ring_element_operators_take_an_int_on_either_side():
    a = make_zn(12).element(7)
    assert (5 + a, 5 * a, a - 9) == (a + 5, a * 5, a + 3)
    assert ((5 + a).code, (5 * a).code, (a - 9).code) == (0, 11, 10)
    with pytest.raises(TypeError):
        (1,) + a
    with pytest.raises(TypeError):
        a + "1"


# -- ideals -------------------------------------------------------------------


def test_ideal_generate_examples():
    z12 = make_zn(12)
    assert ideal_generate(z12, [4]).members == frozenset({0, 4, 8})
    assert ideal_generate(z12, []).members == frozenset({0})
    z4 = make_zn(4)
    assert ideal_generate(z4, [3]).members == frozenset(range(4))  # 3 is a unit


def test_ideal_membership_and_order():
    z12 = make_zn(12)
    assert z12.elements == range(12)
    I, J = ideal_generate(z12, [4]), ideal_generate(z12, [2])
    assert 8 in I and z12.element(8) in I
    assert 6 not in I and z12.element(6) not in I
    assert I.issubset(J) and not J.issubset(I)
    assert I.is_proper and not unit_ideal(z12).is_proper
    assert zero_ideal(z12).is_zero and not I.is_zero


def test_ideal_rejects_an_element_or_ideal_of_another_ring():
    z6, z12 = make_zn(6), make_zn(12)
    I = ideal_generate(z12, [4])
    with pytest.raises(ValueError, match="elements of different rings: 4@Z/6 is not in Z/12"):
        z6.element(4) in I
    with pytest.raises(ValueError, match="ideals of different rings"):
        zero_ideal(z6).issubset(I)
    with pytest.raises(ValueError, match="ideals of different rings"):
        I.issubset(unit_ideal(z6))
    # an int is a code of the ideal's own ring, in range or not
    assert 4 in I and 12 not in I and -1 not in I
    assert zero_ideal(z12).issubset(I)


@pytest.mark.parametrize("x", [2.0, True, "2", None])
def test_ideal_membership_takes_an_element_or_an_int_code(x):
    # 2.0 == 2 and True == 1, so a bare lookup in the member codes would answer
    with pytest.raises(TypeError) as err:
        x in ideal_generate(make_zn(4), [2])
    assert str(err.value) == (f"a scalar of Z/4 is an element or an int code, "
                              f"not {type(x).__name__} {x!r}")


# In Z/12, 6 has additive order 2, 4 order 3 and 3 order 4; in Z/2 x Z/4
# (codes a + 2b) 1 has order 2 and 2 has order 4.
@pytest.mark.parametrize("descriptor,start,gens", [
    pytest.param("Z/12", {0}, [], id="z12-none"),
    pytest.param("Z/12", {0}, [4], id="z12-order3"),
    pytest.param("Z/12", {0}, [6], id="z12-order2"),
    pytest.param("Z/12", {0}, [3, 4], id="z12-order4-then-3"),
    pytest.param("Z/12", {0}, [2, 9], id="z12-order6-then-4"),
    pytest.param("Z/12", {0, 6}, [6, 0, 4], id="z12-start2-inside-then-3"),
    pytest.param("Z/12", {0, 4, 8}, [8, 3, 6], id="z12-start3-order4-then-inside"),
    pytest.param("product(Z/2, Z/4)", {0}, [1, 2], id="z2z4-order2-then-4"),
    pytest.param("product(Z/2, Z/4)", {0, 4}, [4, 3, 5], id="z2z4-start2-inside-then-4"),
])
def test_closures_match_subset_oracles(descriptor, start, gens):
    ring = parse_ring_descriptor(descriptor)
    expected = oracles.additive_span(ring, start | set(gens))
    assert additive_closure(start, gens, ring._add.__getitem__) == expected
    codes = sorted(start) + gens
    assert ideal_generate(ring, codes).members == \
        oracles.smallest_ideal_containing(ring, codes)


def test_ideal_generate_idempotent():
    for factory in SMALL_RING_FACTORIES:
        ring = factory()
        for I in enumerate_ideals(ring):
            again = ideal_generate(ring, sorted(I.members))
            assert again.members == I.members


def test_is_semiprime_ideal_examples():
    z12 = make_zn(12)
    assert is_semiprime_ideal(ideal_generate(z12, [2]))
    z4 = make_zn(4)
    assert not is_semiprime_ideal(zero_ideal(z4))  # 2^2 = 0 but 2 not in (0)
    assert is_semiprime_ideal(unit_ideal(z4))


def test_is_prime_ideal_examples():
    z4 = make_zn(4)
    assert is_prime_ideal(ideal_generate(z4, [2]))
    z6 = make_zn(6)
    assert not is_prime_ideal(zero_ideal(z6))  # 2 * 3 = 0
    assert not is_prime_ideal(unit_ideal(z6))  # not proper


def test_nilpotent_radical_examples():
    z4 = make_zn(4)
    assert nilpotent_radical_of_ideal(zero_ideal(z4)).members == frozenset({0, 2})
    z12 = make_zn(12)
    assert nilpotent_radical_of_ideal(ideal_generate(z12, [4])).members == \
        frozenset({0, 2, 4, 6, 8, 10})
    z6 = make_zn(6)
    assert nilpotent_radical_of_ideal(zero_ideal(z6)).members == frozenset({0})


def test_nilpotent_radical_matches_power_oracle():
    for factory in SMALL_RING_FACTORIES:
        ring = factory()
        for I in enumerate_ideals(ring):
            assert nilpotent_radical_of_ideal(I).members == \
                oracles.radical_by_powers(ring, I.members)


def test_enumerate_ideals_counts_match_subset_oracle():
    for ring in (make_zn(4), make_zn(6), make_zn(12),
                 make_gf(2, 2, [1, 1, 1]), make_product([make_zn(2), make_zn(4)])):
        expected = sorted(oracles.all_ideal_sets(ring), key=lambda s: (len(s), sorted(s)))
        got = enumerate_ideals(ring)
        assert [set(I.members) for I in got] == [set(s) for s in expected]
        for I in got:
            assert is_ideal_members(ring, I.members)


@pytest.mark.parametrize("descriptor", ["Z/6", "product(Z/2, Z/4)"])
def test_is_ideal_members_matches_oracle_on_every_subset(descriptor):
    # every subset, with and without zero, so the False side is covered too
    ring = parse_ring_descriptor(descriptor)
    verdicts = []
    for k in range(ring.size + 1):
        for subset in combinations(range(ring.size), k):
            expected = ring.zero in subset and oracles._closed_ideal(ring, set(subset))
            assert is_ideal_members(ring, subset) == expected, subset
            verdicts.append(expected)
    assert verdicts.count(True) == len(oracles.all_ideal_sets(ring))


@pytest.mark.parametrize("make_ring", [
    *(pytest.param(lambda d=d: parse_ring_descriptor(d), id=d)
      for d in ["Z/12", "GF(4) poly=[1,1,1]", "product(Z/2, Z/4)", "Z/36", "product(Z/4, Z/4)"]),
    # a local ring whose maximal ideal is not principal
    pytest.param(lambda: rings._tabulate("F2[x,y]/(x,y)^2", 8, oracles.row_builders(
        oracles.truncated_xy_operations, 8)), id="F2[x,y]/(x,y)^2"),
])
def test_enumerate_ideals_matches_breadth_first_reference(make_ring):
    ring = make_ring()
    expected = oracles.breadth_first_joins(ring.size, ring.zero, ring.add, ring.mul,
                                           range(ring.size))
    assert [(sorted(I.members), I.generators) for I in enumerate_ideals(ring)] == expected


def test_prime_implies_semiprime_for_all_corpus_ideals():
    for factory in SMALL_RING_FACTORIES:
        ring = factory()
        for I in enumerate_ideals(ring):
            if is_prime_ideal(I):
                assert is_semiprime_ideal(I), \
                    f"prime but not semiprime: {I!r}"


def test_nilpotent_radical_is_smallest_semiprime_superideal():
    for factory in SMALL_RING_FACTORIES:
        ring = factory()
        if ring.size > 16:
            continue
        ideals = enumerate_ideals(ring)
        for I in ideals:
            rad = nilpotent_radical_of_ideal(I)
            assert is_semiprime_ideal(rad)
            assert I.members <= rad.members
            for J in ideals:
                if I.members <= J.members and is_semiprime_ideal(J):
                    assert rad.members <= J.members


def test_axioms_are_checked_at_construction():
    bad_add = tuple(tuple((a + b + 1) % 3 for b in range(3)) for a in range(3))
    mul = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    with pytest.raises(RingConstructionError):
        FiniteRing(3, bad_add, mul, 0, 1, "broken")
    # the axiom checks index by table entries, so an entry that is no code is
    # rejected before them, and so is a table of the wrong shape
    add = make_zn(3)._add
    big = tuple(tuple(5 if (a, b) == (2, 2) else v for b, v in enumerate(row))
                for a, row in enumerate(mul))
    with pytest.raises(RingConstructionError,
                       match=r"^broken: \* table entry at \(2,2\) is 5, not a code$"):
        FiniteRing(3, add, big, 0, 1, "broken")
    negative = (add[0], add[1], (2, -1, 1))
    with pytest.raises(RingConstructionError,
                       match=r"^broken: \+ table entry at \(2,1\) is -1, not a code$"):
        FiniteRing(3, negative, mul, 0, 1, "broken")
    with pytest.raises(RingConstructionError, match=r"^broken: the \* table is not 3 x 3$"):
        FiniteRing(3, add, mul[:2], 0, 1, "broken")
    with pytest.raises(RingConstructionError, match=r"^broken: zero 0 or one 3 is not a code$"):
        FiniteRing(3, add, mul, 0, 3, "broken")


def uv_product(a, b):
    """A commutative, distributive, unital but not associative product on (Z/2)^3:
    the code of c0 + c1*u + c2*v is c0 + 2*c1 + 4*c2, and u*u = v*v = 0, u*v = 1,
    so (u*u)*v = 0 while u*(u*v) = u."""
    (a0, a1, a2), (b0, b1, b2) = ((c & 1, c >> 1 & 1, c >> 2) for c in (a, b))
    return (a0 * b0 + a1 * b2 + a2 * b1) % 2 + 2 * ((a0 * b1 + a1 * b0) % 2) \
        + 4 * ((a0 * b2 + a2 * b0) % 2)


# Each pair of tables breaks exactly the axiom named, and no check made before it.
# + associativity is checked at (x, g, y), distributivity a*(g + x) = a*g + a*x at
# (a, g, x) and * associativity at (g, h, k), for g, h, k in the additive generators.
@pytest.mark.parametrize("add,mul,message", [
    (((0, 1), (0, 0)), ((0, 0), (0, 1)), "additive identity fails at 1"),
    (((0, 1), (1, 0)), ((0, 0), (0, 0)), "multiplicative identity fails at 1"),
    (((0, 1), (1, 1)), ((0, 0), (0, 1)), "no additive inverse for 1"),
    (((0, 0), (1, 0)), ((0, 0), (0, 1)), r"\+ not commutative at \(0,1\)"),
    (((0, 1), (1, 0)), ((0, 0), (1, 1)), r"\* not commutative at \(0,1\)"),
    (((0, 1, 2), (1, 1, 0), (2, 0, 1)), ((0, 0, 0), (0, 1, 2), (0, 2, 1)),
     r"\+ not associative at \(1,1,2\)"),
    (tuple(tuple(a ^ b for b in range(8)) for a in range(8)),
     tuple(tuple(uv_product(a, b) for b in range(8)) for a in range(8)),
     r"\* not associative at \(2,2,4\)"),
    (((0, 1), (1, 0)), ((1, 0), (0, 1)), r"distributivity fails at \(0,1,0\)"),
], ids=["add-identity", "mul-identity", "add-inverse", "add-commutative",
        "mul-commutative", "add-associative", "mul-associative", "distributive"])
def test_each_ring_axiom_is_checked_at_construction(add, mul, message):
    with pytest.raises(RingConstructionError, match=f"^broken: {message}$"):
        FiniteRing(len(add), add, mul, 0, 1, "broken")
    assert oracles.cubic_axiom_failure(add, mul, 0, 1) is not None


def constructs(add, mul, zero=0, one=1) -> bool:
    try:
        FiniteRing(len(add), add, mul, zero, one, "candidate")
    except RingConstructionError:
        return False
    return True


def symmetric_tables(n, fixed):
    """Every symmetric n x n table whose row and column ``fixed`` is the identity."""
    free = [(a, b) for a in range(n) for b in range(a, n) if fixed not in (a, b)]
    for values in product(range(n), repeat=len(free)):
        table = [[b if a == fixed else a if b == fixed else None for b in range(n)]
                 for a in range(n)]
        for (a, b), v in zip(free, values):
            table[a][b] = table[b][a] = v
        yield tuple(map(tuple, table))


def test_axiom_check_agrees_with_the_cubic_reference_on_every_small_table_pair():
    verdicts = []
    for n in (2, 3):
        for add, mul in product(list(symmetric_tables(n, 0)), list(symmetric_tables(n, 1))):
            verdicts.append(constructs(add, mul))
            assert verdicts[-1] == (oracles.cubic_axiom_failure(add, mul, 0, 1) is None), \
                (add, mul)
    # Z/2, and Z/3 with its codes 0 and 1 fixed
    assert len(verdicts) == 4 + 729 and verdicts.count(True) == 2


GF4 = "GF(4) poly=[1,1,1]"
STOCK_RINGS_UP_TO_16 = [f"Z/{n}" for n in range(2, 17)] + [GF4, "GF(8) poly=[1,1,0,1]"] + [
    f"product({', '.join(factors)})" for factors in [
        ("Z/2", "Z/2"), ("Z/2", "Z/3"), ("Z/3", "Z/2"), ("Z/2", "Z/4"), ("Z/2", GF4),
        ("Z/2", "Z/5"), ("Z/2", "Z/6"), ("Z/2", "Z/8"), ("Z/3", "Z/3"), ("Z/3", "Z/4"),
        (GF4, "Z/3"), ("Z/3", "Z/5"), ("Z/4", "Z/4"), ("Z/4", GF4), (GF4, GF4),
        ("Z/2", "Z/2", "Z/2"), ("Z/2", "Z/2", "Z/4"), ("Z/2", "Z/2", "Z/2", "Z/2")]]


@pytest.mark.parametrize("descriptor", STOCK_RINGS_UP_TO_16)
def test_axiom_check_agrees_with_the_cubic_reference_on_corrupted_stock_rings(descriptor):
    # 1-3 entries changed, each in both (a, b) and (b, a) except one change in four,
    # so most corruptions get past the commutative laws
    ring = parse_ring_descriptor(descriptor)
    rng = random.Random(f"corrupt {descriptor}")
    verdicts = []
    for _ in range(400):
        tables = [list(map(list, ring._add)), list(map(list, ring._mul))]
        for _ in range(rng.randint(1, 3)):
            table, a, b, v = rng.choice(tables), *(rng.randrange(ring.size) for _ in range(3))
            table[a][b] = v
            if rng.random() < 0.75:
                table[b][a] = v
        add, mul = (tuple(map(tuple, t)) for t in tables)
        verdicts.append(constructs(add, mul, ring.zero, ring.one))
        assert verdicts[-1] == \
            (oracles.cubic_axiom_failure(add, mul, ring.zero, ring.one) is None), (add, mul)
    assert not all(verdicts)


def test_a_corrupted_ring_past_256_elements_is_rejected():
    z257 = make_zn(257)
    mul = [list(row) for row in z257._mul]
    mul[2][3] = mul[3][2] = 7
    with pytest.raises(RingConstructionError, match=r"^broken: distributivity fails at \(2,1,2\)$"):
        FiniteRing(257, z257._add, mul, 0, 1, "broken")


def test_row_built_tables_match_the_pairwise_definitions():
    for n in range(2, 65):
        ring, codes = make_zn(n), range(n)
        assert ring._add == tuple(tuple((a + b) % n for b in codes) for a in codes)
        assert ring._mul == tuple(tuple(a * b % n for b in codes) for a in codes)
    for descriptor in STOCK_RINGS_UP_TO_16 + ["product(Z/6, GF(9) poly=[1,0,1])"]:
        ring = parse_ring_descriptor(descriptor)
        if ring.factors is None:
            continue
        for table, op in ((ring._add, FiniteRing.add), (ring._mul, FiniteRing.mul)):
            assert table == tuple(tuple(
                ring.join(map(op, ring.factors, ring.split(a), ring.split(b)))
                for b in range(ring.size)) for a in range(ring.size)), descriptor


def test_axioms_are_checked_under_optimize():
    # the multiplication table breaks the identity law: 1 * 1 = 0
    code = ("from modradical.rings import FiniteRing, RingConstructionError\n"
            "try:\n"
            "    FiniteRing(2, ((0,1),(1,0)), ((0,0),(0,0)), 0, 1, 'bogus')\n"
            "except RingConstructionError as exc:\n"
            "    print('rejected:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("rejected: bogus: multiplicative identity")
