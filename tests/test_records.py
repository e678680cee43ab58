from __future__ import annotations

from types import ModuleType

import pytest

import modradical
from modradical import (
    CorpusSpec,
    DEFAULT_CORPUS_SPEC,
    Finding,
    Ideal,
    ModuleElement,
    PredicateWitness,
    RingElement,
    Submodule,
    Verdict,
    free_module,
    parse_instance,
    presented_module,
    submodule_generate,
    verify_all,
    zero_submodule,
)
from modradical.predicates import is_prime_submodule, is_semiprime_submodule
from modradical.radical import radical_by_iteration
from modradical.rings import make_zn


def test_the_package_exports_each_name_it_imports_and_nothing_else():
    star: dict = {}
    exec("from modradical import *", star)
    del star["__builtins__"]
    assert sorted(star) == modradical.__all__ and len(star) == 63
    assert not any(isinstance(v, ModuleType) for v in star.values())
    assert {getattr(v, "__module__", "modradical").partition(".")[0]
            for v in star.values()} == {"modradical"}


def test_records_keep_their_operators_equality_and_immutability():
    z4 = make_zn(4)
    M = free_module(z4, 2)
    m, a = M.element((1, 2)), z4.element(3)
    # a record is a tuple, so without care + would concatenate and * repeat
    computes = {
        "2 * m": (lambda: 2 * m, M.element((2, 0))),
        "a * m": (lambda: a * m, M.element((3, 2))),
        "m + (1,2)": (lambda: m + (1, 2), M.element((2, 0))),
        "m + m": (lambda: m + m, M.element((2, 0))),
        "m - m": (lambda: m - m, M.element((0, 0))),
        "m - (1,2)": (lambda: m - (1, 2), M.element((0, 0))),
        "a * 2": (lambda: a * 2, z4.element(2)),
        "2 * a": (lambda: 2 * a, z4.element(2)),
        "a + 1": (lambda: a + 1, z4.element(0)),
    }
    for expression, (compute, value) in computes.items():
        assert compute() == value, expression
    raises = {
        "m * 2": lambda: m * 2,
        "(1,2) + m": lambda: (1, 2) + m,
        "(1,) + a": lambda: (1,) + a,
        "a + m": lambda: a + m,
        "m + a": lambda: m + a,
        "m * m": lambda: m * m,
        "m * a": lambda: m * a,
        "2 + m": lambda: 2 + m,
        "a + (1,)": lambda: a + (1,),
        "(1,2) * m": lambda: (1, 2) * m,
        "m + 3": lambda: m + 3,
        "m - 3": lambda: m - 3,
    }
    for expression, compute in raises.items():
        with pytest.raises(TypeError):
            compute()

    # an ideal is its ring and members; the generators that built it do not count
    I, J = Ideal(z4, frozenset({0, 2}), (2,)), Ideal(z4, frozenset({0, 2}), (2, 0))
    assert I == J and not I != J and hash(I) == hash(J) == hash((z4, frozenset({0, 2})))
    assert I != Ideal(z4, frozenset({0}), (2,)) and len({I, J}) == 1
    # and so is a submodule its module and members, by the same three methods
    S, T = submodule_generate(M, [(0, 2)]), submodule_generate(M, [(0, 2), (0, 0)])
    assert Submodule._fields == ("module", "member_indices", "generator_indices")
    assert S.generator_indices != T.generator_indices and S == T and not S != T
    assert hash(S) == hash(T) == hash((M, frozenset({0, 2}))) and len({S, T}) == 1
    assert S != zero_submodule(M) and S != I and I != S

    with pytest.raises(ValueError, match="code 12 out of range for Z/12"):
        RingElement(make_zn(12), 12)
    with pytest.raises(ValueError, match=r"\(3,\) is not a canonical representative"):
        ModuleElement(presented_module(z4, 1, [(2,)]), (3,))
    # _replace builds through the same check
    assert (a._replace(code=2), m._replace(rep=(0, 1))) == (z4.element(2), M.element((0, 1)))
    with pytest.raises(ValueError, match="code 9 out of range for Z/4"):
        a._replace(code=9)
    with pytest.raises(ValueError, match=r"\(1, 7\) is not a canonical representative"):
        m._replace(rep=(1, 7))

    inst = parse_instance("ring Z/4\nmodule rank=1 relations=[]\nsubmodule N gens=[]\n")
    N = inst.submodules["N"]
    _, trace = radical_by_iteration(N)
    finding = Finding("THM-ITERATION", "ring Z/4\n", "made up")
    report = verify_all(CorpusSpec(rings=("Z/2",), max_rank=1))
    records = [a, m, I, N, Verdict(True), is_prime_submodule(N).witness, trace.steps[0],
               trace, DEFAULT_CORPUS_SPEC, finding, inst, report]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.note = None

    spec = DEFAULT_CORPUS_SPEC._replace(seed=7)
    assert (spec.seed, spec.rings, DEFAULT_CORPUS_SPEC.seed) == (7, DEFAULT_CORPUS_SPEC.rings, 0)
    assert spec == CorpusSpec(DEFAULT_CORPUS_SPEC.rings, seed=7)

    # built by keyword, as the benchmark's worker rebuilds a witness from a report
    witness = PredicateWitness(
        kind="semiprime", submodule=N, r=None, m=(2,), colon_members=(0, 2),
        product_members=((0,), (2,)), scaled_members=None)
    assert witness == is_semiprime_submodule(N).witness and witness.replays()
    assert not witness._replace(m=(1,)).replays()
