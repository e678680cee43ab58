from __future__ import annotations

import pytest

from modradical import modules
from modradical.instance import (
    ParseError,
    format_vec,
    parse_instance,
    parse_ring_descriptor,
    render_instance,
)


def test_parse_minimal_instance():
    inst = parse_instance("ring Z/4\nmodule rank=1 relations=[]\nsubmodule N gens=[]")
    assert inst.ring.descriptor == "Z/4"
    assert inst.module.element_count == 4
    assert inst.submodules["N"].members == ((0,),)


def test_parse_plane_instance():
    inst = parse_instance(
        "ring Z/4\nmodule rank=2 relations=[]\nsubmodule N gens=[(2,0)]")
    assert inst.module.element_count == 16
    assert set(inst.submodules["N"].members) == {(0, 0), (2, 0)}


def test_parse_vector_length_mismatch_reports_location():
    text = "ring Z/4\nmodule rank=2 relations=[]\nsubmodule N gens=[(1,2,3)]"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 3
    assert "rank is 2" in err.value.message


def test_parse_scalar_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_instance("ring Z/4\nmodule rank=1 relations=[(7)]")
    assert err.value.line == 2
    assert "out of range" in err.value.message


def test_parse_duplicate_name():
    text = ("ring Z/4\nmodule rank=1 relations=[]\n"
            "submodule N gens=[]\nsubmodule N gens=[(2)]")
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 4 and "duplicate name" in err.value.message


def test_parse_unknown_ring():
    with pytest.raises(ParseError) as err:
        parse_instance("ring Q\nmodule rank=1 relations=[]")
    assert err.value.line == 1


def test_parse_requires_ring_before_module():
    with pytest.raises(ParseError):
        parse_instance("module rank=1 relations=[]\nring Z/4")


def test_parse_comments_and_blank_lines():
    text = """
# instance with torsion
ring Z/6   # the base ring
module rank=1 relations=[(3)]

submodule N gens=[]   # zero
element m = (2)
"""
    inst = parse_instance(text)
    assert inst.module.element_count == 3
    assert inst.elements["m"].rep == (2,)


def test_parse_gf_descriptor_and_coefficient_scalars():
    inst = parse_instance(
        "ring GF(4) poly=[1,1,1]\nmodule rank=1 relations=[]\n"
        "element a = ([0,1])\nelement b = (3)")
    assert inst.ring.size == 4
    assert inst.elements["a"].rep == (2,)  # x has code 2
    assert inst.elements["b"].rep == (3,)


def test_parse_gf_requires_poly_for_proper_extensions():
    with pytest.raises(ParseError) as err:
        parse_instance("ring GF(4)\nmodule rank=1 relations=[]")
    assert "poly" in err.value.message


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_parse_gf_rejects_a_size_that_is_not_a_prime_power(q):
    with pytest.raises(ParseError) as err:
        parse_ring_descriptor(f"GF({q}) poly=[0,1]")
    assert err.value.message == f"{q} is not a prime power"
    assert err.value.col == 1


def test_parse_product_descriptor():
    inst = parse_instance(
        "ring product(Z/2, Z/4)\nmodule rank=1 relations=[]\nsubmodule N gens=[(3)]")
    assert inst.ring.size == 8
    assert inst.ring.descriptor == "product(Z/2, Z/4)"


def test_parse_nested_product_with_gf():
    ring = parse_ring_descriptor("product(GF(4) poly=[1,1,1], Z/3)")
    assert ring.size == 12


def test_round_trip_is_identity_on_declarations():
    texts = [
        "ring Z/4\nmodule rank=1 relations=[]\nsubmodule N gens=[]",
        "ring Z/4\nmodule rank=2 relations=[]\nsubmodule N gens=[(2,0)]",
        "ring Z/6\nmodule rank=2 relations=[(2,0),(0,3)]\n"
        "submodule A gens=[(1,0)]\nsubmodule B gens=[(0,2),(1,1)]\nelement m = (1,2)",
        "ring GF(4) poly=[1,1,1]\nmodule rank=1 relations=[]\nsubmodule N gens=[(2)]",
        "ring product(Z/2, Z/4)\nmodule rank=1 relations=[(4)]\nsubmodule N gens=[(2)]",
    ]
    for text in texts:
        first = parse_instance(text)
        rendered = render_instance(first)
        second = parse_instance(rendered)
        assert second.ring == first.ring
        assert second.module == first.module
        assert list(second.submodules) == list(first.submodules)
        for name in first.submodules:
            assert second.submodules[name].member_indices == \
                first.submodules[name].member_indices
            assert second.submodules[name].generator_indices == \
                first.submodules[name].generator_indices
        assert {n: e.rep for n, e in second.elements.items()} == \
            {n: e.rep for n, e in first.elements.items()}
        assert render_instance(second) == rendered


def test_fresh_parse_of_zero_relations_keeps_its_module_line(monkeypatch):
    # cold: generating K interns the free module, which is this presentation;
    # warm: the free module was interned to generate another presentation
    text = "ring Z/4\nmodule rank=2 relations=[(0,0)]\n"
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    assert render_instance(parse_instance(text)) == text
    monkeypatch.setattr(modules, "_PRESENTATION_CACHE", {})
    parse_instance("ring Z/4\nmodule rank=2 relations=[(2,0)]\n")
    assert render_instance(parse_instance(text)) == text


def test_rendering_prints_the_parsed_relations_whatever_was_interned_before():
    first = "ring Z/2\nmodule rank=2 relations=[(1,0),(1,1)]\n"
    second = "ring Z/2\nmodule rank=2 relations=[(0,1),(1,0)]\n"
    a, b = parse_instance(first), parse_instance(second)
    assert a.module is b.module
    assert render_instance(a) == first
    assert render_instance(b) == second


def test_parse_rank_zero_module():
    inst = parse_instance("ring Z/4\nmodule rank=0 relations=[]\nsubmodule N gens=[()]")
    assert inst.module.element_count == 1
    assert inst.submodules["N"].members == ((),)


def test_format_vec():
    assert format_vec((0, 2)) == "(0,2)"
    assert format_vec(()) == "()"
    assert format_vec((3,)) == "(3)"


Z4_PLANE = "ring Z/4\nmodule rank=2 relations=[]\n"
GF4_LINE = "ring GF(4) poly=[1,1,1]\nmodule rank=1 relations=[]\n"


@pytest.mark.parametrize("text,rendered", [
    ("ring Z/4\nmodule rank=0 relations=[()]\nsubmodule N gens=[]\nelement m = ( )\n",
     "ring Z/4\nmodule rank=0 relations=[()]\nsubmodule N gens=[]\nelement m = ()\n"),
    ("ring product(product(Z/2,Z/3) , GF(4) poly=[ 1,1 ,1 ])\nmodule rank=1 relations=[ (1) ]\n",
     "ring product(product(Z/2, Z/3), GF(4) poly=[1,1,1])\nmodule rank=1 relations=[(1)]\n"),
    ("ring GF(4) poly=[1,1,1]\nmodule rank=2 relations=[([0,1],[1]),([],0)]\n"
     "submodule N gens=[([1,1],0)]\n",
     "ring GF(4) poly=[1,1,1]\nmodule rank=2 relations=[(2,1),(0,0)]\n"
     "submodule N gens=[(0,2)]\n"),
])
def test_instance_lists_accept_the_one_list_rule(text, rendered):
    assert render_instance(parse_instance(text)) == rendered


@pytest.mark.parametrize("text,line,col,message", [
    (Z4_PLANE.replace("[]", "[,(1,0)]"), 2, 26, "expected '('"),
    (Z4_PLANE.replace("[]", "[(1,0),,(0,1)]"), 2, 32, "expected '('"),
    (Z4_PLANE.replace("[]", "[(1,0),]"), 2, 32, "expected '('"),
    (Z4_PLANE.replace("[]", "[(1,0)"), 2, 31, "expected ']'"),
    (Z4_PLANE.replace("[]", "[(1,0) (0,1)]"), 2, 32, "expected ']'"),
    (Z4_PLANE + "submodule N gens=[(,1)]", 3, 20, "expected an integer"),
    (Z4_PLANE + "element m = (1,)", 3, 16, "expected an integer"),
    (Z4_PLANE + "element m = (1,0", 3, 17, "expected ')'"),
    ("ring GF(4) poly=[1,1,1,]", 1, 24, "expected an integer"),
    ("ring GF(4) poly=[1,1,1", 1, 23, "expected ']'"),
    (GF4_LINE + "element a = ([0,1,])", 3, 19, "expected an integer"),
    (GF4_LINE + "element a = ([,1])", 3, 15, "expected an integer"),
    (GF4_LINE + "element a = ([0,1)", 3, 18, "expected ']'"),
    ("ring product()", 1, 14, "unknown ring descriptor (expected Z/n, GF(q), or product(...))"),
    ("ring product(,Z/2)", 1, 14, "unknown ring descriptor (expected Z/n, GF(q), or product(...))"),
    ("ring product(Z/2,,Z/3)", 1, 18, "unknown ring descriptor (expected Z/n, GF(q), or product(...))"),
    ("ring product(Z/2,)", 1, 18, "unknown ring descriptor (expected Z/n, GF(q), or product(...))"),
    ("ring product(Z/2, product(Z/3, Z/4)", 1, 36, "expected ')'"),
])
def test_instance_lists_reject_what_the_one_list_rule_rejects(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


@pytest.mark.parametrize("text,line,col,message", [
    ("ring Z/4\nring Z/2\n", 2, 1, "duplicate ring line"),
    (Z4_PLANE + "module rank=1 relations=[]", 3, 1, "duplicate module line"),
    ("  module rank=1 relations=[]\nring Z/4", 1, 3, "module line before ring line"),
    ("ring Z/4\nsubmodule N gens=[]", 2, 1, "submodule line before module line"),
    ("ring Z/4\n  element m = (1)", 2, 3, "element line before module line"),
    (Z4_PLANE + "modul rank=1 relations=[]", 3, 1,
     "unknown declaration 'modul' (expected ring, module, submodule, or element)"),
    (Z4_PLANE + "\tmodul rank=1 relations=[]", 3, 2,
     "unknown declaration 'modul' (expected ring, module, submodule, or element)"),
    ("ring Z/4 x", 1, 10, "trailing text"),
    (Z4_PLANE + "  submodule N gens=[(1,0)] (0,1)", 3, 28, "trailing text"),
    ("", 1, 1, "missing ring line"),
    ("# a comment\n\n", 3, 1, "missing ring line"),
    ("ring Z/4\n", 2, 1, "missing module line"),
    ("ring Z/1", 1, 6, "modulus must be an integer >= 2, got 1"),
    # '\u00b2' (superscript two) passes str.isdigit but is no integer literal
    ("ring Z/\u00b2", 1, 8, "expected an integer"),
    ("ring Z/4\nmodule rank=\u00b2 relations=[]", 2, 13, "expected an integer"),
    (Z4_PLANE + "submodule N gens=[(\u00b2)]", 3, 20, "expected an integer"),
    ("ring product(Z/2, Z/0)", 1, 19, "modulus must be an integer >= 2, got 0"),
    ("ring GF(4) poly=[1,0,1]", 1, 6,
     "polynomial [1, 0, 1] is reducible over Z/2 (code 3 has no inverse)"),
    (Z4_PLANE + "element m = ([1],0)", 3, 14,
     "coefficient-list scalars are only defined over GF rings"),
    (GF4_LINE + "element a = ([0,1,1])", 3, 14, "coefficient list longer than field degree 2"),
    (GF4_LINE + "element a = ([1,2])", 3, 14, "coefficients must lie in 0..1"),
    ("ring GF(9) poly=[1,0,1]\nmodule rank=1 relations=[]\nelement a = ([0,3])", 3, 14,
     "coefficients must lie in 0..2"),
])
def test_instance_declarations_report_line_column_and_message(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


@pytest.mark.parametrize("text,col", [("Z/4 x", 5), ("product(Z/2) Z/3", 14)])
def test_ring_descriptor_rejects_trailing_text(text, col):
    with pytest.raises(ParseError) as err:
        parse_ring_descriptor(text)
    assert (err.value.line, err.value.col, err.value.message) == (
        1, col, "trailing text after ring descriptor")


def test_prime_field_without_a_polynomial_reduces_modulo_x():
    assert parse_ring_descriptor("GF(5)") is parse_ring_descriptor("GF(5) poly=[0,1]")
    assert parse_ring_descriptor("GF(5)").descriptor == "GF(5) poly=[0,1]"
