"""Checks on the package: no nested function refers to itself, and the
main library paths leave no cyclic garbage.

A nested function that calls itself holds its own cell, so every call of
the enclosing function leaves a reference cycle for the cyclic garbage
collector; searches are written as loops instead.  A cycle held by cached
data (a closure over its owner, say) is as bad: its memory waits for a
collection, so peak memory follows the collector's timing.
"""

import ast
import gc
import json
import tempfile
from pathlib import Path

import pytest

from floerkit.bordism import (
    CAP0,
    CAP3,
    attach1,
    attach2,
    b_circle,
    canonical_circle,
    cerf_connected,
    cerf_neighbors,
    chain,
)
from floerkit.bordobjects import surface
from floerkit.catgen import random_category, relation_bicategory
from floerkit.cats import functor_category, quotient_by_2isos, yoneda
from floerkit.cli import dispatch
from floerkit.fieldfun import PartialFunctorSpec, genus2_sphere_chain, verify_cerf_compatibility
from floerkit.groups import cyclic_group, symmetric_group
from floerkit.io import chain_to_json, diagram_from_json, diagram_to_json
from floerkit.quilt import (
    QuiltDiagram,
    QuiltSurface,
    cap_diagram,
    cup_diagram,
    cylinder_diagram,
    diagrams_isomorphic,
    evaluates_to_identity,
    evaluation_map,
    object_cylinder_diagram,
    quilt_evaluate,
    quilt_glue,
    shrink_strip,
    snake_frame_diagram,
)
from floerkit.relcat import generator_set
from floerkit.repvar import VarietyCache, relation_of_attach2, relation_of_cyl, repvariety
from floerkit.words import dehn_twist_a

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "floerkit").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_nested_functions(source):
    """(name, line) of each function defined inside another function whose
    body names it."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, FUNCTIONS) and any(
                isinstance(node, ast.Name) and node.id == inner.name
                for node in ast.walk(inner)
            ):
                found.add((inner.name, inner.lineno))
    return sorted(found)


def test_the_check_finds_a_self_referencing_closure():
    source = "def search(n):\n    def rec(i):\n        return rec(i - 1) if i else 0\n    return rec(n)\n"
    assert self_referencing_nested_functions(source) == [("rec", 2)]
    assert self_referencing_nested_functions("def rec(i):\n    return rec(i)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert self_referencing_nested_functions(path.read_text()) == []


S3 = symmetric_group(3)


def zigzag():
    Y = relation_of_attach2(S3, canonical_circle(1), VarietyCache(S3))
    assert evaluates_to_identity(
        quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux"), ("R", "in")
    )


def repeated_evaluation():
    # the evaluation state cached on the diagram and its end chains must
    # die with the diagram, so none of it may refer back to its owner
    Y = relation_of_attach2(S3, canonical_circle(1), VarietyCache(S3))
    zigzag = quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux")
    end = ("R", "in")
    for t in generator_set(zigzag.end_cyclic_chain(end)).tuples[:3]:
        assert len(quilt_evaluate(zigzag, {end: t})) == 1
        assert quilt_evaluate(zigzag, {end: t}) == quilt_evaluate(zigzag, {end: t})
    assert evaluation_map(zigzag) == evaluation_map(zigzag)


def glue_and_shrink():
    # a three-seam cylinder glued onto itself; every strip of the result
    # shrinks embeddedly
    cache = VarietyCache(S3)
    Y = relation_of_attach2(S3, canonical_circle(1), cache)
    G = relation_of_cyl(S3, dehn_twist_a(1), cache)
    cylinder = cylinder_diagram([G, Y, Y.transpose()])
    glued = quilt_glue(cylinder, cylinder, "in")
    for p in glued.surface.data()["patches"]:
        assert shrink_strip(glued, p).is_valid()


def isomorphism():
    # the walk, and the face forms with circle seams and bare ends: two
    # bare ends on either side of a circle seam, and the same with the
    # ends swapped
    cache = VarietyCache(S3)
    Y = relation_of_attach2(S3, canonical_circle(1), cache)
    G = relation_of_cyl(S3, dehn_twist_a(1), cache)
    assert diagrams_isomorphic(cup_diagram(Y), cap_diagram(Y.transpose()))
    assert not diagrams_isomorphic(
        cylinder_diagram([Y, Y.transpose()]), cylinder_diagram([G, G.transpose()])
    )
    M = cache.variety(surface(1))
    assert diagrams_isomorphic(object_cylinder_diagram(M), object_cylinder_diagram(M))
    tubes = [
        QuiltDiagram(
            QuiltSurface(
                {"in": (), "out": ()},
                "out",
                {},
                circle_seams={"c": ("f0", "inner")},
                end_patch=end_patch,
            ),
            {"f0": M, "inner": M},
            {"c": G},
        )
        for end_patch in ({"in": "inner", "out": "f0"}, {"in": "f0", "out": "inner"})
    ]
    assert not diagrams_isomorphic(*tubes)


def diagram_json_round_trip():
    Y = relation_of_attach2(S3, canonical_circle(1), VarietyCache(S3))
    zigzag = quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux")
    assert diagrams_isomorphic(diagram_from_json(S3, diagram_to_json(zigzag)), zigzag)


def relation_bicategory_views():
    # the cells by source and the 2-isomorphism class index cached on the
    # bicategory must die with it
    B = relation_bicategory(cyclic_group(2))
    B.validate_bicategory()
    assert sum(B.two_isomorphic(f, g) for f in B.one for g in B.one) >= len(B.one)
    yoneda(B, B.objects[0])
    quotient_by_2isos(B)


def cerf_moves():
    # the mixed-switch fixture, and the two genus-1 Heegaard chains of S^3
    mixed = chain([attach2(canonical_circle(2)), attach1(canonical_circle(2))])
    assert cerf_neighbors(mixed)
    c1 = chain([CAP0, attach1(canonical_circle(1)), attach2(b_circle(1)), CAP3])
    c2 = chain([CAP0, attach1(b_circle(1)), attach2(canonical_circle(1)), CAP3])
    assert cerf_connected(c1, c2, depth=4) is not None


def functor_categories():
    # the numbering of each target, the objects and squares of each source
    # and the images of each functor are cached on them and must die with
    # them; building S4 runs the same Light's test on its table
    for seed in (0, 1, 9, 16):
        cat = random_category(seed)
        functor_category(cat, cat, functor_limit=12)
    symmetric_group(4)


def commands_with_output():
    # a variety and a genus-2 invariant, each written by io.dumps to a file
    with tempfile.TemporaryDirectory() as tmp:
        group = Path(tmp, "s3.json")
        group.write_text(json.dumps(S3.to_json()))
        closed = Path(tmp, "chain.json")
        closed.write_text(json.dumps(chain_to_json(genus2_sphere_chain())))
        out = str(Path(tmp, "out.json"))
        assert dispatch(["repvar", "--group", str(group), "--genus", "2", "--output", out]) == 0
        assert dispatch(
            ["invariant", "--group", str(group), "--chain", str(closed), "--output", out]
        ) == 0
        assert json.loads(Path(out).read_text())["count"] == 1


LIBRARY_CALLS = {
    "zigzag": zigzag,
    "quilt_evaluate+evaluation_map": repeated_evaluation,
    "quilt_glue+shrink_strip": glue_and_shrink,
    "diagrams_isomorphic": isomorphism,
    "io.diagram_to_json": diagram_json_round_trip,
    "relation_bicategory": relation_bicategory_views,
    "verify_cerf_compatibility": lambda: verify_cerf_compatibility(
        PartialFunctorSpec(S3), genera=(1,)
    ),
    "repvariety": lambda: repvariety(S3, surface(2)),
    "cerf_neighbors+cerf_connected": cerf_moves,
    "functor_category": functor_categories,
    "cli.dispatch": commands_with_output,
}


@pytest.mark.parametrize("name", LIBRARY_CALLS)
def test_library_call_leaves_no_cyclic_garbage(name):
    call = LIBRARY_CALLS[name]
    call()  # warm-up: module-level caches fill here
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
