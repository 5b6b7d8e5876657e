import hashlib
import itertools
import random

import pytest

from floerkit import io as fio
from floerkit.bordism import b_circle, canonical_circle
from floerkit.bordobjects import surface
from floerkit.errors import (
    CyclicMismatch,
    FloerkitError,
    InputNotGenerator,
    InvalidEnd,
    LabelMismatch,
    NotAStrip,
    NotEmbedded,
    ResourceLimit,
)
from floerkit.groups import cyclic_group, quaternion_group, symmetric_group
from floerkit.quilt import (
    GenericMorphism,
    QuiltDiagram,
    QuiltSurface,
    cap_diagram,
    cup_diagram,
    cylinder_diagram,
    diagrams_isomorphic,
    evaluates_to_identity,
    evaluation_map,
    export_dot,
    object_cylinder_diagram,
    quilt_evaluate,
    quilt_glue,
    shrink_strip,
    snake_frame_diagram,
    string_diagram,
    vertical_composition_diagram,
)
from floerkit.relcat import generator_set, geometric_compose
from floerkit.repvar import (
    FiniteRelation,
    VarietyCache,
    diagonal_relation,
    relation_of_attach2,
    relation_of_cyl,
)
from floerkit.words import dehn_twist_a, s_move

S3 = symmetric_group(3)
Z3 = cyclic_group(3)


@pytest.fixture(scope="module")
def rels():
    cache = VarietyCache(S3)
    return {
        "cache": cache,
        "Y": relation_of_attach2(S3, canonical_circle(1), cache),
        "B": relation_of_attach2(S3, b_circle(1), cache),
        "G": relation_of_cyl(S3, dehn_twist_a(1), cache),
        "S": relation_of_cyl(S3, s_move(1), cache),
        "D": diagonal_relation(cache.variety(surface(1))),
    }


def test_sphere_no_seams_validates(rels):
    surf = QuiltSurface({"out": ()}, "out", {})
    q = QuiltDiagram(surf, {"f0": rels["cache"].variety(surface(1))}, {})
    report = q.validate()
    assert all(e["status"] == "pass" for e in report)
    # the end's cyclic morphism is the weak unit (diagonal)
    chain = q.end_cyclic_chain("out")
    assert chain.relations[0] == rels["D"]


def test_plane_with_two_parallel_seams_has_three_patches(rels):
    # one end at infinity, two seams looping through it
    Y = rels["Y"]
    surf = QuiltSurface(
        {"out": ("a0", "b0", "b1", "a1")},
        "out",
        {"sa": ("a0", "a1"), "sb": ("b0", "b1")},
    )
    data = surf.data()
    assert len(data["patches"]) == 3
    assert data["genus"] == 0


def test_seam_end_used_twice_reported():
    surf = QuiltSurface(
        {"e1": ("h0",), "e2": ("h0", "h1")}, "e1", {"s": ("h0", "h1")}
    )
    report, data = surf.analyze()
    bad = [e for e in report if e["status"] == "fail"]
    assert bad and bad[0]["check"] == "seam-ends attached once"
    assert data is None


def test_seam_end_paired_twice_reported():
    # s1 and s2 both pair seam-end a; alpha would send b to a but a to c
    surf = QuiltSurface(
        {"out": ("a", "b", "c", "d")},
        "out",
        {"s1": ("a", "b"), "s2": ("a", "c"), "s3": ("c", "d")},
    )
    report, data = surf.analyze()
    bad = [e for e in report if e["status"] == "fail"]
    assert bad == [{
        "check": "interval seams pair two attached seam-ends",
        "status": "fail",
        "detail": ["s2"],
    }]
    assert data is None
    with pytest.raises(InvalidEnd):
        surf.end_sequence("out")


def test_torus_quilt_genus():
    # one end, two loops interleaved: rotation (a, b, a', b') gives genus 1
    surf = QuiltSurface(
        {"out": ("a0", "b0", "a1", "b1")},
        "out",
        {"sa": ("a0", "a1"), "sb": ("b0", "b1")},
    )
    data = surf.data()
    assert data["genus"] == 1
    assert len(data["faces"]) == 1


def random_rotation_system(rng):
    """(ends, seams) of a connected multigraph on 1-5 ends, loops and
    multiple seams allowed: a random spanning tree plus 0-4 more seams,
    each seam a pair of fresh seam-ends, each end's seam-ends in a random
    cyclic order."""
    ends = [f"e{i}" for i in range(rng.randint(1, 5))]
    edges = [(ends[rng.randrange(i)], ends[i]) for i in range(1, len(ends))]
    edges += [(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(len(ends) == 1, 4))]
    orders = {e: [] for e in ends}
    seams = {}
    for k, (u, v) in enumerate(edges):
        seams[f"s{k}"] = (f"h{2 * k}", f"h{2 * k + 1}")
        orders[u].append(f"h{2 * k}")
        orders[v].append(f"h{2 * k + 1}")
    for order in orders.values():
        rng.shuffle(order)
    return {e: tuple(order) for e, order in orders.items()}, seams


def least_rotation(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:]) + tuple(cycle[:i])


def rotation_system_faces(ends, seams):
    """The cycles of sigma o alpha, each rotated to start at its least
    seam-end, and the genus from V - E + F."""
    sigma = {h: order[(i + 1) % len(order)] for order in ends.values() for i, h in enumerate(order)}
    alpha = {a: b for a, b in seams.values()} | {b: a for a, b in seams.values()}
    faces, seen = set(), set()
    for h in sigma:
        cycle = []
        while h not in seen:
            seen.add(h)
            cycle.append(h)
            h = sigma[alpha[h]]
        if cycle:
            faces.add(least_rotation(cycle))
    euler = len(ends) - len(seams) + len(faces)
    return faces, (2 - euler) // 2


def corruptions(rng, ends, seams):
    """(the check that must fail, ends, seams) for each way of breaking a
    valid rotation system."""
    some_half = rng.choice(ends[rng.choice(sorted(ends))])
    other_end = rng.choice(sorted(ends))

    def with_half(extra):
        return {**ends, other_end: ends[other_end] + extra}

    return [
        ("seam-ends attached once", with_half((some_half,)), seams),
        ("interval seams pair two attached seam-ends",
         with_half(("x",)), {**seams, "twice": (some_half, "x")}),
        ("every seam-end belongs to a seam", with_half(("x",)), seams),
        ("interval seams pair two attached seam-ends", with_half(("x",)), {**seams, "loop": ("x", "x")}),
        ("interval seams pair two attached seam-ends", ends, {**seams, "ghost": ("x", "y")}),
        ("seamed ends form one connected component",
         {**ends, "apart": ("x", "y")}, {**seams, "apart": ("x", "y")}),
    ]


def test_rotation_systems_match_the_oracle():
    rng = random.Random(7)
    genera = set()
    for _ in range(200):
        ends, seams = random_rotation_system(rng)
        outgoing = rng.choice(sorted(ends))
        report, data = QuiltSurface(ends, outgoing, seams).analyze()
        assert all(entry["status"] == "pass" for entry in report), (ends, seams, report)
        faces, genus = rotation_system_faces(ends, seams)
        traced = {least_rotation(orbit) for orbit in data["faces"].values()}
        assert (traced, data["genus"]) == (faces, genus), (ends, seams)
        genera.add(genus)
        for name, bad_ends, bad_seams in corruptions(rng, ends, seams):
            report, data = QuiltSurface(bad_ends, outgoing, bad_seams).analyze()
            failed = {entry["check"] for entry in report if entry["status"] == "fail"}
            assert name in failed and data is None, (name, bad_ends, bad_seams, report)
    assert genera >= {0, 1, 2}


def test_cylinder_diagram_structure(rels):
    q = cylinder_diagram([rels["Y"], rels["Y"].transpose()])
    assert q.is_valid()
    data = q.surface.data()
    assert len(data["patches"]) == 2
    labels = q.end_labels("out")
    assert labels[0] == rels["Y"] and labels[1] == rels["Y"].transpose()


def test_end_cyclic_rotation(rels):
    q = cylinder_diagram([rels["G"], rels["Y"], rels["Y"].transpose()])
    chain = q.end_cyclic_chain("in")
    rotated = chain.rotate(1)
    assert rotated.canonical_rotation().relations == chain.canonical_rotation().relations


def test_invalid_end_raises(rels):
    q = cylinder_diagram([rels["Y"], rels["Y"].transpose()])
    with pytest.raises(InvalidEnd):
        q.surface.end_sequence("nope")


def test_cylinder_axiom(rels):
    fixtures = [
        [rels["D"]],
        [rels["G"], rels["G"].transpose()],
        [rels["Y"], rels["Y"].transpose()],
        [rels["G"], rels["Y"], rels["Y"].transpose()],
        [rels["Y"], rels["B"].transpose(), rels["B"], rels["Y"].transpose()],
    ]
    for labels in fixtures:
        q = cylinder_diagram(labels)
        assert q.is_valid()
        assert evaluates_to_identity(q, "in"), labels


def test_object_cylinder_axiom(rels):
    q = object_cylinder_diagram(rels["cache"].variety(surface(1)))
    gens = generator_set(q.end_cyclic_chain("in"))
    assert all(quilt_evaluate(q, {"in": t}) == {t} for t in gens.tuples)


def test_cap_evaluates_to_all_pairs(rels):
    Y = rels["Y"]
    q = cap_diagram(Y)
    out = quilt_evaluate(q, {})
    gens = generator_set(q.end_cyclic_chain("out"))
    assert out == set(gens.tuples)
    assert len(out) == len(Y.pairs)


def test_input_validation(rels):
    q = cylinder_diagram([rels["Y"], rels["Y"].transpose()])
    with pytest.raises(InputNotGenerator):
        quilt_evaluate(q, {})
    with pytest.raises(InputNotGenerator):
        quilt_evaluate(q, {"in": ((0, 0),)})
    bad_pair = (((1, 1, 1)), ())  # not a generator tuple
    with pytest.raises(InputNotGenerator):
        quilt_evaluate(q, {"in": bad_pair})
    # points given as lists are not hashable, and no generator
    with pytest.raises(InputNotGenerator):
        quilt_evaluate(q, {"in": [[0, 0], [0, 0]]})


def test_glue_cylinder_is_neutral(rels):
    Y = rels["Y"]
    c1 = cylinder_diagram([Y, Y.transpose()])
    c2 = cylinder_diagram([Y, Y.transpose()])
    glued = quilt_glue(c1, c2, "in")
    assert diagrams_isomorphic(glued, cylinder_diagram([Y, Y.transpose()]))
    assert evaluates_to_identity(glued, ("L", "in"))


def test_glue_mismatch_raises(rels):
    c1 = cylinder_diagram([rels["Y"], rels["Y"].transpose()])
    c2 = cylinder_diagram([rels["G"], rels["G"].transpose()])
    with pytest.raises(CyclicMismatch):
        quilt_glue(c1, c2, "in")
    with pytest.raises(InvalidEnd):
        quilt_glue(c1, c2, "out")


def test_glue_bare_end_to_one_seam_raises(rels):
    # a bare end reads one unit label, as many as an end with one seam
    M = rels["cache"].variety(surface(1))
    bare, seamed = object_cylinder_diagram(M), cylinder_diagram([diagonal_relation(M)])
    for first, second, counts in ((bare, seamed, (0, 1)), (seamed, bare, (1, 0))):
        with pytest.raises(CyclicMismatch) as info:
            quilt_glue(first, second, "in")
        assert str(info.value) == f"end seam-end counts differ: {counts[0]} vs {counts[1]}"
        assert info.value.witness == counts


def test_glue_cap_into_frame_gives_zigzag(rels):
    Y = rels["Y"]
    zig = quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux")
    assert diagrams_isomorphic(zig, cylinder_diagram([Y, Y.transpose()]))
    assert evaluates_to_identity(zig, ("R", "in"))


def brute_evaluation_map(q):
    """Oracle for evaluation_map: every assignment of one point per patch
    with each seam pair in its relation, keyed by what it puts on the
    incoming ends and projected onto the outgoing end; empty outputs are
    left out."""
    s = q.surface
    patches = s.data()["patches"]
    seams = [s.seam_sides(x) + (q.seam_labels[x].pairs,)
             for x in list(s.seams) + list(s.circle_seams)]
    table = {}
    for values in itertools.product(*(q.patch_labels[p].points for p in patches)):
        point = dict(zip(patches, values))
        if all((point[a], point[b]) in pairs for a, b, pairs in seams):
            key = tuple(
                (e, tuple(point[p] for p in s.end_nodes(e))) for e in s.incoming_ends()
            )
            out = tuple(point[p] for p in s.end_nodes(s.outgoing))
            table.setdefault(key, set()).add(out)
    return table


def test_evaluation_matches_every_patch_assignment():
    cache = VarietyCache(Z3)
    Y = relation_of_attach2(Z3, canonical_circle(1), cache)
    zig = quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux")
    # the cap glued into the zigzag leaves no incoming end, so no patch is pinned
    capped = quilt_glue(cap_diagram(Y), zig, ("R", "in"))
    assert not capped.surface.incoming_ends() and capped.surface.data()["patches"]
    G = relation_of_cyl(Z3, dehn_twist_a(1), cache)
    for q in (zig, capped, vertical_composition_diagram(Y, Y, Y),
              cylinder_diagram([G, Y, Y.transpose(), G.transpose()])):
        table = {k: v for k, v in evaluation_map(q).items() if v}
        assert table and table == brute_evaluation_map(q)


def test_gluing_axiom_composition(rels):
    # Phi of the glued diagram equals the composition of the maps
    Y, G = rels["Y"], rels["G"]
    q1 = cap_diagram(Y)
    q2 = snake_frame_diagram(Y)
    glued = quilt_glue(q1, q2, "aux")
    offset = glued.glue_offset
    k = len(q2.surface.end_nodes("aux"))
    out1 = quilt_evaluate(q1, {})
    gens_in = generator_set(q2.end_cyclic_chain("in"))
    for t in gens_in.tuples:
        direct = quilt_evaluate(glued, {("R", "in"): t})
        composed = set()
        for y in out1:
            plugged = tuple(y[(j - offset) % k] for j in range(k))
            composed |= quilt_evaluate(q2, {"aux": plugged, "in": t})
        assert direct == composed


def test_gluing_axiom_cylinder_onto_cylinder(rels):
    Y, B = rels["Y"], rels["B"]
    q1 = cylinder_diagram([Y, Y.transpose()])
    q2 = cylinder_diagram([Y, Y.transpose()])
    glued = quilt_glue(q1, q2, "in")
    offset = glued.glue_offset
    k = 2
    gens = generator_set(q1.end_cyclic_chain("in"))
    for t in gens.tuples:
        direct = quilt_evaluate(glued, {("L", "in"): t})
        composed = set()
        for y in quilt_evaluate(q1, {"in": t}):
            plugged = tuple(y[(j - offset) % k] for j in range(k))
            composed |= quilt_evaluate(q2, {"in": plugged})
        assert direct == composed


def _aligned_contraction(diagram, shrunk, end, strip_patch):
    """Contraction bijection of the end chain, rotated to match the node
    order of the shrunk diagram's end sequence."""
    from floerkit.relcat import composition_bijection

    nodes = diagram.surface.end_nodes(end)
    j = nodes.index(strip_patch)
    k = len(nodes)
    i = (j - 1) % k
    chain = diagram.end_cyclic_chain(end)
    contracted, fwd, _ = composition_bijection(chain, i)
    target = shrunk.end_cyclic_chain(end)
    for r in range(len(contracted.relations)):
        if contracted.rotate(r).relations == target.relations:
            def rotated(t, r=r):
                out = fwd[t]
                return out[r:] + out[:r]

            return rotated
    raise AssertionError("shrunk end chain is not a rotation of the contraction")


def test_shrink_strip_axiom(rels):
    # shrinking a strip intertwines the maps through the contraction
    # bijections at both ends
    G, Y = rels["G"], rels["Y"]
    q = cylinder_diagram([G, Y, Y.transpose()])
    data = q.surface.data()
    tested = 0
    for p in data["patches"]:
        try:
            shrunk = shrink_strip(q, p)
        except (NotAStrip, NotEmbedded):
            continue
        in_nodes = q.surface.end_nodes("in")
        if p not in in_nodes or p not in q.surface.end_nodes("out"):
            continue
        map_in = _aligned_contraction(q, shrunk, "in", p)
        map_out = _aligned_contraction(q, shrunk, "out", p)
        chain_in = q.end_cyclic_chain("in")
        for t in generator_set(chain_in).tuples:
            before = quilt_evaluate(q, {"in": t})
            after = quilt_evaluate(shrunk, {"in": map_in(t)})
            assert {map_out(b) for b in before} == after
        tested += 1
    assert tested >= 1


def test_shrink_annulus(rels):
    G, S = rels["G"], rels["S"]
    q = _annulus(rels)
    assert q.is_valid()
    shrunk = shrink_strip(q, "mid")
    assert shrunk.is_valid()
    assert len(shrunk.surface.circle_seams) == 1
    merged = list(shrunk.seam_labels.values())[0]
    assert merged == geometric_compose(G, S)
    # evaluation unchanged: both are closed diagrams up to the bare end
    before = quilt_evaluate(q, {})
    after = quilt_evaluate(shrunk, {})
    assert before == after


def test_shrink_requires_embedded(rels):
    # doubled label: union of two graphs; its self-strip is not embedded
    f, g = rels["D"], rels["S"]
    doubled = FiniteRelation(f.source, f.target, f.pairs | g.pairs)
    q = cylinder_diagram([doubled, doubled.transpose()])
    data = q.surface.data()
    errors = 0
    for p in data["patches"]:
        try:
            shrink_strip(q, p)
        except NotEmbedded as err:
            errors += 1
            assert err.witness is not None
    assert errors == 2  # both strips fail


def test_non_embedded_contraction_changes_generator_count(rels):
    # necessity of the embeddedness hypothesis: composing the seams of the
    # doubled cylinder by hand changes the generator count
    f, g = rels["D"], rels["S"]
    doubled = FiniteRelation(f.source, f.target, f.pairs | g.pairs)
    q = cylinder_diagram([doubled, doubled.transpose()])
    before = generator_set(q.end_cyclic_chain("in"))
    collapsed = geometric_compose(doubled, doubled.transpose())
    q2 = cylinder_diagram([collapsed])
    after = generator_set(q2.end_cyclic_chain("in"))
    assert len(before) != len(after)


def test_deformation_axiom_renaming(rels):
    # pure renaming of ids: evaluation maps strictly equal
    Y = rels["Y"]
    q1 = cylinder_diagram([Y, Y.transpose()])
    s = q1.surface
    rename_se = {h: ("re", h) for order in s.ends.values() for h in order}
    ends = {e: tuple(rename_se[h] for h in order) for e, order in s.ends.items()}
    seams = {
        ("re", sid): (rename_se[a], rename_se[b]) for sid, (a, b) in s.seams.items()
    }
    s2 = QuiltSurface(ends, "out", seams)
    labels = {("re", sid): lab for sid, lab in q1.seam_labels.items()}
    q2 = QuiltDiagram(s2, dict(q1.patch_labels), labels)
    assert q2.is_valid()
    assert diagrams_isomorphic(q1, q2)
    assert evaluation_map(q1) == evaluation_map(q2)


def test_deformation_axiom_rotation(rels):
    # rotating the stored cyclic orders is an isomorphism; the maps agree
    # after transporting tuples through the induced end identification
    Y = rels["Y"]
    q1 = cylinder_diagram([Y, Y.transpose()])
    s = q1.surface
    ends = {
        "in": s.ends["in"][1:] + s.ends["in"][:1],
        "out": s.ends["out"][1:] + s.ends["out"][:1],
    }
    s2 = QuiltSurface(ends, "out", dict(s.seams))
    q2 = QuiltDiagram(s2, dict(q1.patch_labels), dict(q1.seam_labels))
    assert q2.is_valid()
    assert diagrams_isomorphic(q1, q2)
    # transport: match nodes by patch (all patches distinct in a cylinder)
    in1, in2 = q1.surface.end_nodes("in"), q2.surface.end_nodes("in")
    out1, out2 = q1.surface.end_nodes("out"), q2.surface.end_nodes("out")
    to2_in = tuple(in1.index(p) for p in in2)
    to2_out = tuple(out1.index(p) for p in out2)
    for t in generator_set(q1.end_cyclic_chain("in")).tuples:
        t2 = tuple(t[i] for i in to2_in)
        lhs = {
            tuple(o[i] for i in to2_out)
            for o in quilt_evaluate(q1, {"in": t})
        }
        assert lhs == quilt_evaluate(q2, {"in": t2})


def test_deformation_distinguishes_labels(rels):
    q1 = cylinder_diagram([rels["Y"], rels["Y"].transpose()])
    q2 = cylinder_diagram([rels["G"], rels["G"].transpose()])
    assert not diagrams_isomorphic(q1, q2)


def test_generic_labels_validate():
    M, N = "M", "N"
    Y = GenericMorphism("Y", M, N)
    q = cylinder_diagram([Y, Y.transpose()])
    assert q.is_valid()
    with pytest.raises(LabelMismatch):
        quilt_evaluate(q, {"in": ("x", "y")})


def test_vertical_diagram(rels):
    # 2-morphisms at set level are matched pairs: the vertical diagram
    # composes them when they agree
    D, S = rels["D"], rels["S"]
    q = vertical_composition_diagram(D, D, D)
    assert q.is_valid()
    gens1 = generator_set(q.end_cyclic_chain("e1"))
    table = evaluation_map(q)
    for combo, out in table.items():
        inputs = dict(combo)
        if inputs["e1"] == inputs["e2"]:
            assert out == {inputs["e1"]}
        else:
            assert out == set()


def test_string_diagram_kinds(rels):
    Y, G = rels["Y"], rels["G"]
    assert string_diagram("identity", Y).is_valid()
    assert string_diagram("cap", Y).is_valid()
    assert string_diagram("cup", Y).is_valid()
    assert string_diagram("horizontal", G, Y).is_valid()
    with pytest.raises(LabelMismatch):
        string_diagram("nonsense", Y)


def test_cup_is_cap_of_transpose(rels):
    Y = rels["Y"]
    assert diagrams_isomorphic(cup_diagram(Y), cap_diagram(Y.transpose()))


def test_export_dot(rels):
    q = cylinder_diagram([rels["Y"], rels["Y"].transpose()])
    dot = export_dot(q)
    assert dot.startswith("graph quilt {")
    assert "subgraph cluster_0" in dot
    assert dot.count("--") >= 2


def _bubble_pair(rels):
    """Two diagrams whose gluing welds a pair of matched loops into a
    closed curve: the result must carry it as a circle seam."""
    cache = rels["cache"]
    M = cache.variety(surface(1))
    D = diagonal_relation(M)
    G = rels["G"]
    s1 = QuiltSurface(
        {"out": ("g1", "g2", "g3", "g4"), "e1": ("x2", "x1")},
        "out",
        {"O1": ("x1", "g1"), "A": ("g2", "g3"), "O2": ("x2", "g4")},
    )
    q1 = QuiltDiagram(s1, {"f0": M, "f1": M, "f2": M}, {"O1": D, "A": G, "O2": D})
    s2 = QuiltSurface(
        {"ein": ("h1", "h2", "h3", "h4"), "out2": ("y2", "y1")},
        "out2",
        {"P1": ("h1", "y1"), "B": ("h2", "h3"), "P2": ("h4", "y2")},
    )
    q2 = QuiltDiagram(s2, {"f0": M, "f1": M, "f2": M}, {"P1": D, "B": G, "P2": D})
    return q1, q2


def test_glue_welds_matched_loops_into_circle_seam(rels):
    q1, q2 = _bubble_pair(rels)
    assert q1.is_valid() and q2.is_valid()
    glued = quilt_glue(q1, q2, "ein")
    assert glued.is_valid()
    assert len(glued.surface.circle_seams) == 1
    assert len(glued.surface.seams) == 2
    # the circle's constraint must survive: gluing axiom holds exactly
    gens_in = generator_set(q1.end_cyclic_chain("e1"))
    k, offset = 4, glued.glue_offset
    for t in gens_in.tuples:
        direct = quilt_evaluate(glued, {("L", "e1"): t})
        composed = set()
        for y in quilt_evaluate(q1, {"e1": t}):
            plugged = tuple(y[(j - offset) % k] for j in range(k))
            composed |= quilt_evaluate(q2, {"ein": plugged})
        assert direct == composed


def test_glue_carries_circle_seams_and_bare_ends(rels):
    # a tube of two bare ends split by a circle seam, glued onto itself:
    # both circle seams and both bare ends survive, and the glued map is
    # the composite of the two maps
    tube = _bare_ends_on(rels, {"in": "inner", "out": "f0"})
    glued = quilt_glue(tube, tube, "in")
    assert glued.is_valid() and glued.glue_offset == 0
    s = glued.surface
    assert set(s.circle_seams) == {("L", "c"), ("R", "c")}
    assert s.ends == {("L", "in"): (), ("R", "out"): ()}
    assert s.end_patch[("L", "in")] != s.end_patch[("R", "out")]
    gens = generator_set(tube.end_cyclic_chain("in")).tuples
    composed = {
        t: set().union(*(quilt_evaluate(tube, {"in": y}) for y in quilt_evaluate(tube, {"in": t})))
        for t in gens
    }
    assert composed != {t: quilt_evaluate(tube, {"in": t}) for t in gens}
    assert {t: quilt_evaluate(glued, {("L", "in"): t}) for t in gens} == composed


def test_glue_refuses_ends_of_different_valence(rels):
    Y, G = rels["Y"], rels["G"]
    with pytest.raises(CyclicMismatch) as info:
        quilt_glue(cap_diagram(Y), cylinder_diagram([G, Y, Y.transpose()]), "in")
    assert info.value.witness == (2, 3)


def test_shrink_annulus_with_circle_seams_stored_either_way(rels):
    # each circle seam stored as given or reversed with its label
    # transposed: the merged seam runs from the outer patch to the core
    # and carries G then S, as for the annulus stored in order
    G, S = rels["G"], rels["S"]
    v = rels["cache"].variety(surface(1))
    plain = shrink_strip(_annulus(rels), "mid")
    for flips in itertools.product((False, True), repeat=2):
        circles, labels = {}, {}
        for flip, c, sides, lab in zip(flips, ("c1", "c2"), (("f0", "mid"), ("mid", "core")), (G, S)):
            circles[c] = sides[::-1] if flip else sides
            labels[c] = lab.transpose() if flip else lab
        surf = QuiltSurface({"out": ()}, "out", {}, circle_seams=circles, end_patch={"out": "f0"})
        q = QuiltDiagram(surf, {"f0": v, "mid": v, "core": v}, labels)
        assert q.is_valid()
        shrunk = shrink_strip(q, "mid")
        cid = ("merge", "c1", "c2")
        assert shrunk.surface.circle_seams == {cid: ("f0", "core")}
        assert shrunk.seam_labels == {cid: geometric_compose(G, S)}
        assert quilt_evaluate(shrunk, {}) == quilt_evaluate(q, {})
        assert diagrams_isomorphic(shrunk, plain)


def test_shrink_strip_refusals(rels):
    G, Y, D = rels["G"], rels["Y"], rels["D"]
    base = cylinder_diagram([G, G.transpose(), G, G.transpose()])
    s = base.surface
    face = min(s.data()["faces"])
    with_bare = QuiltDiagram(
        QuiltSurface({**s.ends, "bare": ()}, "out", s.seams, end_patch={"bare": face}),
        base.patch_labels,
        base.seam_labels,
    )
    with_circle = QuiltDiagram(
        QuiltSurface(s.ends, "out", s.seams, circle_seams={"c": (face, "inner")}),
        {**base.patch_labels, "inner": D.source},
        {**base.seam_labels, "c": D},
    )
    annulus = _annulus(rels)
    a = annulus.surface
    annulus_bare = QuiltDiagram(
        QuiltSurface({"out": (), "in": ()}, "out", {}, a.circle_seams, {"out": "f0", "in": "mid"}),
        annulus.patch_labels,
        annulus.seam_labels,
    )
    cases = [
        (cap_diagram(Y), "f0", "has 1 boundary seam-sides, need 2"),
        (cylinder_diagram([G]), "f0", "is bounded by one seam on both sides"),
        (with_bare, face, "carries a bare end"),
        (with_circle, face, "touches circle seams"),
        (annulus, "core", "touches 1 circle seams, need 2"),
        (annulus_bare, "mid", "carries a bare end"),
    ]
    for q, p, message in cases:
        assert q.is_valid(), message
        with pytest.raises(NotAStrip) as info:
            shrink_strip(q, p)
        assert info.value.witness == p and str(info.value) == f"patch {p!r} {message}"


# sha256 of io.dumps(diagram_to_json(...)) for each surgery result; shrinks
# that raise record the error class instead
SURGERY_DIGESTS = {
    "zigzag:S3:1": "59de267dd7ac7d8e583a302423eff380496594d374651d06b436ef8b3c6546a8",
    "zigzag:S3:2": "db9dadc72f4a2b62e42bf5267bf0eca83d1a79ebcbba12863637cf482ae79b56",
    "zigzag:Q8:1": "a646136d8c43bbfe7e517c4a7781fab9215d8fa5b5a6206f5fbd3e6c77a63abb",
    "zigzag:Q8:2": "e129b6ee43a732fd5de14c7faa28c1598a1fdb4865101aa371195310a0c52770",
    "shrink:f0": "b02f1cd880d2a2163113596dc641e0bf2e644f06739c3f564a8e98068f5ffa0e",
    "shrink:f1": "81f2da0b1e2b4332ea342c59d21ba98c4b35084750fe1439687f7f77e7b69be2",
    "shrink:f2": "425533bfabad92f1c7bef8d95514746f2404fbd0e69dab432061fefda7070deb",
    "bubble-weld": "4d6b5570eebcda9c318b3eea00df0da488da988d26173ed497f393468a76d862",
    "annulus": "f1892236b43b3b56707c468ac8ffad9048ee25151db6708336c0351e3d0249be",
}


def _annulus(rels):
    """Concentric circles: outer patch with the end, middle annulus, core."""
    v = rels["cache"].variety(surface(1))
    surf = QuiltSurface(
        {"out": ()},
        "out",
        {},
        circle_seams={"c1": ("f0", "mid"), "c2": ("mid", "core")},
        end_patch={"out": "f0"},
    )
    return QuiltDiagram(
        surf, {"f0": v, "mid": v, "core": v}, {"c1": rels["G"], "c2": rels["S"]}
    )


def test_surgery_output_bytes_pinned(rels):
    def digest(q):
        return hashlib.sha256(fio.dumps(fio.diagram_to_json(q)).encode()).hexdigest()

    got = {}
    for name, group in (("S3", S3), ("Q8", quaternion_group())):
        cache = rels["cache"] if group is S3 else VarietyCache(group)
        for genus in (1, 2):
            Y = relation_of_attach2(group, canonical_circle(genus), cache)
            zigzag = quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux")
            got[f"zigzag:{name}:{genus}"] = digest(zigzag)
    Y = rels["Y"]
    q = cylinder_diagram([rels["G"], Y, Y.transpose()])
    for p in q.surface.data()["patches"]:
        try:
            got[f"shrink:{p}"] = digest(shrink_strip(q, p))
        except (NotAStrip, NotEmbedded) as err:
            got[f"shrink:{p}"] = type(err).__name__
    got["bubble-weld"] = digest(quilt_glue(*_bubble_pair(rels), "ein"))
    got["annulus"] = digest(shrink_strip(_annulus(rels), "mid"))
    assert got == SURGERY_DIGESTS


def _torus_pair(rels):
    """The one-vertex torus with its end outgoing, and the same shape with
    that end incoming and a bare outgoing end on its one patch; the patch
    carries the genus-1 variety and both seams its diagonal."""
    M = rels["cache"].variety(surface(1))
    D = diagonal_relation(M)
    order = ("a", "b", "c", "d")
    seams = {"A": ("a", "c"), "B": ("b", "d")}
    surfaces = (
        QuiltSurface({"out": order}, "out", seams),
        QuiltSurface({"in": order, "out": ()}, "out", seams, end_patch={"out": "f0"}),
    )
    return tuple(QuiltDiagram(s, {"f0": M}, {"A": D, "B": D}) for s in surfaces)


def test_glue_refuses_welded_curves_that_do_not_separate(rels):
    # both seams weld into closed curves on the sphere left after gluing,
    # and two non-separating curves bound no tree of regions
    q1, q2 = _torus_pair(rels)
    assert q1.is_valid() and q2.is_valid()
    with pytest.raises(CyclicMismatch) as info:
        quilt_glue(q1, q2, "in")
    assert str(info.value) == "gluing produced an invalid diagram"
    failed = [e["check"] for e in info.value.witness if e["status"] == "fail"]
    assert failed == ["circle seams form trees of regions inside faces"]


def _surgery_library(rels):
    """The diagrams that the surgery sweep starts from, by name."""
    Y, G, D = rels["Y"], rels["G"], rels["D"]
    core_first = _annulus(rels)
    core_first = QuiltDiagram(
        core_first.surface,
        {p: core_first.patch_labels[p] for p in ("core", "mid", "f0")},
        core_first.seam_labels,
    )
    torus, torus_in = _torus_pair(rels)
    return {
        "cyl1": cylinder_diagram([G]),
        "cyl2": cylinder_diagram([Y, Y.transpose()]),
        "cyl3": cylinder_diagram([G, Y, Y.transpose()]),
        "cyl4": cylinder_diagram([G, G.transpose(), G, G.transpose()]),
        "cap": cap_diagram(Y),
        "cup": cup_diagram(Y),
        "snake": snake_frame_diagram(Y),
        "vertical": vertical_composition_diagram(D, D, D),
        "object": object_cylinder_diagram(D.source),
        "tube": _bare_ends_on(rels, {"in": "inner", "out": "f0"}),
        "annulus": _annulus(rels),
        "annulus-core-first": core_first,
        "torus": torus,
        "torus-in": torus_in,
    }


SWEEP_KEEP = 30  # gluing results kept per round for the next round


def surgery_sweep(rels):
    """One line per surgery outcome: every ordered pair of the library glued
    at each incoming end, then each kept result glued with the library both
    ways; every patch of the library and of the kept results shrunk, and
    every patch of each shrink result shrunk once more.  A result records
    the digest of its JSON dump and its surface's ids; a refusal records
    its class, message and witness."""
    lines = []

    def attempt(tag, surgery, *args):
        try:
            q = surgery(*args)
        except FloerkitError as err:
            lines.append(f"{tag} {type(err).__name__} {err} {err.witness!r}")
            return None
        s = q.surface
        digest = hashlib.sha256(fio.dumps(fio.diagram_to_json(q)).encode()).hexdigest()
        ids = [
            sorted(part.items(), key=repr)
            for part in (s.ends, s.seams, s.circle_seams, s.end_patch)
        ]
        lines.append(f"{tag} {digest} {ids!r} {getattr(q, 'glue_offset', None)}")
        return q

    def glue_round(pairs):
        kept = {}
        for (n1, q1), (n2, q2) in pairs:
            for e in q2.surface.incoming_ends():
                name = f"({n1}*{n2}@{e})"
                q = attempt(f"glue {name}", quilt_glue, q1, q2, e)
                if q is not None and len(kept) < SWEEP_KEEP:
                    kept[name] = q
        return kept

    library = _surgery_library(rels)
    first = glue_round(itertools.product(library.items(), repeat=2))
    second = glue_round(
        pair
        for a, b in itertools.product(first.items(), library.items())
        for pair in ((a, b), (b, a))
    )
    for name, q in {**library, **first, **second}.items():
        for p in q.surface.data()["patches"]:
            shrunk = attempt(f"shrink {name} {p!r}", shrink_strip, q, p)
            if shrunk is None:
                continue
            for p2 in shrunk.surface.data()["patches"]:
                attempt(f"shrink {name} {p!r} {p2!r}", shrink_strip, shrunk, p2)
    return lines


# sha256 over the lines of ``surgery_sweep``: 1,129 outcomes, 261 of them
# results
SURGERY_SWEEP_DIGEST = "56a7c8350f7f8db8cf30e2792b5f059f1632c1bade23701ee5f40bd7eba4680f"


def test_surgery_sweep_outcomes_pinned(rels):
    # any exception other than a FloerkitError escapes and fails the test
    lines = surgery_sweep(rels)
    assert len(lines) == 1129
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SURGERY_SWEEP_DIGEST


def test_shrink_strip_renames_bare_end_patch(rels):
    # a bare end on each face of the 4-seam cylinder in turn: shrinking any
    # other face renumbers the faces, and the bare end must follow its face
    G = rels["G"]
    base = cylinder_diagram([G, G.transpose(), G, G.transpose()])
    s = base.surface
    faces = s.data()["faces"]
    assert len(faces) == 4
    for b, orbit in faces.items():
        surf = QuiltSurface(
            {**s.ends, "bare": ()}, "out", s.seams, end_patch={"bare": b}
        )
        q = QuiltDiagram(surf, base.patch_labels, base.seam_labels)
        assert q.is_valid()
        for p in faces:
            if p == b:
                continue
            shrunk = shrink_strip(q, p)
            assert shrunk.is_valid(), (b, p)
            face_of = shrunk.surface.data()["face_of"]
            assert shrunk.surface.end_patch["bare"] == face_of[orbit[0]], (b, p)


def _two_loop_diagram(rels):
    """End "in" reads nodes (f0, f2, f0, f1): two seam loops that both
    touch f0; "in2" and "out" are bare ends on f0."""
    L = rels["Y"]
    T = geometric_compose(L, L.transpose())
    M = T.source
    surf = QuiltSurface(
        {"in": ("a0", "a1", "b0", "b1"), "in2": (), "out": ()},
        "out",
        {"A": ("a0", "a1"), "B": ("b0", "b1")},
        end_patch={"in2": "f0", "out": "f0"},
    )
    return QuiltDiagram(surf, {"f0": M, "f1": M, "f2": M}, {"A": T, "B": T})


def test_evaluate_checks_every_input_before_pinning(rels):
    q = _two_loop_diagram(rels)
    surf = q.surface
    assert q.is_valid()
    assert surf.end_nodes("in") == ("f0", "f2", "f0", "f1")
    gens = generator_set(q.end_cyclic_chain("in")).tuples
    clash = next(t for t in gens if t[0] != t[2])
    agree = next(t for t in gens if t[0] == t[2])
    # the empty tuple is not an input for the one-node end "in2"
    for t in (clash, agree):
        with pytest.raises(InputNotGenerator):
            quilt_evaluate(q, {"in": t, "in2": ()})
    assert quilt_evaluate(q, {"in": clash, "in2": (clash[0],)}) == set()


def scan_end_sequence(surf, e):
    """end_sequence as defined by scanning the seams for each seam-end."""
    seam_of = {}
    for s, (a, b) in surf.seams.items():
        seam_of[a] = (s, 0)
        seam_of[b] = (s, 1)
    out = []
    if e == surf.outgoing:
        for h in surf.ends[e]:
            s, pos = seam_of[h]
            # oriented into the end: stored when h is the head b
            out.append((s, +1 if pos == 1 else -1))
    else:
        for h in reversed(surf.ends[e]):
            s, pos = seam_of[h]
            # oriented away from the end: stored when h is the tail a
            out.append((s, +1 if pos == 0 else -1))
    return tuple(out)


def scan_seam_sides(surf, s):
    """(patch_minus, patch_plus) of seam s from the traced faces."""
    if s in surf.circle_seams:
        return surf.circle_seams[s]
    face_of = surf.data()["face_of"]
    a, b = surf.seams[s]
    return face_of[b], face_of[a]


def scan_end_nodes(surf, e):
    """end_nodes as the source patch of each oriented seam of the end."""
    seq = scan_end_sequence(surf, e)
    if not seq:
        return (surf.end_patch[e],)
    return tuple(scan_seam_sides(surf, s)[0 if d == +1 else 1] for s, d in seq)


def test_end_index_matches_seam_scan(rels):
    Y, G, D = rels["Y"], rels["G"], rels["D"]
    cylinder = cylinder_diagram([G, Y, Y.transpose()])
    fixtures = {
        "cylinder": cylinder,
        "cap": cap_diagram(Y),
        "cup": cup_diagram(Y),
        "snake": snake_frame_diagram(Y),
        "vertical": vertical_composition_diagram(D, D, D),
        "object cylinder": object_cylinder_diagram(D.source),
        "cylinder onto cylinder": quilt_glue(cylinder, cylinder, "in"),
        "bubble weld": quilt_glue(*_bubble_pair(rels), "ein"),
        "annulus shrunk": shrink_strip(_annulus(rels), "mid"),
    }
    for name, label in (("Y", Y), ("B", rels["B"])):
        fixtures[f"zigzag {name}"] = quilt_glue(
            cap_diagram(label), snake_frame_diagram(label), "aux"
        )
    for p in cylinder.surface.data()["patches"]:
        try:
            fixtures[f"shrunk {p}"] = shrink_strip(cylinder, p)
        except (NotAStrip, NotEmbedded):
            pass
    assert sum(name.startswith("shrunk") for name in fixtures) >= 2
    for name, q in fixtures.items():
        s = q.surface
        for e in s.ends:
            assert s.end_sequence(e) == scan_end_sequence(s, e), (name, e)
            assert s.end_nodes(e) == scan_end_nodes(s, e), (name, e)
        for sid in list(s.seams) + list(s.circle_seams):
            assert s.seam_sides(sid) == scan_seam_sides(s, sid), (name, sid)


# -- evaluation state cached on the diagram -------------------------------------


@pytest.fixture(scope="module")
def q8_label():
    """The genus-2 attaching relation over Q8, which a zigzag carries."""
    Q8 = quaternion_group()
    return relation_of_attach2(Q8, canonical_circle(2), VarietyCache(Q8))


def test_each_end_is_enumerated_once_per_diagram(q8_label, monkeypatch):
    zig = quilt_glue(cap_diagram(q8_label), snake_frame_diagram(q8_label), "aux")
    calls = []
    successors = FiniteRelation.successors

    def counted(rel):
        calls.append(rel)
        return successors(rel)

    monkeypatch.setattr(FiniteRelation, "successors", counted)
    assert evaluates_to_identity(zig, ("R", "in"))
    table = evaluation_map(zig)
    gens = generator_set(zig.end_cyclic_chain(("R", "in"))).tuples
    assert len(table) == len(gens) > 1
    # one successor map per relation of the incoming end's chain, once
    assert len(calls) == len(zig.end_cyclic_chain(("R", "in")))
    assert evaluates_to_identity(zig, ("R", "in")) and evaluation_map(zig) == table
    assert len(calls) == len(zig.end_cyclic_chain(("R", "in")))


def test_budget_is_checked_after_the_cache_fills(q8_label):
    chain = cap_diagram(q8_label).end_cyclic_chain("out")
    gens = generator_set(chain)
    with pytest.raises(ResourceLimit):
        generator_set(chain, budget=1)
    assert generator_set(chain, budget=10**6).tuples is gens.tuples


def _raised(q, inputs):
    with pytest.raises(InputNotGenerator) as info:
        quilt_evaluate(q, inputs)
    return str(info.value), info.value.witness


def test_warm_diagram_rejects_inputs_as_a_cold_one(rels):
    warm = _two_loop_diagram(rels)
    gens = generator_set(warm.end_cyclic_chain("in")).tuples
    clash = next(t for t in gens if t[0] != t[2])
    agree = next(t for t in gens if t[0] == t[2])
    assert quilt_evaluate(warm, {"in": agree, "in2": (agree[0],)}) == {(agree[0],)}
    not_generator = (agree[0], agree[1], agree[0], (9, 9))
    bad_inputs = [
        {},
        {"in": agree},
        {"in": agree, "in2": (agree[0],), "other": ()},
        {"in": clash, "in2": ()},
        {"in": agree[:3], "in2": (agree[0],)},
        {"in": not_generator, "in2": (agree[0],)},
        {"in": agree, "in2": ((9, 9),)},
    ]
    for inputs in bad_inputs:
        assert _raised(warm, inputs) == _raised(_two_loop_diagram(rels), inputs), inputs
    # inconsistent pins still give nothing on the warm diagram
    assert quilt_evaluate(warm, {"in": clash, "in2": (clash[0],)}) == set()
    assert quilt_evaluate(warm, {"in": agree, "in2": (agree[0],)}) == {(agree[0],)}


def test_warm_evaluation_matches_every_patch_assignment():
    cache = VarietyCache(Z3)
    Y = relation_of_attach2(Z3, canonical_circle(1), cache)
    G = relation_of_cyl(Z3, dehn_twist_a(1), cache)
    zig = quilt_glue(cap_diagram(Y), snake_frame_diagram(Y), "aux")
    cylinder = cylinder_diagram([G, Y, Y.transpose(), G.transpose()])
    for q in (zig, cylinder):
        evaluation_map(q)  # warm the caches
    fixtures = [
        zig,
        cylinder,
        quilt_glue(cap_diagram(Y), zig, ("R", "in")),
        quilt_glue(cylinder, cylinder, "in"),
    ]
    for p in cylinder.surface.data()["patches"]:
        try:
            fixtures.append(shrink_strip(cylinder, p))
        except (NotAStrip, NotEmbedded):
            pass
    assert len(fixtures) > 4
    for q in fixtures:
        first = {k: v for k, v in evaluation_map(q).items() if v}
        again = {k: v for k, v in evaluation_map(q).items() if v}
        assert first and first == again == brute_evaluation_map(q)


# -- isomorphism ----------------------------------------------------------------
#
# The end-permutation and rotation search that diagrams_isomorphic made
# before it followed the half-edge index from one seam-end, kept verbatim
# as the independent route for diagrams without circle seams or bare ends
# (it compared those only as sorted label reprs).


def oracle_diagrams_isomorphic(q1, q2):
    s1, s2 = q1.surface, q2.surface
    if len(s1.ends) != len(s2.ends) or len(s1.seams) != len(s2.seams):
        return False
    if len(s1.circle_seams) != len(s2.circle_seams):
        return False
    d1, d2 = s1.data(), s2.data()
    ends1 = sorted(s1.ends, key=repr)
    ends2 = sorted(s2.ends, key=repr)
    alpha2, into2 = d2["alpha"], d2["into"]

    def try_map(triples):
        # triples: (end of q1, its image end of q2, rotation)
        half_map = {}
        for e1, e2, rot in triples:
            o1, o2 = s1.ends[e1], s2.ends[e2]
            for i, h in enumerate(o1):
                half_map[h] = o2[(i + rot) % len(o2)]
        # seams must map to seams with equal labels: the image of a -> b
        # is the seam of q2 oriented into the image of b
        for s, (a, b) in s1.seams.items():
            x, y = half_map[a], half_map[b]
            if alpha2[x] != y or q1.seam_labels[s] != q2.label(*into2[y]):
                return False
        # patch labels must transport
        for h, h2 in half_map.items():
            p1 = d1["face_of"][h]
            p2 = d2["face_of"][h2]
            if q1.patch_labels[p1] != q2.patch_labels[p2]:
                return False
        return True

    rotations = [range(max(len(s1.ends[e1]), 1)) for e1 in ends1]
    for image in itertools.permutations(ends2):
        if any(
            len(s1.ends[e1]) != len(s2.ends[e2])
            or (e1 == s1.outgoing) != (e2 == s2.outgoing)
            for e1, e2 in zip(ends1, image)
        ):
            continue
        if any(
            try_map(zip(ends1, image, rots))
            for rots in itertools.product(*rotations)
        ):
            break
    else:
        return False
    if not s1.circle_seams and not s2.circle_seams:
        return True
    # with circle seams, compare the labeled circle structure separately
    sig1 = sorted(
        (repr(q1.patch_labels[pm]), repr(q1.patch_labels[pp]), repr(q1.seam_labels[c]))
        for c, (pm, pp) in s1.circle_seams.items()
    )
    sig2 = sorted(
        (repr(q2.patch_labels[pm]), repr(q2.patch_labels[pp]), repr(q2.seam_labels[c]))
        for c, (pm, pp) in s2.circle_seams.items()
    )
    return sig1 == sig2


def generic_diagram(rng, ends, outgoing, seams, circles=0, bare=0):
    """A diagram with generic labels on a rotation system: each face and
    each of ``circles`` circle regions gets object M or N, each region
    hangs off a face or an earlier region of it, each seam and circle
    seam gets label a or b typed by its sides, and ``bare`` bare ends sit
    on random patches (the outgoing end may be one of them)."""
    faces = QuiltSurface(ends, min(ends), seams).core_data()["faces"] if seams else {"f0": ()}
    objects = {f: rng.choice("MN") for f in faces}
    circle_seams = {}
    for k in range(circles):
        parent, region = rng.choice(sorted(objects)), f"r{k}"
        objects[region] = rng.choice("MN")
        circle_seams[f"c{k}"] = (parent, region) if rng.random() < 0.5 else (region, parent)
    ends = {**ends, **{f"b{k}": () for k in range(bare)}}
    end_patch = {e: rng.choice(sorted(objects)) for e, order in ends.items() if not order}
    surf = QuiltSurface(ends, outgoing, seams, circle_seams, end_patch)
    labels = {}
    for s in list(seams) + list(circle_seams):
        pm, pp = surf.seam_sides(s)
        labels[s] = GenericMorphism(rng.choice("ab"), objects[pm], objects[pp])
    return QuiltDiagram(surf, objects, labels)


def isomorphic_copy(rng, q):
    """q with every id renamed, each end's order rotated at random, and
    each seam and circle seam stored reversed, its label transposed, at
    random; on a seamless sphere a random region becomes f0."""
    s, d = q.surface, q.surface.data()
    ends = {}
    for e, order in s.ends.items():
        k = rng.randrange(len(order)) if order else 0
        ends[("E", e)] = tuple(("H", h) for h in order[k:] + order[:k])
    seams, labels, circles = {}, {}, {}
    for sid, (a, b) in s.seams.items():
        flip = rng.random() < 0.5
        seams[("S", sid)] = (("H", b), ("H", a)) if flip else (("H", a), ("H", b))
        labels[("S", sid)] = q.label(sid, -1 if flip else +1)
    outgoing = ("E", s.outgoing)
    if seams:
        face_of = QuiltSurface(ends, outgoing, seams).core_data()["face_of"]
        patch = {f: face_of[("H", orbit[0])] for f, orbit in d["faces"].items()}
    else:
        patch = {"f0": ("R", "f0"), rng.choice(d["patches"]): "f0"}
    patch.update({p: ("R", p) for p in d["patches"] if p not in patch})
    for cid, (pm, pp) in s.circle_seams.items():
        flip = rng.random() < 0.5
        circles[("C", cid)] = (patch[pp], patch[pm]) if flip else (patch[pm], patch[pp])
        labels[("C", cid)] = q.label(cid, -1 if flip else +1)
    end_patch = {("E", e): patch[s.end_patch[e]] for e, order in s.ends.items() if not order}
    surf = QuiltSurface(ends, outgoing, seams, circles, end_patch)
    return QuiltDiagram(surf, {patch[p]: lab for p, lab in q.patch_labels.items()}, labels)


def perturbed(rng, q, seed):
    """q with one change that may break isomorphism: two seam-ends of an
    end swapped (labels drawn again from seed), another end outgoing, or
    one seam label renamed."""
    s = q.surface
    busy = [e for e in sorted(s.ends) if len(s.ends[e]) > 2]
    kind = rng.choice(["swap"] * bool(busy) + ["outgoing"] * (len(s.ends) > 1) + ["label"])
    if kind == "swap":
        e = rng.choice(busy)
        order = list(s.ends[e])
        i, j = rng.sample(range(len(order)), 2)
        order[i], order[j] = order[j], order[i]
        return generic_diagram(random.Random(seed), {**s.ends, e: tuple(order)}, s.outgoing, s.seams)
    if kind == "outgoing":
        outgoing = rng.choice([e for e in sorted(s.ends) if e != s.outgoing])
        return QuiltDiagram(QuiltSurface(s.ends, outgoing, s.seams), q.patch_labels, q.seam_labels)
    sid = rng.choice(sorted(s.seams))
    lab = q.seam_labels[sid]
    renamed = GenericMorphism("ab"[lab.name == "a"], lab.source, lab.target)
    return QuiltDiagram(s, q.patch_labels, {**q.seam_labels, sid: renamed})


def test_isomorphism_matches_the_oracle():
    # each labelled system paired with an isomorphic copy, with one
    # perturbation of it and with a copy of that
    rng = random.Random(20)
    verdicts = []
    for _ in range(1000):
        ends, seams = random_rotation_system(rng)
        seed = rng.random()
        q = generic_diagram(random.Random(seed), ends, rng.choice(sorted(ends)), seams)
        assert q.is_valid()
        other = perturbed(rng, q, seed)
        for q2 in (isomorphic_copy(rng, q), other, isomorphic_copy(rng, other)):
            got = diagrams_isomorphic(q, q2)
            assert got == oracle_diagrams_isomorphic(q, q2), (ends, seams, q.surface.outgoing)
            verdicts.append(got)
    assert len(verdicts) == 3000 and all(verdicts[::3])
    # a copy of the perturbed diagram is isomorphic to q just when it is
    assert verdicts[1::3] == verdicts[2::3] and 0 < sum(verdicts[1::3]) < 500


def test_isomorphic_copies_with_circle_seams_and_bare_ends():
    rng = random.Random(21)
    for _ in range(300):
        ends, seams = random_rotation_system(rng) if rng.random() < 0.8 else ({}, {})
        bare = rng.randint(0 if ends else 1, 2)
        outgoing = rng.choice(sorted(ends) + [f"b{k}" for k in range(bare)])
        q = generic_diagram(rng, ends, outgoing, seams, circles=rng.randint(0, 4), bare=bare)
        assert q.is_valid()
        assert diagrams_isomorphic(q, isomorphic_copy(rng, q))
        if q.surface.circle_seams:
            # one circle label transposed in place: one more or one fewer
            # circle reads a flipped label outward
            c = rng.choice(sorted(q.surface.circle_seams))
            flipped = {**q.seam_labels, c: q.seam_labels[c].transpose()}
            q2 = isomorphic_copy(rng, QuiltDiagram(q.surface, q.patch_labels, flipped))
            assert not diagrams_isomorphic(q, q2)


def _circle_off_face(rels, face):
    """One loop seam labelled G at the outgoing end, and a circle seam with
    a one-pair label from the given face to an inner region."""
    M = rels["cache"].variety(surface(1))
    surf = QuiltSurface(
        {"out": ("h0", "h1")}, "out", {"s0": ("h0", "h1")}, circle_seams={"c": (face, "inner")}
    )
    one_pair = FiniteRelation(M, M, frozenset({((1, 0), (1, 0))}))
    return QuiltDiagram(surf, {"f0": M, "f1": M, "inner": M}, {"s0": rels["G"], "c": one_pair})


def _bare_ends_on(rels, end_patch, label=None):
    """Two bare ends and a circle seam from f0 to an inner region, labelled
    G unless another label is given."""
    M = rels["cache"].variety(surface(1))
    surf = QuiltSurface(
        {"in": (), "out": ()}, "out", {}, circle_seams={"c": ("f0", "inner")}, end_patch=end_patch
    )
    return QuiltDiagram(surf, {"f0": M, "inner": M}, {"c": rels["G"] if label is None else label})


def test_seamless_spheres_compare_their_objects(rels):
    # no seam label carries the object of a sphere without seams
    spheres = [
        QuiltDiagram(QuiltSurface({"out": ()}, "out", {}), {"f0": rels["cache"].variety(surface(g))}, {})
        for g in (1, 1, 2)
    ]
    assert all(q.is_valid() for q in spheres)
    assert diagrams_isomorphic(spheres[0], spheres[1])
    assert not diagrams_isomorphic(spheres[0], spheres[2])


def test_seamless_spheres_may_name_any_region_f0(rels):
    # f0 and the inner region trade names: the circle seam is stored the
    # other way round, its label transposed, and the bare ends follow
    M = rels["cache"].variety(surface(1))
    q = object_cylinder_diagram(M)
    unit = q.seam_labels[("c", 0)]
    surf = QuiltSurface(
        {"in": (), "out": ()}, "out", {}, circle_seams={("c", 0): ("f0", "inner")},
        end_patch={"in": "f0", "out": "inner"},
    )
    renamed = QuiltDiagram(surf, {"f0": M, "inner": M}, {("c", 0): unit.transpose()})
    pairs = [(q, renamed)]
    G, Gt = rels["G"], rels["G"].transpose()
    for in_on, out_on in (("inner", "f0"), ("f0", "inner")):
        pairs.append((
            _bare_ends_on(rels, {"in": in_on, "out": out_on}),
            _bare_ends_on(rels, {"in": out_on, "out": in_on}, Gt),
        ))
    for q1, q2 in pairs:
        assert q1.is_valid() and q2.is_valid()
        assert evaluation_map(q1) == evaluation_map(q2)
        assert diagrams_isomorphic(q1, q2) and diagrams_isomorphic(q2, q1)
    # renaming keeps witness B's two tubes apart
    assert G != Gt
    assert not diagrams_isomorphic(pairs[1][1], pairs[2][0])
    assert not diagrams_isomorphic(pairs[1][0], pairs[2][1])


@pytest.mark.parametrize("pair", ["circle in another face", "bare ends swapped"])
def test_diagrams_with_different_maps_are_not_isomorphic(rels, pair):
    # the permutation search called both pairs isomorphic: it compared
    # circle seams by their labels alone and never placed bare ends
    assert rels["G"] != rels["G"].transpose()
    if pair == "circle in another face":
        q1, q2 = _circle_off_face(rels, "f0"), _circle_off_face(rels, "f1")
        assert evaluation_map(q1) == {(): {((1, 0), (1, 1))}}
        assert evaluation_map(q2) == {(): {((1, 1), (1, 0))}}
    else:
        q1 = _bare_ends_on(rels, {"in": "inner", "out": "f0"})
        q2 = _bare_ends_on(rels, {"in": "f0", "out": "inner"})
        assert evaluation_map(q1) != evaluation_map(q2)
    assert q1.is_valid() and q2.is_valid()
    assert oracle_diagrams_isomorphic(q1, q2)
    assert not diagrams_isomorphic(q1, q2) and not diagrams_isomorphic(q2, q1)
    rng = random.Random(0)
    assert all(diagrams_isomorphic(q, isomorphic_copy(rng, q)) for q in (q1, q2))
