import itertools

import pytest

from floerkit.bordism import AttachingCircle, b_circle, canonical_circle, cyl, CAP0, CAP3, attach1, attach2
from floerkit import io as fio
from floerkit import parallel, repvar
from floerkit.bordobjects import EMPTY, surface
from floerkit.errors import ResourceLimit
from floerkit.groups import cyclic_group, quaternion_group, symmetric_group
from floerkit.quilt import cylinder_diagram
from floerkit.relcat import geometric_compose
from floerkit.repvar import (
    VarietyCache,
    canonical_point,
    diagonal_relation,
    enumerate_relator_solutions,
    first_handle_entries,
    relation_of_attach2,
    relation_of_attach2_direct,
    relation_of_cyl,
    relation_of_simple,
    repvariety,
    satisfies_relator,
)
from floerkit.words import (
    crossing_transport,
    dehn_twist_a,
    dehn_twist_b,
    identity_automorphism,
    s_move,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
Q8 = quaternion_group()


def brute_variety_count(group, genus):
    """Independent oracle: full product scan plus orbit counting."""
    n = group.order
    reps = []
    for tup in itertools.product(range(n), repeat=2 * genus):
        acc = 0
        ok = True
        for i in range(genus):
            a, b = tup[2 * i], tup[2 * i + 1]
            acc = group.op(acc, group.commutator(a, b))
        if acc == 0:
            reps.append(tup)
    orbits = set()
    for tup in reps:
        orbit = frozenset(
            tuple(group.conjugate(h, x) for x in tup) for h in range(n)
        )
        orbits.add(orbit)
    return len(orbits)


def test_empty_and_sphere_are_points():
    for g in (Z2, S3):
        assert repvariety(g, EMPTY).points == ((),)
        assert repvariety(g, surface(0)).points == ((),)


def test_relator_solution_enumeration_matches_brute_force():
    for group, genus in [(Z2, 1), (Z3, 1), (S3, 1), (Z2, 2), (S3, 2)]:
        # unsorted: the enumeration itself is in lexicographic order
        ours = list(enumerate_relator_solutions(group, genus))
        brute = [
            tup
            for tup in itertools.product(range(group.order), repeat=2 * genus)
            if satisfies_relator(group, tup)
        ]
        assert ours == brute
        # consecutive slices of the first-handle entries cover it in order
        entries = first_handle_entries(group)
        for n_slices in (1, 2, 5):
            cuts = [len(entries) * i // n_slices for i in range(n_slices + 1)]
            pieces = [entries[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
            joined = [
                tup
                for piece in pieces
                for tup in enumerate_relator_solutions(group, genus, first=piece)
            ]
            assert joined == ours


def test_s3_torus_has_eight_points():
    # Burnside count of conjugation orbits on commuting pairs in S3
    assert brute_variety_count(S3, 1) == 8
    v = repvariety(S3, surface(1))
    assert len(v) == 8


def test_z2_genus2_has_sixteen_points():
    v = repvariety(Z2, surface(2))
    # abelian: every tuple satisfies the relator, conjugation is trivial
    assert len(v) == 2 ** 4
    assert brute_variety_count(Z2, 2) == 16


@pytest.mark.parametrize("group,genus", [(Z4, 1), (Q8, 1), (S3, 2)])
def test_variety_matches_oracle(group, genus):
    assert len(repvariety(group, surface(genus))) == brute_variety_count(group, genus)


def test_canonical_point_properties():
    for tup in itertools.product(range(6), repeat=2):
        if not satisfies_relator(S3, tup):
            continue
        canon = canonical_point(S3, tup)
        # canonical form is in the orbit and is idempotent
        orbit = {tuple(S3.conjugate(h, x) for x in tup) for h in range(6)}
        assert canon in orbit
        assert canonical_point(S3, canon) == canon
        assert canon == min(orbit)


def test_budget_enforced(monkeypatch):
    with pytest.raises(ResourceLimit):
        repvariety(S3, surface(3), budget=100)

    # with workers the check runs in the parent, before any chunk is run
    def no_chunks(*args):
        raise AssertionError("chunks started before the budget check")

    monkeypatch.setattr(parallel, "run_chunks", no_chunks)
    with pytest.raises(ResourceLimit) as err:
        repvariety(S3, surface(3), budget=100, workers=2)
    assert err.value.witness == {"order": 6, "genus": 3, "budget": 100}


def test_cyl_identity_is_diagonal():
    cache = VarietyCache(Z4)
    rel = relation_of_cyl(Z4, identity_automorphism(1), cache)
    assert rel == diagonal_relation(cache.variety(surface(1)))


def test_cyl_t_move_on_z4():
    # T: a -> a, b -> ba, so [rho o T^-1] sends (A, B) to (A, B - A) in Z/4
    cache = VarietyCache(Z4)
    rel = relation_of_cyl(Z4, dehn_twist_a(1), cache)
    assert rel.is_graph_of_bijection()
    assert len(rel) == 16
    for (a, b), (a2, b2) in rel.pairs:
        assert a2 == a
        assert b2 == (b - a) % 4


def test_cyl_transpose_is_inverse_cyl():
    cache = VarietyCache(S3)
    s = s_move(1)
    left = relation_of_cyl(S3, s, cache).transpose()
    right = relation_of_cyl(S3, s.inverse(), cache)
    assert left == right


def test_cyl_functoriality_contravariant():
    # L_phi o L_psi = L_{psi then phi} as relation composition
    cache = VarietyCache(S3)
    phi = s_move(1)
    psi = dehn_twist_a(1)
    lhs = geometric_compose(
        relation_of_cyl(S3, phi, cache), relation_of_cyl(S3, psi, cache)
    )
    rhs = relation_of_cyl(S3, phi.then(psi), cache)
    assert lhs == rhs


def test_s_move_inverse_composes_to_diagonal():
    cache = VarietyCache(S3)
    s = s_move(1)
    comp = geometric_compose(
        relation_of_cyl(S3, s, cache), relation_of_cyl(S3, s.inverse(), cache)
    )
    assert comp == diagonal_relation(cache.variety(surface(1)))


def test_attach2_torus_z2():
    cache = VarietyCache(Z2)
    rel = relation_of_attach2(Z2, canonical_circle(1), cache)
    # {[(e, B)] -> pt : B in Z/2}: 2 pairs from the 4-point torus variety
    assert len(cache.variety(surface(1))) == 4
    assert rel.sorted_pairs() == (((0, 0), ()), ((0, 1), ()))


def test_attach2_genus2_support():
    cache = VarietyCache(S3)
    rel = relation_of_attach2(S3, canonical_circle(2), cache)
    v = cache.variety(surface(2))
    support = {x for x, _ in rel.pairs}
    assert support == {p for p in v.points if p[0] == 0}


def test_b_circle_torus_s3():
    # killing b_1 gives {[(A, e)] -> pt}
    cache = VarietyCache(S3)
    rel = relation_of_attach2(S3, b_circle(1), cache)
    assert {x for x, _ in rel.pairs} == {
        p for p in cache.variety(surface(1)).points if p[1] == 0
    }
    # the plain genus-1 S-move presents the same circle
    rel2 = relation_of_attach2(S3, AttachingCircle(1, s_move(1)), cache)
    assert rel == rel2


@pytest.mark.parametrize("group", [Z2, Z3, Z4, S3, Q8])
def test_attach2_two_routes_agree(group):
    cache = VarietyCache(group)
    circles = [canonical_circle(1), b_circle(1),
               AttachingCircle(1, dehn_twist_a(1)),
               canonical_circle(2), b_circle(2),
               AttachingCircle(2, dehn_twist_b(2, 2))]
    for c in circles:
        sigma_route = relation_of_attach2(group, c, cache)
        direct_route = relation_of_attach2_direct(group, c, cache)
        assert sigma_route == direct_route


def test_attach2_equivariance():
    # L over a transported circle equals gr(L_phi)^T composed with L
    for group in (Z3, S3):
        cache = VarietyCache(group)
        for psi, phi in [
            (identity_automorphism(1), dehn_twist_a(1)),
            (dehn_twist_b(1), s_move(1)),
            (identity_automorphism(2), dehn_twist_a(2)),
            (crossing_transport(2), dehn_twist_b(2)),
        ]:
            transported = AttachingCircle(psi.genus, psi.then(phi))
            lhs = relation_of_attach2(group, transported, cache)
            rhs = geometric_compose(
                relation_of_cyl(group, phi, cache).transpose(),
                relation_of_attach2(group, AttachingCircle(psi.genus, psi), cache),
            )
            assert lhs == rhs


def test_attach1_is_transpose():
    cache = VarietyCache(S3)
    c = canonical_circle(1)
    r2 = relation_of_simple(S3, attach2(c), cache)
    r1 = relation_of_simple(S3, attach1(c), cache)
    assert r1 == r2.transpose()
    assert len(r1) == len(r2)
    assert r1.transpose().transpose() == r1


def test_caps_are_single_pairs():
    cache = VarietyCache(Z2)
    r3 = relation_of_simple(Z2, CAP3, cache)
    r0 = relation_of_simple(Z2, CAP0, cache)
    assert r3.sorted_pairs() == (((), ()),)
    assert r0.sorted_pairs() == (((), ()),)
    assert r3.source.obj == surface(0) and r3.target.obj == EMPTY
    assert r0.source.obj == EMPTY and r0.target.obj == surface(0)


def test_cyl_relation_via_simple_dispatch():
    cache = VarietyCache(Z3)
    rel = relation_of_simple(Z3, cyl(dehn_twist_a(1)), cache)
    assert rel.is_graph_of_bijection()


def count_calls(monkeypatch, name):
    """Replace repvar's ``name`` by a wrapper counting its calls."""
    calls = []
    original = getattr(repvar, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(repvar, name, counted)
    return calls


def test_attach1_reuses_the_attach2_entry(monkeypatch):
    cache = VarietyCache(S3)
    c = canonical_circle(2)
    builds = count_calls(monkeypatch, "relation_of_attach2")
    r2 = relation_of_simple(S3, attach2(c), cache)
    r1 = relation_of_simple(S3, attach1(c), cache)
    assert len(builds) == 1
    assert r1 == r2.transpose()
    assert relation_of_simple(S3, attach2(c), cache) is r2
    assert relation_of_simple(S3, attach1(c), cache) is r1
    assert len(builds) == 1


def test_relations_pair_the_stored_point_tuples():
    cache = VarietyCache(S3)
    for rel in (
        relation_of_attach2(S3, b_circle(2), cache),
        relation_of_cyl(S3, dehn_twist_a(2, 2), cache),
    ):
        for variety, side in ((rel.source, 0), (rel.target, 1)):
            stored = {p: p for p in variety.points}
            assert all(pair[side] is stored[pair[side]] for pair in rel.pairs)


def test_diagram_labels_with_one_descriptor_build_it_once(monkeypatch):
    cache = VarietyCache(S3)
    Y = relation_of_attach2(S3, canonical_circle(1), cache)
    data = fio.diagram_to_json(cylinder_diagram([Y, Y.transpose()]))
    descriptor = {
        "kind": "attach2",
        "genus": 1,
        "auto": identity_automorphism(1).to_json(),
    }
    labels = {}
    for seam, raw in data["seam_labels"].items():
        lab = fio.label_from_json(S3, raw)
        assert lab in (Y, Y.transpose())
        labels[seam] = descriptor if lab == Y else {"transpose": descriptor}
    assert list(labels.values()).count(descriptor) == 1
    data["seam_labels"] = labels
    builds = count_calls(monkeypatch, "relation_of_attach2")
    q = fio.diagram_from_json(S3, data)
    assert len(builds) == 1
    assert all(e["status"] == "pass" for e in q.validate())
    assert sorted(map(len, q.seam_labels.values())) == [len(Y), len(Y)]


def test_variety_membership_by_stored_points():
    v = repvariety(S3, surface(1))
    assert all(p in v for p in v.points)
    outside = set(itertools.product(range(S3.order), repeat=2)) - set(v.points)
    assert not any(p in v for p in outside)
    assert not hasattr(v, "index")
