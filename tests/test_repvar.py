import itertools
import random
from collections import Counter

import pytest

from floerkit.bordism import AttachingCircle, b_circle, canonical_circle, cyl, CAP0, CAP3, attach1, attach2
from floerkit import io as fio
from floerkit import parallel, repvar
from floerkit.bordobjects import EMPTY, surface
from floerkit.errors import ResourceLimit
from floerkit.groups import (
    cyclic_group,
    dihedral_group,
    group_from_json,
    quaternion_group,
    standard_test_groups,
    symmetric_group,
)
from floerkit.quilt import cylinder_diagram
from floerkit.relcat import geometric_compose
from floerkit.repvar import (
    VarietyCache,
    canonical_point,
    diagonal_relation,
    enumerate_relator_solutions,
    first_handle_entries,
    least_first_handles,
    relation_of_attach2,
    relation_of_attach2_direct,
    relation_of_cyl,
    relation_of_simple,
    repvariety,
    satisfies_relator,
)
from floerkit.words import (
    builtin_library,
    crossing_transport,
    dehn_twist_a,
    dehn_twist_b,
    handle_swap,
    identity_automorphism,
    s_move,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
Q8 = quaternion_group()
D6 = dihedral_group(6)
S4 = symmetric_group(4)
S5 = symmetric_group(5)


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
    for group, genus in [(Z2, 1), (Z3, 1), (S3, 1), (Z2, 2), (S3, 2), (Z2, 3), (S3, 3)]:
        ours = list(enumerate_relator_solutions(group, genus))
        brute = [
            tup
            for tup in itertools.product(range(group.order), repeat=2 * genus)
            if satisfies_relator(group, tup)
        ]
        # the enumeration is in lexicographic order up to genus 2 only
        assert (ours if genus <= 2 else sorted(ours)) == brute
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


def least_conjugate(group, tup):
    """Oracle: the least tuple over all |G| conjugators."""
    return min(tuple(row[x] for x in tup) for row in group.conj.tolist())


@pytest.mark.parametrize(
    "group,genus", [(S3, 2), (Q8, 2), (D6, 2), (S4, 1)], ids=lambda v: getattr(v, "name", v)
)
def test_canonical_point_matches_all_conjugators(group, genus):
    for tup in enumerate_relator_solutions(group, genus):
        assert canonical_point(group, tup) == least_conjugate(group, tup), tup
    # tuples of any length, on or off the relator
    rng = random.Random(f"{group.name}:{genus}")
    for length in (1, 3, 5):
        for _ in range(300):
            tup = tuple(rng.randrange(group.order) for _ in range(length))
            assert canonical_point(group, tup) == least_conjugate(group, tup), tup
    assert canonical_point(group, ()) == ()


def burnside_variety_count(group, genus):
    """Independent oracle by Burnside's lemma: |Hom(pi_1 Sigma_g, G)/G| is
    the mean over h in G of |Hom(pi_1 Sigma_g, C(h))|, and each term counts
    the products of g commutators equal to e inside C(h), by convolving the
    commutator-fiber counts of C(h) g times.  Reads only the group table."""
    n = group.order
    mul, inv = group.mul.tolist(), group.inv.tolist()
    total = 0
    for h in range(n):
        cent = [x for x in range(n) if mul[x][h] == mul[h][x]]
        fiber = Counter(mul[mul[mul[a][b]][inv[a]]][inv[b]] for a in cent for b in cent)
        products = {0: 1}  # product of the commutators so far -> count
        for _ in range(genus):
            nxt = Counter()
            for x, k in products.items():
                for c, m in fiber.items():
                    nxt[mul[x][c]] += k * m
            products = nxt
        total += products.get(0, 0)
    assert total % n == 0
    return total // n


@pytest.mark.parametrize(
    "group,genus,count",
    [
        *((g, genus, None) for g in standard_test_groups() for genus in (1, 2)),
        (S4, 2, 1851),
        (Q8, 3, 36352),
        (S5, 2, 33693),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_variety_size_matches_burnside_count(group, genus, count):
    expected = burnside_variety_count(group, genus)
    assert count in (None, expected)
    assert len(repvariety(group, surface(genus))) == expected


# Degrees of the irreducible complex characters, from the character tables.
CHARACTER_DEGREES = {
    "S3": (1, 1, 2),
    "S4": (1, 1, 2, 3, 3),
    "Q8": (1, 1, 1, 1, 2),
    "D6": (1, 1, 1, 1, 2, 2),
}


@pytest.mark.parametrize(
    "group,genus,count",
    [(S3, 3, 16038), (S4, 2, 34176), (Q8, 3, 133120), (D6, 2, 7776)],
    ids=lambda v: getattr(v, "name", v),
)
def test_raw_solution_count_matches_frobenius_mednykh(group, genus, count):
    """|Hom(pi_1 Sigma_g, G)| = |G| sum over irreducible chi of
    (|G| / chi(1))^(2g - 2), read from the character degrees alone."""
    n = group.order
    degrees = CHARACTER_DEGREES[group.name]
    assert sum(d * d for d in degrees) == n
    expected = n * sum((n // d) ** (2 * genus - 2) for d in degrees)
    assert expected == count
    assert sum(1 for _ in enumerate_relator_solutions(group, genus)) == count


@pytest.mark.parametrize("group", [*standard_test_groups(), S4], ids=lambda g: g.name)
def test_least_first_handles_are_the_least_pairs(group):
    n = group.order
    assert least_first_handles(group) == [
        ((a, b), group.commutator(a, b))
        for a in range(n)
        for b in range(n)
        if least_conjugate(group, (a, b)) == (a, b)
    ]


@pytest.mark.parametrize(
    "group,genus", [(S3, 3), (Q8, 2), (D6, 2)], ids=lambda v: getattr(v, "name", v)
)
def test_variety_from_least_first_handles_matches_every_solution(
    group, genus, monkeypatch, chunk_workers
):
    # these varieties are below the fork threshold: with it at 0, two
    # workers really fork
    monkeypatch.setattr(repvar, "_FORK_MIN_TUPLES", 0)
    expected = tuple(sorted(
        {canonical_point(group, tup) for tup in enumerate_relator_solutions(group, genus)}
    ))
    for workers in (1, 2):
        assert repvariety(group, surface(genus), workers=workers).points == expected
    assert chunk_workers == [1, 2]


def test_small_varieties_run_in_the_parent_at_any_worker_count(
    monkeypatch, chunk_workers
):
    # Q8 genus 2 expands 28 first handles times 8^2 = 1,792 tuples
    assert len(least_first_handles(Q8)) * Q8.order ** 2 == 1792
    expected = repvariety(Q8, surface(2)).points
    for workers in (2, 4):
        assert repvariety(Q8, surface(2), workers=workers).points == expected
    # the pool is kept when the estimate reaches the threshold, dropped below it
    monkeypatch.setattr(repvar, "_FORK_MIN_TUPLES", 1792)
    assert repvariety(Q8, surface(2), workers=2).points == expected
    monkeypatch.setattr(repvar, "_FORK_MIN_TUPLES", 1793)
    assert repvariety(Q8, surface(2), workers=2).points == expected
    assert chunk_workers == [1, 1, 1, 2, 1]


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


def test_conjugator_table_is_built_once_before_the_workers(monkeypatch, chunk_workers):
    # built in the parent before the fork, so the workers inherit it and
    # the parent keeps it; constructing or loading a group does not build it
    monkeypatch.setattr(repvar, "_FORK_MIN_TUPLES", 0)
    group = quaternion_group()
    loaded = group_from_json(group.to_json())
    assert "_pair_conjugators" not in group.__dict__
    assert "_pair_conjugators" not in loaded.__dict__
    repvariety(group, surface(2), workers=2)
    assert "_pair_conjugators" in group.__dict__
    assert chunk_workers == [2]


def test_budget_refuses_a_huge_genus_without_the_power():
    with pytest.raises(ResourceLimit) as err:
        repvariety(S3, surface(10 ** 7), budget=10 ** 8)
    assert str(err.value) == "|G|^(2g) = 6^20000000 exceeds budget 100000000"


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


@pytest.mark.parametrize("group", [Z2, Z3, Z4, S3, Q8, D6, S4])
def test_attach2_two_routes_agree(group):
    cache = VarietyCache(group)
    circles = [canonical_circle(1), b_circle(1),
               AttachingCircle(1, dehn_twist_a(1)),
               canonical_circle(2), b_circle(2),
               AttachingCircle(2, dehn_twist_b(2, 2))]
    circles += [AttachingCircle(g, psi) for g in (1, 2) for psi in builtin_library(g)]
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


def library_circles(genus):
    """Each library transport, and its crossing and handle-swap transports."""
    psis = builtin_library(genus)
    moved = [crossing_transport(genus, 1)] + ([handle_swap(genus, 1, 2)] if genus >= 2 else [])
    return [AttachingCircle(genus, psi) for psi in psis] + [
        AttachingCircle(genus, move.then(psi)) for move in moved for psi in psis
    ]


def test_the_attach_slice_is_enumerated_once_per_genus(monkeypatch):
    cache, other = VarietyCache(S3), VarietyCache(S3)
    for g in (0, 1, 2):
        cache.variety(surface(g))
        other.variety(surface(g))
    enumerations = count_calls(monkeypatch, "enumerate_relator_solutions")
    for g in (1, 2):
        for c in library_circles(g):
            relation_of_attach2(S3, c, cache)
    assert [args[1] for args in enumerations] == [1, 2]
    # a second cache enumerates its own slices
    relation_of_attach2(S3, canonical_circle(1), other)
    assert [args[1] for args in enumerations] == [1, 2, 1]


@pytest.mark.parametrize(
    "group, genus, count",
    [(G, g, None) for G in (Z3, S3, Q8, D6) for g in (1, 2)] + [(Z3, 3, None), (Q8, 3, 7)],
    ids=lambda x: getattr(x, "name", x),
)
def test_attach_relations_from_the_slice_match_a_fresh_cache_and_the_direct_route(
    group, genus, count
):
    # one cache in shuffled order, a second in library order, and the
    # defining property: the slice must not depend on which circle built it.
    # Q8 at genus 3 takes the library circles only: the direct route
    # enumerates all 133,120 solutions once per circle.
    circles = library_circles(genus)[:count]
    shuffled = circles[:]
    random.Random(genus * 97 + group.order).shuffle(shuffled)
    shared = VarietyCache(group)
    built = {c: relation_of_attach2(group, c, shared) for c in shuffled}
    fresh = VarietyCache(group)
    for c in circles:
        assert built[c] == relation_of_attach2(group, c, fresh)
        assert built[c] == relation_of_attach2_direct(group, c, shared)


def test_a_budgeted_cache_refuses_the_same_way_before_and_after_its_slices():
    def refusal(call):
        with pytest.raises(ResourceLimit) as err:
            call()
        return str(err.value), err.value.witness

    cache = VarietyCache(S3, budget=6 ** 4)  # genus 2 fits, genus 3 does not
    before = refusal(lambda: relation_of_attach2(S3, canonical_circle(3), cache))
    assert before == refusal(lambda: cache.attach_slice(3))
    for g in (1, 2):
        relation_of_attach2(S3, canonical_circle(g), cache)
        assert cache.attach_slice(g)
    after = refusal(lambda: relation_of_attach2(S3, canonical_circle(3), cache))
    assert before == after == refusal(lambda: cache.attach_slice(3))
    assert before == (
        "|G|^(2g) = 46656 exceeds budget 1296",
        {"order": 6, "genus": 3, "budget": 1296},
    )


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
