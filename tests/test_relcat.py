import itertools

import pytest

from floerkit.bordism import b_circle, canonical_circle
from floerkit.bordobjects import surface
from floerkit.errors import EndpointMismatch, NotEmbedded
from floerkit.groups import cyclic_group, symmetric_group
from floerkit.relcat import (
    CyclicChain,
    FactorizationRegistry,
    chain_equivalent,
    composition_bijection,
    compose_embedded,
    generator_set,
    geometric_compose,
    is_embedded,
    relation_chain,
    rotation_bijection,
)
from floerkit.repvar import (
    FiniteRelation,
    VarietyCache,
    diagonal_relation,
    relation_of_attach2,
    relation_of_cyl,
)
from floerkit.words import dehn_twist_a, identity_automorphism, s_move

S3 = symmetric_group(3)
Z2 = cyclic_group(2)


@pytest.fixture(scope="module")
def s3_cache():
    return VarietyCache(S3)


def test_diagonal_is_unit(s3_cache):
    v = s3_cache.variety(surface(1))
    rel = relation_of_cyl(S3, dehn_twist_a(1), s3_cache)
    d = diagonal_relation(v)
    assert geometric_compose(rel, d) == rel
    assert geometric_compose(d, rel) == rel


def test_graph_composition(s3_cache):
    f = relation_of_cyl(S3, s_move(1), s3_cache)
    g = relation_of_cyl(S3, dehn_twist_a(1), s3_cache)
    comp = geometric_compose(f, g)
    assert comp == relation_of_cyl(S3, s_move(1).then(dehn_twist_a(1)), s3_cache)
    assert comp.is_graph_of_bijection()


def test_compose_associative(s3_cache):
    a = relation_of_attach2(S3, canonical_circle(2), s3_cache)
    b = relation_of_attach2(S3, canonical_circle(1), s3_cache)
    d = diagonal_relation(s3_cache.variety(surface(0)))
    left = geometric_compose(geometric_compose(a, b), d)
    right = geometric_compose(a, geometric_compose(b, d))
    assert left == right


def test_transpose_antihomomorphism(s3_cache):
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache)
    B = relation_of_cyl(S3, s_move(1), s3_cache)
    lhs = geometric_compose(B, A).transpose()
    rhs = geometric_compose(A.transpose(), B.transpose())
    assert lhs == rhs


def test_endpoint_mismatch(s3_cache):
    # the three views of one walk refuse mismatched ends with one witness
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache)
    for view in (geometric_compose, is_embedded, compose_embedded):
        with pytest.raises(EndpointMismatch) as err:
            view(A, A)
        assert err.value.witness == (repr(surface(0)), repr(surface(1)))


def test_embedded_with_diagonal(s3_cache):
    A = relation_of_attach2(S3, canonical_circle(2), s3_cache)
    d = diagonal_relation(A.source)
    flag, witness = is_embedded(d, A)
    assert flag and witness is None


def test_embedded_crossing_pair(s3_cache):
    # 1-handle along a1 then 2-handle along b1 over the torus: the
    # intermediate representation is forced to be trivial
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache).transpose()
    B = relation_of_attach2(S3, b_circle(1), s3_cache)
    flag, _ = is_embedded(A, B)
    assert flag
    comp = compose_embedded(A, B)
    assert comp == diagonal_relation(s3_cache.variety(surface(0)))


def test_non_embedded_witness(s3_cache):
    # a doubled relation (union of two graphs) against its transpose
    f = relation_of_cyl(S3, identity_automorphism(1), s3_cache)
    g = relation_of_cyl(S3, s_move(1), s3_cache)
    doubled = FiniteRelation(f.source, f.target, f.pairs | g.pairs)
    flag, witness = is_embedded(doubled, doubled.transpose())
    assert not flag
    x, (y1, y2), z = witness
    assert y1 != y2
    assert (x, y1) in doubled.pairs and (x, y2) in doubled.pairs
    with pytest.raises(NotEmbedded):
        compose_embedded(doubled, doubled.transpose())


def test_counting_preserved_when_embedded(s3_cache):
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache).transpose()
    B = relation_of_attach2(S3, b_circle(1), s3_cache)
    triples = 0
    succ = B.successors()
    for x, y in A.pairs:
        triples += len(succ.get(y, ()))
    assert triples == len(geometric_compose(A, B))


def test_relation_chain_validation(s3_cache):
    A = relation_of_attach2(S3, canonical_circle(2), s3_cache)
    B = relation_of_attach2(S3, canonical_circle(1), s3_cache)
    ch = relation_chain([A, B])
    assert len(ch) == 2
    with pytest.raises(EndpointMismatch):
        relation_chain([B, A])
    empty = relation_chain([], variety=A.source)
    assert empty.compose_all() == diagonal_relation(A.source)


def test_chain_equivalent_diagonal_absorption(s3_cache):
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache)
    d = diagonal_relation(A.source)
    c1 = relation_chain([d, A])
    c2 = relation_chain([geometric_compose(d, A)])
    path = chain_equivalent(c1, c2, depth=2)
    assert path == [("compose", 0)]
    assert chain_equivalent(c1, c1, depth=1) == []


def test_chain_equivalent_with_factorization(s3_cache):
    A = relation_of_cyl(S3, s_move(1), s3_cache)
    B = relation_of_cyl(S3, s_move(1).inverse(), s3_cache)
    registry = FactorizationRegistry()
    comp = registry.compose_and_record(A, B)
    c1 = relation_chain([comp])
    c2 = relation_chain([A, B])
    path = chain_equivalent(c1, c2, depth=2, registry=registry)
    assert path == [("factor", 0)]


def test_generator_set_of_diagonals(s3_cache):
    v = s3_cache.variety(surface(1))
    d = diagonal_relation(v)
    cyc = CyclicChain((d, d, d))
    gens = generator_set(cyc)
    assert len(gens) == len(v)
    assert all(t[0] == t[1] == t[2] for t in gens.tuples)


def test_generator_set_single_relation(s3_cache):
    g = relation_of_cyl(S3, s_move(1), s3_cache)
    cyc = CyclicChain((g,))
    gens = generator_set(cyc)
    fixed = {x for (x, y) in g.pairs if x == y}
    assert {t[0] for t in gens.tuples} == fixed


@pytest.mark.parametrize("group", [S3, cyclic_group(3)], ids=lambda g: g.name)
def test_generator_set_matches_brute_force(group):
    cache = VarietyCache(group)
    twist = relation_of_cyl(group, dehn_twist_a(1), cache)
    swap = relation_of_cyl(group, s_move(1), cache)
    cap = relation_of_attach2(group, canonical_circle(1), cache)
    loop = geometric_compose(cap, cap.transpose())
    for relations in [
        (swap,),
        (cap, cap.transpose()),
        (twist, swap, twist.transpose()),
        (loop, twist, loop, swap.transpose()),
    ]:
        # every tuple of node points whose consecutive pairs (cyclically)
        # lie in the relations
        candidates = list(itertools.product(*(r.source.points for r in relations)))
        brute = [
            tup
            for tup in candidates
            if all(
                (tup[i], tup[(i + 1) % len(tup)]) in r.pairs
                for i, r in enumerate(relations)
            )
        ]
        assert brute
        gens = generator_set(CyclicChain(relations))
        assert gens.tuples == tuple(sorted(brute))
        members = set(brute)
        assert all((tup in gens) == (tup in members) for tup in candidates)


def test_rotation_bijection(s3_cache):
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache)
    cyc = CyclicChain((A, A.transpose()))
    gens = generator_set(cyc)
    rotated, mapping = rotation_bijection(gens, 1)
    rgens = generator_set(rotated)
    assert sorted(mapping.values()) == sorted(rgens.tuples)


def test_composition_bijection_diagonal(s3_cache):
    v = s3_cache.variety(surface(1))
    d = diagonal_relation(v)
    g = relation_of_cyl(S3, dehn_twist_a(1), s3_cache)
    cyc = CyclicChain((d, g, g.transpose()))
    contracted, fwd, inv = composition_bijection(cyc, 0)
    gens = generator_set(cyc)
    assert len(fwd) == len(gens)
    for tup, out in fwd.items():
        assert inv[out] == tup


def test_composition_bijection_wraparound(s3_cache):
    g = relation_of_cyl(S3, s_move(1), s3_cache)
    cyc = CyclicChain((g, g.transpose()))
    contracted, fwd, inv = composition_bijection(cyc, 1)
    assert len(contracted) == 1
    assert sorted(fwd.values()) == sorted(generator_set(contracted).tuples)


def test_composition_bijection_requires_embedded(s3_cache):
    f = relation_of_cyl(S3, identity_automorphism(1), s3_cache)
    g = relation_of_cyl(S3, s_move(1), s3_cache)
    doubled = FiniteRelation(f.source, f.target, f.pairs | g.pairs)
    cyc = CyclicChain((doubled, doubled.transpose()))
    with pytest.raises(NotEmbedded) as err:
        composition_bijection(cyc, 0)
    assert err.value.witness is not None


def test_s3_sphere_cycle_singleton(s3_cache):
    # cyclic chain through the one-point varieties: unique generator
    A = relation_of_attach2(S3, canonical_circle(1), s3_cache).transpose()
    B = relation_of_attach2(S3, b_circle(1), s3_cache)
    comp = geometric_compose(A, B)  # diagonal on the sphere variety
    cyc = CyclicChain((comp,))
    assert len(generator_set(cyc)) == 1
