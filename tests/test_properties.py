"""Seeded randomized sweeps over the structural invariants that hold for
every composition of library data, complementing the fixed examples."""

import gc

import numpy as np
import pytest

from floerkit.bordism import (
    AttachingCircle,
    attach1,
    attach2,
    canonical_circle,
    chain,
    chain_adjoint,
    chain_compose,
    cyl,
)
from floerkit.bordobjects import surface
from floerkit.catgen import path_category, poset_category
from floerkit.cats import all_functors, all_nats
from floerkit import fieldfun
from floerkit.errors import NotEmbedded
from floerkit.groups import cyclic_group, dihedral_group, quaternion_group, symmetric_group
from floerkit.quilt import (
    cylinder_diagram,
    diagrams_isomorphic,
    evaluates_to_identity,
    quilt_evaluate,
)
from floerkit.relcat import (
    CyclicChain,
    compose_embedded,
    generator_set,
    geometric_compose,
    is_embedded,
)
from floerkit.repvar import (
    FiniteRelation,
    VarietyCache,
    canonical_point,
    enumerate_relator_solutions,
    relation_of_attach2,
    relation_of_cyl,
    satisfies_relator,
)
from floerkit.words import builtin_library, validate_automorphism

S3 = symmetric_group(3)
Z3 = cyclic_group(3)


def random_mapping_class(rng, genus, length=3):
    lib = builtin_library(genus)
    phi = lib[int(rng.integers(0, len(lib)))]
    for _ in range(length - 1):
        step = lib[int(rng.integers(0, len(lib)))]
        if rng.random() < 0.5:
            step = step.inverse()
        phi = phi.then(step)
    return phi


@pytest.mark.parametrize("genus", [1, 2])
def test_random_compositions_are_mapping_classes(genus):
    rng = np.random.default_rng(genus)
    for _ in range(15):
        phi = random_mapping_class(rng, genus)
        validate_automorphism(phi, cross_check_group=cyclic_group(2))


@pytest.mark.parametrize("group", [Z3, S3])
def test_cylinder_functor_on_random_words(group):
    # gr is contravariantly functorial for arbitrary library compositions
    rng = np.random.default_rng(7)
    cache = VarietyCache(group)
    for _ in range(10):
        phi = random_mapping_class(rng, 1, length=2)
        psi = random_mapping_class(rng, 1, length=2)
        lhs = geometric_compose(
            relation_of_cyl(group, phi, cache), relation_of_cyl(group, psi, cache)
        )
        rhs = relation_of_cyl(group, phi.then(psi), cache)
        assert lhs == rhs


def test_attach_equivariance_random_transports():
    rng = np.random.default_rng(11)
    cache = VarietyCache(S3)
    for genus in (1, 2):
        for _ in range(6):
            psi = random_mapping_class(rng, genus, length=2)
            phi = random_mapping_class(rng, genus, length=2)
            transported = AttachingCircle(genus, psi.then(phi))
            lhs = relation_of_attach2(S3, transported, cache)
            rhs = geometric_compose(
                relation_of_cyl(S3, phi, cache).transpose(),
                relation_of_attach2(S3, AttachingCircle(genus, psi), cache),
            )
            assert lhs == rhs


def test_canonical_point_is_class_function():
    rng = np.random.default_rng(3)
    n = S3.order
    for _ in range(200):
        tup = tuple(int(x) for x in rng.integers(0, n, size=4))
        if not satisfies_relator(S3, tup):
            continue
        h = int(rng.integers(0, n))
        conjugated = tuple(S3.conjugate(h, x) for x in tup)
        assert canonical_point(S3, tup) == canonical_point(S3, conjugated)


def test_adjoint_transpose_coherence_random_chains():
    # the functor sends chain adjoints to elementwise transposes, for
    # arbitrary composable chains assembled from library pieces
    from floerkit.fieldfun import PartialFunctorSpec, functor_eval

    rng = np.random.default_rng(5)
    spec = PartialFunctorSpec(Z3)
    pieces = [
        lambda: cyl(random_mapping_class(rng, 1, length=2)),
        lambda: attach2(AttachingCircle(1, random_mapping_class(rng, 1, length=2))),
    ]
    for _ in range(8):
        steps = [cyl(random_mapping_class(rng, 1, length=2))]
        if rng.random() < 0.5:
            steps.append(pieces[1]())
        c = chain(steps)
        fwd = functor_eval(spec, c).chain
        bwd = functor_eval(spec, chain_adjoint(c)).chain
        assert bwd == fwd.transpose()


def test_composition_counting_when_embedded_random():
    rng = np.random.default_rng(13)
    cache = VarietyCache(S3)
    for _ in range(10):
        phi = random_mapping_class(rng, 1, length=2)
        A = relation_of_cyl(S3, phi, cache)
        B = relation_of_attach2(S3, AttachingCircle(1, random_mapping_class(rng, 1, 2)), cache)
        flag, _ = is_embedded(A, B)
        assert flag  # graph compositions always have unique intermediates
        comp = geometric_compose(A, B)
        succ = B.successors()
        triples = sum(len(succ.get(y, ())) for _, y in A.pairs)
        assert triples == len(comp)


def join_oracle(l12, l23):
    """Every triple (x, y, z) of the join, enumerated pair by pair: the
    composite, and the witness (x, (y1, y2), z) at the least (x, y2, z)
    over the composite pairs with two or more intermediates, y1 < y2 the
    two least of them (None when there is no such pair)."""
    between = {}
    for x, y in l12.pairs:
        for y_, z in l23.pairs:
            if y_ == y:
                between.setdefault((x, z), []).append(y)
    repeated = []
    for (x, z), ys in between.items():
        if len(ys) > 1:
            y1, y2 = sorted(ys)[:2]
            repeated.append((x, y2, z, y1))
    composite = FiniteRelation(l12.source, l23.target, frozenset(between))
    if not repeated:
        return composite, None
    x, y2, z, y1 = min(repeated)
    return composite, (x, (y1, y2), z)


def assert_join_matches_oracle(l12, l23):
    """Check the three views of the join against the oracle; returns
    whether the composition is embedded."""
    composite, witness = join_oracle(l12, l23)
    assert geometric_compose(l12, l23) == composite
    assert is_embedded(l12, l23) == (witness is None, witness)
    if witness is None:
        assert compose_embedded(l12, l23) == composite
        return True
    with pytest.raises(NotEmbedded) as err:
        compose_embedded(l12, l23)
    assert err.value.witness == witness
    return False


def test_join_matches_brute_force_on_random_relations():
    # random relations of assorted densities, empty ones included, between
    # the genus 0 and 1 varieties of two groups
    rng = np.random.default_rng(29)
    spaces = []
    for group in (S3, cyclic_group(4)):
        cache = VarietyCache(group)
        spaces.append([cache.variety(surface(g)) for g in (0, 1)])

    def random_relation(src, dst):
        density = (0.0, 0.05, 0.2, 0.5, 1.0)[int(rng.integers(0, 5))]
        return FiniteRelation(src, dst, frozenset(
            (x, y) for x in src.points for y in dst.points if rng.random() < density
        ))

    embedded = empty = 0
    for _ in range(200):
        ends = spaces[int(rng.integers(0, 2))]
        a, b, c = (ends[int(rng.integers(0, 2))] for _ in range(3))
        l12, l23 = random_relation(a, b), random_relation(b, c)
        empty += not l12.pairs or not l23.pairs
        embedded += assert_join_matches_oracle(l12, l23)
    assert 0 < empty < embedded < 200


@pytest.mark.parametrize(
    "group", [S3, quaternion_group(), dihedral_group(6)], ids=lambda g: g.name
)
def test_join_matches_brute_force_on_cerf_pairs(group, monkeypatch):
    # the pairs verify_cerf_compatibility asks about at genus 1 and 2; over
    # a nonabelian group the mixed switch is not embedded for each of the
    # 7 genus-2 transports, and every other pair is
    pairs = []

    def recorded(l12, l23):
        pairs.append((l12, l23))
        return is_embedded(l12, l23)

    monkeypatch.setattr(fieldfun, "is_embedded", recorded)
    fieldfun.verify_cerf_compatibility(fieldfun.PartialFunctorSpec(group))
    flags = [assert_join_matches_oracle(l12, l23) for l12, l23 in pairs]
    assert flags.count(False) == 7


def test_cylinder_axiom_random_label_sequences():
    rng = np.random.default_rng(17)
    cache = VarietyCache(Z3)
    pool = [
        relation_of_cyl(Z3, random_mapping_class(rng, 1, 2), cache)
        for _ in range(3)
    ] + [relation_of_attach2(Z3, AttachingCircle(1, random_mapping_class(rng, 1, 2)), cache)]
    checked = 0
    for _ in range(12):
        # walk forward choosing composable pieces, then mirror back with
        # transposes so the sequence closes up cyclically
        k = int(rng.integers(1, 3))
        picks = [pool[int(rng.integers(0, len(pool)))]]
        for _ in range(k - 1):
            candidates = [r for r in pool if r.source == picks[-1].target]
            if not candidates:
                break
            picks.append(candidates[int(rng.integers(0, len(candidates)))])
        labels = list(picks) + [r.transpose() for r in reversed(picks)]
        q = cylinder_diagram(labels)
        assert q.is_valid()
        assert evaluates_to_identity(q, "in")
        checked += 1
    assert checked == 12


def test_generator_sets_respect_rotation_random():
    from floerkit.relcat import rotation_bijection

    rng = np.random.default_rng(23)
    cache = VarietyCache(S3)
    A = relation_of_attach2(S3, AttachingCircle(1, random_mapping_class(rng, 1, 2)), cache)
    cyc = CyclicChain((A, A.transpose()))
    gens = generator_set(cyc)
    for shift in (1, 2, 3):
        rotated, mapping = rotation_bijection(gens, shift)
        assert sorted(mapping.values()) == sorted(generator_set(rotated).tuples)


def garbage_left_by(call):
    """Objects the cyclic garbage collector frees after one more call; the
    first call fills any lazily built caches."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def recursive_enumerations():
    cache = VarietyCache(S3)
    rel = relation_of_attach2(S3, canonical_circle(1), cache)
    q = cylinder_diagram([rel, rel.transpose()])
    end = q.surface.incoming_ends()[0]
    tup = generator_set(q.end_cyclic_chain(end)).tuples[0]
    two = poset_category(lambda x, y: x <= y, (0, 1), name="two")
    functors = all_functors(two, two)
    return {
        "quilt_evaluate": lambda: quilt_evaluate(q, {end: tup}),
        "diagrams_isomorphic": lambda: diagrams_isomorphic(q, q),
        "generator_set": lambda: generator_set(q.end_cyclic_chain(end)),
        "all_functors": lambda: all_functors(two, two),
        "all_nats": lambda: all_nats(functors[0], functors[-1]),
        "path_category": lambda: path_category((0, 1, 2), [(0, 1, "a"), (1, 2, "b")]),
        "enumerate_relator_solutions": lambda: list(enumerate_relator_solutions(S3, 2)),
        "enumeration_left_early": lambda: next(iter(enumerate_relator_solutions(S3, 2))),
    }


@pytest.mark.parametrize("name", sorted(recursive_enumerations()))
def test_recursive_enumerations_leave_no_reference_cycles(name):
    # a nested recursive function that refers to itself would leave a cycle
    # per call, freed only when the cyclic collector happens to run
    assert garbage_left_by(recursive_enumerations()[name]) == 0
