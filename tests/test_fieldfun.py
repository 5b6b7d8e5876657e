import hashlib
import sys

import pytest

from floerkit import io as fio
from floerkit import repvar

from floerkit.bordism import (
    CAP0,
    CAP3,
    attach1,
    attach2,
    b_circle,
    canonical_circle,
    cerf_neighbors,
    chain,
    chain_adjoint,
    chain_compose,
    cyl,
    identity_chain,
)
from floerkit.bordobjects import EMPTY, surface
from floerkit.errors import BoundaryMismatch, ResourceLimit
from floerkit.fieldfun import (
    PartialFunctorSpec,
    closed_invariant,
    fixture_presentations,
    functor_eval,
    genus2_connected_sum_chain,
    genus2_sphere_chain,
    lens_chain,
    move_bijection_certificate,
    presentation_oracle,
    s1_x_s2_chain,
    sphere_chain,
    verify_cerf_compatibility,
)
from floerkit.groups import (
    cyclic_group,
    quaternion_group,
    standard_test_groups,
    symmetric_group,
)
from floerkit.words import dehn_twist_a

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)
Q8 = quaternion_group()


def test_functor_eval_empty_chain():
    spec = PartialFunctorSpec(S3)
    val = functor_eval(spec, identity_chain(surface(1)))
    assert len(val.chain) == 0
    assert val.composed is not None
    assert val.composed == val.chain.compose_all()
    assert val.source == spec.object_map(surface(1))


def test_functor_eval_handlebody_z2():
    spec = PartialFunctorSpec(Z2)
    c = chain([attach2(canonical_circle(1)), CAP3])
    val = functor_eval(spec, c)
    assert len(val.chain) == 2
    assert len(val.chain.relations[0]) == 2
    assert len(val.chain.relations[1]) == 1
    assert val.composed is not None and len(val.composed) == 2


def test_functor_eval_cyl_graph():
    spec = PartialFunctorSpec(S3)
    val = functor_eval(spec, chain([cyl(dehn_twist_a(1))]))
    assert val.chain.relations[0].is_graph_of_bijection()


def test_functoriality_concat():
    spec = PartialFunctorSpec(Z3)
    c1 = chain([attach2(canonical_circle(1))])
    c2 = chain([CAP3])
    whole = functor_eval(spec, chain_compose(c1, c2))
    parts = functor_eval(spec, c1).chain.concat(functor_eval(spec, c2).chain)
    assert whole.chain == parts


def test_adjoint_goes_to_transpose():
    spec = PartialFunctorSpec(S3)
    c = chain([CAP0, attach1(canonical_circle(1)), attach2(b_circle(1)), CAP3])
    forward = functor_eval(spec, c)
    backward = functor_eval(spec, chain_adjoint(c))
    assert backward.chain == forward.chain.transpose()


def test_presentation_oracle_trivial():
    for g in (Z2, S3, Q8):
        assert presentation_oracle(g, 0, ()) == 1


def test_presentation_oracle_z2_in_s3():
    # <x | x^2> in S3: identity and the transposition class
    assert presentation_oracle(S3, 1, ((1, 1),)) == 2


def test_presentation_oracle_surface_group():
    # <x, y | [x,y]> over S3 matches the torus variety
    count = presentation_oracle(S3, 2, ((1, 2, -1, -2),))
    assert count == 8


def test_presentation_oracle_budget():
    with pytest.raises(ResourceLimit):
        presentation_oracle(Q8, 12, (), budget=10 ** 6)


def test_sphere_invariant_is_one_for_all_groups():
    for g in standard_test_groups():
        spec = PartialFunctorSpec(g)
        gens, count = closed_invariant(spec, sphere_chain())
        assert count == 1


def test_s1_x_s2_invariant_counts_classes():
    spec = PartialFunctorSpec(S3)
    _, count = closed_invariant(spec, s1_x_s2_chain())
    assert count == 3  # number of conjugacy classes of S3
    assert count == presentation_oracle(S3, 1, ())


def test_lens_2_1_over_s3():
    spec = PartialFunctorSpec(S3)
    _, count = closed_invariant(spec, lens_chain(2))
    assert count == 2


def test_all_fixture_counts_match_oracle():
    for g in (Z2, Z3, S3):
        spec = PartialFunctorSpec(g)
        for name, (builder, (n_gens, relators)) in fixture_presentations().items():
            _, count = closed_invariant(spec, builder())
            expected = presentation_oracle(g, n_gens, relators)
            assert count == expected, (name, g.name, count, expected)


def test_closed_invariant_requires_closed_chain():
    spec = PartialFunctorSpec(Z2)
    with pytest.raises(BoundaryMismatch):
        closed_invariant(spec, chain([CAP3]))


def test_empty_closed_chain():
    spec = PartialFunctorSpec(S3)
    gens, count = closed_invariant(spec, identity_chain(EMPTY))
    assert count == 1


def test_verify_cerf_compatibility_z2():
    spec = PartialFunctorSpec(Z2)
    report = verify_cerf_compatibility(spec, genera=(1, 2))
    assert report, "report must not be empty"
    assert all(entry["status"] == "pass" for entry in report)
    checks = {entry["check"] for entry in report}
    assert checks == {
        "single-intersection",
        "switch-two-handles",
        "switch-mixed-handles",
        "equivariance",
    }
    assert spec.certificates == report


def test_verify_cerf_compatibility_s3_genus1():
    spec = PartialFunctorSpec(S3)
    report = verify_cerf_compatibility(spec, genera=(1,))
    assert all(entry["status"] == "pass" for entry in report)
    assert {e["genus"] for e in report} == {1}


def test_move_bijection_certificates_on_sphere():
    spec = PartialFunctorSpec(S3)
    c = sphere_chain()
    neighbors = cerf_neighbors(c)
    assert neighbors
    for move, result in neighbors:
        cert = move_bijection_certificate(spec, c, move, result)
        mapping = cert["mapping"]
        gens_before, n_before = closed_invariant(spec, c)
        gens_after, n_after = closed_invariant(spec, result)
        assert sorted(mapping) == sorted(gens_before.tuples)
        assert sorted(mapping.values()) == sorted(gens_after.tuples)


def test_move_bijection_certificates_on_switch_fixture():
    spec = PartialFunctorSpec(Z3)
    c = genus2_connected_sum_chain()
    for move, result in cerf_neighbors(c):
        cert = move_bijection_certificate(spec, c, move, result)
        assert len(cert["mapping"]) == closed_invariant(spec, c)[1]


def test_genus2_sphere_has_trivial_invariant():
    for g in (Z2, S3, Q8):
        spec = PartialFunctorSpec(g)
        _, count = closed_invariant(spec, genus2_sphere_chain())
        assert count == 1


def test_cerf_related_images_are_chain_equivalent():
    # images of Cerf-related bordism chains are connected by embedded
    # composition moves in the relation category
    from floerkit.bordism import canonical_circle, cerf_apply, chain, cyl
    from floerkit.bordism import CerfMoveInstance
    from floerkit.relcat import FactorizationRegistry, chain_equivalent
    from floerkit.words import s_move

    spec = PartialFunctorSpec(S3)
    t = dehn_twist_a(1)
    c = chain([cyl(t), cyl(s_move(1))])
    move = CerfMoveInstance(
        "CylMerge", 0, c.steps, (cyl(t.then(s_move(1))),)
    )
    c2 = cerf_apply(c, move)
    registry = FactorizationRegistry()
    img1 = functor_eval(spec, c).chain
    img2 = functor_eval(spec, c2).chain
    path = chain_equivalent(img1, img2, depth=2, registry=registry)
    assert path == [("compose", 0)]
    # and back, through the recorded factorization
    back = chain_equivalent(img2, img1, depth=2, registry=registry)
    assert back == [("factor", 0)]


def count_builds(monkeypatch, name):
    """Count calls of repvar's ``name`` from every floerkit module that
    holds it, whatever name it was imported under."""
    original = getattr(repvar, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("floerkit"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_cerf_suite_builds_each_relation_once(monkeypatch):
    attach = count_builds(monkeypatch, "relation_of_attach2")
    cylinders = count_builds(monkeypatch, "relation_of_cyl")
    report = verify_cerf_compatibility(PartialFunctorSpec(S3), genera=(1, 2))
    assert len(report) == (5 + 5 * 5) + (3 * 7 + 7 * 7)
    assert len(attach) == len(set(attach)) == 53
    assert len(cylinders) == len(set(cylinders)) == 12


# sha256 of io.dumps(verify_cerf_compatibility(PartialFunctorSpec(G)))
# at genus 1-2, taken before the relations were memoized per spec
CERF_REPORT_SHA256 = {
    "Z2": "4effb6ec09f5b075db85e22ecb3b274a799aa68875ea33e4bf829dcf4e07f724",
    "Z3": "7362b2e4bde70908d58580a39b7123d19560a33a069e2e8be27ced52ea98e634",
    "Z4": "d94e64930f0f504988a708948855f8970ed562f0c0ad89c501afff88f7409bc5",
    "S3": "4012e728c23249ef25c9f6c924cd2c39150648fa3e1dfc0d8d726ea7af82bb9e",
    "Q8": "fd6ac8e37ac32a386b2a06165954aec8baa3c2266a325809f053432750e91278",
}


@pytest.mark.parametrize(
    "group", [Z2, Z3, cyclic_group(4), S3, Q8], ids=lambda g: g.name
)
def test_cerf_report_bytes_pinned(group):
    report = verify_cerf_compatibility(PartialFunctorSpec(group), genera=(1, 2))
    digest = hashlib.sha256(fio.dumps(report).encode()).hexdigest()
    assert digest == CERF_REPORT_SHA256[group.name]
