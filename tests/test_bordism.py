import itertools
import random
import sys

import pytest

from floerkit import bordism
from floerkit.bordism import (
    CAP0,
    CAP3,
    MOVE_KINDS,
    AttachingCircle,
    CerfMoveInstance,
    CobordismChain,
    attach1,
    attach2,
    b_circle,
    canonical_circle,
    cerf_apply,
    cerf_connected,
    cerf_neighbors,
    chain,
    chain_adjoint,
    chain_compose,
    cyl,
    identity_chain,
    is_crossing_pair,
    is_disjoint_canonical_pair,
)
from floerkit.bordobjects import EMPTY, surface
from floerkit.errors import BoundaryMismatch, GenusMismatch, MoveNotApplicable
from floerkit.fieldfun import fixture_presentations
from floerkit.groups import cyclic_group, symmetric_group
from floerkit.relcat import relation_chain
from floerkit.repvar import VarietyCache, relation_of_simple
from floerkit.words import (
    builtin_library,
    crossing_transport,
    dehn_twist_a,
    handle_swap,
    identity_automorphism,
    s_move,
)

ID1 = identity_automorphism(1)
ID2 = identity_automorphism(2)


NEIGHBOR_FIXTURES = [
    chain([cyl(dehn_twist_a(1)), cyl(s_move(1))]),
    chain([attach1(canonical_circle(1)), attach2(b_circle(1))]),
    chain([attach2(canonical_circle(2)), attach2(canonical_circle(1))]),
    chain([cyl(identity_automorphism(0))]),
    chain([cyl(identity_automorphism(1))]),
    chain([attach2(canonical_circle(1)), attach1(canonical_circle(1))]),
    chain([attach2(canonical_circle(2)), attach1(canonical_circle(2))]),
]


def composed_relation(group, ch):
    cache = VarietyCache(group)
    rels = [relation_of_simple(group, s, cache) for s in ch.steps]
    if not rels:
        from floerkit.repvar import diagonal_relation

        return diagonal_relation(cache.variety(ch.source))
    return relation_chain(rels).compose_all()


def test_circle_rejects_trivial_word():
    with pytest.raises(GenusMismatch):
        AttachingCircle(0, identity_automorphism(0))


def test_simple_cobordism_endpoints():
    assert cyl(ID1).source == surface(1)
    a2 = attach2(canonical_circle(2))
    assert a2.source == surface(2) and a2.target == surface(1)
    a1 = attach1(canonical_circle(2))
    assert a1.source == surface(1) and a1.target == surface(2)
    assert CAP3.source == surface(0) and CAP3.target == EMPTY
    assert CAP0.source == EMPTY and CAP0.target == surface(0)


def test_chain_composition():
    c1 = identity_chain(surface(1))
    c2 = chain([cyl(ID1)])
    assert chain_compose(c1, c2).same_chain(c2)
    two = chain_compose(c2, c2)
    assert len(two) == 2
    handlebody = chain_compose(chain([attach2(canonical_circle(1))]), chain([CAP3]))
    assert handlebody.source == surface(1) and handlebody.target == EMPTY
    with pytest.raises(BoundaryMismatch):
        chain_compose(c2, handlebody := chain([CAP3]))
    with pytest.raises(BoundaryMismatch):
        chain([cyl(ID1), CAP3])


def test_adjoint_involution_and_antihomomorphism():
    t = dehn_twist_a(1)
    c1 = chain([cyl(t), attach2(canonical_circle(1))])
    c2 = chain([CAP3])
    adj = chain_adjoint(c1)
    assert adj.steps[0].kind == "attach1"
    assert adj.steps[1].kind == "cyl"
    assert adj.steps[1].phi.same_mapping_class(t.inverse())
    assert chain_adjoint(adj).same_chain(c1)
    lhs = chain_adjoint(chain_compose(c1, c2))
    rhs = chain_compose(chain_adjoint(c2), chain_adjoint(c1))
    assert lhs.same_chain(rhs)
    assert chain_adjoint(identity_chain(EMPTY)).same_chain(identity_chain(EMPTY))


def test_crossing_and_disjoint_predicates():
    assert is_crossing_pair(canonical_circle(1), b_circle(1))
    assert is_crossing_pair(b_circle(1), canonical_circle(1))
    assert not is_crossing_pair(canonical_circle(1), canonical_circle(1))
    assert is_disjoint_canonical_pair(
        canonical_circle(2),
        AttachingCircle(2, handle_swap(2, 1, 2)),
    )
    assert not is_disjoint_canonical_pair(canonical_circle(2), b_circle(2))
    # transported pair stays recognized
    psi = dehn_twist_a(2)
    rot = crossing_transport(2)
    assert is_crossing_pair(
        AttachingCircle(2, psi), AttachingCircle(2, rot.then(psi))
    )


def test_cyl_merge_and_split():
    t = dehn_twist_a(1)
    c = chain([cyl(t), cyl(t.inverse())])
    merged = cyl(t.then(t.inverse()))
    move = CerfMoveInstance("CylMerge", 0, c.steps, (merged,))
    out = cerf_apply(c, move)
    assert len(out) == 1
    assert out.steps[0].phi.is_identity()
    back = cerf_apply(out, move.inverse())
    assert back.same_chain(c)


def test_move_rejects_wrong_pattern():
    c = chain([attach2(canonical_circle(1)), CAP3])
    move = CerfMoveInstance(
        "CylMerge", 0, (cyl(ID1), cyl(ID1)), (cyl(ID1),)
    )
    with pytest.raises(MoveNotApplicable):
        cerf_apply(c, move)
    bad_merge = CerfMoveInstance(
        "CylMerge",
        0,
        (cyl(dehn_twist_a(1)), cyl(ID1)),
        (cyl(s_move(1)),),
    )
    with pytest.raises(MoveNotApplicable):
        cerf_apply(chain([cyl(dehn_twist_a(1)), cyl(ID1)]), bad_merge)


def test_absorb_pre():
    t = dehn_twist_a(1)
    c = chain([cyl(t), attach2(canonical_circle(1))])
    pulled = canonical_circle(1).precompose(t)
    move = CerfMoveInstance("CylAbsorbPre", 0, c.steps, (attach2(pulled),))
    out = cerf_apply(c, move)
    assert len(out) == 1
    assert out.source == surface(1) and out.target == surface(0)
    back = cerf_apply(out, move.inverse())
    assert back.same_chain(c)


def test_absorb_post():
    t = dehn_twist_a(1)
    c = chain([attach1(canonical_circle(1)), cyl(t)])
    pushed = canonical_circle(1).postcompose(t)
    move = CerfMoveInstance("CylAbsorbPost", 0, c.steps, (attach1(pushed),))
    out = cerf_apply(c, move)
    assert out.steps[0].circle.same_circle(pushed)
    back = cerf_apply(out, move.inverse())
    assert back.same_chain(c)


def test_crit_cancel_to_identity_cylinder():
    c = chain([attach1(canonical_circle(1)), attach2(b_circle(1))])
    move = CerfMoveInstance(
        "CritCancel", 0, c.steps, (cyl(identity_automorphism(0)),)
    )
    out = cerf_apply(c, move)
    assert out.steps[0].kind == "cyl"
    assert out.source == surface(0) == out.target
    back = cerf_apply(out, move.inverse())
    assert back.same_chain(c)
    # non-crossing pair is rejected
    bad = chain([attach1(canonical_circle(1)), attach2(canonical_circle(1))])
    with pytest.raises(MoveNotApplicable):
        cerf_apply(bad, CerfMoveInstance("CritCancel", 0, bad.steps, (cyl(identity_automorphism(0)),)))


def test_crit_switch_22():
    tau = handle_swap(2, 1, 2)
    c = chain([attach2(canonical_circle(2)), attach2(canonical_circle(1))])
    switched = attach2(AttachingCircle(2, tau))
    move = CerfMoveInstance(
        "CritSwitch", 0, c.steps, (switched, attach2(canonical_circle(1)))
    )
    out = cerf_apply(c, move)
    assert out.steps[0].circle.same_circle(AttachingCircle(2, tau))
    back = cerf_apply(out, move.inverse())
    assert back.same_chain(c)


def test_neighbors_contains_merge():
    t = dehn_twist_a(1)
    c = chain([cyl(t), cyl(t.inverse())])
    moves = [m.kind for m, _ in cerf_neighbors(c)]
    assert "CylMerge" in moves


def test_neighbors_empty_chain():
    assert cerf_neighbors(identity_chain(surface(1))) == []


def test_neighbors_deterministic():
    c = chain([attach1(canonical_circle(1)), attach2(b_circle(1))])
    first = [(m.kind, m.pos) for m, _ in cerf_neighbors(c)]
    second = [(m.kind, m.pos) for m, _ in cerf_neighbors(c)]
    assert first == second
    assert ("CritCancel", 0) in first


def test_neighbors_preserve_relations():
    # the artifact-level statement of the move theorem: every generated
    # move leaves the composed relation unchanged
    groups = [cyclic_group(2), cyclic_group(3), symmetric_group(3)]
    for c in NEIGHBOR_FIXTURES:
        for move, result in cerf_neighbors(c):
            assert result.source == c.source and result.target == c.target
            for g in groups:
                assert composed_relation(g, result) == composed_relation(g, c), (
                    move,
                    c,
                )


def test_moves_come_in_symmetric_pairs():
    fixtures = [
        chain([cyl(dehn_twist_a(1)), cyl(s_move(1))]),
        chain([attach1(canonical_circle(1)), attach2(b_circle(1))]),
        chain([attach2(canonical_circle(2)), attach2(canonical_circle(1))]),
    ]
    for c in fixtures:
        for move, result in cerf_neighbors(c):
            restored = cerf_apply(result, move.inverse())
            assert restored.same_chain(c)


def test_mixed_switch_emission():
    # a canonical 2-handle/1-handle pair switches through the surface one
    # genus up, with circles a transported disjoint pair
    c = chain([attach2(canonical_circle(2)), attach1(canonical_circle(2))])
    hits = [
        (m, r) for m, r in cerf_neighbors(c)
        if m.kind == "CritSwitch" and len(m.new_steps) == 2
        and m.new_steps[0].kind == "attach1"
    ]
    assert hits
    for move, result in hits:
        assert result.source == c.source and result.target == c.target
        assert result.steps[0].circle.genus == 3
        back = cerf_apply(result, move.inverse())
        assert back.same_chain(c)


def applied(c, path):
    """The chain that the moves of path, applied in turn, lead c to."""
    for move in path:
        c = cerf_apply(c, move)
    return c


def test_cerf_connected_trivial_and_merge():
    t = dehn_twist_a(1)
    c = chain([cyl(t), cyl(t.inverse())])
    target = chain([cyl(identity_automorphism(1))])
    assert cerf_connected(c, c, depth=0) == []
    path = cerf_connected(c, target, depth=1)
    assert path is not None and len(path) == 1
    assert path[0].kind == "CylMerge"
    assert applied(c, path).same_chain(target)


def test_cerf_connected_switch_distance_one():
    tau = handle_swap(2, 1, 2)
    c1 = chain([attach2(canonical_circle(2)), attach2(canonical_circle(1))])
    c2 = chain([attach2(AttachingCircle(2, tau)), attach2(canonical_circle(1))])
    for a, b in ((c1, c2), (c2, c1)):
        path = cerf_connected(a, b, depth=1)
        assert path is not None and len(path) == 1
        assert path[0].kind == "CritSwitch"
        assert applied(a, path).same_chain(b)


def test_cerf_connected_heegaard_genus1():
    # the two S^3 genus-1 chains: kill a then b, or kill b then a
    c1 = chain([CAP0, attach1(canonical_circle(1)), attach2(b_circle(1)), CAP3])
    c2 = chain([CAP0, attach1(b_circle(1)), attach2(canonical_circle(1)), CAP3])
    for a, b in ((c1, c2), (c2, c1)):
        path = cerf_connected(a, b, depth=4)
        assert path is not None
        assert applied(a, path).same_chain(b)


def test_cerf_connected_keeps_only_moves_whose_inverse_applies():
    # the switch from the second chain reaches the first, but its inverse
    # does not apply there: handle_swap(3, 1, 2) is no involution
    swapped = AttachingCircle(3, handle_swap(3, 1, 2))
    c1 = chain([attach2(swapped), attach2(canonical_circle(2))])
    c2 = chain([attach2(canonical_circle(3)), attach2(canonical_circle(2))])
    (move, result), = [
        (m, r) for m, r in cerf_neighbors(c2) if m.kind == "CritSwitch"
    ]
    assert result.same_chain(c1)
    with pytest.raises(MoveNotApplicable):
        cerf_apply(c1, move.inverse())
    for depth in (1, 2):
        assert cerf_connected(c1, c2, depth=depth) is None
    # the other way round the switch is found forwards and applies
    path = cerf_connected(c2, c1, depth=1)
    assert path == [move] and applied(c2, path).same_chain(c1)


def move_record(move):
    return (
        move.kind,
        move.pos,
        [s.syntactic_key() for s in move.old_steps],
        [s.syntactic_key() for s in move.new_steps],
    )


# The depth-4 paths between distinct closed fixtures, as found when every
# inverse move was checked again; every other pair of distinct fixtures
# has none.
FIXTURE_PATHS = {
    ("S3", "S3-genus2"): [
        ("CylAbsorbPost", 1, [("attach1", 1, ((1,), (2,)))],
         [("attach1", 1, ((1,), (2,))), ("cyl", 1, ((1,), (2,)))]),
        ("CritCreate", 2, [("cyl", 1, ((1,), (2,)))],
         [("attach1", 2, ((1,), (2,), (3,), (4,))),
          ("attach2", 2, ((1, 2, -1), (-1,), (3,), (4,)))]),
    ],
    ("S3-genus2", "S3"): [
        ("CritCancel", 2,
         [("attach1", 2, ((1,), (2,), (3,), (4,))),
          ("attach2", 2, ((1, 2, -1), (-1,), (3,), (4,)))],
         [("cyl", 1, ((1,), (2,)))]),
        ("CylAbsorbPost", 1, [("attach1", 1, ((1,), (2,))), ("cyl", 1, ((1,), (2,)))],
         [("attach1", 1, ((1,), (2,)))]),
    ],
}


def test_fixture_searches_find_the_pinned_paths():
    fixtures = fixture_presentations()
    for a, b in itertools.product(fixtures, repeat=2):
        c1, c2 = fixtures[a][0](), fixtures[b][0]()
        path = cerf_connected(c1, c2, depth=4)
        if a == b:
            assert path == []
        elif (a, b) not in FIXTURE_PATHS:
            assert path is None, (a, b)
        else:
            assert [move_record(m) for m in path] == FIXTURE_PATHS[a, b]
            assert applied(c1, path).same_chain(c2)


def test_only_a_switch_of_two_2_handles_has_its_inverse_checked_again(monkeypatch):
    # every other inverse reads the pair that cerf_neighbors checked
    # through the same rule; 94 inverse checks before, 88 of them repeats
    inverse_checks = []
    check = bordism._check_move

    def spy(move):
        if sys._getframe(1).f_code.co_name == "cerf_connected":
            inverse_checks.append(move)
        return check(move)

    monkeypatch.setattr(bordism, "_check_move", spy)
    fixtures = fixture_presentations()
    c1, c2 = fixtures["S3-genus2"][0](), fixtures["S1xS2#S1xS2"][0]()
    assert cerf_connected(c1, c2, depth=4) is None
    assert len(inverse_checks) == 6
    assert {
        (m.kind, tuple(s.kind for s in m.old_steps)) for m in inverse_checks
    } == {("CritSwitch", ("attach2", "attach2"))}


def test_cerf_connected_boundary_check():
    c1 = chain([cyl(ID1)])
    c2 = chain([cyl(ID2)])
    with pytest.raises(BoundaryMismatch):
        cerf_connected(c1, c2, depth=1)


# -- the move-check oracle -----------------------------------------------------
#
# The per-kind checks cerf_apply made before every move kind became one
# contraction rule, kept verbatim as the independent route.


def _require(cond, message, witness=None):
    if not cond:
        raise MoveNotApplicable(message, witness=witness)


def oracle_check_move(move):
    kind, old, new = move.kind, move.old_steps, move.new_steps
    if kind == "CylMerge":
        _require(len(old) == 2 and len(new) == 1, "merge consumes two cylinders")
        a, b = old
        _require(a.kind == b.kind == "cyl", "merge needs two cylinders")
        merged = a.phi.then(b.phi)
        _require(
            new[0].kind == "cyl" and new[0].phi.same_mapping_class(merged),
            "merged cylinder must carry the composed mapping class",
            witness=(a.phi.name, b.phi.name),
        )
    elif kind == "CylSplit":
        oracle_check_move(CerfMoveInstance("CylMerge", move.pos, new, old))
    elif kind == "CylAbsorbPre":
        one, two = (old, new) if len(old) == 2 else (new, old)
        _require(len(one) == 2 and len(two) == 1, "absorb relates a pair and a step")
        pre, att = one
        _require(pre.kind == "cyl", "first step of the pair must be a cylinder")
        if att.kind == "cap3":
            _require(two[0].kind == "cap3", "cylinder absorbs into the cap")
        else:
            _require(att.kind == "attach2", "pre-cylinders absorb into 2-handles")
            pulled = att.circle.precompose(pre.phi)
            _require(
                two[0].kind == "attach2" and two[0].circle.same_circle(pulled),
                "absorbed circle must be the pulled-back circle",
                witness=(pre.phi.name, att.circle.psi.name),
            )
    elif kind == "CylAbsorbPost":
        one, two = (old, new) if len(old) == 2 else (new, old)
        _require(len(one) == 2 and len(two) == 1, "absorb relates a pair and a step")
        att, post = one
        _require(post.kind == "cyl", "second step of the pair must be a cylinder")
        if att.kind == "cap0":
            _require(two[0].kind == "cap0", "cylinder absorbs into the cap")
        else:
            _require(att.kind == "attach1", "post-cylinders absorb into 1-handles")
            pushed = att.circle.postcompose(post.phi)
            _require(
                two[0].kind == "attach1" and two[0].circle.same_circle(pushed),
                "absorbed circle must be the pushed-forward circle",
            )
    elif kind == "CritCancel":
        _require(len(old) == 2 and len(new) == 1, "cancel replaces a pair by a cylinder")
        a, b = old
        _require(
            a.kind == "attach1" and b.kind == "attach2",
            "cancellation needs a 1-handle followed by a 2-handle",
        )
        _require(
            is_crossing_pair(a.circle, b.circle),
            "circles are not a transported single-intersection pair",
            witness=(a.circle.psi.name, b.circle.psi.name),
        )
        _require(
            new[0].kind == "cyl" and new[0].phi.is_identity(),
            "cancelling a transported (a1, b1) pair yields the identity cylinder",
        )
    elif kind == "CritCreate":
        oracle_check_move(CerfMoveInstance("CritCancel", move.pos, new, old))
    elif kind == "CritSwitch":
        _require(len(old) == 2 and len(new) == 2, "switch exchanges two attachments")
        kinds = tuple(s.kind for s in old)
        if kinds == ("attach2", "attach2"):
            _require(
                tuple(s.kind for s in new) == ("attach2", "attach2"),
                "switch preserves the attachment kinds",
            )
            _require(
                old[1].circle.psi.is_identity() and new[1].circle.psi.is_identity(),
                "second circle must be canonical below a transported pair",
            )
            tau = handle_swap(old[0].circle.genus, 1, 2)
            _require(
                new[0].circle.same_circle(
                    AttachingCircle(old[0].circle.genus, tau.then(old[0].circle.psi))
                ),
                "switched circle must be the swap transport of the original",
            )
        elif kinds == ("attach1", "attach2"):
            _require(
                is_disjoint_canonical_pair(old[0].circle, old[1].circle),
                "circles are not a transported disjoint pair",
            )
            _require(
                tuple(s.kind for s in new) == ("attach2", "attach1")
                and new[0].circle.psi.is_identity()
                and new[1].circle.psi.is_identity()
                and new[0].circle.genus == old[0].circle.genus - 1,
                "switching a 1-2 pair yields the canonical 2-1 pair one genus down",
            )
        elif kinds == ("attach2", "attach1"):
            oracle_check_move(CerfMoveInstance("CritSwitch", move.pos, new, old))
        else:
            _require(False, f"no switch applies to steps {kinds}")
    else:
        _require(False, f"unknown move kind {kind!r}")


def oracle_apply(c, move):
    i = move.pos
    k = len(move.old_steps)
    if i < 0 or i + k > len(c.steps):
        raise MoveNotApplicable(f"position {i} out of range", witness=i)
    if not all(a.same_step(b) for a, b in zip(c.steps[i:i + k], move.old_steps)):
        raise MoveNotApplicable("chain steps do not match the move's stated pattern")
    oracle_check_move(move)
    return CobordismChain(c.source, c.target, c.steps[:i] + move.new_steps + c.steps[i + k:])


MAX_GENUS = 3


def library_steps(genus):
    """Cylinders and attachments over builtin_library at one genus."""
    if not 0 <= genus <= MAX_GENUS + 1:
        return []
    lib = builtin_library(genus)
    steps = [cyl(psi) for psi in lib]
    if genus >= 1:
        for psi in lib:
            steps += [attach2(AttachingCircle(genus, psi)), attach1(AttachingCircle(genus, psi))]
    return steps


def random_chain(rng):
    """A composable chain of 1-4 steps through genus at most MAX_GENUS."""
    at = rng.choice([EMPTY, *(surface(g) for g in range(MAX_GENUS + 1))])
    steps = []
    for _ in range(rng.randint(1, 4)):
        if at == EMPTY:
            step = CAP0
        else:
            g = at.genus
            options = [s for s in library_steps(g) if s.kind in ("cyl", "attach2")]
            if g < MAX_GENUS:
                options += [s for s in library_steps(g + 1) if s.kind == "attach1"]
            kinds = sorted({s.kind for s in options} | ({"cap3"} if g == 0 else set()))
            kind = rng.choice(kinds)
            step = CAP3 if kind == "cap3" else rng.choice([s for s in options if s.kind == kind])
        steps.append(step)
        at = step.target
    return chain(steps)


def sweep_chains():
    fixtures = [builder() for builder, _ in fixture_presentations().values()]
    fixtures += NEIGHBOR_FIXTURES + [
        # handle_swap(3, 1, 2) is no involution, so this switch has no
        # inverse switch
        chain([attach2(AttachingCircle(3, handle_swap(3, 1, 2))), attach2(canonical_circle(2))]),
    ]
    rng = random.Random(18)
    return fixtures + [random_chain(rng) for _ in range(16)]


def sweep_moves(c, rng):
    """Moves on every 1- and 2-step window of c: every kind, with new
    steps drawn from library steps of nearby genera, and each neighbour
    move of c."""
    for move, _ in cerf_neighbors(c):
        yield move
    for pos, k in itertools.product(range(len(c)), (1, 2)):
        old = c.steps[pos:pos + k]
        if len(old) < k:
            continue
        g = old[0].source.genus
        singles = [CAP3, CAP0, *(s for h in (g - 1, g, g + 1) for s in library_steps(h))]
        news = [(s,) for s in singles] + [tuple(rng.sample(singles, 2)) for _ in range(16)]
        for kind, new in itertools.product(MOVE_KINDS, news):
            yield CerfMoveInstance(kind, pos, old, new)


def outcome(apply, c, move):
    try:
        return apply(c, move).syntactic_key()
    except (MoveNotApplicable, GenusMismatch, BoundaryMismatch, RecursionError) as err:
        return type(err)


def test_cerf_apply_matches_the_per_kind_checks():
    """cerf_apply accepts the moves the per-kind checks accept, with the
    same results, and raises the same exception class otherwise, but for
    three declared differences, where it now raises MoveNotApplicable:
    - the per-kind checks let an identity cylinder or canonical circle of
      the wrong genus through, and the chain then failed to compose
      (BoundaryMismatch); the rule compares genera;
    - an expansion into a pair of steps that do not compose: the per-kind
      checks composed the pair's mapping classes (GenusMismatch; CylSplit
      and both absorbs) or let an absorb into a cap through, and the chain
      then failed to compose (BoundaryMismatch); the rule is asked only
      about composable pairs;
    - the (2-handle, 1-handle) switch check called itself with the same
      two pairs when both sides were such pairs (RecursionError)."""
    rng = random.Random(0)
    accepted, declared = set(), set()
    for c in sweep_chains():
        for move in sweep_moves(c, rng):
            got, expected = outcome(cerf_apply, c, move), outcome(oracle_apply, c, move)
            if got == expected:
                if not isinstance(got, type):
                    accepted.add(move.kind)
                continue
            assert got is MoveNotApplicable, (c, move, got, expected)
            if expected is BoundaryMismatch:
                oracle_check_move(move)
            elif expected is GenusMismatch:
                a, b = move.new_steps
                assert a.target != b.source, (c, move)
            else:
                assert expected is RecursionError, (c, move, got, expected)
                assert [s.kind for s in move.old_steps + move.new_steps] == [
                    "attach2", "attach1", "attach2", "attach1"
                ]
            declared.add((move.kind, expected))
    assert accepted == set(MOVE_KINDS)
    assert declared == {
        ("CritCancel", BoundaryMismatch),
        ("CritSwitch", RecursionError),
        ("CylSplit", GenusMismatch),
        ("CylAbsorbPre", GenusMismatch),
        ("CylAbsorbPost", GenusMismatch),
        ("CylAbsorbPre", BoundaryMismatch),
        ("CylAbsorbPost", BoundaryMismatch),
    }
