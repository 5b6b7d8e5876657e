"""From partial data to a functor: representation varieties on objects,
relations on simple cobordisms, extended to chains by concatenation.

The move-compatibility suite checks, for canonical circle configurations
and registered transports, that cylinder absorption, disjoint-pair
switches and single-intersection cancellations are reflected by equal
relations with embedded geometric compositions; these are exactly the
identities that make the chain-level extension independent of the chosen
decomposition.  Closed chains produce generator-set invariants which are
cross-checked against a brute-force count of conjugacy classes of
representations of the presented fundamental group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bordism import (
    CAP0,
    CAP3,
    AttachingCircle,
    CobordismChain,
    attach1,
    attach2,
    b_circle,
    canonical_circle,
    chain,
    cyl,
)
from .bordobjects import EMPTY, surface
from .errors import BoundaryMismatch, ResourceLimit
from .relcat import (
    CyclicChain,
    RelationChain,
    composition_bijection,
    generator_set,
    geometric_compose,
    is_embedded,
    relation_chain,
)
from .repvar import VarietyCache, diagonal_relation, relation_of_simple
from .words import builtin_library, crossing_transport, dehn_twist_b, handle_swap


class PartialFunctorSpec:
    """Object and simple-morphism maps for one working group, plus the
    registry of verified move-compatibility certificates."""

    def __init__(self, group, budget=None, workers=1):
        self.group = group
        self.cache = VarietyCache(group, budget=budget, workers=workers)
        self.certificates = []

    def object_map(self, obj):
        return self.cache.variety(obj)

    def simple_map(self, step):
        return relation_of_simple(self.group, step, self.cache)

    def __repr__(self):
        return f"PartialFunctorSpec({self.group.name})"


@dataclass(frozen=True)
class FunctorValue:
    """Value of the extended functor on a chain: the relation chain, and
    the fully composed relation when every pairwise composition along the
    way is embedded (otherwise None)."""

    source: object
    target: object
    chain: RelationChain
    composed: object


def functor_eval(spec: PartialFunctorSpec, c: CobordismChain) -> FunctorValue:
    rels = tuple(spec.simple_map(s) for s in c.steps)
    src = spec.object_map(c.source)
    dst = spec.object_map(c.target)
    rc = relation_chain(rels) if rels else relation_chain((), variety=src)
    composed = rc.compose_all(require_embedded=True)
    return FunctorValue(src, dst, rc, composed)


def closed_cyclic_chain(spec: PartialFunctorSpec, c: CobordismChain) -> CyclicChain:
    """Read a closed chain (empty to empty) as a cyclic relation chain
    through the one-point variety."""
    if c.source != EMPTY or c.target != EMPTY:
        raise BoundaryMismatch(
            f"closed invariants need chains from Empty to Empty, got "
            f"{c.source} -> {c.target}"
        )
    if not c.steps:
        return CyclicChain((diagonal_relation(spec.object_map(EMPTY)),))
    return CyclicChain(tuple(spec.simple_map(s) for s in c.steps))


def closed_invariant(spec: PartialFunctorSpec, c: CobordismChain, budget=None):
    """Generator set of a closed chain and its count."""
    cyc = closed_cyclic_chain(spec, c)
    gens = generator_set(cyc, budget=budget)
    return gens, len(gens)


# -- independent oracle ------------------------------------------------------

def presentation_oracle(group, num_generators, relators, budget=10 ** 8):
    """|Hom(<x_1..x_n | relators>, G) / conjugation| by brute force.

    Relators are words over the alphabet 1..num_generators encoded as
    tuples of nonzero signed integers.
    """
    from .words import eval_word

    n = group.order
    if n ** num_generators > budget:
        raise ResourceLimit(
            f"{n}^{num_generators} assignments exceed budget {budget}",
            witness={"order": n, "generators": num_generators},
        )
    classes = set()
    for assign in itertools.product(range(n), repeat=num_generators):
        if all(eval_word(r, assign, group) == 0 for r in relators):
            orbit = min(
                tuple(group.conjugate(h, x) for x in assign) for h in range(n)
            )
            classes.add(orbit)
    if num_generators == 0:
        return 1
    return len(classes)


# -- closed 3-manifold fixtures ----------------------------------------------

def sphere_chain():
    """S^3 from the genus-1 splitting: kill a_1 on one side, b_1 on the other."""
    return chain([CAP0, attach1(canonical_circle(1)), attach2(b_circle(1)), CAP3])


def s1_x_s2_chain():
    """S^1 x S^2: both handlebodies kill the same circle."""
    return chain(
        [CAP0, attach1(canonical_circle(1)), attach2(canonical_circle(1)), CAP3]
    )


def lens_chain(p):
    """L(p, 1) via the circle a_1 b_1^p, the b-twist transport of a_1."""
    circle = AttachingCircle(1, dehn_twist_b(1, 1, power=p))
    return chain([CAP0, attach1(canonical_circle(1)), attach2(circle), CAP3])


def genus2_connected_sum_chain():
    """#^2 (S^1 x S^2): genus-2 splitting with both sides killing a_1, a_2."""
    return chain(
        [
            CAP0,
            attach1(canonical_circle(1)),
            attach1(canonical_circle(2)),
            attach2(canonical_circle(2)),
            attach2(canonical_circle(1)),
            CAP3,
        ]
    )


def genus2_sphere_chain():
    """S^3 presented with a genus-2 splitting (a-circles against b-circles)."""
    return chain(
        [
            CAP0,
            attach1(canonical_circle(1)),
            attach1(canonical_circle(2)),
            attach2(b_circle(2)),
            attach2(b_circle(1)),
            CAP3,
        ]
    )


def fixture_presentations():
    """Fixture name -> (chain builder, (num_generators, relators))."""
    return {
        "S3": (sphere_chain, (0, ())),
        "S1xS2": (s1_x_s2_chain, (1, ())),
        "L2": (lambda: lens_chain(2), (1, ((1, 1),))),
        "L3": (lambda: lens_chain(3), (1, ((1, 1, 1),))),
        "L4": (lambda: lens_chain(4), (1, ((1,) * 4,))),
        "L5": (lambda: lens_chain(5), (1, ((1,) * 5,))),
        "L6": (lambda: lens_chain(6), (1, ((1,) * 6,))),
        "S1xS2#S1xS2": (genus2_connected_sum_chain, (2, ())),
        "S3-genus2": (genus2_sphere_chain, (0, ())),
    }


# -- the Cerf-compatibility suite ---------------------------------------------

def _entry(check, group, genus, names, ok, witness=None, embedded=None,
           pairs=None, identity=None):
    entry = {
        "check": check,
        "group": group.name,
        "genus": genus,
        "transports": names,
        "status": "pass" if ok else "fail",
    }
    if identity is not None:
        entry["identity"] = "pass" if identity else "fail"
    if embedded is not None:
        entry["embedded"] = embedded
    if pairs is not None:
        entry["pairs"] = pairs
    if witness is not None:
        entry["witness"] = witness
    return entry


def verify_cerf_compatibility(spec: PartialFunctorSpec, genera=(1, 2), transports=None):
    """Check the move-compatibility identities as exact relation equalities.

    For every registered transport psi (and each genus): the equivariance
    identity for transported circles; for genus >= 2 the two disjoint-pair
    switch identities and the embeddedness of their four compositions;
    and at every genus the single-intersection cancellation identity,
    whose composite is the graph of the induced identification.  The
    mixed-switch composition through the higher-genus surface is embedded
    exactly when G is abelian; otherwise its entry is reported with
    ``status: "fail"``, ``embedded: false`` and a witness
    ``((x, (y, y'), z), None)`` of two intermediates over one composite
    pair, while ``identity`` still records the exact equality.  Failures
    become report entries, never exceptions.  Every relation comes from
    ``spec.simple_map``, the path closed invariants take, so each circle
    and transport is built once per spec.
    """
    group = spec.group
    relation = spec.simple_map
    report = []
    for g in genera:
        lib = transports[g] if transports else builtin_library(g)
        rot = crossing_transport(g, 1)
        if g >= 2:
            tau = handle_swap(g, 1, 2)
            l_prime = relation(attach2(canonical_circle(g - 1)))
            l_prime_t = l_prime.transpose()
            emb4, w4 = is_embedded(l_prime, l_prime_t)
            l_prime_back = geometric_compose(l_prime, l_prime_t)
        for psi in lib:
            alpha = AttachingCircle(g, psi)
            l_alpha = relation(attach2(alpha))
            l_alpha_t = l_alpha.transpose()

            # single intersection: alpha against its crossing transport
            beta = AttachingCircle(g, rot.then(psi))
            l_beta = relation(attach2(beta))
            emb, wit = is_embedded(l_alpha_t, l_beta)
            comp = geometric_compose(l_alpha_t, l_beta)
            expected = diagonal_relation(spec.object_map(surface(g - 1)))
            ok = emb and comp == expected
            report.append(
                _entry(
                    "single-intersection",
                    group,
                    g,
                    (psi.name,),
                    ok,
                    identity=comp == expected,
                    embedded=emb,
                    pairs=len(comp),
                    witness=None if ok else {"bad": wit},
                )
            )

            if g >= 2:
                beta_d = AttachingCircle(g, tau.then(psi))
                l_beta_d = relation(attach2(beta_d))

                emb1, w1 = is_embedded(l_alpha, l_prime)
                emb2, w2 = is_embedded(l_beta_d, l_prime)
                lhs = geometric_compose(l_alpha, l_prime)
                rhs = geometric_compose(l_beta_d, l_prime)
                ok = emb1 and emb2 and lhs == rhs
                report.append(
                    _entry(
                        "switch-two-handles",
                        group,
                        g,
                        (psi.name,),
                        ok,
                        identity=lhs == rhs,
                        embedded=emb1 and emb2,
                        pairs=len(lhs),
                        witness=None if ok else {"bad": (w1, w2)},
                    )
                )

                emb3, w3 = is_embedded(l_alpha_t, l_beta_d)
                lhs = geometric_compose(l_alpha_t, l_beta_d)
                # Over nonabelian groups the first composition here is not
                # embedded at genus >= 2: a conjugacy class of pairs is not
                # determined by the classes of its members, so the
                # intermediate on the higher-genus surface is not unique.
                # The identity itself still holds; the entry records both.
                ok = emb3 and emb4 and lhs == l_prime_back
                report.append(
                    _entry(
                        "switch-mixed-handles",
                        group,
                        g,
                        (psi.name,),
                        ok,
                        identity=lhs == l_prime_back,
                        embedded=emb3 and emb4,
                        pairs=len(lhs),
                        witness=None if ok else {"bad": (w3, w4)},
                    )
                )

        # equivariance: transported circle = cylinder-composed relation,
        # for each pair (psi, phi) of transports, psi varying slowest
        for psi in lib:
            l_psi = relation(attach2(AttachingCircle(g, psi)))
            for phi in lib:
                transported = AttachingCircle(g, psi.then(phi))
                lhs = relation(attach2(transported))
                rhs = geometric_compose(relation(cyl(phi)).transpose(), l_psi)
                ok = lhs == rhs
                report.append(
                    _entry(
                        "equivariance",
                        group,
                        g,
                        (psi.name, phi.name),
                        ok,
                        witness=None if ok else {"lhs": len(lhs), "rhs": len(rhs)},
                    )
                )
    spec.certificates.extend(report)
    return report


# -- generator-set invariance along Cerf moves --------------------------------

def move_bijection_certificate(spec: PartialFunctorSpec, before: CobordismChain,
                               move, after: CobordismChain, budget=None):
    """Explicit generator-set bijection between a closed chain and its
    image under one Cerf move, built from embedded-contraction bijections.

    Returns a dict with the tuple-level mapping and the contraction data
    used on each side.
    """
    cyc_before = closed_cyclic_chain(spec, before)
    cyc_after = closed_cyclic_chain(spec, after)
    pos = move.pos
    n_old, n_new = len(move.old_steps), len(move.new_steps)

    def check_match(c1, c2):
        if tuple(c1.relations) != tuple(c2.relations):
            raise BoundaryMismatch(
                "contracted relation chains disagree; move does not preserve "
                "the functor value",
                witness=move,
            )

    if (n_old, n_new) == (2, 1):
        contracted, fwd, inv = composition_bijection(cyc_before, pos, budget=budget)
        check_match(contracted, cyc_after)
        mapping = fwd
        data = {"side": "before", "contract_at": pos}
    elif (n_old, n_new) == (1, 2):
        contracted, fwd, inv = composition_bijection(cyc_after, pos, budget=budget)
        check_match(contracted, cyc_before)
        mapping = {out: tup for tup, out in fwd.items()}
        data = {"side": "after", "contract_at": pos}
    elif (n_old, n_new) == (2, 2):
        left, fwd1, _ = composition_bijection(cyc_before, pos, budget=budget)
        right, fwd2, inv2 = composition_bijection(cyc_after, pos, budget=budget)
        check_match(left, right)
        mapping = {tup: inv2[out] for tup, out in fwd1.items()}
        data = {"side": "both", "contract_at": pos}
    else:
        raise BoundaryMismatch(f"unsupported move arity {(n_old, n_new)}")

    gens_before = generator_set(cyc_before, budget=budget)
    gens_after = generator_set(cyc_after, budget=budget)
    if sorted(mapping) != sorted(gens_before.tuples) or sorted(
        mapping.values()
    ) != sorted(gens_after.tuples):
        raise BoundaryMismatch(
            "assembled mapping is not a bijection of generator sets",
            witness=move,
        )
    return {"move": move, "mapping": mapping, **data}
