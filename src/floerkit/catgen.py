"""Generators of small finite categories for randomized law checking, and
the materialized relation bicategory bridging the correspondence modules
into the table-driven world.

Random categories come in three families that are easy to make valid by
construction: poset categories of random DAGs, one-object categories of
transformation monoids, and path categories of random acyclic quivers.
"""

from __future__ import annotations

import numpy as np

from .cats import FinBicategory, FinCategory
from .errors import ResourceLimit


def poset_category(leq, elements, name="poset"):
    """Category of a partial order: at most one morphism per pair."""
    morphisms = {}
    comp = {}
    identity = {}
    for x in elements:
        for y in elements:
            if leq(x, y):
                morphisms[(x, y)] = (x, y)
    for x in elements:
        identity[x] = (x, x)
    for (x, y) in morphisms:
        for (y2, z) in morphisms:
            if y2 == y:
                comp[((x, y), (y, z))] = (x, z)
    return FinCategory(elements, morphisms, comp, identity, name=name)


def random_poset_category(rng, max_objects=5):
    n = int(rng.integers(2, max_objects + 1))
    order = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order[i, i] = True
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                order[i, j] = True
    # transitive closure
    for k in range(n):
        for i in range(n):
            for j in range(n):
                order[i, j] = order[i, j] or (order[i, k] and order[k, j])
    return poset_category(
        lambda x, y: bool(order[x, y]), tuple(range(n)), name=f"poset{n}"
    )


def monoid_category(elements, compose, name="monoid"):
    """One-object category from a finite monoid given by a closed set of
    elements with an associative composition and a two-sided unit at
    position 0."""
    obj = "*"
    morphisms = {m: (obj, obj) for m in elements}
    comp = {(a, b): compose(a, b) for a in elements for b in elements}
    identity = {obj: elements[0]}
    return FinCategory((obj,), morphisms, comp, identity, name=name)


def random_transformation_monoid_category(rng, ground=3, generators=2, cap=24):
    """Close random self-maps of a small set under composition."""
    ident = tuple(range(ground))
    gens = {
        tuple(int(v) for v in rng.integers(0, ground, size=ground))
        for _ in range(generators)
    }
    elements = {ident} | gens
    frontier = list(elements)
    while frontier and len(elements) <= cap:
        new = []
        for a in frontier:
            for b in list(elements):
                for c in (tuple(b[a[i]] for i in range(ground)),
                          tuple(a[b[i]] for i in range(ground))):
                    if c not in elements:
                        elements.add(c)
                        new.append(c)
        frontier = new
    ordered = (ident,) + tuple(sorted(elements - {ident}))

    def compose(a, b):
        # a then b
        return tuple(b[a[i]] for i in range(ground))

    return monoid_category(ordered, compose, name=f"tmon{len(ordered)}")


def path_category(vertices, edges, name="paths"):
    """Free category on an acyclic quiver: morphisms are paths.

    The identity paths come first, in vertex order; then, for each source
    vertex in order, its paths depth first from an explicit stack, each
    path before its extensions and the extensions of a path in edge order.
    """
    morphisms = {("p", v, ()): (v, v) for v in vertices}
    identity = {v: ("p", v, ()) for v in vertices}
    for src in vertices:
        stack = [((), src)]
        while stack:
            seq, at = stack.pop()
            if seq:
                morphisms[("p", src, seq)] = (src, at)
            stack.extend(
                (seq + ((a, b, tag),), b) for a, b, tag in reversed(edges) if a == at
            )
    comp = {}
    for f, (s1, d1) in morphisms.items():
        for g, (s2, d2) in morphisms.items():
            if d1 != s2:
                continue
            seq = f[2] + g[2]
            comp[(f, g)] = ("p", s1, seq)
    return FinCategory(tuple(vertices), morphisms, comp, identity, name=name)


def random_path_category(rng, max_vertices=4, max_edges=4):
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    tag = 0
    for _ in range(int(rng.integers(1, max_edges + 1))):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        edges.append((i, j, tag))
        tag += 1
    return path_category(tuple(range(n)), edges, name=f"quiver{n}")


def random_category(seed, max_objects=5, max_morphisms=40):
    """A random small category, guaranteed valid, capped in size."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        family = rng.integers(0, 3)
        if family == 0:
            cat = random_poset_category(rng, max_objects=max_objects)
        elif family == 1:
            cat = random_transformation_monoid_category(
                rng, ground=int(rng.integers(2, 4))
            )
        else:
            cat = random_path_category(rng)
        if len(cat.morphisms) <= max_morphisms and len(cat.objects) <= max_objects:
            return cat
    return random_poset_category(np.random.default_rng(seed), max_objects=3)


# -- the materialized relation bicategory -------------------------------------


def relation_bicategory(group, max_pool=64, name=None):
    """A finite restriction of the chain-of-relations bicategory over one
    working group.

    Objects are the empty set, the sphere and the torus; the relation pool
    holds the simple images (diagonals, a twist graph, the handle
    correspondence and its transpose, the caps) closed under geometric
    composition.  1-morphisms are pool chains of length <= 2 together with
    single composites; 2-morphisms are the thin cells identifying chains
    with equal complete composition, which is exactly the invariant that
    composition moves preserve.
    """
    from .bordobjects import EMPTY, surface
    from .relcat import geometric_compose
    from .repvar import VarietyCache, diagonal_relation, relation_of_simple
    from .bordism import CAP0, CAP3, attach1, attach2, canonical_circle, cyl
    from .words import dehn_twist_a

    cache = VarietyCache(group)
    objs = (EMPTY, surface(0), surface(1))
    circle = canonical_circle(1)
    steps = (cyl(dehn_twist_a(1)), attach2(circle), attach1(circle), CAP3, CAP0)
    pool = [diagonal_relation(cache.variety(obj)) for obj in objs] + [
        relation_of_simple(group, step, cache) for step in steps
    ]
    pool = list(dict.fromkeys(pool))

    # the closure under composition, numbered in order of discovery, with
    # table[(i, j)] = id of closure[i] then closure[j] for every composable
    # pair, each composed once
    closure = list(pool)
    rel_id = {rel: i for i, rel in enumerate(closure)}
    table = {}
    frontier = list(pool)
    while frontier:
        new = []
        for a in frontier:
            for b in closure:
                for x, y in ((a, b), (b, a)):
                    key = (rel_id[x], rel_id[y])
                    if key in table or x.target != y.source:
                        continue
                    c = geometric_compose(x, y)
                    if c not in rel_id:
                        rel_id[c] = len(rel_id)
                        new.append(c)
                    table[key] = rel_id[c]
        closure.extend(new)
        frontier = new
        if len(closure) > max_pool:
            raise ResourceLimit(
                f"relation closure exceeded {max_pool}", witness=len(closure)
            )

    pool_ids = {rel_id[r] for r in pool}

    chains = [(i,) for i in range(len(closure))]
    for i in sorted(pool_ids):
        for j in sorted(pool_ids):
            if closure[i].target == closure[j].source:
                chains.append((i, j))
    one = {ch: (closure[ch[0]].source.obj, closure[ch[-1]].target.obj) for ch in chains}

    def complete_chain(z):
        acc = z[0]
        for i in z[1:]:
            acc = table[(acc, i)]
        return acc

    comp_of = {ch: complete_chain(ch) for ch in chains}

    # chains compose by concatenation while that stays a chain, else to
    # the one-step chain of their complete composition
    hcomp1 = {}
    for x in chains:
        for y in chains:
            if one[x][1] == one[y][0]:
                z = x + y
                short = len(z) <= 2 and all(i in pool_ids for i in z)
                hcomp1[(x, y)] = z if short else (complete_chain(z),)

    # thin 2-cells between chains with equal complete composition, family
    # by family; (c1, c2) then (c2, c3) is (c1, c3)
    two = {}
    vcomp = {}
    families = {}
    for ch in chains:
        families.setdefault(comp_of[ch], []).append(ch)
    for members in families.values():
        for c1 in members:
            for c2 in members:
                two[(c1, c2)] = (c1, c2)
                for c3 in members:
                    vcomp[((c1, c2), (c2, c3))] = (c1, c3)
    id2 = {ch: (ch, ch) for ch in chains}

    # a 2-cell composes horizontally with the 2-cells between chains that
    # leave the object its chains end at
    two_from = {obj: [] for obj in objs}
    for c in two:
        two_from[one[c[0]][0]].append(c)
    hcomp2 = {}
    for (a1, a2) in two:
        for (b1, b2) in two_from[one[a1][1]]:
            hcomp2[((a1, a2), (b1, b2))] = (hcomp1[(a1, b1)], hcomp1[(a2, b2)])

    weak_unit = {
        obj: (rel_id[diagonal_relation(cache.variety(obj))],) for obj in objs
    }

    bic = FinBicategory(
        objs, one, two, vcomp, id2, hcomp1, hcomp2, weak_unit,
        name=name or f"Rel({group.name})",
    )
    bic.relation_of = {i: rel for rel, i in rel_id.items()}
    bic.chain_complete = comp_of
    return bic
