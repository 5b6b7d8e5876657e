"""Representation varieties over finite groups and their correspondences.

For a genus-g surface the variety is the set of 2g-tuples in G satisfying
the surface relator, modulo simultaneous conjugation; points are stored as
the lexicographically least tuple of their conjugation orbit.  Cylinders
over mapping classes map to graphs of bijections, handle attachments to
the correspondences cut out by killing the attaching circle, realized here
as finite relations between varieties.

Enumeration uses the commutator-fiber factorization of the relator
constraint: solutions of [A_1,B_1]...[A_g,B_g] = e are assembled from the
precomputed fibers {(A,B) : [A,B] = c}, which keeps genus-2 varieties over
groups of order ~24 at desk scale.  ``enumerate_relator_solutions`` is the
one enumeration kernel: the variety canonicalises it slice by slice of the
first handle pair, and the 2-handle relation reads the slice A_1 = e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bordobjects import BordObject, EMPTY, surface
from .errors import EndpointMismatch, GenusMismatch, ResourceLimit
from .words import eval_word, surface_relator


def canonical_point(group, tup):
    """Lexicographically least representative of the conjugation orbit."""
    if not tup:
        return ()
    conj = group.conj
    best = None
    for h in range(group.order):
        row = conj[h]
        cand = tuple(int(row[x]) for x in tup)
        if best is None or cand < best:
            best = cand
    return best


def satisfies_relator(group, tup):
    genus = len(tup) // 2
    return eval_word(surface_relator(genus), tup, group) == 0


def _check_budget(group, genus, budget):
    """Refuse a tuple space G^{2g} larger than the budget."""
    if budget is not None and group.order ** (2 * genus) > budget:
        raise ResourceLimit(
            f"|G|^(2g) = {group.order ** (2 * genus)} exceeds budget {budget}",
            witness={"order": group.order, "genus": genus, "budget": budget},
        )


def first_handle_entries(group):
    """Entries ((a, b), [a, b]) for every pair, in lexicographic order."""
    n = group.order
    return [((a, b), group.commutator(a, b)) for a in range(n) for b in range(n)]


def enumerate_relator_solutions(group, genus, budget=None, first=None):
    """All tuples in G^{2g} satisfying the surface relator (no quotient).

    ``first`` lists the first-handle entries ((A_1, B_1), [A_1, B_1]) to
    expand, in sorted order; the default is ``first_handle_entries(group)``.
    Tuples (A_1, B_1, ..., A_g, B_g) come grouped by first handle in the
    order of ``first``, so the outputs of consecutive slices of the entries
    concatenate to the full output; at genus <= 2 it is in lexicographic
    order.
    """
    if genus == 0:
        yield ()
        return
    _check_budget(group, genus, budget)
    entries = first_handle_entries(group)
    fibers = {}  # fibers[c] = sorted list of pairs (a, b) with [a, b] = c
    for pair, c in entries:
        fibers.setdefault(c, []).append(pair)
    inv = group.inv
    mul = group.mul

    def rec(prefix, acc, handles_left):
        if handles_left == 0:
            if acc == 0:
                yield prefix
        elif handles_left == 1:
            # last handle must realize acc^-1
            for pair in fibers.get(int(inv[acc]), ()):
                yield prefix + pair
        else:
            for c, pairs in fibers.items():
                nxt = int(mul[acc, c])
                for pair in pairs:
                    yield from rec(prefix + pair, nxt, handles_left - 1)

    for pair, c in entries if first is None else first:
        yield from rec(pair, c, genus - 1)


@dataclass(frozen=True)
class RepVariety:
    """Conjugation classes of surface-group representations in G.

    The empty object and the genus-0 surface both carry the one-point
    variety whose single point is the empty tuple; they remain distinct
    varieties so that relation endpoints track bordism objects.
    """

    group: object
    obj: BordObject
    points: tuple

    @property
    def genus(self):
        return self.obj.genus if self.obj.is_surface else 0

    def index(self, point):
        return self.points.index(point)

    def __contains__(self, point):
        return point in set(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"RepVariety({self.group.name}, {self.obj}, {len(self.points)} points)"

    def to_json(self):
        return {
            "group": self.group.name,
            "object": self.obj.to_json(),
            "points": [list(p) for p in self.points],
        }


_POOL_STATE = {}


def _variety_chunk(first):
    group, genus = _POOL_STATE["job"]
    return sorted(
        {canonical_point(group, tup)
         for tup in enumerate_relator_solutions(group, genus, first=first)}
    )


def repvariety(group, obj, budget=None, workers=1):
    """Enumerate the representation variety of a bordism object.

    The first-handle entries are cut into about 4 * workers slices; each
    slice is one chunk of ``run_chunks`` (inline for one worker, in forked
    workers otherwise) that returns its sorted canonical points.  The
    variety is the sorted union, so output order is identical for every
    worker count.  The budget is checked here, before any fork.
    """
    from .parallel import run_chunks

    if not obj.is_surface or obj.genus == 0:
        return RepVariety(group, obj, ((),))
    _check_budget(group, obj.genus, budget)
    entries = first_handle_entries(group)
    step = max(1, len(entries) // (4 * max(1, workers)))
    chunks = [entries[at:at + step] for at in range(0, len(entries), step)]
    _POOL_STATE["job"] = (group, obj.genus)
    try:
        parts = run_chunks(_variety_chunk, chunks, workers)
    finally:
        _POOL_STATE.pop("job", None)
    return RepVariety(group, obj, tuple(sorted(set().union(*parts))))


@dataclass(frozen=True)
class FiniteRelation:
    """A finite relation between two varieties; the set-level correspondence."""

    source: RepVariety
    target: RepVariety
    pairs: frozenset

    def __post_init__(self):
        src = set(self.source.points)
        dst = set(self.target.points)
        for x, y in self.pairs:
            if x not in src or y not in dst:
                raise EndpointMismatch(
                    "relation pair outside stated varieties", witness=(x, y)
                )

    def sorted_pairs(self):
        return tuple(sorted(self.pairs))

    def transpose(self):
        return FiniteRelation(
            self.target, self.source, frozenset((y, x) for x, y in self.pairs)
        )

    def successors(self):
        out = {}
        for x, y in self.pairs:
            out.setdefault(x, set()).add(y)
        return out

    def is_graph_of_bijection(self):
        xs = [x for x, _ in self.pairs]
        ys = [y for _, y in self.pairs]
        return (
            len(set(xs)) == len(self.pairs) == len(set(ys))
            and len(self.pairs) == len(self.source.points) == len(self.target.points)
        )

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteRelation)
            and self.source.obj == other.source.obj
            and self.target.obj == other.target.obj
            and self.source.group == other.source.group
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.source.obj, self.target.obj, self.pairs))

    def __repr__(self):
        return (
            f"FiniteRelation({self.source.obj}->{self.target.obj}, "
            f"{len(self.pairs)} pairs)"
        )

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "pairs": [[list(x), list(y)] for x, y in self.sorted_pairs()],
        }


def diagonal_relation(variety):
    return FiniteRelation(variety, variety, frozenset((p, p) for p in variety.points))


# -- images of simple cobordisms -------------------------------------------

class VarietyCache:
    """Memoizes varieties and relations for one working group."""

    def __init__(self, group, budget=None, workers=1):
        self.group = group
        self.budget = budget
        self.workers = workers
        self._varieties = {}
        self._cyl = {}
        self._attach = {}

    def variety(self, obj):
        if obj not in self._varieties:
            self._varieties[obj] = repvariety(
                self.group, obj, budget=self.budget, workers=self.workers
            )
        return self._varieties[obj]


def relation_of_cyl(group, phi, cache=None):
    """Graph of the bijection [rho] -> [rho o phi^-1] on the genus-g variety.

    Each generator image is evaluated on the inverse-image words of phi, so
    composing graphs matches mapping-class composition contravariantly.
    """
    cache = cache or VarietyCache(group)
    v = cache.variety(surface(phi.genus))
    pairs = set()
    for p in v.points:
        image = tuple(eval_word(w, p, group) for w in phi.inverse_images)
        pairs.add((p, canonical_point(group, image)))
    rel = FiniteRelation(v, v, frozenset(pairs))
    if not rel.is_graph_of_bijection():
        raise GenusMismatch(
            f"cylinder relation of {phi!r} is not a bijection", witness=phi.name
        )
    return rel


def relation_of_attach2(group, circle, cache=None):
    """Correspondence of the 2-handle attachment along a transported circle.

    Parametrized over assignments sigma with sigma(a_1) = e satisfying the
    relator: the source point is sigma composed with the inverse transport,
    the target point is the restriction (sigma(a_i), sigma(b_i)) for i >= 2
    in the pushed-forward standard basis.
    """
    cache = cache or VarietyCache(group)
    g = circle.genus
    psi = circle.psi
    src = cache.variety(surface(g))
    dst = cache.variety(surface(g - 1))
    pairs = set()
    a1_is_e = [((0, b), 0) for b in range(group.order)]  # [e, b] = e
    for sigma in enumerate_relator_solutions(
        group, g, budget=cache.budget, first=a1_is_e
    ):
        source_tup = tuple(eval_word(w, sigma, group) for w in psi.inverse_images)
        target_tup = sigma[2:]
        pairs.add(
            (canonical_point(group, source_tup), canonical_point(group, target_tup))
        )
    return FiniteRelation(src, dst, frozenset(pairs))


def relation_of_attach2_direct(group, circle, cache=None):
    """Independent enumeration from the defining property: all [rho] with
    rho(circle word) = e, paired with rho evaluated on the transported
    basis of the quotient surface.  Used as the second route in tests.
    """
    cache = cache or VarietyCache(group)
    g = circle.genus
    psi = circle.psi
    src = cache.variety(surface(g))
    dst = cache.variety(surface(g - 1))
    word = circle.word
    pairs = set()
    for rho in enumerate_relator_solutions(group, g, budget=cache.budget):
        if eval_word(word, rho, group) != 0:
            continue
        target_tup = tuple(eval_word(w, rho, group) for w in psi.images[2:])
        pairs.add(
            (canonical_point(group, rho), canonical_point(group, target_tup))
        )
    return FiniteRelation(src, dst, frozenset(pairs))


def relation_of_simple(group, step, cache=None):
    """Relation of one simple cobordism (dispatch on the step kind)."""
    cache = cache or VarietyCache(group)
    kind = step.kind
    if kind == "cyl":
        key = ("cyl", step.phi)
        if key not in cache._cyl:
            cache._cyl[key] = relation_of_cyl(group, step.phi, cache)
        return cache._cyl[key]
    if kind == "attach2":
        key = ("a2", step.circle)
        if key not in cache._attach:
            cache._attach[key] = relation_of_attach2(group, step.circle, cache)
        return cache._attach[key]
    if kind == "attach1":
        key = ("a1", step.circle)
        if key not in cache._attach:
            self_rel = relation_of_attach2(group, step.circle, cache)
            cache._attach[key] = self_rel.transpose()
        return cache._attach[key]
    if kind == "cap3":
        v0 = cache.variety(surface(0))
        ve = cache.variety(EMPTY)
        return FiniteRelation(v0, ve, frozenset({((), ())}))
    if kind == "cap0":
        v0 = cache.variety(surface(0))
        ve = cache.variety(EMPTY)
        return FiniteRelation(ve, v0, frozenset({((), ())}))
    raise GenusMismatch(f"unknown simple cobordism kind {kind!r}")
