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
one enumeration kernel.  Both of its callers expand only the first handles
that ``least_first_handles`` keeps, the pairs that are least in their own
conjugation orbit (orderly generation cut at the first handle): the
variety canonicalises those slices, and the 2-handle relation, whose pairs
are conjugation invariant, reads the slices A_1 = e with B_1 a class
minimum.

``canonical_point`` picks the least tuple of an orbit without trying all
|G| conjugators: the group lists, per pair (x, y), the conjugators that
take it to its least conjugate pair, and only those can give the least
tuple.  For 38 to 67 % of the pairs in Q8, S3, D6 and S4 that is one
conjugation.

``relation_of_simple`` is the one way from a simple cobordism to its
relation: it builds each relation once per ``VarietyCache``, and the
relations pair the point tuples their varieties already store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .bordobjects import BordObject, EMPTY, surface
from .errors import EndpointMismatch, GenusMismatch, ResourceLimit
from .words import eval_word, surface_relator


def canonical_point(group, tup):
    """Lexicographically least representative of the conjugation orbit.

    A conjugator that gives the least tuple must first give the least
    conjugate of (tup[0], tup[1]), so only the rows that
    ``group._pair_conjugators`` lists for that pair are tried: one coset of
    C(tup[0]) & C(tup[1]), often a single row.  Tuples shorter than two
    map to their class minima.
    """
    if len(tup) < 2:
        return tuple(group.conjugacy_classes[group.class_of[x]][0] for x in tup)
    rows = group._pair_conjugators[tup[0] * group.order + tup[1]]
    if len(rows) == 1:
        return tuple(map(rows[0].__getitem__, tup))
    return min(tuple(map(row.__getitem__, tup)) for row in rows)


def satisfies_relator(group, tup):
    genus = len(tup) // 2
    return eval_word(surface_relator(genus), tup, group) == 0


def _check_budget(group, genus, budget):
    """Refuse a tuple space G^{2g} larger than the budget."""
    if budget is None:
        return
    # |G|^(2g) >= 2^(2g), so a genus past the budget's bit length is refused
    # without raising |G| to the power 2g
    huge = group.order > 1 and 2 * genus > budget.bit_length()
    if huge or group.order ** (2 * genus) > budget:
        size = f"{group.order}^{2 * genus}" if huge else group.order ** (2 * genus)
        raise ResourceLimit(
            f"|G|^(2g) = {size} exceeds budget {budget}",
            witness={"order": group.order, "genus": genus, "budget": budget},
        )


def first_handle_entries(group):
    """Entries ((a, b), [a, b]) for every pair, in lexicographic order."""
    n = group.order
    return [((a, b), group.commutator(a, b)) for a in range(n) for b in range(n)]


def least_first_handles(group):
    """Entries ((a, b), [a, b]) whose pair is the least of its conjugation
    orbit, in lexicographic order.

    The least tuple of an orbit starts with such a pair: a conjugator that
    lowered the pair would lower the tuple.  So the first a of each kept
    pair is a class minimum, and ``_pair_conjugators`` (whose rows all send
    (a, b) to its least conjugate pair) decides b with one lookup.
    """
    n = group.order
    table = group._pair_conjugators
    return [
        ((a, b), group.commutator(a, b))
        for a in (c[0] for c in group.conjugacy_classes)
        for b in range(n)
        if table[a * n + b][0][b] == b
    ]


def enumerate_relator_solutions(group, genus, budget=None, first=None):
    """All tuples in G^{2g} satisfying the surface relator (no quotient).

    ``first`` lists the first-handle entries ((A_1, B_1), [A_1, B_1]) to
    expand, in sorted order; the default is ``first_handle_entries(group)``.
    For each first handle, handles 2 to g-1 run over the product of all
    pairs in fiber order (commutators in order of first appearance, pairs
    sorted within a fiber), and the last handle over the fiber of the
    inverse of the running product.  Tuples (A_1, B_1, ..., A_g, B_g) come
    grouped by first handle in the order of ``first``, so the outputs of
    consecutive slices of the entries concatenate to the full output; at
    genus <= 2 it is in lexicographic order.
    """
    if genus == 0:
        yield ()
        return
    _check_budget(group, genus, budget)
    entries = first_handle_entries(group)
    first = entries if first is None else first
    if genus == 1:
        yield from (pair for pair, c in first if c == 0)
        return
    fibers = {}  # fibers[c] = sorted list of pairs (a, b) with [a, b] = c
    for pair, c in entries:
        fibers.setdefault(c, []).append(pair)
    inv = group.inv
    mul = group.mul
    in_fiber_order = [(pair, c) for c, pairs in fibers.items() for pair in pairs]
    for head, commutator in first:
        for middle in itertools.product(in_fiber_order, repeat=genus - 2):
            tup, acc = head, commutator
            for pair, c in middle:
                tup += pair
                acc = int(mul[acc, c])
            for pair in fibers.get(int(inv[acc]), ()):
                yield tup + pair


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

    @cached_property
    def stored(self):
        """Point -> the tuple of ``points`` equal to it, built once; relations
        pair these tuples, so a memoized relation holds no copies of them."""
        return {p: p for p in self.points}

    def __contains__(self, point):
        return point in self.stored

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

# Fewest tuples (first handles kept times |G|^(2g-2)) worth forking workers
# for; smaller varieties run in the parent.  Best of 3, one worker against
# two: Q8 genus 3 (114,688 tuples) 0.26 against 0.32 s, D6 genus 3 (912,384)
# 1.45 against 1.05 s (BENCH_19.json).
_FORK_MIN_TUPLES = 500_000


def _variety_chunk(first):
    group, genus = _POOL_STATE["job"]
    return sorted(
        {canonical_point(group, tup)
         for tup in enumerate_relator_solutions(group, genus, first=first)}
    )


def repvariety(group, obj, budget=None, workers=1):
    """Enumerate the representation variety of a bordism object.

    Only the entries of ``least_first_handles`` are expanded: the least
    tuple of every orbit starts with one of them, and ``canonical_point``
    maps every tuple they give into the variety.  The entries are cut into
    about 4 * workers slices; each slice is one chunk of ``run_chunks``
    (inline for one worker, in forked workers otherwise) that returns its
    sorted canonical points.  The variety is the sorted union, so output
    order is identical for every worker count.  The budget is checked
    here, before any fork.  A variety that expands fewer than
    ``_FORK_MIN_TUPLES`` tuples (500,000) runs in the parent whatever the
    worker count: below it a fork costs more than it saves.
    """
    from .parallel import run_chunks

    if not obj.is_surface or obj.genus == 0:
        return RepVariety(group, obj, ((),))
    _check_budget(group, obj.genus, budget)
    # builds the conjugator table before any fork: workers inherit it
    entries = least_first_handles(group)
    # |G|^(2g-2) >= 2^(2g-2), so past the constant's bit length the estimate
    # reaches it without raising |G| to the power
    power = 2 * obj.genus - 2
    if (group.order == 1 or power <= _FORK_MIN_TUPLES.bit_length()) and (
        len(entries) * group.order ** power < _FORK_MIN_TUPLES
    ):
        workers = 1
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
        src = self.source.stored
        dst = self.target.stored
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
    """Varieties and simple-cobordism relations for one working group.

    Each variety is enumerated once and each relation built once, by
    ``relation_of_simple``, for as long as the cache lives; nothing is
    evicted.
    """

    def __init__(self, group, budget=None, workers=1):
        self.group = group
        self.budget = budget
        self.workers = workers
        self._varieties = {}
        self._relations = {}  # step.syntactic_key() -> FiniteRelation

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
    stored = v.stored
    pairs = set()
    for p in v.points:
        image = canonical_point(
            group, tuple(eval_word(w, p, group) for w in phi.inverse_images)
        )
        pairs.add((p, stored.get(image, image)))
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
    in the pushed-forward standard basis.  Conjugating sigma leaves its pair
    of canonical points unchanged, so sigma(b_1) runs over the class minima
    only: the entries of ``least_first_handles`` with A_1 = e.
    """
    cache = cache or VarietyCache(group)
    g = circle.genus
    psi = circle.psi
    src = cache.variety(surface(g))
    dst = cache.variety(surface(g - 1))
    src_stored, dst_stored = src.stored, dst.stored
    pairs = set()
    a1_is_e = [entry for entry in least_first_handles(group) if entry[0][0] == 0]
    for sigma in enumerate_relator_solutions(
        group, g, budget=cache.budget, first=a1_is_e
    ):
        x = canonical_point(
            group, tuple(eval_word(w, sigma, group) for w in psi.inverse_images)
        )
        y = canonical_point(group, sigma[2:])
        pairs.add((src_stored.get(x, x), dst_stored.get(y, y)))
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
    """Relation of one simple cobordism, built once per cache.

    Cylinders and 2-handles are built by ``relation_of_cyl`` and
    ``relation_of_attach2``, Cap3 directly; a 1-handle or Cap0 is the
    transpose of its adjoint's relation.  Every caller that needs the
    relation of a step asks here, so the cache holds one copy of each.
    """
    cache = cache or VarietyCache(group)
    memo = cache._relations
    # The images fix the automorphism of pi_1, so steps with one syntactic
    # key have one relation; the key keeps no automorphism objects alive.
    key = step.syntactic_key()
    if key not in memo:
        kind = step.kind
        if kind == "cyl":
            rel = relation_of_cyl(group, step.phi, cache)
        elif kind == "attach2":
            rel = relation_of_attach2(group, step.circle, cache)
        elif kind == "cap3":
            rel = FiniteRelation(
                cache.variety(surface(0)), cache.variety(EMPTY), frozenset({((), ())})
            )
        else:  # attach1, cap0
            rel = relation_of_simple(group, step.adjoint(), cache).transpose()
        memo[key] = rel
    return memo[key]
