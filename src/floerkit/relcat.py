"""The set-level symplectic category: chains of finite relations under
geometric composition.

Relations compose by the existence of an intermediate point; a composition
is *embedded* when that intermediate is unique for every composite pair
(the set-level half of the embeddedness condition -- transversality has no
finite analogue, so embedded means injective here).  Chains of relations
are rewritten by composing adjacent pairs (only when embedded) or by
re-expanding composites recorded in a factorization registry; cyclic
chains carry generator sets, the coherent tuples that play the role of
Floer chain generators, with explicit bijections under embedded
contraction.

One walk over the join of two relations serves ``geometric_compose``,
``is_embedded`` and ``compose_embedded``.  Its witness of non-embeddedness
is (x, (y1, y2), z) for the least triple (x, y2, z) whose composite pair
(x, z) already has a smaller intermediate, y1 the least one.  Relations
whose endpoints differ raise ``EndpointMismatch``, witnessed by both ends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import EndpointMismatch, NotEmbedded, ResourceLimit
from .repvar import FiniteRelation, diagonal_relation


def _join(l12: FiniteRelation, l23: FiniteRelation):
    """Walk the join once: returns (composite, witness), the witness None
    when the composition is embedded (see the module docstring)."""
    if l12.target != l23.source:
        raise EndpointMismatch(
            f"cannot compose {l12!r} with {l23!r}",
            witness=(repr(l12.target.obj), repr(l23.source.obj)),
        )
    succ = l23.successors()
    first = {}    # (x, z) -> the first intermediate met
    repeats = []  # (x, y, z) whose (x, z) already had an intermediate
    for x, y in l12.pairs:
        for z in succ.get(y, ()):
            # each y meets a given (x, z) once, so only a repeat sees another y
            if first.setdefault((x, z), y) is not y:
                repeats.append((x, y, z))
    composite = FiniteRelation(l12.source, l23.target, frozenset(first))
    # the repeated pairs with their first intermediates, in sorted order:
    # the first pair met twice gives the witness
    seen = {}
    for x, y, z in sorted(repeats + [(x, first[x, z], z) for x, _, z in repeats]):
        if seen.setdefault((x, z), y) != y:
            return composite, (x, (seen[x, z], y), z)
    return composite, None


def geometric_compose(l12: FiniteRelation, l23: FiniteRelation) -> FiniteRelation:
    """{(x, z) : exists y with (x,y) in L12 and (y,z) in L23}."""
    return _join(l12, l23)[0]


def is_embedded(l12: FiniteRelation, l23: FiniteRelation):
    """Check uniqueness of intermediates; returns (flag, witness), the
    witness on failure being two intermediates of one composite pair."""
    witness = _join(l12, l23)[1]
    return witness is None, witness


def compose_embedded(l12, l23):
    """Compose and insist on embeddedness."""
    composite, witness = _join(l12, l23)
    if witness is not None:
        raise NotEmbedded("geometric composition is not embedded", witness=witness)
    return composite


class FactorizationRegistry:
    """Records (composite -> factor pair) for the expansion direction of
    composition moves.  Only registered factorizations are ever tried;
    searching all factorizations of a relation is unbounded."""

    def __init__(self):
        self._table = {}

    def record(self, l12, l23, composite):
        entries = self._table.setdefault(composite, [])
        if (l12, l23) not in entries:
            entries.append((l12, l23))

    def factorizations(self, composite):
        return tuple(self._table.get(composite, ()))

    def compose_and_record(self, l12, l23):
        out = geometric_compose(l12, l23)
        self.record(l12, l23, out)
        return out


@dataclass(frozen=True)
class RelationChain:
    """Composable list of relations; an empty chain is tagged with its
    variety and acts as the identity."""

    source: object
    target: object
    relations: tuple

    def __post_init__(self):
        at = self.source
        for i, rel in enumerate(self.relations):
            if rel.source != at:
                raise EndpointMismatch(
                    f"relation {i} starts at {rel.source!r}, chain is at {at!r}",
                    witness=i,
                )
            at = rel.target
        if at != self.target:
            raise EndpointMismatch("chain does not end at its declared target")

    def __len__(self):
        return len(self.relations)

    def concat(self, other: "RelationChain") -> "RelationChain":
        if self.target != other.source:
            raise EndpointMismatch("chains do not concatenate")
        return RelationChain(self.source, other.target, self.relations + other.relations)

    def transpose(self) -> "RelationChain":
        rels = tuple(r.transpose() for r in reversed(self.relations))
        return RelationChain(self.target, self.source, rels)

    def compose_all(self, require_embedded=False):
        """Fold the chain into a single relation, left to right.

        With require_embedded, every step must be an embedded composition;
        returns None instead when some step is not embedded.
        """
        acc = diagonal_relation(self.source)
        for rel in self.relations:
            acc, witness = _join(acc, rel)
            if require_embedded and witness is not None:
                return None
        return acc


def relation_chain(relations, variety=None):
    relations = tuple(relations)
    if relations:
        return RelationChain(relations[0].source, relations[-1].target, relations)
    if variety is None:
        raise EndpointMismatch("an empty relation chain needs a variety tag")
    return RelationChain(variety, variety, ())


def chain_equivalent(c1: RelationChain, c2: RelationChain, depth: int,
                     registry: FactorizationRegistry = None):
    """Bounded search for a rewrite path between relation chains.

    Moves: replace an adjacent pair by its geometric composition when the
    composition is embedded, or expand one relation into a registered
    factor pair.  Returns a list of ('compose', i) / ('factor', i, pair)
    moves, or None when not found within the bound (a semi-decision).
    """
    if c1.source != c2.source or c1.target != c2.target:
        raise EndpointMismatch("chains must share endpoints")
    registry = registry or FactorizationRegistry()

    def key(ch):
        return tuple(
            (r.source.obj, r.target.obj, r.sorted_pairs()) for r in ch.relations
        )

    target_key = key(c2)
    if key(c1) == target_key:
        return []
    seen = {key(c1)}
    queue = deque([(c1, [])])
    for _ in range(depth):
        next_queue = deque()
        while queue:
            ch, path = queue.popleft()
            moves = []
            for i in range(len(ch.relations) - 1):
                a, b = ch.relations[i], ch.relations[i + 1]
                comp, witness = _join(a, b)
                if witness is None:
                    registry.record(a, b, comp)
                    rels = ch.relations[:i] + (comp,) + ch.relations[i + 2:]
                    moves.append((("compose", i), RelationChain(ch.source, ch.target, rels)))
            for i, rel in enumerate(ch.relations):
                for l12, l23 in registry.factorizations(rel):
                    rels = ch.relations[:i] + (l12, l23) + ch.relations[i + 1:]
                    moves.append((("factor", i), RelationChain(ch.source, ch.target, rels)))
            for move, nxt in moves:
                k = key(nxt)
                if k == target_key:
                    return path + [move]
                if k not in seen:
                    seen.add(k)
                    next_queue.append((nxt, path + [move]))
        queue = next_queue
        if not queue:
            break
    return None


# -- cyclic chains and generator sets ---------------------------------------

@dataclass(frozen=True)
class CyclicChain:
    """Cyclically composable relations: target of each is the source of
    the next, indices mod length.  Rotation is a relabeling."""

    relations: tuple

    def __post_init__(self):
        if not self.relations:
            raise EndpointMismatch("a cyclic chain needs at least one relation")
        k = len(self.relations)
        for i in range(k):
            a = self.relations[i]
            b = self.relations[(i + 1) % k]
            if a.target != b.source:
                raise EndpointMismatch(
                    f"cyclic mismatch between positions {i} and {(i + 1) % k}",
                    witness=i,
                )

    def __len__(self):
        return len(self.relations)

    def rotate(self, shift):
        k = len(self.relations)
        shift %= k
        return CyclicChain(self.relations[shift:] + self.relations[:shift])

    def canonical_rotation(self):
        k = len(self.relations)
        keys = [
            tuple(r.sorted_pairs() for r in self.rotate(s).relations)
            for s in range(k)
        ]
        best = min(range(k), key=lambda s: keys[s])
        return self.rotate(best)

    @cached_property
    def _generator_tuples(self):
        """The coherent tuples, sorted: paths from each point of node 0 are
        extended through the successor maps of relations 0 to k-2 and kept
        when relation k-1 leads back to their first point."""
        succ = [r.successors() for r in self.relations]
        paths = ((x,) for x in self.relations[0].source.points)
        for step in succ[:-1]:
            paths = _extend_paths(paths, step)
        closing = succ[-1]
        return tuple(sorted(p for p in paths if p[0] in closing.get(p[-1], ())))

    @cached_property
    def _generator_members(self):
        """The coherent tuples as a frozenset, for membership tests."""
        return frozenset(self._generator_tuples)


@dataclass(frozen=True)
class GeneratorSet:
    """All coherent tuples of a cyclic chain: one point per node with
    every consecutive pair lying in the corresponding relation.  Both
    ``tuples`` and membership read the tuples cached on the chain."""

    chain: CyclicChain

    @property
    def tuples(self):
        return self.chain._generator_tuples

    def __len__(self):
        return len(self.tuples)

    def __contains__(self, tup):
        try:
            return tup in self.chain._generator_members
        except TypeError:  # unhashable, so not a tuple of points
            return False


def _extend_paths(paths, succ):
    """Each path extended by each successor of its last point."""
    for path in paths:
        for y in succ.get(path[-1], ()):
            yield path + (y,)


def generator_set(c: CyclicChain, budget=None) -> GeneratorSet:
    """All coherent tuples of c.  The budget is checked on every call; the
    tuples and their set are cached on the chain
    (``CyclicChain._generator_tuples`` and ``_generator_members``)."""
    if budget is not None:
        est = 1
        for r in c.relations:  # node i: source of relation i
            est *= max(len(r.source), 1)
        if est > budget:
            raise ResourceLimit(
                f"generator enumeration would scan {est} tuples", witness=est
            )
    return GeneratorSet(c)


def rotation_bijection(gens: GeneratorSet, shift):
    """The canonical relabeling of generator tuples under rotation."""
    shift %= len(gens.chain)
    return gens.chain.rotate(shift), {tup: tup[shift:] + tup[:shift] for tup in gens.tuples}


def composition_bijection(c: CyclicChain, i: int, budget=None):
    """Contract relations i, i+1 (dropping node i+1); embeddedness makes
    coordinate deletion a bijection of generator sets.

    Returns (contracted_chain, forward_map, inverse_map) where forward_map
    sends a tuple of the original chain to the contracted tuple and
    inverse_map reconstructs the unique intermediate.
    """
    k = len(c.relations)
    if k < 2:
        raise EndpointMismatch("need at least two relations to contract")
    i %= k
    j = (i + 1) % k
    a, b = c.relations[i], c.relations[j]
    comp, witness = _join(a, b)
    if witness is not None:
        raise NotEmbedded(
            f"composition of cyclic positions {i}, {j} is not embedded",
            witness=witness,
        )
    if j > i:
        rels = c.relations[:i] + (comp,) + c.relations[j + 1:]
    else:  # wrap-around: i is last, j == 0; node 0 disappears
        rels = c.relations[1:i] + (comp,)
    contracted = CyclicChain(rels)
    before = generator_set(c, budget=budget)
    after = generator_set(contracted, budget=budget)

    forward = {
        tup: tup[:j] + tup[j + 1:] if j > i else tup[1:] for tup in before.tuples
    }
    inverse = {}
    for tup, out in forward.items():
        if out in inverse:
            raise NotEmbedded(
                "coordinate deletion not injective despite embeddedness",
                witness=(inverse[out], tup),
            )
        inverse[out] = tup
    if set(forward.values()) != set(after.tuples):
        missing = set(after.tuples) ^ set(forward.values())
        raise NotEmbedded(
            "deletion does not surject onto the contracted generator set",
            witness=sorted(missing)[:3],
        )
    return contracted, forward, inverse
