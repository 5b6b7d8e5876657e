"""The connected 2+1 bordism category as a combinatorial rewrite system.

Morphisms are composable chains of simple cobordisms: cylinders over
mapping classes, 2-handle attachments along transported circles, their
adjoint 1-handle attachments, and the caps between the empty set and the
sphere.  Cerf moves act as local rewrites on chains.  Every move instance
names an inverse instance, but that inverse need not apply: a switch of
two 2-handles at genus g >= 3 has none, since handle_swap(g, 1, 2) is no
involution there.  The moves are restricted to circle configurations
obtained by transporting the canonical pairs (a1, b1) and (a1, a2) by a
common mapping class, which covers all the pair data the construction
ever produces while keeping every rewrite computable from the transport
alone.

Each move kind is defined once, by its contraction rule: what an adjacent
pair of steps becomes.  CylMerge merges two cylinders; CylAbsorbPre
absorbs a cylinder into the 2-handle or Cap3 after it, CylAbsorbPost into
the 1-handle or Cap0 before it; CritCancel cancels a 1-handle against a
2-handle along a transported (a1, b1) pair; CritSwitch takes a 1-handle
and 2-handle along a transported (a1, a2) pair, or two 2-handles below a
canonical circle, to the switched order.  The expanding moves, CylSplit,
CritCreate, absorbs that start from one step and the switch from a
(2-handle, 1-handle) pair, are checked as these rules read backwards.

No cap-cancellation rule (Cap0, Cap3) <-> empty chain is provided: the
move list deliberately contains only cylinder and critical point moves,
and genus-0 objects admit no attaching circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bordobjects import EMPTY, BordObject, surface
from .errors import BoundaryMismatch, GenusMismatch, MoveNotApplicable
from .words import (
    SurfaceAutomorphism,
    abelianization,
    crossing_transport,
    handle_swap,
    identity_automorphism,
)


@dataclass(frozen=True)
class AttachingCircle:
    """A homologically nontrivial circle on a genus-g surface, presented
    as the image of the first standard handle curve under a transport
    mapping class psi."""

    genus: int
    psi: SurfaceAutomorphism

    def __post_init__(self):
        if self.genus < 1:
            raise GenusMismatch("attaching circles need genus >= 1")
        if self.psi.genus != self.genus:
            raise GenusMismatch(
                f"transport genus {self.psi.genus} != circle genus {self.genus}"
            )
        if abelianization(self.word, 2 * self.genus) == (0,) * (2 * self.genus):
            raise GenusMismatch(
                "attaching circle word is homologically trivial", witness=self.word
            )

    @property
    def word(self):
        return self.psi.apply((1,))

    def precompose(self, phi):
        """The same circle pulled back through a cylinder over phi."""
        return AttachingCircle(self.genus, self.psi.then(phi.inverse()))

    def postcompose(self, phi):
        return AttachingCircle(self.genus, self.psi.then(phi))

    def same_circle(self, other):
        return self.genus == other.genus and self.psi.same_mapping_class(other.psi)

    def __repr__(self):
        return f"Circle(g={self.genus}, {self.psi.name or self.word})"


def canonical_circle(genus):
    """The a_1 curve with identity transport."""
    return AttachingCircle(genus, identity_automorphism(genus))


def b_circle(genus):
    """The b_1 curve, transported by the relator-exact crossing move."""
    return AttachingCircle(genus, crossing_transport(genus, 1))


@dataclass(frozen=True)
class SimpleCobordism:
    """One of: Cyl(phi), Attach2(circle), Attach1(circle), Cap3, Cap0."""

    kind: str
    phi: SurfaceAutomorphism = None
    circle: AttachingCircle = None

    def __post_init__(self):
        k = self.kind
        if k == "cyl":
            if self.phi is None:
                raise GenusMismatch("cylinder needs a mapping class")
        elif k in ("attach2", "attach1"):
            if self.circle is None:
                raise GenusMismatch(f"{k} needs an attaching circle")
        elif k not in ("cap3", "cap0"):
            raise GenusMismatch(f"unknown cobordism kind {k!r}")

    @property
    def source(self) -> BordObject:
        if self.kind == "cyl":
            return surface(self.phi.genus)
        if self.kind == "attach2":
            return surface(self.circle.genus)
        if self.kind == "attach1":
            return surface(self.circle.genus - 1)
        if self.kind == "cap3":
            return surface(0)
        return EMPTY

    @property
    def target(self) -> BordObject:
        if self.kind == "cyl":
            return surface(self.phi.genus)
        if self.kind == "attach2":
            return surface(self.circle.genus - 1)
        if self.kind == "attach1":
            return surface(self.circle.genus)
        if self.kind == "cap3":
            return EMPTY
        return surface(0)

    def adjoint(self):
        if self.kind == "cyl":
            return SimpleCobordism("cyl", phi=self.phi.inverse())
        if self.kind == "attach2":
            return SimpleCobordism("attach1", circle=self.circle)
        if self.kind == "attach1":
            return SimpleCobordism("attach2", circle=self.circle)
        if self.kind == "cap3":
            return SimpleCobordism("cap0")
        return SimpleCobordism("cap3")

    def same_step(self, other):
        if self.kind != other.kind:
            return False
        if self.kind == "cyl":
            return self.phi.same_mapping_class(other.phi)
        if self.kind in ("attach2", "attach1"):
            return self.circle.same_circle(other.circle)
        return True

    def syntactic_key(self):
        if self.kind == "cyl":
            return ("cyl", self.phi.genus, self.phi.images)
        if self.kind in ("attach2", "attach1"):
            return (self.kind, self.circle.genus, self.circle.psi.images)
        return (self.kind,)

    def __repr__(self):
        if self.kind == "cyl":
            return f"Cyl({self.phi.name or self.phi.images})"
        if self.kind == "attach2":
            return f"Attach2({self.circle!r})"
        if self.kind == "attach1":
            return f"Attach1({self.circle!r})"
        return self.kind.capitalize()


def cyl(phi):
    return SimpleCobordism("cyl", phi=phi)


def attach2(circle):
    return SimpleCobordism("attach2", circle=circle)


def attach1(circle):
    return SimpleCobordism("attach1", circle=circle)


CAP3 = SimpleCobordism("cap3")
CAP0 = SimpleCobordism("cap0")


@dataclass(frozen=True)
class CobordismChain:
    """A composable chain of simple cobordisms; the empty chain is the
    identity and must carry equal source and target."""

    source: BordObject
    target: BordObject
    steps: tuple

    def __post_init__(self):
        at = self.source
        for i, s in enumerate(self.steps):
            if s.source != at:
                raise BoundaryMismatch(
                    f"step {i} expects source {s.source}, chain is at {at}",
                    witness=i,
                )
            at = s.target
        if at != self.target:
            raise BoundaryMismatch(
                f"chain ends at {at}, declared target {self.target}"
            )

    def __len__(self):
        return len(self.steps)

    def syntactic_key(self):
        return tuple(s.syntactic_key() for s in self.steps) + (self.source.to_json()["kind"], self.source.genus)

    def same_chain(self, other):
        return (
            self.source == other.source
            and self.target == other.target
            and len(self.steps) == len(other.steps)
            and all(a.same_step(b) for a, b in zip(self.steps, other.steps))
        )

    def __repr__(self):
        inner = ", ".join(repr(s) for s in self.steps)
        return f"Chain({self.source}->{self.target}: [{inner}])"


def chain(steps, source=None, target=None):
    steps = tuple(steps)
    if steps:
        source = steps[0].source if source is None else source
        target = steps[-1].target if target is None else target
    elif source is None or target is None:
        raise BoundaryMismatch("an empty chain needs an explicit object")
    return CobordismChain(source, target, steps)


def identity_chain(obj):
    return CobordismChain(obj, obj, ())


def chain_compose(c1: CobordismChain, c2: CobordismChain) -> CobordismChain:
    if c1.target != c2.source:
        raise BoundaryMismatch(
            f"cannot glue {c1.target} to {c2.source}",
            witness=(repr(c1.target), repr(c2.source)),
        )
    return CobordismChain(c1.source, c2.target, c1.steps + c2.steps)


def chain_adjoint(c: CobordismChain) -> CobordismChain:
    steps = tuple(s.adjoint() for s in reversed(c.steps))
    return CobordismChain(c.target, c.source, steps)


# -- Cerf moves -------------------------------------------------------------

MOVE_KINDS = (
    "CylMerge",
    "CylSplit",
    "CylAbsorbPre",
    "CylAbsorbPost",
    "CritCancel",
    "CritCreate",
    "CritSwitch",
)

_INVERSE_KIND = {
    "CylMerge": "CylSplit",
    "CylSplit": "CylMerge",
    "CritCancel": "CritCreate",
    "CritCreate": "CritCancel",
    "CritSwitch": "CritSwitch",
    "CylAbsorbPre": "CylAbsorbPre",
    "CylAbsorbPost": "CylAbsorbPost",
}


@dataclass(frozen=True)
class CerfMoveInstance:
    """A concrete rewrite: replace old_steps at position pos by new_steps."""

    kind: str
    pos: int
    old_steps: tuple
    new_steps: tuple

    def inverse(self):
        return CerfMoveInstance(
            _INVERSE_KIND[self.kind], self.pos, self.new_steps, self.old_steps
        )

    def __repr__(self):
        return f"{self.kind}@{self.pos}"


def is_crossing_pair(c1: AttachingCircle, c2: AttachingCircle) -> bool:
    """True iff the circles are a common transport of the canonical
    single-intersection pair (a_1, b_1)."""
    if c1.genus != c2.genus:
        return False
    rot = crossing_transport(c1.genus, 1)
    for a, b in ((c1, c2), (c2, c1)):
        for turn in (rot, rot.inverse()):
            if b.psi.same_mapping_class(turn.then(a.psi)):
                return True
    return False


def is_disjoint_canonical_pair(c1: AttachingCircle, c2: AttachingCircle) -> bool:
    """True iff the circles are a common transport of (a_1, a_2)."""
    if c1.genus != c2.genus or c1.genus < 2:
        return False
    tau = handle_swap(c1.genus, 1, 2)
    return c2.psi.same_mapping_class(tau.then(c1.psi)) or c1.psi.same_mapping_class(
        tau.then(c2.psi)
    )


# The kinds with a contraction rule, and the expanding kinds that are
# checked by another kind's rule read backwards.
_CONTRACTIONS = ("CylMerge", "CylAbsorbPre", "CylAbsorbPost", "CritCancel", "CritSwitch")
_EXPANSIONS = {"CylSplit": "CylMerge", "CritCreate": "CritCancel"}


def _contraction(kind, a, b):
    """The steps that the adjacent pair (a, b) becomes under the
    contracting move ``kind``, or None when the move does not apply."""
    key = (kind, a.kind, b.kind)
    if key == ("CylMerge", "cyl", "cyl"):
        return (cyl(a.phi.then(b.phi)),)
    if key == ("CylAbsorbPre", "cyl", "attach2"):
        return (attach2(b.circle.precompose(a.phi)),)
    if key == ("CylAbsorbPre", "cyl", "cap3"):
        return (CAP3,)
    if key == ("CylAbsorbPost", "attach1", "cyl"):
        return (attach1(a.circle.postcompose(b.phi)),)
    if key == ("CylAbsorbPost", "cap0", "cyl"):
        return (CAP0,)
    if key == ("CritCancel", "attach1", "attach2") and is_crossing_pair(a.circle, b.circle):
        return (cyl(identity_automorphism(a.circle.genus - 1)),)
    if key == ("CritSwitch", "attach1", "attach2") and is_disjoint_canonical_pair(
        a.circle, b.circle
    ):
        below = canonical_circle(a.circle.genus - 1)
        return (attach2(below), attach1(below))
    if (
        key == ("CritSwitch", "attach2", "attach2")
        and a.circle.genus >= 2
        and b.circle.psi.is_identity()
    ):
        g = a.circle.genus
        swapped = AttachingCircle(g, handle_swap(g, 1, 2).then(a.circle.psi))
        return (attach2(swapped), attach2(canonical_circle(g - 1)))
    return None


def _check_move(move: CerfMoveInstance):
    """A contraction must take its old pair to its new steps; an
    expansion is checked as the contraction of its new pair back to its
    old steps.  The rule is asked only about a pair that composes, so a
    move that does not apply raises MoveNotApplicable whatever its kind."""
    kind, old, new = move.kind, move.old_steps, move.new_steps
    expanding = (
        kind in _EXPANSIONS
        or (kind in ("CylAbsorbPre", "CylAbsorbPost") and len(old) != 2)
        or (kind == "CritSwitch" and tuple(s.kind for s in old) == ("attach2", "attach1"))
    )
    pair, image = (new, old) if expanding else (old, new)
    rule = _EXPANSIONS.get(kind, kind)
    result = None
    composable = len(pair) == 2 and pair[0].target == pair[1].source
    if composable and len(image) == (2 if rule == "CritSwitch" else 1):
        result = _contraction(rule, *pair)
    if result is None or not all(x.same_step(y) for x, y in zip(image, result)):
        raise MoveNotApplicable(
            f"no {kind} move rewrites the steps at {move.pos} as stated",
            witness=None if result is None else repr(list(result)),
        )


def cerf_apply(c: CobordismChain, move: CerfMoveInstance) -> CobordismChain:
    """Apply a validated move instance; source and target are preserved."""
    i = move.pos
    k = len(move.old_steps)
    if i < 0 or i + k > len(c.steps):
        raise MoveNotApplicable(f"position {i} out of range", witness=i)
    window = c.steps[i:i + k]
    for a, b in zip(window, move.old_steps):
        if not a.same_step(b):
            raise MoveNotApplicable(
                f"chain steps at {i} do not match the move's stated pattern",
                witness=(repr(a), repr(b)),
            )
    _check_move(move)
    steps = c.steps[:i] + move.new_steps + c.steps[i + k:]
    return CobordismChain(c.source, c.target, steps)


class CerfRegistry:
    """Automorphism seeds for the generative move directions (splits,
    cylinder extractions, critical point creations)."""

    def __init__(self):
        self._table = {}

    def autos(self, genus):
        if genus not in self._table:
            lib = [identity_automorphism(genus)]
            if genus >= 1:
                lib.append(crossing_transport(genus, 1))
            self._table[genus] = tuple(lib)
        return self._table[genus]


def cerf_neighbors(c: CobordismChain, registry: CerfRegistry = None):
    """All applicable move instances with their results, in deterministic
    order (position, then kind, then parameter key)."""
    registry = registry or CerfRegistry()
    found = []

    def emit(kind, pos, old, new):
        move = CerfMoveInstance(kind, pos, tuple(old), tuple(new))
        try:
            result = cerf_apply(c, move)
        except MoveNotApplicable:
            return
        found.append((move, result))

    steps = c.steps
    for i, s in enumerate(steps):
        nxt = steps[i + 1] if i + 1 < len(steps) else None
        if nxt is not None:
            for kind in _CONTRACTIONS:
                new = _contraction(kind, s, nxt)
                if new is not None:
                    emit(kind, i, (s, nxt), new)

        # the expanding directions
        if s.kind == "cyl":
            for phi in registry.autos(s.phi.genus):
                emit("CylSplit", i, (s,), (cyl(phi), cyl(phi.inverse().then(s.phi))))
        if s.kind == "attach2":
            for phi in registry.autos(s.circle.genus):
                emit(
                    "CylAbsorbPre",
                    i,
                    (s,),
                    (cyl(phi), attach2(s.circle.precompose(phi.inverse()))),
                )
        if s.kind == "attach1":
            for phi in registry.autos(s.circle.genus):
                emit(
                    "CylAbsorbPost",
                    i,
                    (s,),
                    (attach1(s.circle.postcompose(phi.inverse())), cyl(phi)),
                )
        if s.kind == "cap3":
            emit("CylAbsorbPre", i, (s,), (cyl(identity_automorphism(0)), CAP3))
        if s.kind == "cap0":
            emit("CylAbsorbPost", i, (s,), (CAP0, cyl(identity_automorphism(0))))
        if s.kind == "cyl" and s.phi.is_identity():
            g = s.phi.genus + 1
            rot = crossing_transport(g, 1)
            for psi in registry.autos(g):
                pair = AttachingCircle(g, psi), AttachingCircle(g, rot.then(psi))
                emit("CritCreate", i, (s,), (attach1(pair[0]), attach2(pair[1])))
                emit("CritCreate", i, (s,), (attach1(pair[1]), attach2(pair[0])))
        if (
            s.kind == "attach2"
            and nxt is not None
            and nxt.kind == "attach1"
            and s.circle.psi.is_identity()
            and nxt.circle.psi.is_identity()
            and s.circle.genus == nxt.circle.genus
        ):
            g = s.circle.genus + 1
            tau = handle_swap(g, 1, 2)
            for psi in registry.autos(g):
                pair = AttachingCircle(g, psi), AttachingCircle(g, tau.then(psi))
                emit("CritSwitch", i, (s, nxt), (attach1(pair[0]), attach2(pair[1])))

    def sort_key(item):
        move, result = item
        return (move.pos, move.kind, tuple(s.syntactic_key() for s in move.new_steps))

    found.sort(key=sort_key)
    return found


def cerf_connected(c1: CobordismChain, c2: CobordismChain, depth: int,
                   registry: CerfRegistry = None):
    """Bidirectional bounded search for a move path from c1 to c2.

    Returns a list of CerfMoveInstance on success, None if no path was
    found within the depth bound; failure to find a path is not a proof
    that the chains present different cobordisms.  A move found from c2
    is kept only when its inverse applies, so every returned path applies
    under ``cerf_apply``.
    """
    if c1.source != c2.source or c1.target != c2.target:
        raise BoundaryMismatch("chains must share source and target")
    registry = registry or CerfRegistry()
    if c1.same_chain(c2):
        return []

    def key(ch):
        return ch.syntactic_key()

    # frontier maps chain key -> (chain, path); a path from c2 holds the
    # inverses of the moves found, so it leads back to c2 once reversed
    fwd = {key(c1): (c1, [])}
    bwd = {key(c2): (c2, [])}
    fwd_depth = bwd_depth = 0

    while fwd_depth + bwd_depth < depth:
        # expand the smaller frontier
        expand_fwd = len(fwd) <= len(bwd)
        frontier = fwd if expand_fwd else bwd
        new_frontier = {}
        for ch, path in frontier.values():
            for move, nxt in cerf_neighbors(ch, registry):
                k = key(nxt)
                if k in frontier or k in new_frontier:
                    continue
                if not expand_fwd:
                    move = move.inverse()
                    # every other inverse reads the pair that cerf_neighbors
                    # checked, through the same rule; that of a switch of two
                    # 2-handles contracts the switched pair.  The window
                    # matches: nxt holds its old steps at its pos
                    kinds = tuple(s.kind for s in move.old_steps)
                    if (move.kind, kinds) == ("CritSwitch", ("attach2", "attach2")):
                        try:
                            _check_move(move)
                        except MoveNotApplicable:
                            continue
                new_frontier[k] = (nxt, path + [move])
        if expand_fwd:
            fwd_depth += 1
            fwd.update(new_frontier)
        else:
            bwd_depth += 1
            bwd.update(new_frontier)
        meet = set(fwd) & set(bwd)
        if meet:
            k = sorted(meet)[0]
            _, fpath = fwd[k]
            _, bpath = bwd[k]
            return fpath + bpath[::-1]
        if not new_frontier:
            return None
    return None
