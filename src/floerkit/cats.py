"""Finite, table-driven categories, functors, natural transformations,
bicategories, the Yoneda construction, and quotients by 2-isomorphisms.

Everything is exactly validated: a FinCategory numbers its morphisms and
writes its composition on those numbers in one pass (``_numbered``), then
checks the identity laws on every morphism and associativity by Light's
test, a FinFunctor checks preservation on every morphism, a
NatTransformation checks every naturality square.  The 2-cells of a
FinBicategory under vertical composition are one FinCategory, so that
check covers them.  Light's test (``_first_nonassociative``) on integer
tables is the one associativity check of the package: a group's table, as
a flat list, goes through it too.  The functor and transformation searches
read a numbering of their target (``_index``) that the same helper builds
on first use.  A FinBicategory decides 2-isomorphism, its horizontal laws
and its quotient from one cached index of 2-isomorphism classes.
Composition is written diagrammatically throughout: ``compose(f, g)``
means "f then g".
"""

from __future__ import annotations

import functools
import itertools
import operator
from types import MappingProxyType

from .errors import (
    CategoryMismatch,
    IllFormedQuotient,
    InvalidObject,
    MiddleMismatch,
)


def _first_nonassociative(src, dst, identities, table):
    """The first composable (f, g, h) of cells 0..n-1, in index order, with
    (fg)h != f(gh), or None.  Cell f runs from src[f] to dst[f] and
    ``table[f * n + g]`` is the number of f then g.  The identity laws must
    hold, so no triple holding one of ``identities`` fails, and they enter
    no loop.  Light's test decides (Clifford and Preston, "The Algebraic
    Theory of Semigroups", vol. 1, 1961): the middles a with (xa)y == x(ay)
    for all x and y are closed under composition, so only generators are
    checked.  Only a failing table runs the scan for the first witness.
    """
    n = len(src)
    cells = [f for f in range(n) if f not in identities]
    out_of, into, made = {}, {}, bytearray(n)
    gens, products = {}, {}  # generators by source, products by target
    for f in cells:
        out_of.setdefault(src[f], []).append(f)
        into.setdefault(dst[f], []).append(f)
    for a in cells:
        if not made[a]:  # a generator: close the products under it
            gens.setdefault(src[a], []).append(a)
            todo = [a] + [table[x * n + a] for x in products.get(src[a], ())]
            while todo:
                x = todo.pop()
                if not made[x] and x not in identities:
                    made[x] = 1
                    products.setdefault(dst[x], []).append(x)
                    todo += [table[x * n + g] for g in gens.get(dst[x], ())]
    for a in itertools.chain.from_iterable(gens.values()):
        right = [(y, table[a * n + y]) for y in out_of.get(dst[a], ())]
        for x in into.get(src[a], ()):
            xa, xn = table[x * n + a] * n, x * n
            for y, ay in right:
                if table[xa + y] != table[xn + ay]:
                    return next(
                        (f, g, h)
                        for f in cells
                        for g in out_of.get(dst[f], ())
                        for h in out_of.get(dst[g], ())
                        if table[table[f * n + g] * n + h] != table[f * n + table[g * n + h]]
                    )
    return None


def _numbered(objects, morphisms, comp):
    """(position, src, dst, table, bad) from one pass over ``comp``: the
    number of each morphism in table order, the object positions of the
    ends of each number, ``table[f * n + g]`` the number of f then g, and
    the first key of ``comp`` whose value is not a morphism with the right
    ends (its entry left out), or None.  Raises the domain mismatch when
    the keys are not the composable pairs: they are counted, and a set of
    them is built only for the witness.
    """
    at = {x: i for i, x in enumerate(objects)}
    position = {f: i for i, f in enumerate(morphisms)}
    src = [at[s] for s, _ in morphisms.values()]
    dst = [at[d] for _, d in morphisms.values()]
    starting = [[] for _ in objects]
    for f, s in enumerate(src):
        starting[s].append(f)
    n, table, bad = len(position), {}, None
    try:
        for key, h in comp.items():
            f, g = key if isinstance(key, tuple) else ()
            i, j = position[f], position[g]
            if dst[i] != src[j]:
                break
            try:
                k = position[h]
            except (KeyError, TypeError):  # reported after the domain check
                k = -1
            if k >= 0 and src[k] == src[i] and dst[k] == dst[j]:
                table[i * n + j] = k
            elif bad is None:
                bad = key
        else:
            if len(comp) == sum(len(starting[d]) for d in dst):
                return position, src, dst, table, bad
    except (KeyError, ValueError):  # a key that is not a pair of morphisms
        pass
    ids = list(position)
    composable = {(ids[f], ids[g]) for f, d in enumerate(dst) for g in starting[d]}
    raise _domain_mismatch("composition table", comp, composable)


def _domain_mismatch(name, table, expected):
    """The CategoryMismatch for a table whose keys are not the expected
    pairs, witnessed by the first three extra and missing pairs."""
    keys = set(table)
    return CategoryMismatch(
        f"{name} domain mismatch",
        witness={
            "extra": sorted(keys - expected, key=repr)[:3],
            "missing": sorted(expected - keys, key=repr)[:3],
        },
    )


class FinCategory:
    """A finite category given by explicit tables.

    objects: sequence of hashable ids
    morphisms: mapping id -> (src, dst)
    comp: mapping (f, g) -> h defined exactly when dst(f) == src(g)
    identity: mapping obj -> morphism id
    """

    def __init__(self, objects, morphisms, comp, identity, name="C"):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)
        self.comp = dict(comp)
        self.identity = dict(identity)
        self.validate()

    def src(self, f):
        return self.morphisms[f][0]

    def dst(self, f):
        return self.morphisms[f][1]

    def compose(self, f, g):
        """f then g."""
        if self.dst(f) != self.src(g):
            raise CategoryMismatch(
                f"morphisms {f!r}, {g!r} are not composable", witness=(f, g)
            )
        return self.comp[(f, g)]

    @functools.cached_property
    def by_ends(self):
        """Read-only map (src, dst) -> the morphisms with those endpoints, in
        repr order of the (id, (src, dst)) items; built on first use."""
        out = {}
        for f, ends in sorted(self.morphisms.items(), key=repr):
            out.setdefault(ends, []).append(f)
        return MappingProxyType({ends: tuple(fs) for ends, fs in out.items()})

    @functools.cached_property
    def _index(self):
        """(ids, position, table, hom): the morphisms in table order, their
        numbers, ``_numbered``'s table and ``by_ends`` on numbers; built on
        first use, for the functor and transformation searches."""
        position, _, _, table, _ = _numbered(self.objects, self.morphisms, self.comp)
        hom = {ends: tuple(position[f] for f in fs) for ends, fs in self.by_ends.items()}
        return list(position), position, table, hom

    @functools.cached_property
    def _squares(self):
        """(objects in repr order, squares): squares[t] holds (k, i, j) for
        each morphism number k from object i to j with max(i, j) == t, in
        table order; built on first use, for ``all_nats``."""
        objs = sorted(self.objects, key=repr)
        at = {x: i for i, x in enumerate(objs)}
        squares = [[] for _ in objs]
        for k, (x, y) in enumerate(self.morphisms.values()):
            i, j = at[x], at[y]
            squares[max(i, j)].append((k, i, j))
        return objs, squares

    def validate(self):
        objset = set(self.objects)
        if len(self.objects) != len(objset):
            raise CategoryMismatch("duplicate object ids")
        mor = self.morphisms
        for f, (s, d) in mor.items():
            if s not in objset or d not in objset:
                raise CategoryMismatch(
                    f"morphism {f!r} has endpoints outside the object set",
                    witness=f,
                )
        for x in self.objects:
            i = self.identity.get(x)
            if i not in mor or mor[i] != (x, x):
                raise CategoryMismatch(
                    f"identity of {x!r} missing or not an endomorphism", witness=x
                )
        position, src, dst, table, bad = _numbered(self.objects, mor, self.comp)
        if bad is not None:
            f, g = bad
            h = self.comp[bad]
            if h not in mor:
                raise CategoryMismatch(f"composite {h!r} not a morphism", witness=(f, g))
            raise CategoryMismatch(
                f"composite of {f!r}, {g!r} has wrong endpoints", witness=(f, g, h)
            )
        ids, n = list(position), len(position)
        unit = [position[self.identity[x]] for x in self.objects]
        for f, (s, d) in enumerate(zip(src, dst)):
            if table[unit[s] * n + f] != f:
                raise CategoryMismatch(
                    f"left identity law fails at {ids[f]!r}", witness=("left", ids[f])
                )
            if table[f * n + unit[d]] != f:
                raise CategoryMismatch(
                    f"right identity law fails at {ids[f]!r}", witness=("right", ids[f])
                )
        witness = _first_nonassociative(src, dst, set(unit), table)
        if witness is not None:
            raise CategoryMismatch(
                "associativity fails", witness=tuple(ids[f] for f in witness)
            )

    def __repr__(self):
        return (
            f"FinCategory({self.name}: {len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


def discrete_category(objects, name="discrete"):
    morphisms = {("id", x): (x, x) for x in objects}
    comp = {((("id", x)), ("id", x)): ("id", x) for x in objects}
    identity = {x: ("id", x) for x in objects}
    return FinCategory(objects, morphisms, comp, identity, name=name)


class FinFunctor:
    """A functor between finite categories, validated exhaustively."""

    def __init__(self, source, target, obj_map, mor_map, name="F"):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self.name = name
        self.validate()

    def on_obj(self, x):
        return self.obj_map[x]

    @functools.cached_property
    def _images(self):
        """The images of the source's objects in repr order and the target
        numbers of the images of its morphisms in table order; built on
        first use, for ``all_nats``."""
        position = self.target._index[1]
        return ([self.obj_map[x] for x in self.source._squares[0]],
                [position[self.mor_map[f]] for f in self.source.morphisms])

    def validate(self):
        C, D = self.source, self.target
        objset = set(D.objects)
        for x in C.objects:
            if self.obj_map.get(x) not in objset:
                raise CategoryMismatch(
                    f"functor drops object {x!r}", witness=x
                )
        for f, (s, d) in C.morphisms.items():
            g = self.mor_map.get(f)
            if g not in D.morphisms:
                raise CategoryMismatch(f"functor drops morphism {f!r}", witness=f)
            if D.morphisms[g] != (self.obj_map[s], self.obj_map[d]):
                raise CategoryMismatch(
                    f"functor breaks endpoints of {f!r}", witness=f
                )
        for x in C.objects:
            if self.mor_map[C.identity[x]] != D.identity[self.obj_map[x]]:
                raise CategoryMismatch(
                    f"functor breaks identity of {x!r}", witness=x
                )
        for (f, g), h in C.comp.items():
            if D.comp[(self.mor_map[f], self.mor_map[g])] != self.mor_map[h]:
                raise CategoryMismatch(
                    "functor breaks composition", witness=(f, g)
                )

    def then(self, other: "FinFunctor") -> "FinFunctor":
        if other.source is not self.target and other.source != self.target:
            raise CategoryMismatch("functors do not compose")
        return FinFunctor(
            self.source,
            other.target,
            {x: other.obj_map[y] for x, y in self.obj_map.items()},
            {f: other.mor_map[g] for f, g in self.mor_map.items()},
            name=f"{self.name};{other.name}",
        )

    def __eq__(self, other):
        return (
            isinstance(other, FinFunctor)
            and self.source == other.source
            and self.target == other.target
            and self.obj_map == other.obj_map
            and self.mor_map == other.mor_map
        )

    def __hash__(self):
        return hash(tuple(sorted(self.obj_map.items(), key=repr)))

    def __repr__(self):
        return f"FinFunctor({self.name}: {self.source.name} -> {self.target.name})"


def identity_functor(C):
    return FinFunctor(
        C, C, {x: x for x in C.objects}, {f: f for f in C.morphisms}, name=f"1_{C.name}"
    )


class NatTransformation:
    """eta: F => G, a morphism of the target category per source object."""

    def __init__(self, F: FinFunctor, G: FinFunctor, components, name="eta"):
        if F.source != G.source or F.target != G.target:
            raise CategoryMismatch("natural transformation needs parallel functors")
        self.F = F
        self.G = G
        self.components = dict(components)
        self.name = name
        self.validate()

    @classmethod
    def _checked(cls, F, G, components):
        """eta from components that ``all_nats`` has checked: no validate."""
        eta = cls.__new__(cls)
        eta.F, eta.G, eta.components, eta.name = F, G, components, "eta"
        return eta

    def at(self, x):
        return self.components[x]

    def validate(self):
        C, D = self.F.source, self.F.target
        for x in C.objects:
            m = self.components.get(x)
            if m not in D.morphisms or D.morphisms[m] != (
                self.F.obj_map[x],
                self.G.obj_map[x],
            ):
                raise CategoryMismatch(
                    f"component at {x!r} missing or mistyped", witness=x
                )
        for k, (x, y) in C.morphisms.items():
            lhs = D.comp[(self.F.mor_map[k], self.components[y])]
            rhs = D.comp[(self.components[x], self.G.mor_map[k])]
            if lhs != rhs:
                raise CategoryMismatch(
                    f"naturality square fails at morphism {k!r}", witness=k
                )

    def __eq__(self, other):
        return (
            isinstance(other, NatTransformation)
            and self.F == other.F
            and self.G == other.G
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.F, self.G, tuple(sorted(self.components.items(), key=repr))))

    def __repr__(self):
        return f"Nat({self.name}: {self.F.name} => {self.G.name})"


def identity_nat(F):
    D = F.target
    return NatTransformation(
        F, F, {x: D.identity[F.obj_map[x]] for x in F.source.objects}, name=f"id_{F.name}"
    )


def nat_vertical_compose(eta: NatTransformation, zeta: NatTransformation):
    """(eta o_v zeta)(x) = eta(x) then zeta(x); needs eta: F=>G, zeta: G=>H."""
    if eta.G != zeta.F:
        raise MiddleMismatch(
            f"middle functors disagree: {eta.G.name} vs {zeta.F.name}",
            witness=(eta.G.name, zeta.F.name),
        )
    D = eta.F.target
    comps = {
        x: D.comp[(eta.components[x], zeta.components[x])]
        for x in eta.F.source.objects
    }
    return NatTransformation(
        eta.F, zeta.G, comps, name=f"{eta.name}.{zeta.name}"
    )


def nat_horizontal_compose(eta01: NatTransformation, eta12: NatTransformation):
    """Horizontal composite (F01;F12) => (G01;G12).

    Computed by both standard formulas, which must agree:
      x -> eta12(F01 x) then G12(eta01 x)  ==  x -> F12(eta01 x) then eta12(G01 x)
    """
    if eta01.F.target != eta12.F.source:
        raise CategoryMismatch(
            "codomain of the first pair must equal the domain of the second",
            witness=(eta01.F.target.name, eta12.F.source.name),
        )
    C0 = eta01.F.source
    D = eta12.F.target
    comps = {}
    for x in C0.objects:
        first = D.comp[
            (eta12.components[eta01.F.obj_map[x]], eta12.G.mor_map[eta01.components[x]])
        ]
        second = D.comp[
            (eta12.F.mor_map[eta01.components[x]], eta12.components[eta01.G.obj_map[x]])
        ]
        if first != second:
            raise CategoryMismatch(
                f"horizontal composition formulas disagree at {x!r}", witness=x
            )
        comps[x] = first
    return NatTransformation(
        eta01.F.then(eta12.F),
        eta01.G.then(eta12.G),
        comps,
        name=f"{eta01.name}*{eta12.name}",
    )


# -- exhaustive enumeration of functors and transformations -----------------


def _extend_images(images, candidates, checks, table, n):
    """Each tuple of morphism images (target numbers) extended by each
    candidate image that preserves every checked composition (index,
    index, index of composite)."""
    for prefix in images:
        for g in candidates:
            nxt = prefix + (g,)
            for a, b, c in checks:
                if table[nxt[a] * n + nxt[b]] != nxt[c]:
                    break
            else:
                yield nxt


def all_functors(C, D, limit=None):
    """All functors C -> D, at most ``limit`` of them.

    For each object map (tuples over D.objects in C.objects order), the
    morphisms of C are mapped one at a time in repr order, identities to
    identities and each other morphism to the morphisms of D between the
    images of its ends, in D's order; a composition entry of C is checked
    as soon as its last morphism is mapped.  Functors come in that order.
    """
    objs = list(C.objects)
    mor_items = sorted(C.morphisms.items(), key=repr)
    mors = [f for f, _ in mor_items]
    position = {f: i for i, f in enumerate(mors)}
    checks = [[] for _ in mors]
    for (a, b), c in C.comp.items():
        at = (position[a], position[b], position[c])
        checks[max(at)].append(at)
    ids, numbers, table, hom = D._index
    unit = {x: (numbers[D.identity[x]],) for x in D.objects}

    def functors():
        for values in itertools.product(D.objects, repeat=len(objs)):
            obj_map = dict(zip(objs, values))
            images = [()]
            for (f, (s, d)), at in zip(mor_items, checks):
                if f == C.identity[s]:
                    candidates = unit[obj_map[s]]
                else:
                    candidates = hom.get((obj_map[s], obj_map[d]), ())
                images = _extend_images(images, candidates, at, table, len(ids))
            for image in images:
                yield FinFunctor(C, D, obj_map, dict(zip(mors, map(ids.__getitem__, image))))

    return list(itertools.islice(functors(), limit))


def all_nats(F, G):
    """All natural transformations F => G, in product order of their
    components: objects in repr order, each component among the morphisms
    F(x) -> G(x) in repr order.  Components are chosen object by object;
    the naturality square of a morphism x -> y is checked as soon as the
    components at x and y are both chosen."""
    if F.source != G.source or F.target != G.target:
        raise CategoryMismatch("natural transformation needs parallel functors")
    objs, squares = F.source._squares
    (f_obj, f_mor), (g_obj, g_mor) = F._images, G._images
    ids, _, table, hom = F.target._index
    n = len(ids)
    chosen = [()]
    for fx, gx, at in zip(f_obj, g_obj, squares):
        # (F(k) * n, i, j, G(k)) for each k: i -> j whose later end is x
        at = [(f_mor[k] * n, i, j, g_mor[k]) for k, i, j in at]
        grown = []
        for c in chosen:
            for m in hom.get((fx, gx), ()):
                nxt = c + (m,)
                for fk, i, j, gk in at:
                    if table[fk + nxt[j]] != table[nxt[i] * n + gk]:
                        break
                else:
                    grown.append(nxt)
        chosen = grown
    return [
        NatTransformation._checked(F, G, dict(zip(objs, map(ids.__getitem__, c))))
        for c in chosen
    ]


def functor_category(C, D, functor_limit=None):
    """The category Fun(C, D) with functors as objects and natural
    transformations as morphisms, built by exhaustive enumeration.

    Composites and identities are looked up by their components (target
    numbers, objects in repr order) among the transformations all_nats
    built: a composite of natural transformations is natural.  FinCategory
    checks every law.
    """
    fid = dict(enumerate(all_functors(C, D, limit=functor_limit)))
    ids, numbers, table, _ = D._index
    n = len(ids)
    objs, _ = C._squares
    morphisms, nat_by_id, by_components = {}, {}, {}
    leaving = {i: [] for i in fid}  # i -> (id, components) of the nats out of F_i
    for i, F in fid.items():
        for j, G in fid.items():
            for k, eta in enumerate(all_nats(F, G)):
                components = tuple(numbers[eta.components[x]] for x in objs)
                morphisms[(i, j, k)] = (i, j)
                nat_by_id[(i, j, k)] = eta
                by_components[(i, j, components)] = (i, j, k)
                leaving[i].append(((i, j, k), components))
    comp = {}
    for i in fid:
        for m1, c1 in leaving[i]:
            row = [a * n for a in c1]
            for m2, c2 in leaving[m1[1]]:
                composite = tuple(map(table.__getitem__, map(operator.add, row, c2)))
                comp[(m1, m2)] = by_components[(i, m2[1], composite)]
    identity = {
        i: by_components[(i, i, tuple(numbers[D.identity[x]] for x in F._images[0]))]
        for i, F in fid.items()
    }
    cat = FinCategory(
        tuple(fid), morphisms, comp, identity, name=f"Fun({C.name},{D.name})"
    )
    cat.functor_of = fid
    cat.nat_of = nat_by_id
    return cat


# -- finite bicategories ------------------------------------------------------


class FinBicategory:
    """Finite bicategory with explicit tables.

    one_morphisms: id -> (src_obj, dst_obj)
    two_morphisms: id -> (src_1mor, dst_1mor), parallel
    vcomp: (alpha, beta) -> gamma, diagrammatic
    id2: 1mor -> 2mor
    hcomp1: (f, g) -> h on composable 1-morphisms
    hcomp2: (alpha, beta) -> gamma, or None when the structure does not
        admit one (the quotient construction does not need it)
    weak_unit: obj -> 1mor, one designated unit per object

    The 2-cells under vertical composition are the FinCategory
    ``vertical`` over the 1-cells (``two``, ``vcomp`` and ``id2`` are its
    tables); its failures are raised again as "vertical <message>" with
    the same witness.

    Not changed once built, it caches on first use its cells indexed by
    where they start and one index of its 2-isomorphism classes
    (``_iso_class``), which ``two_isomorphic``, the horizontal laws of
    ``validate_bicategory`` and ``quotient_by_2isos`` all read.
    """

    def __init__(self, objects, one_morphisms, two_morphisms, vcomp, id2,
                 hcomp1, hcomp2, weak_unit, name="B"):
        self.name = name
        self.objects = tuple(objects)
        self.one = dict(one_morphisms)
        self.hcomp1 = dict(hcomp1)
        self.hcomp2 = dict(hcomp2) if hcomp2 is not None else None
        self.weak_unit = dict(weak_unit)
        for f, (s, d) in self.one.items():
            if s not in self.objects or d not in self.objects:
                raise CategoryMismatch(f"1-morphism {f!r} mistyped", witness=f)
        try:
            self.vertical = FinCategory(
                tuple(self.one), two_morphisms, vcomp, id2, name=f"{name} vertical"
            )
        except CategoryMismatch as err:
            raise CategoryMismatch(f"vertical {err}", witness=err.witness) from None
        self.two = self.vertical.morphisms
        self.vcomp = self.vertical.comp
        self.id2 = self.vertical.identity
        self.validate_hom_categories()

    # hom-category structure ------------------------------------------------

    def validate_hom_categories(self):
        """What ``vertical`` cannot check: 2-cells between parallel
        1-cells, the weak units and the horizontal composition tables."""
        for a, (f, g) in self.two.items():
            if self.one[f] != self.one[g]:
                raise CategoryMismatch(
                    f"2-morphism {a!r} is not between parallel 1-morphisms",
                    witness=a,
                )
        for x in self.objects:
            u = self.weak_unit.get(x)
            if u not in self.one or self.one[u] != (x, x):
                raise CategoryMismatch(
                    f"weak unit of {x!r} missing or mistyped", witness=x
                )
        starting, _, two_from = self._by_source
        composable1 = {
            (f, g) for f, (_, d) in self.one.items() for g, _ in starting[d]
        }
        if set(self.hcomp1) != composable1:
            raise _domain_mismatch("horizontal 1-composition", self.hcomp1, composable1)
        for (f, g), h in self.hcomp1.items():
            if self.one.get(h) != (self.one[f][0], self.one[g][1]):
                raise CategoryMismatch(
                    "horizontal composite mistyped", witness=(f, g)
                )
        if self.hcomp2 is not None:
            # counted, not collected into a set: the table can be large
            composable2 = 0
            for a, (fa, _) in self.two.items():
                for b in two_from[self.one[fa][1]]:
                    if self.hcomp2.get((a, b)) not in self.two:
                        raise CategoryMismatch(
                            "horizontal 2-composite missing or not a 2-cell",
                            witness=(a, b),
                        )
                    composable2 += 1
            if len(self.hcomp2) != composable2:  # a set only for the witness
                pairs = {(a, b) for a, (f, _) in self.two.items()
                         for b in two_from[self.one[f][1]]}
                raise _domain_mismatch("horizontal 2-composition", self.hcomp2, pairs)

    @functools.cached_property
    def _by_source(self):
        """Cells indexed by where they start, each list in table order.

        starting[x] holds the (f, dst f) of the 1-cells leaving object x,
        leaving[f] the (a, dst a) of the 2-cells leaving 1-cell f, and
        two_from[x] the 2-cells between 1-cells leaving x.  A loop over them
        visits exactly the composable pairs of a scan over all pairs, in the
        same order, so the first failure found (the witness) is the same.
        """
        starting = {x: [] for x in self.objects}
        two_from = {x: [] for x in self.objects}
        for f, (s, d) in self.one.items():
            starting[s].append((f, d))
        leaving = {f: [] for f in self.one}
        for a, (f, g) in self.two.items():
            leaving[f].append((a, g))
            two_from[self.one[f][0]].append(a)
        return starting, leaving, two_from

    @functools.cached_property
    def _iso_class(self):
        """The 2-isomorphism class index: 1-cell -> class number, the
        classes numbered in repr order of their least members.

        ``vertical`` is a category, so 2-isomorphism (an invertible 2-cell
        f => g) is an equivalence relation, and a class is the targets of
        the invertible 2-cells leaving its least member, its identity
        2-cell among them.
        """
        _, leaving, _ = self._by_source
        vcomp, id2 = self.vcomp, self.id2
        iso_class, n = {}, 0
        for f in sorted(self.one, key=repr):
            if f not in iso_class:
                iso_class.update(
                    (g, n) for a, g in leaving[f] if any(
                        k == f and vcomp[(a, b)] == id2[f] and vcomp[(b, a)] == id2[g]
                        for b, k in leaving[g]
                    )
                )
                n += 1
        return iso_class

    def two_isomorphic(self, f, g):
        """Whether an invertible 2-cell f => g exists: one index lookup."""
        return self._iso_class[f] == self._iso_class[g]

    def validate_bicategory(self):
        """Full axioms: interchange, identity compatibility, horizontal
        associativity and unit laws up to 2-isomorphism."""
        if self.hcomp2 is None:
            raise CategoryMismatch(
                "structure has no horizontal 2-composition", witness=self.name
            )
        starting, leaving, two_from = self._by_source
        one, two, iso = self.one, self.two, self._iso_class
        vcomp, id2, hcomp1, hcomp2 = self.vcomp, self.id2, self.hcomp1, self.hcomp2
        for a, (fa, ga) in two.items():
            for b in two_from[one[fa][1]]:
                fb, gb = two[b]
                if two[hcomp2[(a, b)]] != (hcomp1[(fa, fb)], hcomp1[(ga, gb)]):
                    raise CategoryMismatch(
                        "horizontal 2-composite mistyped", witness=(a, b)
                    )
        for f, (_, d) in one.items():
            for g, _ in starting[d]:
                if hcomp2[(id2[f], id2[g])] != id2[hcomp1[(f, g)]]:
                    raise CategoryMismatch(
                        "identity 2-cells not compatible with horizontal "
                        "composition",
                        witness=(f, g),
                    )
        # interchange on all composable 2x2 grids
        for a, (fa, ga) in two.items():
            for b, _ in leaving[ga]:
                ab = vcomp[(a, b)]
                for c in two_from[one[fa][1]]:
                    ac = hcomp2[(a, c)]
                    for d, _ in leaving[two[c][1]]:
                        if hcomp2[(ab, vcomp[(c, d)])] != vcomp[(ac, hcomp2[(b, d)])]:
                            raise CategoryMismatch(
                                "interchange law fails", witness=(a, b, c, d)
                            )
        for f, (_, df) in one.items():
            for g, dg in starting[df]:
                fg = hcomp1[(f, g)]
                for h, _ in starting[dg]:
                    if iso[hcomp1[(fg, h)]] != iso[hcomp1[(f, hcomp1[(g, h)])]]:
                        raise CategoryMismatch(
                            "horizontal associativity fails up to 2-isomorphism",
                            witness=(f, g, h),
                        )
        for x in self.objects:
            u = self.weak_unit[x]
            for f, (s, d) in one.items():
                if d == x and iso[hcomp1[(f, u)]] != iso[f]:
                    raise CategoryMismatch(
                        "weak unit fails on the right", witness=(x, f)
                    )
                if s == x and iso[hcomp1[(u, f)]] != iso[f]:
                    raise CategoryMismatch(
                        "weak unit fails on the left", witness=(x, f)
                    )

    def hom_category(self, x, y):
        """The category of 1-morphisms x -> y and 2-morphisms."""
        onemors = tuple(
            f for f, (s, d) in sorted(self.one.items(), key=repr) if (s, d) == (x, y)
        )
        oneset = set(onemors)
        twomors = {a: pair for a, pair in self.two.items() if pair[0] in oneset}
        comp = {
            (a, b): c
            for (a, b), c in self.vcomp.items()
            if a in twomors and b in twomors
        }
        identity = {f: self.id2[f] for f in onemors}
        return FinCategory(
            onemors, twomors, comp, identity, name=f"Mor({x!r},{y!r})"
        )

    def __repr__(self):
        return (
            f"FinBicategory({self.name}: {len(self.objects)} objects, "
            f"{len(self.one)} 1-cells, {len(self.two)} 2-cells)"
        )


def quotient_by_2isos(B: FinBicategory) -> FinCategory:
    """Objects unchanged; morphisms are the classes of B's 2-isomorphism
    class index, under its numbers.  Raises IllFormedQuotient when
    horizontal composition fails to descend to classes, witnessed at the
    least failing class pair by the repr-least two of its first composites
    (in repr order of (f, g)) into each target class."""
    iso = B._iso_class
    rank = {f: i for i, f in enumerate(sorted(B.one, key=repr))}
    members = {}
    for f in rank:
        members.setdefault(iso[f], []).append(f)
    first = {}  # class pair -> target class -> its first ((f, g), h)
    for f, g in sorted(B.hcomp1, key=lambda fg: (rank[fg[0]], rank[fg[1]])):
        h = B.hcomp1[(f, g)]
        first.setdefault((iso[f], iso[g]), {}).setdefault(iso[h], ((f, g), h))
    comp = {}
    for (ci, cj), firsts in sorted(first.items()):
        if len(firsts) > 1:
            raise IllFormedQuotient(
                "horizontal composition does not descend to 2-isomorphism classes",
                witness={
                    "class_pair": (members[ci][0], members[cj][0]),
                    "representative_composites": sorted(firsts.values(), key=repr)[:2],
                },
            )
        (comp[(ci, cj)],) = firsts
    identity = {x: iso[B.weak_unit[x]] for x in B.objects}
    morphisms = {ci: tuple(B.one[m[0]]) for ci, m in members.items()}
    cat = FinCategory(B.objects, morphisms, comp, identity, name=f"|{B.name}|")
    cat.class_members = {ci: tuple(m) for ci, m in members.items()}
    cat.class_of = {f: iso[f] for f in rank}
    return cat


def yoneda(B: FinBicategory, x0):
    """The Yoneda data at a base object of a bicategory.

    Returns a dict with the hom-categories, the functors given by
    horizontal composition with each 1-morphism, and the natural
    transformations given by whiskering each 2-morphism; every piece is
    validated by the FinFunctor / NatTransformation constructors.
    """
    if x0 not in B.objects:
        raise InvalidObject(f"{x0!r} is not an object of {B.name}", witness=x0)
    if B.hcomp2 is None:
        raise CategoryMismatch("Yoneda needs horizontal 2-composition")
    categories = {x: B.hom_category(x0, x) for x in B.objects}
    functors = {}
    for f, (x1, x2) in B.one.items():
        C1, C2 = categories[x1], categories[x2]
        obj_map = {g: B.hcomp1[(g, f)] for g in C1.objects}
        mor_map = {a: B.hcomp2[(a, B.id2[f])] for a in C1.morphisms}
        functors[f] = FinFunctor(C1, C2, obj_map, mor_map, name=f"Y({f!r})")
    transformations = {}
    for beta, (g12, h12) in B.two.items():
        x1, x2 = B.one[g12]
        C1 = categories[x1]
        comps = {f01: B.hcomp2[(B.id2[f01], beta)] for f01 in C1.objects}
        transformations[beta] = NatTransformation(
            functors[g12], functors[h12], comps, name=f"Y({beta!r})"
        )
    return {
        "base": x0,
        "categories": categories,
        "functors": functors,
        "transformations": transformations,
    }


# -- concrete constructions ---------------------------------------------------


def bicategory_with_identity_2cells(C: FinCategory) -> FinBicategory:
    """Promote a category to a bicategory with only identity 2-cells."""
    two = {("id2", f): (f, f) for f in C.morphisms}
    vcomp = {((("id2", f)), ("id2", f)): ("id2", f) for f in C.morphisms}
    id2 = {f: ("id2", f) for f in C.morphisms}
    hcomp2 = {
        (("id2", f), ("id2", g)): ("id2", h) for (f, g), h in C.comp.items()
    }
    return FinBicategory(
        C.objects,
        dict(C.morphisms),
        two,
        vcomp,
        id2,
        dict(C.comp),
        hcomp2,
        {x: C.identity[x] for x in C.objects},
        name=f"{C.name}+id2",
    )


def conjugacy_nonexample(n=3):
    """Maps of an n-point set with conjugacy as 2-cells: hom-categories
    exist, but horizontal composition does not descend to classes, so the
    quotient construction must fail with a witness.

    The structure has no horizontal 2-composition (that is the point), so
    hcomp2 is None and only quotient_by_2isos may consume it.
    """
    points = tuple(range(n))
    maps = sorted(itertools.product(points, repeat=n))
    bijections = [m for m in maps if len(set(m)) == n]

    def compose_maps(f, g):
        # f then g
        return tuple(g[f[i]] for i in points)

    def invert(p):
        out = [0] * n
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    obj = "S"
    one = {m: (obj, obj) for m in maps}
    two = {}
    for f in maps:
        for p in bijections:
            # alpha: f => p^-1 f p, conjugation by p
            g = compose_maps(compose_maps(invert(p), f), p)
            two[(f, p)] = (f, g)
    vcomp = {}
    for (f, p), (_, g) in two.items():
        for q in bijections:
            # conjugating by p then by q is conjugating by q o p
            vcomp[((f, p), (g, q))] = (f, compose_maps(p, q))
    id2 = {f: (f, tuple(points)) for f in maps}
    hcomp1 = {(f, g): compose_maps(f, g) for f in maps for g in maps}
    weak_unit = {obj: tuple(points)}
    return FinBicategory(
        (obj,), one, two, vcomp, id2, hcomp1, None, weak_unit,
        name=f"maps{n}+conjugacy",
    )
