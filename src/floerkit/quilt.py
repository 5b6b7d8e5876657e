"""Quilted surfaces as rotation systems, quilt diagrams, and their
relation-valued composition maps.

Encoding: ends are vertices carrying a counterclockwise cyclic order of
seam-ends; interval seams pair two seam-ends; faces (patches) are traced
as orbits of sigma o alpha.  Circle seams are invisible to face tracing,
so each one explicitly names its two adjacent patches; the circles inside
one traced face must form a tree of fresh patch regions hanging off the
face.  Ends without seams name their patch directly.

Orientation conventions, fixed once and used everywhere: a seam stored as
(a, b) is canonically oriented a -> b; the patch left of the traversal is
the face of a, the patch right is the face of b, and its label runs from
the right patch to the left patch.  Outgoing ends read their seams in
rotation order oriented into the end; incoming ends read in reversed
rotation order oriented away, which is what makes both cyclic label
sequences compose.

The record traced by ``QuiltSurface.analyze`` is the one half-edge index:
each seam-end's end, partner, face and the seam oriented into it.  End
sequences and nodes, gluing, shrinking and isomorphism read only that.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial

from .errors import (
    CyclicMismatch,
    InputNotGenerator,
    InvalidEnd,
    LabelMismatch,
    NotAStrip,
    NotEmbedded,
    ResourceLimit,
)
from .relcat import CyclicChain, _join, generator_set


@dataclass(frozen=True)
class GenericMorphism:
    """An abstract 1-morphism label for diagram rewriting without
    relation semantics; transposes pair up by name."""

    name: str
    source: object
    target: object
    flipped: bool = False

    def transpose(self):
        return GenericMorphism(self.name, self.target, self.source, not self.flipped)

    def __repr__(self):
        return f"{self.name}^T" if self.flipped else self.name


def _check(report, name, ok, detail=None):
    """Append a check/status/detail entry to a validation report."""
    entry = {"check": name, "status": "pass" if ok else "fail"}
    if detail is not None:
        entry["detail"] = detail
    report.append(entry)
    return ok


class QuiltSurface:
    """Rotation-system presentation of a quilted surface.

    ends: mapping end id -> tuple of seam-end ids in counterclockwise order
    outgoing: the one outgoing end id
    seams: mapping seam id -> (seam-end, seam-end)
    circle_seams: mapping circle id -> (patch_minus, patch_plus)
    end_patch: patch assignment for ends with no seam-ends
    """

    def __init__(self, ends, outgoing, seams, circle_seams=None, end_patch=None):
        self.ends = {e: tuple(order) for e, order in ends.items()}
        self.outgoing = outgoing
        self.seams = {s: tuple(pair) for s, pair in seams.items()}
        self.circle_seams = dict(circle_seams or {})
        self.end_patch = dict(end_patch or {})
        self._analysis = None

    # -- structural analysis -------------------------------------------

    def analyze(self):
        """Check well-formedness; returns (report, data).  Report entries
        are dicts with check/status/detail; data is the traced record when
        every check passes, else None; the cache also keeps it for
        ``core_data`` once the rotation system itself is sound.  Its keys:
        owner (seam-end -> (end, index in its rotation order)), alpha
        (seam-end -> the other seam-end of its seam), into (seam-end h ->
        the seam oriented into h: (seam, +1) if h is the stored head b of
        (a, b), (seam, -1) if h is the tail a), face_of (seam-end -> traced
        face), faces (face -> orbit under sigma o alpha), patches (faces and
        circle regions, sorted), patch_face (patch -> its traced face),
        euler and genus."""
        if self._analysis is not None:
            return self._analysis[:2]
        report = []
        check = partial(_check, report)

        owner = {}
        duplicates = []
        for e, order in self.ends.items():
            for idx, h in enumerate(order):
                if h in owner:
                    duplicates.append((h, owner[h][0], e))
                owner[h] = (e, idx)
        check("seam-ends attached once", not duplicates, duplicates or None)

        alpha = {}
        into = {}
        bad_seams = []
        for s, pair in self.seams.items():
            if len(pair) != 2 or pair[0] == pair[1]:
                bad_seams.append(s)
                continue
            a, b = pair
            # a seam-end already paired would make alpha no involution
            if a not in owner or b not in owner or a in alpha or b in alpha:
                bad_seams.append(s)
                continue
            alpha[a] = b
            alpha[b] = a
            into[a] = (s, -1)
            into[b] = (s, +1)
        check("interval seams pair two attached seam-ends", not bad_seams, bad_seams or None)
        dangling = sorted(set(owner) - set(alpha), key=repr)
        check("every seam-end belongs to a seam", not dangling, dangling or None)

        outgoing_ok = self.outgoing in self.ends
        check("exactly one outgoing end", outgoing_ok, self.outgoing)

        if duplicates or bad_seams or dangling or not outgoing_ok:
            self._analysis = (report, None, None)
            return self._analysis[:2]

        # face tracing: orbits of sigma o alpha
        def sigma(h):
            e, idx = owner[h]
            order = self.ends[e]
            return order[(idx + 1) % len(order)]

        face_of = {}
        faces = {}
        for h in sorted(owner, key=repr):
            if h in face_of:
                continue
            fid = f"f{len(faces)}"
            orbit = []
            cur = h
            while cur not in face_of:
                face_of[cur] = fid
                orbit.append(cur)
                cur = sigma(alpha[cur])
            faces[fid] = tuple(orbit)
        if not faces:
            faces = {"f0": ()}

        # connectivity of the seamed-end graph (bare ends are exempt)
        seamed = [e for e, order in self.ends.items() if order]
        if seamed:
            reach = {seamed[0]}
            frontier = [seamed[0]]
            while frontier:
                e = frontier.pop()
                for h in self.ends[e]:
                    e2 = owner[alpha[h]][0]
                    if e2 not in reach:
                        reach.add(e2)
                        frontier.append(e2)
            check(
                "seamed ends form one connected component",
                set(seamed) <= reach,
                sorted(set(seamed) - reach, key=repr) or None,
            )

        n_half = len(owner)
        V = len(seamed)
        E = n_half // 2
        F = len(faces)
        if seamed:
            euler = V - E + F
        else:
            euler = 2  # bare sphere
        genus_ok = euler % 2 == 0 and euler <= 2
        genus = (2 - euler) // 2
        check("euler characteristic admits a genus", genus_ok, euler)

        # circle seams: per traced face, fresh regions must form a tree
        patch_face = {fid: fid for fid in faces}
        circle_ok = True
        adjacency = {}
        for cid, (pm, pp) in self.circle_seams.items():
            adjacency.setdefault(pm, []).append((cid, pp))
            adjacency.setdefault(pp, []).append((cid, pm))
        fresh = [p for p in adjacency if p not in faces]
        seen_fresh = set()
        for fid in faces:
            if fid not in adjacency:
                continue
            # BFS the component of this face through circle seams
            comp = {fid}
            frontier = [fid]
            edges_used = 0
            while frontier:
                p = frontier.pop()
                for cid, q in adjacency.get(p, ()):
                    edges_used += 1
                    if q not in comp:
                        comp.add(q)
                        frontier.append(q)
            edges_used //= 2
            inner = comp - {fid}
            seen_fresh |= inner
            if comp & set(faces) != {fid} or edges_used != len(inner):
                circle_ok = False
            for p in inner:
                patch_face[p] = fid
        if set(fresh) - seen_fresh:
            circle_ok = False
        check(
            "circle seams form trees of regions inside faces",
            circle_ok,
            None if circle_ok else sorted(fresh, key=repr),
        )

        patches = tuple(sorted(patch_face, key=repr))

        bare_ok = True
        bare_detail = []
        for e, order in self.ends.items():
            if order:
                continue
            if e in self.end_patch:
                if self.end_patch[e] not in patch_face:
                    bare_ok = False
                    bare_detail.append(e)
            elif len(patches) == 1:
                self.end_patch[e] = patches[0]
            else:
                bare_ok = False
                bare_detail.append(e)
        check("ends without seams name their patch", bare_ok, bare_detail or None)

        data = {
            "owner": owner,
            "alpha": alpha,
            "into": into,
            "face_of": face_of,
            "faces": faces,
            "patches": patches,
            "patch_face": patch_face,
            "euler": euler,
            "genus": genus,
        }
        ok = all(entry["status"] == "pass" for entry in report)
        self._analysis = (report, data if ok else None, data)
        return self._analysis[:2]

    def data(self):
        return self._traced(self.analyze()[1])

    def core_data(self):
        """Traced record even when the circle or bare-end bookkeeping is
        not settled yet; raises only when the rotation system itself is
        malformed."""
        self.analyze()
        return self._traced(self._analysis[2])

    def _traced(self, record):
        if record is None:
            bad = [e for e in self._analysis[0] if e["status"] == "fail"]
            raise InvalidEnd(f"malformed quilt surface: {bad}", witness=bad)
        return record

    # -- seam geometry ---------------------------------------------------

    def seam_sides(self, s):
        """(patch_minus, patch_plus) for the stored orientation of s."""
        if s in self.circle_seams:
            return self.circle_seams[s]
        d = self.data()
        a, b = self.seams[s]
        return d["face_of"][b], d["face_of"][a]

    def incoming_ends(self):
        return tuple(sorted((e for e in self.ends if e != self.outgoing), key=repr))

    def end_sequence(self, e):
        """The cyclic sequence of (seam, oriented_with_stored) at an end.

        Entries are (seam_id, +1) when the sequence orientation agrees
        with the stored orientation, (seam_id, -1) otherwise; outgoing
        ends are read in rotation order oriented into the end (the traced
        ``into`` entries), incoming ends in reversed order oriented away
        from it (those entries reversed).
        """
        data, order = self._end(e)
        into = data["into"]
        if e == self.outgoing:
            return tuple(into[h] for h in order)
        return tuple((s, -d) for s, d in (into[h] for h in reversed(order)))

    def end_nodes(self, e):
        """Patch at each node of the end's cyclic sequence: node i is the
        source patch of the i-th oriented seam."""
        data, order = self._end(e)
        face_of = data["face_of"]
        if not order:
            return (self.end_patch[e],)
        if e == self.outgoing:
            return tuple(face_of[h] for h in order)
        alpha = data["alpha"]
        return tuple(face_of[alpha[h]] for h in reversed(order))

    def _end(self, e):
        """The traced record and the rotation order at end e; raises
        InvalidEnd for an unknown end or a malformed surface."""
        if e not in self.ends:
            raise InvalidEnd(f"no end {e!r}", witness=e)
        return self.data(), self.ends[e]


class QuiltDiagram:
    """A quilt surface with object labels on patches and 1-morphism labels
    on seams.  Each seam stores the label of its canonical orientation;
    the opposite orientation carries the transpose.

    Not changed once built, it caches on first use its end chains and the
    plan of ``quilt_evaluate``, which hold no reference back to it."""

    def __init__(self, surface: QuiltSurface, patch_labels, seam_labels):
        self.surface = surface
        self.patch_labels = dict(patch_labels)
        self.seam_labels = dict(seam_labels)
        self._chains = {}

    def label(self, s, direction=+1):
        lab = self.seam_labels[s]
        return lab if direction == +1 else lab.transpose()

    def relation_mode(self):
        return all(hasattr(l, "pairs") for l in self.seam_labels.values())

    def validate(self):
        """Full report: surface structure plus label typing."""
        report, data = self.surface.analyze()
        report = list(report)
        if data is None:
            return report
        check = partial(_check, report)

        missing = [p for p in data["patches"] if p not in self.patch_labels]
        check("patches labeled by objects", not missing, missing or None)
        all_seams = set(self.surface.seams) | set(self.surface.circle_seams)
        missing = sorted(all_seams - set(self.seam_labels), key=repr)
        check("seams labeled by 1-morphisms", not missing, missing or None)
        if any(entry["status"] == "fail" for entry in report):
            return report

        mistyped = []
        for s in sorted(all_seams, key=repr):
            pm, pp = self.surface.seam_sides(s)
            lab = self.seam_labels[s]
            if lab.source != self.patch_labels[pm] or lab.target != self.patch_labels[pp]:
                mistyped.append(s)
        check("seam labels run from P- to P+", not mistyped, mistyped or None)

        bad_ends = []
        for e in self.surface.ends:
            try:
                self.end_cyclic_chain(e)
            except Exception:
                bad_ends.append(e)
        check("end sequences compose cyclically", not bad_ends, bad_ends or None)

        check("euler characteristic", True, data["euler"])
        check("genus", True, data["genus"])
        check("patch count", True, len(data["patches"]))
        return report

    def is_valid(self):
        return all(e["status"] == "pass" for e in self.validate())

    def end_labels(self, e):
        """Oriented labels along the end's cyclic sequence."""
        seq = self.surface.end_sequence(e)
        if not seq:
            lab = self.patch_labels[self.surface.end_patch[e]]
            return (_unit_label(lab),)
        return tuple(self.label(s, d) for s, d in seq)

    def end_cyclic_chain(self, e):
        """The cyclic chain of relations at an end (relation mode)."""
        chain = self._chains.get(e)
        if chain is None:
            chain = self._chains[e] = CyclicChain(self.end_labels(e))
        return chain

    @cached_property
    def _evaluation_plan(self):
        """(incoming ends, their nodes, patch order, seam checks per level,
        output positions) for the search of ``quilt_evaluate``."""
        s = self.surface
        incoming = s.incoming_ends()
        in_nodes = tuple(s.end_nodes(e) for e in incoming)
        pinned = {p for nodes in in_nodes for p in nodes}
        order = sorted(s.data()["patches"], key=lambda p: (p not in pinned, repr(p)))
        by_patch = {p: i for i, p in enumerate(order)}
        levels = [[] for _ in order]
        for seam in sorted(set(s.seams) | set(s.circle_seams), key=repr):
            im, ip = (by_patch[p] for p in s.seam_sides(seam))
            levels[max(im, ip)].append((im, ip, self.seam_labels[seam].pairs))
        out_at = tuple(by_patch[p] for p in s.end_nodes(s.outgoing))
        return incoming, in_nodes, order, levels, out_at

    def __repr__(self):
        d = self.surface.analyze()[1]
        n = len(d["patches"]) if d else "?"
        return f"QuiltDiagram({len(self.surface.ends)} ends, {n} patches)"


def _unit_label(obj):
    """Weak unit at an object: the diagonal in relation mode."""
    from .repvar import RepVariety, diagonal_relation

    if isinstance(obj, RepVariety):
        return diagonal_relation(obj)
    return GenericMorphism(f"1_{obj}", obj, obj)


# -- evaluation ----------------------------------------------------------------


def _extend_assignments(assigns, candidates, checks):
    """Each partial assignment extended by each candidate point that puts
    every checked seam (index, index, pairs) in its relation."""
    for assign in assigns:
        for x in candidates:
            nxt = assign + (x,)
            for im, ip, pairs in checks:
                if (nxt[im], nxt[ip]) not in pairs:
                    break
            else:
                yield nxt


def quilt_evaluate(q: QuiltDiagram, inputs, budget=None):
    """The quilted composition map: assignments of one point per patch
    satisfying every seam relation, filtered by the given generator tuple
    at each incoming end, restricted to the outgoing end.

    inputs: mapping incoming end id -> generator tuple (in the order of
    the end's cyclic sequence).  Returns the set of outgoing tuples.  Every
    input is checked against its end's generator set before any is pinned,
    so inputs that pin one patch two ways give the empty set only when
    each of them is a generator.

    Partial assignments are extended one patch at a time, pinned patches
    first, each group in repr order, through generators chained level by
    level; each seam is checked at the level of the later of its two
    patches, so only one assignment per level is held at a time.
    The end chains, their generator tuples and this plan are cached on
    the diagram; the budget is checked on every call.
    """
    if not q.relation_mode():
        raise LabelMismatch("evaluation needs relation labels")
    incoming, in_nodes, order, levels, out_at = q._evaluation_plan
    if set(inputs) != set(incoming):
        raise InputNotGenerator(
            f"inputs must cover exactly the incoming ends {incoming}",
            witness=sorted(set(inputs) ^ set(incoming), key=repr),
        )

    pins = []
    for e, nodes in zip(incoming, in_nodes):
        tup = tuple(inputs[e])
        if len(tup) != len(nodes):
            raise InputNotGenerator(
                f"input at {e!r} has length {len(tup)}, end has {len(nodes)} nodes",
                witness=e,
            )
        if tup not in generator_set(q.end_cyclic_chain(e)):
            raise InputNotGenerator(
                f"input at {e!r} is not a generator of the end", witness=(e, tup)
            )
        pins.extend(zip(nodes, tup))

    # pin patch points from the checked inputs; inconsistent pins give nothing
    pinned = {}
    for p, x in pins:
        if pinned.setdefault(p, x) != x:
            return set()

    if budget is not None:
        est = 1
        for p in order:
            est *= max(len(q.patch_labels[p].points), 1)
        if est > budget:
            raise ResourceLimit(f"assignment space of size {est}", witness=est)

    assigns = [()]
    for p, checks in zip(order, levels):
        candidates = (pinned[p],) if p in pinned else q.patch_labels[p].points
        assigns = _extend_assignments(assigns, candidates, checks)
    return {tuple(assign[i] for i in out_at) for assign in assigns}


def identity_alignment(q: QuiltDiagram, e_in):
    """For diagrams whose incoming and outgoing nodes visit the same
    patches exactly once each (cylinders, zigzags): the index map sending
    an input tuple to the output tuple of the identity composition map."""
    in_nodes = q.surface.end_nodes(e_in)
    out_nodes = q.surface.end_nodes(q.surface.outgoing)
    if len(set(in_nodes)) != len(in_nodes) or set(in_nodes) != set(out_nodes):
        raise InvalidEnd(
            "ends do not visit the same patches bijectively",
            witness=(in_nodes, out_nodes),
        )
    idx = {p: i for i, p in enumerate(in_nodes)}
    return tuple(idx[p] for p in out_nodes)


def evaluates_to_identity(q: QuiltDiagram, e_in):
    """Check the composition map is the patch-aligned identity."""
    align = identity_alignment(q, e_in)
    gens = generator_set(q.end_cyclic_chain(e_in))
    for t in gens.tuples:
        expected = tuple(t[i] for i in align)
        if quilt_evaluate(q, {e_in: t}) != {expected}:
            return False
    return True


def evaluation_map(q: QuiltDiagram, budget=None):
    """The full map: input combination -> output set, as a dict keyed by
    tuples of (end, generator tuple) pairs in sorted end order."""
    surface = q.surface
    incoming = surface.incoming_ends()
    spaces = []
    for e in incoming:
        gens = generator_set(q.end_cyclic_chain(e))
        spaces.append([(e, t) for t in gens.tuples])
    table = {}
    for combo in itertools.product(*spaces) if spaces else [()]:
        inputs = {e: t for e, t in combo}
        table[combo] = frozenset(quilt_evaluate(q, inputs, budget=budget))
    return table


# -- surgery -------------------------------------------------------------------


def _resurface(
    ends,
    outgoing,
    seams,
    circle_seams,
    end_patch,
    patch_labels,
    seam_labels,
    old_patch_of_half,
    error,
    message,
):
    """The diagram left by a surgery: gluing, strip shrinking or annulus
    shrinking.

    Faces are traced afresh on the new ends and seams.  Each face takes the
    label of the old patch of its first half-edge (``old_patch_of_half``),
    and that old patch id is renamed to the face id.  A seamless sphere's
    face f0 keeps the old f0 when there is one (an annulus shrink keeps
    every face id unless it removes f0), else takes the first patch.
    Circle regions keep their ids, and circle seams and bare ends (given
    with old patch ids) follow the renaming.  Raises ``error(message)``
    with the validation report as its witness when the result is invalid.
    """
    faces = QuiltSurface(ends, outgoing, seams).core_data()["faces"]
    labels = {}
    rename = {}
    for fid, orbit in faces.items():
        if orbit:
            old = old_patch_of_half[orbit[0]]
        else:
            old = "f0" if "f0" in patch_labels else next(iter(patch_labels))
        labels[fid] = patch_labels[old]
        rename[old] = fid
    for p, lab in patch_labels.items():
        if p not in rename:
            labels[p] = lab
    surface = QuiltSurface(
        ends,
        outgoing,
        seams,
        circle_seams={
            cid: (rename.get(pm, pm), rename.get(pp, pp))
            for cid, (pm, pp) in circle_seams.items()
        },
        end_patch={e: rename.get(p, p) for e, p in end_patch.items()},
    )
    q = QuiltDiagram(surface, labels, seam_labels)
    report = q.validate()
    if any(entry["status"] == "fail" for entry in report):
        raise error(message, witness=report)
    return q


def quilt_glue(q1: QuiltDiagram, q2: QuiltDiagram, e):
    """Glue the outgoing end of q1 into the incoming end e of q2.

    The cyclic sequences must match up to rotation (labels and objects);
    the matched seams are welded pairwise and the corner patches
    identified.  The result records the rotation as ``glue_offset`` and
    the glued end as ``glue_end``.
    """
    if e not in q2.surface.ends or e == q2.surface.outgoing:
        raise InvalidEnd(f"{e!r} is not an incoming end of the second diagram")
    s1 = q1.surface
    s2 = q2.surface
    labels1 = q1.end_labels(s1.outgoing)
    nodes1 = s1.end_nodes(s1.outgoing)
    objs1 = tuple(q1.patch_labels[p] for p in nodes1)
    labels2 = q2.end_labels(e)
    nodes2 = s2.end_nodes(e)
    objs2 = tuple(q2.patch_labels[p] for p in nodes2)
    k = len(labels1)
    if len(labels2) != k:
        raise CyclicMismatch(
            f"end valences differ: {k} vs {len(labels2)}", witness=(k, len(labels2))
        )
    # a bare end reads one unit label, so equal valences can still pair a
    # bare end with an end of one seam
    counts = (len(s1.ends[s1.outgoing]), len(s2.ends[e]))
    if counts[0] != counts[1]:
        raise CyclicMismatch(
            f"end seam-end counts differ: {counts[0]} vs {counts[1]}", witness=counts
        )
    offset = None
    for r in range(max(k, 1)):
        rot_labels = labels2[r:] + labels2[:r]
        rot_objs = objs2[r:] + objs2[:r]
        if rot_labels == labels1 and rot_objs == objs1:
            offset = r
            break
    if offset is None:
        first_bad = next(
            (i for i in range(k) if labels2[i] != labels1[i]), 0
        )
        raise CyclicMismatch(
            "end sequences do not match under any rotation",
            witness={"position": first_bad, "left": repr(labels1), "right": repr(labels2)},
        )

    # per side tag ("L" or "R" on every id): the diagram, its traced record
    # and its glued end
    sides = {"L": (q1, s1.data(), s1.outgoing), "R": (q2, s2.data(), e)}

    # node-patch identification along the glued ends; the rotation match
    # compared the objects of every pair joined here, so each class carries
    # one object
    ident = {}  # tagged patch -> representative tagged patch

    def find(x):
        while ident.get(x, x) != x:
            x = ident[x]
        return x

    for i in range(len(nodes1)):
        x, y = find(("L", nodes1[i])), find(("R", nodes2[(i + offset) % len(nodes2)]))
        if x != y:
            ident[y] = x

    # weld seams across the junction
    half1 = list(s1.ends[s1.outgoing])
    half2_rev = list(reversed(s2.ends[e]))  # incoming sequence order
    junction = {}
    for i in range(len(half1)):
        h1 = half1[i]
        h2 = half2_rev[(i + offset) % len(half2_rev)]
        junction[("L", h1)] = ("R", h2)
        junction[("R", h2)] = ("L", h1)

    # seam pairing across both sides
    alpha = {
        (side, h): (side, h2)
        for side, (_, data, _) in sides.items()
        for h, h2 in data["alpha"].items()
    }

    # the ends that stay, and the patches of the bare ones among them
    new_ends = {}
    end_patch = {}
    for side, (q, _, glued) in sides.items():
        for end_id, order in q.surface.ends.items():
            if end_id == glued:
                continue
            new_ends[(side, end_id)] = tuple((side, h) for h in order)
            if not order:
                end_patch[(side, end_id)] = find((side, q.surface.end_patch[end_id]))

    # one walk along alpha across the junction from each seam-end not yet
    # met, surviving ones first.  A seam-end has one alpha partner and at
    # most one junction partner, so a walk from a surviving seam-end ends on
    # another and welds an interval seam; a junction seam-end left over lies
    # on matched loops that close into a curve, a circle seam between the
    # regions beside it.
    surviving = {h for order in new_ends.values() for h in order}
    new_seams = {}
    circle_seams = {}
    seam_labels = {}
    visited = set()
    idx = 0
    for h in sorted(surviving, key=repr) + sorted(junction, key=repr):
        if h in visited:
            continue
        cur = h if h in junction else alpha[h]
        while cur in junction and cur not in visited:
            visited.update((cur, junction[cur]))
            cur = alpha[junction[cur]]
        visited.update((h, cur))
        side, raw = cur
        q, data, _ = sides[side]
        seam_id, direction = data["into"][raw]
        if cur in junction:
            sid = ("wc", idx)
            circle_seams[sid] = tuple(find((side, p)) for p in q.surface.seam_sides(seam_id))
            seam_labels[sid] = q.seam_labels[seam_id]
        else:
            sid = ("s", idx)
            new_seams[sid] = (h, cur)
            seam_labels[sid] = q.label(seam_id, direction)
        idx += 1

    # patch labels and circle seams through the identification
    patch_labels = {}
    for side, (q, _, _) in sides.items():
        for p, lab in q.patch_labels.items():
            patch_labels[find((side, p))] = lab
        for cid, (pm, pp) in q.surface.circle_seams.items():
            circle_seams[(side, cid)] = (find((side, pm)), find((side, pp)))
            seam_labels[(side, cid)] = q.seam_labels[cid]

    # the traced faces of the glued surface are unions of old patches
    old_patch_of_half = {
        (side, raw): find((side, sides[side][1]["face_of"][raw]))
        for side, raw in surviving
    }
    out = _resurface(
        new_ends,
        ("R", s2.outgoing),
        new_seams,
        circle_seams,
        end_patch,
        patch_labels,
        seam_labels,
        old_patch_of_half,
        CyclicMismatch,
        "gluing produced an invalid diagram",
    )
    out.glue_offset = offset
    out.glue_end = e
    return out


# -- strip and annulus shrinking ------------------------------------------------


def shrink_strip(q: QuiltDiagram, p):
    """Remove a two-seam strip or annulus patch, merging its boundary
    seams into one labeled with the (embedded) geometric composition.
    Removing a strip retraces the faces, so the other patches may be
    renamed; circle seams and bare ends follow them.  An annulus leaves
    the ends and interval seams as they are, so the faces keep their ids,
    but for the f0 of a seamless sphere: removing that annulus names its
    first remaining patch f0."""
    surface = q.surface
    data = surface.data()
    ends, seams, circles = surface.ends, surface.seams, surface.circle_seams
    touching = sorted((c for c, sides in circles.items() if p in sides), key=repr)
    # each branch picks the seams read into p and out of p, as (seam,
    # direction), and puts the merged seam in their place; the f0 of a
    # seamless sphere is a traced face with an empty orbit, and between two
    # circle seams it is an annulus
    orbit = data["faces"].get(p)
    if orbit is not None and (orbit or len(touching) != 2):
        kind = "strip"
        if len(orbit) != 2:
            raise NotAStrip(
                f"patch {p!r} has {len(orbit)} boundary seam-sides, need 2",
                witness=p,
            )
        h1, h2 = orbit
        (s_a, d_a), (s_b, d_b) = data["into"][h1], data["into"][h2]
        if s_a == s_b:
            raise NotAStrip(
                f"patch {p!r} is bounded by one seam on both sides", witness=p
            )
        # crossing from face(x) through the strip to face(y): the seam into
        # h1 runs p -> face(x), so it is read the other way
        x, y = data["alpha"][h1], data["alpha"][h2]
        read_in, read_out = (s_a, -d_a), (s_b, d_b)
        merged = ("merge", s_a, s_b)
        ends = {e: tuple(h for h in order if h not in orbit) for e, order in ends.items()}
        seams = {s: pair for s, pair in seams.items() if s not in (s_a, s_b)}
        seams[merged] = (y, x)
    else:
        kind = "annulus"
        if len(touching) != 2:
            raise NotAStrip(
                f"patch {p!r} touches {len(touching)} circle seams, need 2", witness=p
            )
        c1, c2 = touching
        (pm1, pp1), (pm2, pp2) = circles[c1], circles[c2]
        read_in, read_out = (c1, 1 if pp1 == p else -1), (c2, 1 if pm2 == p else -1)
        merged = ("merge", c1, c2)
        circles = {c: sides for c, sides in circles.items() if c not in (c1, c2)}
        circles[merged] = (pm1 if pp1 == p else pp1, pp2 if pm2 == p else pm2)
    if any(surface.end_patch.get(e) == p for e in surface.ends):
        raise NotAStrip(f"patch {p!r} carries a bare end", witness=p)
    if kind == "strip" and touching:
        raise NotAStrip(f"patch {p!r} touches circle seams", witness=p)
    composed, witness = _join(q.label(*read_in), q.label(*read_out))
    if witness is not None:
        raise NotEmbedded(f"{kind} labels do not compose embeddedly", witness=witness)
    seam_labels = {s: lab for s, lab in q.seam_labels.items() if s not in merged[1:]}
    seam_labels[merged] = composed
    return _resurface(
        ends,
        surface.outgoing,
        seams,
        circles,
        surface.end_patch,
        {k: v for k, v in q.patch_labels.items() if k != p},
        seam_labels,
        data["face_of"],
        NotAStrip,
        "shrinking produced an invalid diagram",
    )


# -- canonical diagram constructors ----------------------------------------------


def cylinder_diagram(labels):
    """Parallel-seam cylinder: one incoming and one outgoing end joined by
    len(labels) seams; labels[i] is the oriented label of the i-th seam as
    read at the outgoing end."""
    k = len(labels)
    if k == 0:
        raise LabelMismatch("cylinder needs at least one seam")
    ends = {
        "in": tuple(("i", j) for j in range(k)),
        "out": tuple(("o", j) for j in reversed(range(k))),
    }
    seams = {("s", j): (("i", j), ("o", j)) for j in range(k)}
    surface = QuiltSurface(ends, "out", seams)
    # outgoing sequence order and orientation fix the labels
    seam_labels = {}
    patch_labels = {}
    for lab, (s, d) in zip(labels, surface.end_sequence("out")):
        seam_labels[s] = lab if d == +1 else lab.transpose()
        pm, pp = surface.seam_sides(s)
        patch_labels[pm if d == +1 else pp] = lab.source
    diagram = QuiltDiagram(surface, patch_labels, seam_labels)
    return diagram


def cap_diagram(label):
    """One outgoing end, one seam looping around it; the outgoing cyclic
    sequence reads (label, label^T)."""
    ends = {"out": (("h", 0), ("h", 1))}
    seams = {("s", 0): (("h", 0), ("h", 1))}
    surface = QuiltSurface(ends, "out", seams)
    # the stored-orientation entry carries the label
    seam_labels = {("s", 0): label}
    pm, pp = surface.seam_sides(("s", 0))
    patch_labels = {pm: label.source, pp: label.target}
    return QuiltDiagram(surface, patch_labels, seam_labels)


def cup_diagram(label):
    return cap_diagram(label.transpose())


def object_cylinder_diagram(obj):
    """Identity on an object: two bare ends separated by one circle seam
    labeled with the weak unit (the diagonal in relation mode)."""
    ends = {"in": (), "out": ()}
    surface = QuiltSurface(
        ends,
        "out",
        {},
        circle_seams={("c", 0): ("f0", "inner")},
        end_patch={"in": "inner", "out": "f0"},
    )
    unit = _unit_label(obj)
    return QuiltDiagram(
        surface, {"f0": obj, "inner": obj}, {("c", 0): unit}
    )


def snake_frame_diagram(label):
    """Three strands: in -> aux, aux -> out, in -> out; gluing a cap into
    the aux end turns it into the two-seam cylinder (the zigzag)."""
    Y = label
    ends = {
        "in": (("i", 0), ("i", 1)),
        "aux": (("a", 0), ("a", 1)),
        "out": (("o", 1), ("o", 0)),
    }
    seams = {
        ("u",): (("i", 0), ("a", 0)),
        ("v",): (("a", 1), ("o", 1)),
        ("w",): (("i", 1), ("o", 0)),
    }
    surface = QuiltSurface(ends, "out", seams)
    # two faces: the exterior (source side of Y) and the snake interior
    pm_u, pp_u = surface.seam_sides(("u",))
    patch_labels = {pp_u: Y.source, pm_u: Y.target}
    labels = {}
    for s in seams:
        pm, pp = surface.seam_sides(s)
        labels[s] = _typed(Y, patch_labels[pm], patch_labels[pp])
    return QuiltDiagram(surface, patch_labels, labels)


def _typed(Y, src_obj, dst_obj):
    if Y.source == src_obj and Y.target == dst_obj:
        return Y
    if Y.target == src_obj and Y.source == dst_obj:
        return Y.transpose()
    raise LabelMismatch(
        f"label does not fit between {src_obj!r} and {dst_obj!r}"
    )


def vertical_composition_diagram(f, g, h):
    """String diagram of vertical composition: two punctures on a strand
    pair, inputs in Mor(f, g) and Mor(g, h), output in Mor(f, h).

    At the relation level the 2-morphism spaces are intersections and the
    induced map is the matched-pair composition."""
    ends = {
        "e1": (("p", 0), ("p", 1)),
        "e2": (("q", 0), ("q", 1)),
        "out": (("r", 1), ("r", 0)),
    }
    seams = {
        ("a",): (("p", 0), ("r", 0)),
        ("b",): (("p", 1), ("q", 0)),
        ("c",): (("q", 1), ("r", 1)),
    }
    surface = QuiltSurface(ends, "out", seams)
    pm, pp = surface.seam_sides(("a",))
    patch_labels = {pm: f.source, pp: f.target}
    if len(set(surface.data()["patches"])) != 2:
        raise LabelMismatch("vertical diagram should have two patches")
    labels = {
        ("a",): _typed(f, *[patch_labels[x] for x in surface.seam_sides(("a",))]),
        ("b",): _typed(g, *[patch_labels[x] for x in surface.seam_sides(("b",))]),
        ("c",): _typed(h, *[patch_labels[x] for x in surface.seam_sides(("c",))]),
    }
    return QuiltDiagram(surface, patch_labels, labels)


def string_diagram(kind, *labels):
    """Canonical fixtures: identity, cap, cup, vertical, horizontal."""
    if kind == "identity":
        (Y,) = labels
        return cylinder_diagram([Y, Y.transpose()])
    if kind == "cap":
        (Y,) = labels
        return cap_diagram(Y)
    if kind == "cup":
        (Y,) = labels
        return cup_diagram(Y)
    if kind == "vertical":
        f, g, h = labels
        return vertical_composition_diagram(f, g, h)
    if kind == "horizontal":
        f, g = labels
        # two cylinders side by side: the 4-seam cylinder on (f, f^T, g, g^T)
        return cylinder_diagram([f, f.transpose(), g, g.transpose()])
    raise LabelMismatch(f"unknown string diagram kind {kind!r}")


# -- diagram isomorphism -----------------------------------------------------------


def _face_forms(q: QuiltDiagram, *roots):
    """Each patch's form in the region trees rooted at ``roots``, built
    leaves first: its object, the outgoing flags of its bare ends, and the
    multiset of (circle label read outward, form) over its child regions."""
    s = q.surface
    links = {}
    for c, (pm, pp) in s.circle_seams.items():
        links.setdefault(pm, []).append((pp, q.seam_labels[c]))
        links.setdefault(pp, []).append((pm, q.seam_labels[c].transpose()))
    parent = dict.fromkeys(roots)
    order = list(parent)
    for p in order:  # grows as regions are reached, parents before children
        for child, lab in links.get(p, ()):
            if child not in parent:
                parent[child] = (p, lab)
                order.append(child)
    forms, hanging = {}, {}
    for p in reversed(order):
        flags = sorted(e == s.outgoing for e in s.ends if not s.ends[e] and s.end_patch[e] == p)
        hung = frozenset(Counter(hanging.get(p, ())).items())
        forms[p] = (q.patch_labels[p], tuple(flags), hung)
        if parent[p] is not None:
            hanging.setdefault(parent[p][0], []).append((parent[p][1], forms[p]))
    return forms


def diagrams_isomorphic(q1: QuiltDiagram, q2: QuiltDiagram):
    """Isomorphism of labeled rotation systems preserving the outgoing end
    and all labels (the combinatorial deformation relation).  A map of the
    connected seam-ends commuting with sigma and alpha is fixed by the image
    of the least seam-end of q1: each seam-end of q2 is tried, and the map
    followed along sigma and alpha.  A seam-end and its image must agree in
    end valence, outgoing flag, the label of the seam into them and the
    form of their face (``_face_forms``), which places circle regions and
    bare ends; a seamless sphere's f0 may match any region of q2."""
    (s1, d1), (s2, d2) = ((q.surface, q.surface.data()) for q in (q1, q2))
    if len(s1.ends) != len(s2.ends) or len(d1["owner"]) != len(d2["owner"]):
        return False
    forms1, forms2 = _face_forms(q1, *d1["faces"]), _face_forms(q2, *d2["faces"])
    if not d1["owner"]:
        return any(_face_forms(q2, p)[p] == forms1["f0"] for p in d2["patches"])
    start = min(d1["owner"], key=repr)
    for image in d2["owner"]:
        mapped, stack = {start: image}, [start]
        while stack:
            h = stack.pop()
            x = mapped[h]
            (e, i), (f, j) = d1["owner"][h], d2["owner"][x]
            o1, o2 = s1.ends[e], s2.ends[f]
            nxt = ((o1[(i + 1) % len(o1)], o2[(j + 1) % len(o2)]),
                   (d1["alpha"][h], d2["alpha"][x]))
            fresh = {a: b for a, b in nxt if a not in mapped}
            mapped.update(fresh)
            stack.extend(fresh)
            if (
                len(o1) != len(o2)
                or (e == s1.outgoing) != (f == s2.outgoing)
                or q1.label(*d1["into"][h]) != q2.label(*d2["into"][x])
                or forms1[d1["face_of"][h]] != forms2[d2["face_of"][x]]
                or any(mapped[a] != b for a, b in nxt)
            ):
                break
        else:
            return True
    return False


# -- DOT export --------------------------------------------------------------------


def export_dot(q: QuiltDiagram):
    """DOT graph: ends as nodes, seams as labeled edges, one cluster per
    patch listing its object label."""
    surface = q.surface
    data = surface.data()
    lines = ["graph quilt {"]
    owner = data["owner"]
    for i, p in enumerate(data["patches"]):
        lines.append(f'  subgraph cluster_{i} {{')
        lines.append(f'    label="{p}: {q.patch_labels.get(p)!r}";')
        lines.append(f'    "patch_{p}" [shape=point, style=invis];')
        lines.append("  }")
    for e in sorted(surface.ends, key=repr):
        shape = "doublecircle" if e == surface.outgoing else "circle"
        lines.append(f'  "{e}" [shape={shape}];')
    for s, (a, b) in sorted(surface.seams.items(), key=repr):
        e1 = owner[a][0]
        e2 = owner[b][0]
        lines.append(f'  "{e1}" -- "{e2}" [label="{q.seam_labels[s]!r}"];')
    for c, (pm, pp) in sorted(surface.circle_seams.items(), key=repr):
        lines.append(
            f'  "patch_{pm}" -- "patch_{pp}" [style=dashed, '
            f'label="{q.seam_labels[c]!r}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
