"""JSON (de)serialization for every file format the command line reads and
writes.  All dumps are deterministic: sorted keys, fixed separators, no
dependence on dict insertion order or worker count."""

from __future__ import annotations

import functools
import itertools
import json
import math
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii

from .bordism import (
    CAP0,
    CAP3,
    AttachingCircle,
    CobordismChain,
    SimpleCobordism,
    chain,
    cyl,
)
from .bordobjects import bordobject_from_json
from .errors import FloerkitError
from .quilt import QuiltDiagram, QuiltSurface
from .repvar import (
    FiniteRelation,
    RepVariety,
    VarietyCache,
    canonical_point,
    diagonal_relation,
    relation_of_simple,
    satisfies_relator,
)
from .words import automorphism_from_json, identity_automorphism


def dumps(data):
    """The text of ``json.dumps(data, sort_keys=True, separators=(",", ": "),
    indent=1)`` and a newline, byte for byte, with json's TypeError for a
    value or key it cannot encode.

    json writes indented output with nested encoding functions that refer
    to each other, a reference cycle per call; this writer is module-level
    functions over one list of chunks.  A list of plain ints, such as a
    variety point, is written through one ``%d`` template, and a list of
    equal-length rows of plain ints, such as a variety's points, through
    one template for the whole block.
    """
    out = []
    _write(data, 0, out)
    out.append("\n")
    return "".join(out)


def _write(value, level, out):
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, level, out)
    elif isinstance(value, dict):
        _write_dict(value, level, out)
    else:
        text = _scalar_text(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        out.append(text)


def _scalar_text(value):
    """json's text for None, a bool, an int or a float, as a value or a key;
    None for anything else."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


@functools.lru_cache(maxsize=64)
def _int_row_template(length, level):
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("%d," + inner) * (length - 1) + "%d\n" + " " * level + "]"


def _write_list(items, level, out):
    if not items:
        out.append("[]")
        return
    types = set(map(type, items))
    if types == {int}:  # bools are written as true/false
        out.append(_int_row_template(len(items), level) % tuple(items))
        return
    inner = "\n" + " " * (level + 1)
    if types <= {list, tuple} and len(set(map(len, items))) == 1 and items[0]:
        flat = tuple(itertools.chain.from_iterable(items))
        if set(map(type, flat)) == {int}:
            # equal rows of plain ints, such as a variety's points: one block
            row = _int_row_template(len(items[0]), level + 1)
            block = ("," + inner).join([row] * len(items))
            out.append(("[" + inner + block + "\n" + " " * level + "]") % flat)
            return
    separator = "[" + inner
    for value in items:
        out.append(separator)
        separator = "," + inner
        _write(value, level + 1, out)
    out.append("\n" + " " * level + "]")


def _write_dict(mapping, level, out):
    if not mapping:
        out.append("{}")
        return
    inner = "\n" + " " * (level + 1)
    separator = "{" + inner
    for key, value in sorted(mapping.items()):
        text = key if isinstance(key, str) else _scalar_text(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        out.append(separator)
        separator = "," + inner
        out.append(encode_basestring_ascii(text))
        out.append(": ")
        _write(value, level + 1, out)
    out.append("\n" + " " * level + "}")


def load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # JSONDecodeError, or bytes that are not text
            raise FloerkitError(f"{path} is not valid JSON", witness=str(err)) from None


@contextmanager
def _reading(what, witness=None):
    """Report a missing or mistyped field of a JSON document as a
    FloerkitError naming the document, not as a KeyError or TypeError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as err:
        raise FloerkitError(
            f"malformed {what}: {type(err).__name__} {err}", witness=witness
        ) from None


def _auto_from_json(data):
    """The automorphism under "auto", or the identity of "genus" without one."""
    if data.get("auto"):
        return automorphism_from_json(data["auto"])
    return identity_automorphism(data["genus"])


# -- chains -------------------------------------------------------------------


def step_to_json(step: SimpleCobordism):
    if step.kind == "cyl":
        return {"kind": "cyl", "genus": step.phi.genus, "auto": step.phi.to_json()}
    if step.kind in ("attach2", "attach1"):
        return {
            "kind": step.kind,
            "genus": step.circle.genus,
            "auto": step.circle.psi.to_json(),
        }
    return {"kind": step.kind}


def step_from_json(data):
    kind = data["kind"]
    if kind == "cap3":
        return CAP3
    if kind == "cap0":
        return CAP0
    phi = _auto_from_json(data)
    if kind == "cyl":
        return cyl(phi)
    if kind in ("attach2", "attach1"):
        return SimpleCobordism(kind, circle=AttachingCircle(data["genus"], phi))
    raise FloerkitError(f"unknown step kind {kind!r}")


def chain_to_json(c: CobordismChain):
    return [step_to_json(s) for s in c.steps]


def chain_from_json(data):
    if not isinstance(data, list) or not data:
        raise FloerkitError("a chain file is a non-empty JSON list of steps")
    steps = []
    for i, step in enumerate(data):
        with _reading(f"chain step {i}", witness=step):
            steps.append(step_from_json(step))
    return chain(steps)


# -- varieties and relations ----------------------------------------------------


def variety_from_json(group, data, cache=None):
    """A variety whose every point is checked: 2g elements of the group
    that satisfy the surface relator and are least in their conjugation
    orbit, each listed once.  Such points lie in the variety; they must
    also be all of it, as the cache enumerates it under its budget, and
    the least missing point is the witness."""
    cache = cache or VarietyCache(group)
    with _reading("variety"):
        obj = bordobject_from_json(data["object"])
        v = RepVariety(group, obj, tuple(tuple(p) for p in data["points"]))
    seen = set()
    for p in v.points:
        if len(p) != 2 * v.genus or not all(
            isinstance(x, int) and 0 <= x < group.order for x in p
        ):
            reason = "is not a tuple of 2g group elements"
        elif not satisfies_relator(group, p):
            reason = "does not satisfy the surface relator"
        elif canonical_point(group, p) != p:
            reason = "is not least in its conjugation orbit"
        elif p in seen:
            reason = "is listed twice"
        else:
            seen.add(p)
            continue
        raise FloerkitError(f"variety point {list(p)} {reason}", witness=list(p))
    missing = sorted(set(cache.variety(v.obj).points) - seen)
    if missing:
        p = list(missing[0])
        raise FloerkitError(f"variety point {p} is missing", witness=p)
    return v


def relation_from_json(group, data, cache=None):
    """A relation between two checked varieties (see ``variety_from_json``);
    the cache enumerates each distinct object once."""
    cache = cache or VarietyCache(group)
    with _reading("relation"):
        src = variety_from_json(group, data["source"], cache)
        dst = variety_from_json(group, data["target"], cache)
        pairs = frozenset((tuple(x), tuple(y)) for x, y in data["pairs"])
    return FiniteRelation(src, dst, pairs)


# -- presentations ----------------------------------------------------------------


def presentation_from_json(data):
    with _reading("presentation"):
        n = data["generators"]
        relators = tuple(tuple(r) for r in data.get("relators", ()))
    if not isinstance(n, int) or n < 0:
        raise FloerkitError(f"generators must be a count, got {n!r}", witness=n)
    for r in relators:
        for x in r:
            if not isinstance(x, int) or x == 0 or abs(x) > n:
                raise FloerkitError(f"relator letter {x} outside alphabet 1..{n}")
    return n, relators


# -- quilt diagrams ----------------------------------------------------------------


def label_from_json(group, data, cache=None):
    """Label descriptors: diagonal / cyl / attach2 / attach1 / raw, each
    optionally wrapped in {"transpose": descriptor}.  A cyl, attach2 or
    attach1 descriptor is read as a chain step and gets that step's
    relation from the cache."""
    cache = cache or VarietyCache(group)
    if "transpose" in data:
        return label_from_json(group, data["transpose"], cache).transpose()
    kind = data["kind"]
    if kind == "diagonal":
        return diagonal_relation(cache.variety(bordobject_from_json(data["object"])))
    if kind == "raw":
        return relation_from_json(group, data, cache)
    if kind not in ("cyl", "attach2", "attach1"):
        raise FloerkitError(f"unknown label kind {kind!r}")
    with _reading(f"{kind} label"):
        step = step_from_json(data)
    return relation_of_simple(group, step, cache)


def diagram_from_json(group, data, budget=None):
    cache = VarietyCache(group, budget=budget)
    with _reading("quilt diagram"):
        ends = {e: tuple(order) for e, order in data["ends"].items()}
        seams = {s: tuple(pair) for s, pair in data["seams"].items()}
        circle_seams = {
            c: tuple(sides) for c, sides in data.get("circle_seams", {}).items()
        }
        surface_obj = QuiltSurface(
            ends,
            data["outgoing"],
            seams,
            circle_seams=circle_seams,
            end_patch=dict(data.get("end_patch", {})),
        )
        surface_obj.analyze()  # hashes every end and seam-end id
        patch_labels = {
            p: cache.variety(bordobject_from_json(obj))
            for p, obj in data["patch_labels"].items()
        }
        seam_labels = {
            s: label_from_json(group, lab, cache)
            for s, lab in data["seam_labels"].items()
        }
    return QuiltDiagram(surface_obj, patch_labels, seam_labels)


def inputs_from_json(data):
    """Quilt-evaluation inputs: end id -> generator tuple of points."""
    with _reading("quilt inputs"):
        inputs = {e: tuple(tuple(pt) for pt in t) for e, t in data.items()}
        hash(tuple(inputs.values()))  # points are looked up in sets
    return inputs


def diagram_to_json(q: QuiltDiagram):
    """Dump with stable renamed ids so that glued/shrunk diagrams stay
    serializable.  Traced-face patch references are rewritten to the face
    ids a reload will re-derive; circle regions get fresh r-prefixed ids.
    """
    s = q.surface
    end_ids = {e: f"e{i}" for i, e in enumerate(sorted(s.ends, key=repr))}
    seam_ids = {sid: f"s{i}" for i, sid in enumerate(sorted(s.seams, key=repr))}
    circle_ids = {
        cid: f"c{i}" for i, cid in enumerate(sorted(s.circle_seams, key=repr))
    }
    half_ids = {}
    for e in sorted(s.ends, key=repr):
        for h in s.ends[e]:
            half_ids[h] = f"h{len(half_ids)}"
    data_block = s.data()

    # predict the face ids of the renamed surface by probing it
    probe = QuiltSurface(
        {end_ids[e]: tuple(half_ids[h] for h in order) for e, order in s.ends.items()},
        end_ids[s.outgoing],
        {seam_ids[sid]: (half_ids[a], half_ids[b]) for sid, (a, b) in s.seams.items()},
    )
    probe_faces = probe.core_data()["face_of"]
    patch_ids = {}
    for h, hid in half_ids.items():
        patch_ids[data_block["face_of"][h]] = probe_faces[hid]
    fresh = 0
    for p in data_block["patches"]:
        if p not in patch_ids:
            if p in data_block["faces"]:
                patch_ids[p] = "f0"  # bare sphere face
            else:
                patch_ids[p] = f"r{fresh}"
                fresh += 1

    seam_labels = {}
    for sid, lab in q.seam_labels.items():
        key = seam_ids[sid] if sid in seam_ids else circle_ids[sid]
        seam_labels[key] = {"kind": "raw", **lab.to_json()}
    return {
        "ends": {
            end_ids[e]: [half_ids[h] for h in order]
            for e, order in s.ends.items()
        },
        "outgoing": end_ids[s.outgoing],
        "seams": {
            seam_ids[sid]: [half_ids[a], half_ids[b]]
            for sid, (a, b) in s.seams.items()
        },
        "circle_seams": {
            circle_ids[cid]: [patch_ids[pm], patch_ids[pp]]
            for cid, (pm, pp) in s.circle_seams.items()
        },
        "end_patch": {
            end_ids[e]: patch_ids[p] for e, p in s.end_patch.items()
        },
        "patch_labels": {
            patch_ids[p]: lab.obj.to_json() for p, lab in q.patch_labels.items()
        },
        "seam_labels": seam_labels,
    }


# -- finite categories ----------------------------------------------------------------


def category_from_json(data):
    from .cats import FinCategory

    with _reading("category"):
        objects = tuple(data["objects"])
        morphisms = {f: tuple(sd) for f, sd in data["morphisms"].items()}
        identity = dict(data["identity"])
        comp = {(f, g): h for f, g, h in data["composition"]}
        return FinCategory(
            objects, morphisms, comp, identity, name=data.get("name", "C")
        )


def category_to_json(cat):
    """Dump with stringified ids (JSON object keys are strings, so object
    and morphism ids are normalized on the way out)."""
    return {
        "name": cat.name,
        "objects": sorted(str(x) for x in cat.objects),
        "morphisms": {
            str(f): [str(s), str(d)]
            for f, (s, d) in sorted(cat.morphisms.items(), key=repr)
        },
        "identity": {str(x): str(cat.identity[x]) for x in cat.objects},
        "composition": sorted(
            [str(f), str(g), str(h)] for (f, g), h in cat.comp.items()
        ),
    }


def bicategory_to_json(B):
    """Explicit-table dump of a finite bicategory, ids stringified."""
    return {
        "name": B.name,
        "objects": sorted(str(x) for x in B.objects),
        "one_morphisms": {
            str(f): [str(s), str(d)] for f, (s, d) in sorted(B.one.items(), key=repr)
        },
        "two_morphisms": {
            str(a): [str(f), str(g)] for a, (f, g) in sorted(B.two.items(), key=repr)
        },
        "vertical_composition": sorted(
            [str(a), str(b), str(c)] for (a, b), c in B.vcomp.items()
        ),
        "identity_2cells": {str(f): str(a) for f, a in B.id2.items()},
        "horizontal_composition_1": sorted(
            [str(f), str(g), str(h)] for (f, g), h in B.hcomp1.items()
        ),
        "horizontal_composition_2": None
        if B.hcomp2 is None
        else sorted([str(a), str(b), str(c)] for (a, b), c in B.hcomp2.items()),
        "weak_units": {str(x): str(f) for x, f in B.weak_unit.items()},
    }


def bicategory_from_json(data):
    from .cats import FinBicategory

    with _reading("bicategory"):
        h2 = data.get("horizontal_composition_2")
        return FinBicategory(
            tuple(data["objects"]),
            {f: tuple(sd) for f, sd in data["one_morphisms"].items()},
            {a: tuple(fg) for a, fg in data["two_morphisms"].items()},
            {(a, b): c for a, b, c in data["vertical_composition"]},
            dict(data["identity_2cells"]),
            {(f, g): h for f, g, h in data["horizontal_composition_1"]},
            None if h2 is None else {(a, b): c for a, b, c in h2},
            dict(data["weak_units"]),
            name=data.get("name", "B"),
        )
