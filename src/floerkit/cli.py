"""Unified command line: validation, enumeration, invariants, rewriting,
and diagram operations, all with deterministic JSON output.

Every subcommand returns ``(exit code, payload)``: JSON-able data, or DOT
text for quilt-export-dot.  ``dispatch`` is the one output path.  It
checks the shared flags, turns a FloerkitError into a JSON report,
serializes the payload and writes it to --output or stdout.

Exit codes: 0 success, 1 a check failed (a JSON report is still written),
2 usage errors and paths that cannot be opened or written (one
``error:`` line on stderr).  Worker count comes from --workers, falling
back to the FLOERKIT_THREADS environment variable; outputs are
byte-identical for every worker count.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io as fio
from .bordism import CerfRegistry, cerf_connected, cerf_neighbors
from .errors import CategoryMismatch, FloerkitError, IllFormedQuotient, LabelMismatch
from .fieldfun import (
    PartialFunctorSpec,
    closed_invariant,
    presentation_oracle,
    verify_cerf_compatibility,
)
from .groups import group_from_json
from .parallel import effective_workers
from .quilt import export_dot, quilt_evaluate, quilt_glue, shrink_strip
from .relcat import CyclicChain, generator_set, geometric_compose, is_embedded
from .repvar import VarietyCache, repvariety
from .bordobjects import surface

DEFAULT_BUDGET = 10 ** 8
LABEL_CHECKS = ("patches labeled by objects", "seams labeled by 1-morphisms")


def _load_group(args):
    return group_from_json(fio.load_json(args.group))


def _load_relations(args):
    """The relation files over the group file; each distinct variety in
    them is enumerated once, under --budget, to check it is whole."""
    g = _load_group(args)
    cache = VarietyCache(g, budget=args.budget, workers=args.workers)
    return [fio.relation_from_json(g, fio.load_json(p), cache) for p in args.relations]


def _load_labeled_diagram(g, path, budget):
    """The diagram in a file, refused with the failing entries of its
    validation report when a patch or seam has no label."""
    q = fio.diagram_from_json(g, fio.load_json(path), budget)
    failed = [e for e in q.validate() if e["status"] == "fail"]
    if any(e["check"] in LABEL_CHECKS for e in failed):
        raise LabelMismatch("quilt diagram has unlabeled patches or seams", witness=failed)
    return q


def _tuples(gens):
    return [[list(pt) for pt in t] for t in gens.tuples]


def _passed(report):
    return 0 if all(e["status"] == "pass" for e in report) else 1


# -- command implementations ---------------------------------------------------


def cmd_group_check(args):
    try:
        g = _load_group(args)
    except FloerkitError as err:
        return 1, {"error": type(err).__name__, "witness": err.witness}
    return 0, {
        "name": g.name,
        "order": g.order,
        "abelian": g.is_abelian(),
        "conjugacy_classes": [list(c) for c in g.conjugacy_classes],
    }


def cmd_repvar(args):
    g = _load_group(args)
    v = repvariety(g, surface(args.genus), budget=args.budget, workers=args.workers)
    return 0, v.to_json()


def cmd_lagrangian(args):
    g = _load_group(args)
    cache = VarietyCache(g, budget=args.budget, workers=args.workers)
    descriptor = {"kind": args.kind, "genus": args.genus}
    if args.auto:
        descriptor["auto"] = fio.load_json(args.auto)
    return 0, fio.label_from_json(g, descriptor, cache).to_json()


def cmd_compose(args):
    rels = _load_relations(args)
    acc = rels[0]
    for rel in rels[1:]:
        acc = geometric_compose(acc, rel)
    return 0, acc.to_json()


def cmd_embedded(args):
    a, b = _load_relations(args)
    flag, witness = is_embedded(a, b)
    report = {"embedded": flag}
    if witness is not None:
        x, (y1, y2), z = witness
        report["witness"] = {
            "pair": [list(x), list(z)],
            "intermediates": [list(y1), list(y2)],
        }
    return (0 if flag else 1), report


def cmd_generators(args):
    if not args.cyclic:
        raise FloerkitError("generator sets are defined for cyclic chains; pass --cyclic")
    rels = _load_relations(args)
    gens = generator_set(CyclicChain(tuple(rels)), budget=args.budget)
    return 0, {"count": len(gens), "tuples": _tuples(gens)}


def cmd_invariant(args):
    g = _load_group(args)
    c = fio.chain_from_json(fio.load_json(args.chain))
    spec = PartialFunctorSpec(g, budget=args.budget, workers=args.workers)
    gens, count = closed_invariant(spec, c, budget=args.budget)
    return 0, {"count": count, "generators": _tuples(gens)}


def cmd_verify_cerf(args):
    spec = PartialFunctorSpec(_load_group(args), budget=args.budget, workers=args.workers)
    genera = tuple(args.genus) if args.genus else (1, 2)
    report = verify_cerf_compatibility(spec, genera=genera)
    return _passed(report), report


def cmd_oracle(args):
    g = _load_group(args)
    n, relators = fio.presentation_from_json(fio.load_json(args.presentation))
    return 0, {"count": presentation_oracle(g, n, relators, budget=args.budget)}


def cmd_bordism_validate(args):
    try:
        c = fio.chain_from_json(fio.load_json(args.chain))
    except FloerkitError as err:
        return 1, {"valid": False, "error": str(err)}
    return 0, {
        "valid": True,
        "source": c.source.to_json(),
        "target": c.target.to_json(),
        "steps": len(c),
    }


def cmd_bordism_neighbors(args):
    c = fio.chain_from_json(fio.load_json(args.chain))
    return 0, [
        {"kind": m.kind, "position": m.pos, "result": fio.chain_to_json(r)}
        for m, r in cerf_neighbors(c, CerfRegistry())
    ]


def cmd_bordism_connect(args):
    c1 = fio.chain_from_json(fio.load_json(args.chain))
    c2 = fio.chain_from_json(fio.load_json(args.to))
    path = cerf_connected(c1, c2, depth=args.depth)
    if path is None:
        return 1, {"connected": False, "depth": args.depth}
    return 0, {
        "connected": True,
        "moves": [{"kind": m.kind, "position": m.pos} for m in path],
    }


def cmd_quilt_validate(args):
    q = fio.diagram_from_json(_load_group(args), fio.load_json(args.diagram), args.budget)
    report = q.validate()
    return _passed(report), report


def cmd_quilt_glue(args):
    g = _load_group(args)
    q1 = _load_labeled_diagram(g, args.first, args.budget)
    q2 = _load_labeled_diagram(g, args.second, args.budget)
    return 0, fio.diagram_to_json(quilt_glue(q1, q2, args.end))


def cmd_quilt_shrink(args):
    q = _load_labeled_diagram(_load_group(args), args.diagram, args.budget)
    return 0, fio.diagram_to_json(shrink_strip(q, args.patch))


def cmd_quilt_eval(args):
    q = _load_labeled_diagram(_load_group(args), args.diagram, args.budget)
    inputs = fio.inputs_from_json(fio.load_json(args.inputs))
    out = quilt_evaluate(q, inputs, budget=args.budget)
    return 0, {"outputs": sorted([list(pt) for pt in t] for t in out)}


def cmd_quilt_export_dot(args):
    return 0, export_dot(_load_labeled_diagram(_load_group(args), args.diagram, args.budget))


def cmd_cat_validate(args):
    if not args.category and not args.bicategory:
        raise FloerkitError("need --category or --bicategory")
    try:
        if args.bicategory:
            B = fio.bicategory_from_json(fio.load_json(args.bicategory))
            if B.hcomp2 is not None:
                B.validate_bicategory()
            return 0, {
                "valid": True,
                "objects": len(B.objects),
                "one_morphisms": len(B.one),
                "two_morphisms": len(B.two),
            }
        cat = fio.category_from_json(fio.load_json(args.category))
    except CategoryMismatch as err:
        return 1, {"valid": False, "violation": str(err), "witness": repr(err.witness)}
    return 0, {"valid": True, "objects": len(cat.objects), "morphisms": len(cat.morphisms)}


def _load_bicategory(args):
    from .catgen import relation_bicategory

    if args.bicategory:
        return fio.bicategory_from_json(fio.load_json(args.bicategory))
    if not args.group:
        raise FloerkitError("need --group (builtin relation bicategory) or --bicategory")
    return relation_bicategory(_load_group(args))


def cmd_cat_yoneda(args):
    from .cats import yoneda

    B = _load_bicategory(args)
    base = B.objects[0] if args.base is None else _find_object(B, args.base)
    y = yoneda(B, base)
    return 0, {
        "base": repr(base),
        "categories": {
            repr(x): {"objects": len(c.objects), "morphisms": len(c.morphisms)}
            for x, c in y["categories"].items()
        },
        "functors": len(y["functors"]),
        "transformations": len(y["transformations"]),
    }


def _find_object(B, name):
    for x in B.objects:
        if str(x) == name or repr(x) == name:
            return x
    raise FloerkitError(f"no object named {name!r}; have {[repr(x) for x in B.objects]}")


def cmd_cat_quotient(args):
    from .cats import quotient_by_2isos

    B = _load_bicategory(args)
    try:
        q = quotient_by_2isos(B)
    except IllFormedQuotient as err:
        return 1, {"quotient": None, "witness": repr(err.witness)}
    return 0, {"objects": len(q.objects), "morphism_classes": len(q.morphisms)}


# -- argument parsing -------------------------------------------------------------


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it is most of an in-process dispatch."""
    parser = argparse.ArgumentParser(
        prog="floerkit",
        description="set-level field theory toolkit over finite groups",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--output", "-o", default=None)
        for arg, kwargs in arguments.items():
            p.add_argument(arg, **kwargs)
        return p

    add("group-check", cmd_group_check, **{"--group": {"required": True}})
    add(
        "repvar",
        cmd_repvar,
        **{"--group": {"required": True}, "--genus": {"type": int, "required": True}},
    )
    add(
        "lagrangian",
        cmd_lagrangian,
        **{
            "--group": {"required": True},
            "--genus": {"type": int, "required": True},
            "--kind": {"choices": ["cyl", "attach2", "attach1"], "required": True},
            "--auto": {"default": None},
        },
    )
    add(
        "compose",
        cmd_compose,
        **{
            "--group": {"required": True},
            "relations": {"nargs": "+", "metavar": "RELATION.json"},
        },
    )
    add(
        "embedded",
        cmd_embedded,
        **{
            "--group": {"required": True},
            "relations": {"nargs": 2, "metavar": "RELATION.json"},
        },
    )
    add(
        "generators",
        cmd_generators,
        **{
            "--group": {"required": True},
            "--cyclic": {"action": "store_true"},
            "relations": {"nargs": "+", "metavar": "RELATION.json"},
        },
    )
    add(
        "invariant",
        cmd_invariant,
        **{"--group": {"required": True}, "--chain": {"required": True}},
    )
    add(
        "verify-cerf",
        cmd_verify_cerf,
        **{
            "--group": {"required": True},
            "--genus": {"type": int, "action": "append"},
        },
    )
    add(
        "oracle",
        cmd_oracle,
        **{"--group": {"required": True}, "--presentation": {"required": True}},
    )
    add("bordism-validate", cmd_bordism_validate, **{"--chain": {"required": True}})
    add("bordism-neighbors", cmd_bordism_neighbors, **{"--chain": {"required": True}})
    add(
        "bordism-connect",
        cmd_bordism_connect,
        **{
            "--chain": {"required": True},
            "--to": {"required": True},
            "--depth": {"type": int, "default": 4},
        },
    )
    add(
        "quilt-validate",
        cmd_quilt_validate,
        **{"--group": {"required": True}, "--diagram": {"required": True}},
    )
    add(
        "quilt-glue",
        cmd_quilt_glue,
        **{
            "--group": {"required": True},
            "--first": {"required": True},
            "--second": {"required": True},
            "--end": {"required": True},
        },
    )
    add(
        "quilt-shrink",
        cmd_quilt_shrink,
        **{
            "--group": {"required": True},
            "--diagram": {"required": True},
            "--patch": {"required": True},
        },
    )
    add(
        "quilt-eval",
        cmd_quilt_eval,
        **{
            "--group": {"required": True},
            "--diagram": {"required": True},
            "--inputs": {"required": True},
        },
    )
    add(
        "quilt-export-dot",
        cmd_quilt_export_dot,
        **{"--group": {"required": True}, "--diagram": {"required": True}},
    )
    add(
        "cat-validate",
        cmd_cat_validate,
        **{"--category": {"default": None}, "--bicategory": {"default": None}},
    )
    add(
        "cat-yoneda",
        cmd_cat_yoneda,
        **{
            "--group": {"default": None},
            "--bicategory": {"default": None},
            "--base": {"default": None},
        },
    )
    add(
        "cat-quotient",
        cmd_cat_quotient,
        **{"--group": {"default": None}, "--bicategory": {"default": None}},
    )
    return parser


def dispatch(argv):
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "fn"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        try:
            if args.budget <= 0:
                raise FloerkitError("budget must be positive")
            if getattr(args, "depth", 0) < 0:
                raise FloerkitError("depth must be non-negative")
            args.workers = effective_workers(args.workers)
            code, payload = args.fn(args)
        except FloerkitError as err:
            code, payload = 1, {"error": type(err).__name__, "message": str(err)}
            if err.witness is not None:
                payload["witness"] = repr(err.witness)
        text = payload if isinstance(payload, str) else fio.dumps(payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except OSError as err:  # a path that cannot be opened, read or written
        sys.stderr.write(f"error: {err}\n")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
