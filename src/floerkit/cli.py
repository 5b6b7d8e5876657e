"""Unified command line: validation, enumeration, invariants, rewriting,
and diagram operations, all with deterministic JSON output.

Exit codes: 0 success, 1 a check failed (a JSON report is still printed),
2 usage errors.  Worker count comes from --workers, falling back to the
FLOERKIT_THREADS environment variable; outputs are byte-identical for
every worker count.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import io as fio
from .bordism import CerfRegistry, cerf_connected, cerf_neighbors
from .errors import FloerkitError
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


@dataclass
class RunConfig:
    workers: int = 1
    budget: int = DEFAULT_BUDGET
    depth: int = 4

    def __post_init__(self):
        if self.budget <= 0:
            raise FloerkitError("budget must be positive")
        if self.depth < 0:
            raise FloerkitError("depth must be non-negative")


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_group(args):
    return group_from_json(fio.load_json(args.group))


def _config(args):
    depth = getattr(args, "depth", None)
    return RunConfig(
        workers=effective_workers(args.workers),
        budget=args.budget,
        depth=4 if depth is None else depth,
    )


# -- command implementations ---------------------------------------------------


def cmd_group_check(args):
    try:
        g = _load_group(args)
    except FloerkitError as err:
        _emit(args, fio.dumps({"error": type(err).__name__, "witness": err.witness}))
        return 1
    _emit(
        args,
        fio.dumps(
            {
                "name": g.name,
                "order": g.order,
                "abelian": g.is_abelian(),
                "conjugacy_classes": [list(c) for c in g.conjugacy_classes],
            }
        ),
    )
    return 0


def cmd_repvar(args):
    g = _load_group(args)
    cfg = _config(args)
    v = repvariety(g, surface(args.genus), budget=cfg.budget, workers=cfg.workers)
    _emit(args, fio.dumps(v.to_json()))
    return 0


def cmd_lagrangian(args):
    g = _load_group(args)
    cfg = _config(args)
    cache = VarietyCache(g, budget=cfg.budget, workers=cfg.workers)
    descriptor = {"kind": args.kind, "genus": args.genus}
    if args.auto:
        descriptor["auto"] = fio.load_json(args.auto)
    rel = fio.label_from_json(g, descriptor, cache)
    _emit(args, fio.dumps(rel.to_json()))
    return 0


def cmd_compose(args):
    g = _load_group(args)
    rels = [fio.relation_from_json(g, fio.load_json(p)) for p in args.relations]
    acc = rels[0]
    for rel in rels[1:]:
        acc = geometric_compose(acc, rel)
    _emit(args, fio.dumps(acc.to_json()))
    return 0


def cmd_embedded(args):
    g = _load_group(args)
    a = fio.relation_from_json(g, fio.load_json(args.relations[0]))
    b = fio.relation_from_json(g, fio.load_json(args.relations[1]))
    flag, witness = is_embedded(a, b)
    report = {"embedded": flag}
    if witness is not None:
        x, (y1, y2), z = witness
        report["witness"] = {
            "pair": [list(x), list(z)],
            "intermediates": [list(y1), list(y2)],
        }
    _emit(args, fio.dumps(report))
    return 0 if flag else 1


def cmd_generators(args):
    if not args.cyclic:
        raise FloerkitError("generator sets are defined for cyclic chains; pass --cyclic")
    g = _load_group(args)
    cfg = _config(args)
    rels = [fio.relation_from_json(g, fio.load_json(p)) for p in args.relations]
    gens = generator_set(CyclicChain(tuple(rels)), budget=cfg.budget)
    _emit(
        args,
        fio.dumps(
            {
                "count": len(gens),
                "tuples": [[list(pt) for pt in t] for t in gens.tuples],
            }
        ),
    )
    return 0


def cmd_invariant(args):
    g = _load_group(args)
    cfg = _config(args)
    c = fio.chain_from_json(fio.load_json(args.chain))
    spec = PartialFunctorSpec(g, budget=cfg.budget)
    spec.cache.workers = cfg.workers
    gens, count = closed_invariant(spec, c, budget=cfg.budget)
    _emit(
        args,
        fio.dumps(
            {
                "count": count,
                "generators": [[list(pt) for pt in t] for t in gens.tuples],
            }
        ),
    )
    return 0


def cmd_verify_cerf(args):
    g = _load_group(args)
    cfg = _config(args)
    spec = PartialFunctorSpec(g, budget=cfg.budget)
    spec.cache.workers = cfg.workers
    genera = tuple(args.genus) if args.genus else (1, 2)
    report = verify_cerf_compatibility(spec, genera=genera)
    _emit(args, fio.dumps(report))
    return 0 if all(e["status"] == "pass" for e in report) else 1


def cmd_oracle(args):
    g = _load_group(args)
    cfg = _config(args)
    n, relators = fio.presentation_from_json(fio.load_json(args.presentation))
    count = presentation_oracle(g, n, relators, budget=cfg.budget)
    _emit(args, fio.dumps({"count": count}))
    return 0


def cmd_bordism_validate(args):
    try:
        c = fio.chain_from_json(fio.load_json(args.chain))
    except FloerkitError as err:
        _emit(args, fio.dumps({"valid": False, "error": str(err)}))
        return 1
    _emit(
        args,
        fio.dumps(
            {
                "valid": True,
                "source": c.source.to_json(),
                "target": c.target.to_json(),
                "steps": len(c),
            }
        ),
    )
    return 0


def cmd_bordism_neighbors(args):
    c = fio.chain_from_json(fio.load_json(args.chain))
    moves = cerf_neighbors(c, CerfRegistry())
    _emit(
        args,
        fio.dumps(
            [
                {"kind": m.kind, "position": m.pos, "result": fio.chain_to_json(r)}
                for m, r in moves
            ]
        ),
    )
    return 0


def cmd_bordism_connect(args):
    cfg = _config(args)
    c1 = fio.chain_from_json(fio.load_json(args.chain))
    c2 = fio.chain_from_json(fio.load_json(args.to))
    path = cerf_connected(c1, c2, depth=cfg.depth)
    if path is None:
        _emit(args, fio.dumps({"connected": False, "depth": cfg.depth}))
        return 1
    _emit(
        args,
        fio.dumps(
            {
                "connected": True,
                "moves": [{"kind": m.kind, "position": m.pos} for m in path],
            }
        ),
    )
    return 0


def cmd_quilt_validate(args):
    g = _load_group(args)
    q = fio.diagram_from_json(g, fio.load_json(args.diagram))
    report = q.validate()
    _emit(args, fio.dumps(report))
    return 0 if all(e["status"] == "pass" for e in report) else 1


def cmd_quilt_glue(args):
    g = _load_group(args)
    q1 = fio.diagram_from_json(g, fio.load_json(args.first))
    q2 = fio.diagram_from_json(g, fio.load_json(args.second))
    glued = quilt_glue(q1, q2, args.end)
    _emit(args, fio.dumps(fio.diagram_to_json(glued)))
    return 0


def cmd_quilt_shrink(args):
    g = _load_group(args)
    q = fio.diagram_from_json(g, fio.load_json(args.diagram))
    shrunk = shrink_strip(q, args.patch)
    _emit(args, fio.dumps(fio.diagram_to_json(shrunk)))
    return 0


def cmd_quilt_eval(args):
    g = _load_group(args)
    cfg = _config(args)
    q = fio.diagram_from_json(g, fio.load_json(args.diagram))
    raw = fio.load_json(args.inputs)
    inputs = {e: tuple(tuple(pt) for pt in t) for e, t in raw.items()}
    out = quilt_evaluate(q, inputs, budget=cfg.budget)
    _emit(
        args,
        fio.dumps({"outputs": sorted([list(pt) for pt in t] for t in out)}),
    )
    return 0


def cmd_quilt_export_dot(args):
    g = _load_group(args)
    q = fio.diagram_from_json(g, fio.load_json(args.diagram))
    _emit(args, export_dot(q))
    return 0


def cmd_cat_validate(args):
    from .errors import CategoryMismatch

    if not args.category and not args.bicategory:
        raise FloerkitError("need --category or --bicategory")
    try:
        if args.bicategory:
            B = fio.bicategory_from_json(fio.load_json(args.bicategory))
            if B.hcomp2 is not None:
                B.validate_bicategory()
            counts = {
                "valid": True,
                "objects": len(B.objects),
                "one_morphisms": len(B.one),
                "two_morphisms": len(B.two),
            }
        else:
            cat = fio.category_from_json(fio.load_json(args.category))
            counts = {
                "valid": True,
                "objects": len(cat.objects),
                "morphisms": len(cat.morphisms),
            }
    except CategoryMismatch as err:
        _emit(
            args,
            fio.dumps(
                {"valid": False, "violation": str(err), "witness": repr(err.witness)}
            ),
        )
        return 1
    _emit(args, fio.dumps(counts))
    return 0


def _load_bicategory(args):
    from .catgen import relation_bicategory

    if getattr(args, "bicategory", None):
        return fio.bicategory_from_json(fio.load_json(args.bicategory))
    if not args.group:
        raise FloerkitError("need --group (builtin relation bicategory) or --bicategory")
    return relation_bicategory(_load_group(args))


def cmd_cat_yoneda(args):
    from .cats import yoneda

    B = _load_bicategory(args)
    base = B.objects[0] if args.base is None else _find_object(B, args.base)
    y = yoneda(B, base)
    _emit(
        args,
        fio.dumps(
            {
                "base": repr(base),
                "categories": {
                    repr(x): {
                        "objects": len(c.objects),
                        "morphisms": len(c.morphisms),
                    }
                    for x, c in y["categories"].items()
                },
                "functors": len(y["functors"]),
                "transformations": len(y["transformations"]),
            }
        ),
    )
    return 0


def _find_object(B, name):
    for x in B.objects:
        if str(x) == name or repr(x) == name:
            return x
    raise FloerkitError(f"no object named {name!r}; have {[repr(x) for x in B.objects]}")


def cmd_cat_quotient(args):
    from .cats import quotient_by_2isos
    from .errors import IllFormedQuotient

    B = _load_bicategory(args)
    try:
        q = quotient_by_2isos(B)
    except IllFormedQuotient as err:
        _emit(args, fio.dumps({"quotient": None, "witness": repr(err.witness)}))
        return 1
    _emit(
        args,
        fio.dumps(
            {
                "objects": len(q.objects),
                "morphism_classes": len(q.morphisms),
            }
        ),
    )
    return 0


# -- argument parsing -------------------------------------------------------------


def build_parser():
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
        return args.fn(args)
    except FloerkitError as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        if err.witness is not None:
            payload["witness"] = repr(err.witness)
        _emit(args, fio.dumps(payload))
        return 1
    except FileNotFoundError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
