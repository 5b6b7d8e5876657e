"""Per-module tracing from outside the program.

The tracer wraps public functions of floerkit and patches the wrapper into
every floerkit module that holds the original, by identity: the home
module and each module that imported the name (``cli.repvariety``,
``fieldfun.relation_of_attach2``, ``quilt.generator_set``, ...).  Methods
are patched on their class.  Nothing under ``src/`` is edited.

Coarse calls are recorded as spans (name, start, end, parent) kept in
memory; hot calls (``canonical_point``, ``eval_word``, ...) only add to
aggregate counters.  Both kinds take part in self-time accounting: a
call's self time is its duration minus the time of traced calls made
inside it.

Not traced: the forked workers of ``repvar --workers 2``; that command
appears as one ``parallel.run_chunks`` span of the parent process.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import Counter

# (module, attribute, kind).  kind "span" records a span per call, "timed"
# only aggregates calls and seconds, "count" only counts calls.
TRACED = [
    ("groups", "FiniteGroup.__init__", "span"),
    ("words", "eval_word", "count"),
    ("repvar", "repvariety", "span"),
    ("repvar", "enumerate_relator_solutions", "tuples"),
    ("repvar", "canonical_point", "timed"),
    ("repvar", "relation_of_attach2", "span"),
    ("repvar", "relation_of_cyl", "span"),
    ("repvar", "FiniteRelation.__init__", "timed"),
    ("repvar", "FiniteRelation.successors", "timed"),
    ("relcat", "geometric_compose", "timed"),
    ("relcat", "is_embedded", "span"),
    ("relcat", "generator_set", "timed"),
    ("fieldfun", "verify_cerf_compatibility", "span"),
    ("fieldfun", "closed_invariant", "span"),
    ("quilt", "quilt_evaluate", "timed"),
    ("quilt", "quilt_glue", "span"),
    ("cats", "FinCategory.validate", "timed"),
    ("cats", "FinFunctor.validate", "timed"),
    ("cats", "NatTransformation.validate", "timed"),
    ("cats", "all_functors", "span"),
    ("cats", "all_nats", "timed"),
    ("cats", "functor_category", "span"),
    ("cats", "quotient_by_2isos", "span"),
    ("cats", "yoneda", "span"),
    ("catgen", "random_category", "span"),
    ("catgen", "relation_bicategory", "span"),
    ("cli", "dispatch", "span"),
    ("io", "dumps", "span"),
    ("parallel", "run_chunks", "span"),
]

# Metric names differ from the traced names only for constructors.
METRIC_NAME = {
    "groups.FiniteGroup.__init__": "groups.FiniteGroup",
    "repvar.FiniteRelation.__init__": "repvar.FiniteRelation.new",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()     # inclusive, outermost call of a name only
        self.self_seconds = Counter()
        self.depth = Counter()
        self.extra = Counter()       # derived counters, see the hooks below
        self.spans = []              # (name, start, end, parent span index)
        self.circles = set()
        self._stack = []             # [name, start, seconds in traced children]
        self._open_spans = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, kind):
        if kind == "count":
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == "tuples":
            return self._wrap_generator(name, fn)
        record = kind == "span"
        hook = HOOKS.get(name)
        stack, perf = self._stack, time.perf_counter

        def timed(*args, **kwargs):
            self.calls[name] += 1
            self.depth[name] += 1
            span = None
            if record:
                parent = self._open_spans[-1] if self._open_spans else None
                span = len(self.spans)
                self.spans.append([name, None, None, parent])
                self._open_spans.append(span)
            before = hook.enter(self, args) if hook else None
            frame = [name, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - frame[1]
                self.self_seconds[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                self.depth[name] -= 1
                if self.depth[name] == 0:
                    self.seconds[name] += elapsed
                if record:
                    self.spans[span][1:3] = [frame[1], end]
                    self._open_spans.pop()
            if hook:
                hook.exit(self, args, result, before)
            return result

        return timed

    def _wrap_generator(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.extra[name + ".tuples"] += n

        return counted

    # -- installation -----------------------------------------------------

    def install(self, package="floerkit"):
        """Import every module of the package, then patch each traced
        function wherever a module holds it.  Raises if a traced name is
        missing, so a renamed function cannot silently stop being counted;
        ``getattr`` raises for it."""
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, attr, kind in TRACED:
            home = sys.modules[f"{package}.{mod_name}"]
            full = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(full, cls.__dict__[meth], kind))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(full, orig, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Raw per-name figures, keyed by metric name."""
        out = {}
        for mod_name, attr, kind in TRACED:
            full = f"{mod_name}.{attr}"
            name = METRIC_NAME.get(full, full)
            out[f"{name}.calls"] = self.calls[full]
            if kind in ("span", "timed"):
                out[f"{name}.s"] = self.seconds[full]
                out[f"{name}.self_s"] = self.self_seconds[full]
        for key, value in self.extra.items():
            out[key] = value
        return out


# -- hooks for derived counters -----------------------------------------------


class _RepvarietyHook:
    """Points returned per canonical_point call made inside repvariety.
    Calls whose canonicalisation ran in forked workers are left out."""

    @staticmethod
    def enter(tracer, args):
        return tracer.calls["repvar.canonical_point"]

    @staticmethod
    def exit(tracer, args, result, before):
        made = tracer.calls["repvar.canonical_point"] - before
        if made:
            tracer.extra["repvar.repvariety.points"] += len(result.points)
            tracer.extra["repvar.repvariety.canonical_calls"] += made


class _Attach2Hook:
    @staticmethod
    def enter(tracer, args):
        return None

    @staticmethod
    def exit(tracer, args, result, before):
        group, circle = args[0], args[1]
        tracer.circles.add((id(group), circle))
        tracer.extra["repvar.relation_of_attach2.distinct"] = len(tracer.circles)


class _GeneratorSetHook:
    @staticmethod
    def enter(tracer, args):
        return None

    @staticmethod
    def exit(tracer, args, result, before):
        if tracer.depth["quilt.quilt_evaluate"]:
            tracer.extra["quilt.quilt_evaluate.generator_sets"] += 1


class _AllFunctorsHook:
    """Functors kept per FinFunctor built (each construction validates once)."""

    @staticmethod
    def enter(tracer, args):
        return tracer.calls["cats.FinFunctor.validate"]

    @staticmethod
    def exit(tracer, args, result, before):
        tracer.extra["cats.all_functors.kept"] += len(result)
        tracer.extra["cats.all_functors.built"] += tracer.calls["cats.FinFunctor.validate"] - before


class _DumpsHook:
    @staticmethod
    def enter(tracer, args):
        return None

    @staticmethod
    def exit(tracer, args, result, before):
        tracer.extra["io.dumps.bytes"] += len(result.encode())


HOOKS = {
    "repvar.repvariety": _RepvarietyHook,
    "repvar.relation_of_attach2": _Attach2Hook,
    "relcat.generator_set": _GeneratorSetHook,
    "cats.all_functors": _AllFunctorsHook,
    "io.dumps": _DumpsHook,
}
