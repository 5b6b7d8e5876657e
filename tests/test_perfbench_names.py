"""The benchmark's tracer patches floerkit functions by name; a rename
would silently zero the metric it feeds.  Check every traced name still
resolves, reading ``perfbench/tracer.py`` without importing it as a
package module (so nothing is written next to it)."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_in_floerkit():
    traced = load_tracer().TRACED
    assert traced
    for mod_name, attr, _kind in traced:
        home = importlib.import_module(f"floerkit.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(home, cls_name))[meth]
        else:
            fn = getattr(home, attr)
        assert callable(fn), (mod_name, attr)
