"""One run of one workload in a fresh process; started by run.py.

Prints one JSON object: set-up seconds, run seconds, peak RSS, the task
results and, when traced, the raw per-module figures.  Exits non-zero
when floerkit cannot be imported from ``src/`` of the working directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
MODULES = ("bordism", "catgen", "cats", "cli", "errors", "fieldfun", "groups",
           "io", "quilt", "relcat", "repvar", "words")
WORK_DIR = ".perfbench_work"


def import_floerkit(root):
    """floerkit from ``<root>/src``, never from an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import floerkit

    if os.path.dirname(os.path.abspath(floerkit.__file__)) != os.path.join(src, "floerkit"):
        raise SystemExit(f"floerkit imported from {floerkit.__file__}, not from {src}")
    return floerkit


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="bench")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--launch", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    root = os.getcwd()
    import_floerkit(root)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fk = types.SimpleNamespace(
        **{m: importlib.import_module(f"floerkit.{m}") for m in MODULES}
    )
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        inp = workloads.set_up(fk, args.workload, args.seed, args.scale, workdir)
        started = time.monotonic()
        tasks = workloads.RUNNERS[args.workload](fk, inp)
        out = {
            "setup_s": started - args.launch,
            "run_s": time.monotonic() - started,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        results = workloads.check(fk, inp, tasks, reference)
        out["attempted"] = len(tasks)
        out["failures"] = [(tid, detail) for tid, ok, detail in results if not ok]
        out["sizes"] = workloads.sizes(inp, tasks)
        if tracer is not None:
            out["trace"] = tracer.metrics()
            spans_path = os.path.join(root, WORK_DIR, f"spans-{args.workload}.json")
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
