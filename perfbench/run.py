"""floerkit benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload varieties --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each measured run of the workload happens
in a fresh child process (perfbench/child.py), so no module-level cache
carries over; runs repeat while one more fits in ``--seconds``, and every
metric is the median over them (see perfbench/README.md).  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-module metrics, from
traced runs alternating with untraced ones.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# A run must end within 180 s: no run is started that would end past this.
LAST_START_S = 120.0

# Per-module metric -> workloads on which it must be non-zero (the
# "moves ... on" column of perfbench/README.md).
REQUIRED_NONZERO = {
    "groups.FiniteGroup.s": workloads.WORKLOADS,
    "words.eval_word.calls": ("cerf",),
    "repvar.repvariety.calls": ("varieties",),
    "repvar.repvariety.s": ("varieties",),
    "repvar.enumerate_relator_solutions.tuples": ("varieties",),
    "repvar.orbit_yield": ("varieties",),
    "repvar.canonical_point.calls": ("varieties", "cerf"),
    "repvar.canonical_point.s": ("varieties", "cerf"),
    "repvar.relation_of_attach2.calls": ("cerf",),
    "repvar.relation_of_attach2.s": ("cerf",),
    "repvar.relation_of_attach2.distinct_frac": ("cerf",),
    "repvar.relation_of_cyl.calls": ("cerf", "quilts"),
    "repvar.relation_of_cyl.s": ("cerf", "quilts"),
    "repvar.FiniteRelation.new.calls": ("cerf", "categories"),
    "repvar.FiniteRelation.new.s": ("cerf", "categories"),
    "repvar.FiniteRelation.successors.calls": ("quilts",),
    "repvar.FiniteRelation.successors.s": ("quilts",),
    "relcat.geometric_compose.calls": ("cerf", "categories"),
    "relcat.geometric_compose.s": ("cerf", "categories"),
    "relcat.is_embedded.calls": ("cerf",),
    "relcat.is_embedded.s": ("cerf",),
    "relcat.generator_set.calls": ("quilts", "varieties"),
    "relcat.generator_set.s": ("quilts", "varieties"),
    "fieldfun.verify_cerf_compatibility.self_s": ("cerf",),
    "fieldfun.closed_invariant.s": ("varieties",),
    "quilt.quilt_evaluate.calls": ("quilts",),
    "quilt.quilt_evaluate.s": ("quilts",),
    "quilt.quilt_evaluate.self_s": ("quilts",),
    "quilt.quilt_glue.s": ("quilts",),
    "quilt.generator_sets_per_eval": ("quilts",),
    "cats.FinCategory.validate.calls": ("categories",),
    "cats.FinCategory.validate.s": ("categories",),
    "cats.FinFunctor.validate.calls": ("categories",),
    "cats.FinFunctor.validate.s": ("categories",),
    "cats.NatTransformation.validate.calls": ("categories",),
    "cats.NatTransformation.validate.s": ("categories",),
    "cats.all_functors.s": ("categories",),
    "cats.all_functors.accept_frac": ("categories",),
    "cats.all_nats.s": ("categories",),
    "cats.functor_category.s": ("categories",),
    "cats.quotient_by_2isos.s": ("categories",),
    "cats.yoneda.s": ("categories",),
    "catgen.random_category.s": ("categories",),
    "catgen.relation_bicategory.s": ("categories",),
    "cli.dispatch.self_s": ("varieties",),
    "io.dumps.s": ("varieties",),
    "io.dumps.bytes": ("varieties",),
    "parallel.run_chunks.s": ("varieties",),
    "trace.overhead_frac": workloads.WORKLOADS,
}


def ratio(num, den):
    return num / den if den else 0.0


def per_module(raw):
    """Per-module metrics of one traced run from the tracer's raw figures."""
    out = dict(raw)
    out["repvar.orbit_yield"] = ratio(
        raw.get("repvar.repvariety.points", 0), raw.get("repvar.repvariety.canonical_calls", 0)
    )
    out["repvar.relation_of_attach2.distinct_frac"] = ratio(
        raw.get("repvar.relation_of_attach2.distinct", 0), raw["repvar.relation_of_attach2.calls"]
    )
    out["quilt.generator_sets_per_eval"] = ratio(
        raw.get("quilt.quilt_evaluate.generator_sets", 0), raw["quilt.quilt_evaluate.calls"]
    )
    out["cats.all_functors.accept_frac"] = ratio(
        raw.get("cats.all_functors.kept", 0), raw.get("cats.all_functors.built", 0)
    )
    return out


def run_child(args, trace=False, budget=170.0):
    cmd = [
        sys.executable, CHILD,
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--trace", "1" if trace else "0",
        "--launch", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(budget, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def context(args, samples):
    """Machine, versions, commit, code size and workload sizes of the run."""
    import numpy

    cpu = mem = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            mem = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("MemTotal")), None)
    except OSError:
        pass
    commit = None
    head = os.path.join(".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: ") and os.path.exists(os.path.join(".git", ref[5:])):
            with open(os.path.join(".git", ref[5:])) as fh:
                commit = fh.read().strip()
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join("src", "floerkit")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "memory": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "runs": len(samples),
        "sizes": samples[0]["sizes"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="bench",
                   help="smoke: tiny sizes for the self-test")
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if set(REQUIRED_NONZERO) != {m["name"] for m in spec["per_layer"]}:
        sys.stderr.write("REQUIRED_NONZERO and the per_layer metrics of BENCHMARK.json differ\n")
        return 2
    if not os.path.isdir(os.path.join("src", "floerkit")):
        sys.stderr.write("no src/floerkit here: run from the repository root\n")
        return 2

    start = time.monotonic()

    def elapsed():
        return time.monotonic() - start

    plain, traced = [], []
    while True:
        began = elapsed()
        plain.append(run_child(args, budget=170.0 - elapsed()))
        if args.trace:
            traced.append(run_child(args, trace=True, budget=170.0 - elapsed()))
        # start another run only if one more fits in --seconds
        if 2 * elapsed() - began > min(args.seconds, LAST_START_S):
            break
    samples = plain + traced

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(1 for s in samples for tid, _ in s["failures"] if tid != "batch")
    problems = [f"{tid}: {detail}" for s in samples for tid, detail in s["failures"]]

    def median(key, runs):
        return statistics.median(r[key] for r in runs)

    if args.trace:
        layers = [per_module(s["trace"]) for s in traced]
        values = {m["name"]: statistics.median(l.get(m["name"], 0) for l in layers)
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"}
        values["trace.overhead_frac"] = median("run_s", traced) / median("run_s", plain) - 1
        for name, on in REQUIRED_NONZERO.items():
            if args.workload in on and not values.get(name):
                problems.append(f"trace: {name} is 0 on {args.workload}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "run_s": median("run_s", plain),
            "setup_s": median("setup_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
            "pass_rate": 1 - failed / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    for problem in problems:
        sys.stderr.write(f"FAILED {problem}\n")
    print("context " + json.dumps(context(args, samples), sort_keys=True))
    print("samples " + json.dumps([{k: s[k] for k in ("setup_s", "run_s", "peak_rss_mb")}
                                   for s in samples]))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"error_rate {failed / attempted!r} ({failed} of {attempted} tasks)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
