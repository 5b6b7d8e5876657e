"""Regenerate perfbench/reference.json.

Counts come from ``presentation_oracle``, a brute-force count of
conjugacy classes of representations that shares no code path with
``repvariety`` or ``closed_invariant``.  The digests are those of the CLI
output on the standard labels (seed 0) at the commit that wrote the file.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(child.HERE, "reference.json")

# Killing a_1 and a_2 on both sides leaves F_2; the genus-2 sphere is S^3.
INVARIANT_PRESENTATIONS = {
    "genus2_sphere_chain": (0, ()),
    "genus2_connected_sum_chain": (2, ()),
}


def surface_presentation(genus):
    """<a_1, b_1, ..., a_g, b_g | [a_1, b_1] ... [a_g, b_g]>"""
    relator = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        relator += [a, b, -a, -b]
    return 2 * genus, (tuple(relator),)


def main():
    root = os.getcwd()
    child.import_floerkit(root)
    import importlib

    fk = types.SimpleNamespace(
        **{m: importlib.import_module(f"floerkit.{m}") for m in child.MODULES}
    )
    constructors = workloads.group_constructors(fk)
    ref = {
        "varieties": {},
        "invariants": {},
        "digests": {},
        "cerf_non_embedded": {"check": "switch-mixed-handles", "genus": 2, "per_group": 7},
    }
    for scale, cfg in workloads.SCALES.items():
        v = cfg["varieties"]
        for g, genus in v["repvar"]:
            n, rels = surface_presentation(genus)
            ref["varieties"][f"{g}:{genus}"] = fk.fieldfun.presentation_oracle(constructors[g](), n, rels)
        for chain, (n, rels) in INVARIANT_PRESENTATIONS.items():
            g = v["invariant_group"]
            ref["invariants"][f"{g}:{chain}"] = fk.fieldfun.presentation_oracle(constructors[g](), n, rels)

        os.makedirs(child.WORK_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=child.WORK_DIR)
        try:
            inp = workloads.set_up(fk, "varieties", 0, scale, workdir)
            for t in workloads.run_varieties(fk, inp):
                if t.error or t.value["code"] != 0:
                    raise SystemExit(f"{t.id} failed: {t.error or t.value}")
                if not t.id.startswith("repvar-workers2"):
                    with open(t.value["path"], "rb") as fh:
                        ref["digests"][f"{scale}:{t.id}"] = workloads.sha256(fh.read())
        finally:
            shutil.rmtree(workdir)
    with open(OUT, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
