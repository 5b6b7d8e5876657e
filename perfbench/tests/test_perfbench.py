"""Self-test of the benchmark: every workload passes its gate at smoke
size, the traced run covers every per-module metric, and the gate fails
when an answer or a reference is wrong.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
           "--seconds", "0", "--scale", "smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fk():
    child.import_floerkit(ROOT)
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"floerkit.{m}") for m in child.MODULES}
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_passes_gate(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["pass_rate"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_reports_every_module_metric(workload):
    # correct also asserts that every metric the table names is non-zero
    result = result_of(run_bench("--workload", workload, "--trace", "1"))
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def copy_benchmark(dest, with_src=True):
    """A checkout holding BENCHMARK.json, perfbench/ and, if asked, src/."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=skip)


def test_tampered_reference_drives_error_rate_up(tmp_path):
    copy_benchmark(tmp_path)
    tampered = copy.deepcopy(REFERENCE)
    tampered["varieties"]["S3:2"] += 1
    (tmp_path / "perfbench" / "reference.json").write_text(json.dumps(tampered))
    result = result_of(run_bench("--workload", "varieties", "--trace", "0", cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_rate"]["value"] < 1.0


def test_flipped_embedded_flag_fails_the_cerf_gate(fk, tmp_path):
    inp = workloads.set_up(fk, "cerf", 5, "smoke", str(tmp_path))
    tasks = workloads.run_cerf(fk, inp)
    assert all(ok for _, ok, _ in workloads.check(fk, inp, tasks, REFERENCE))
    entry = next(e for e in tasks[0].value
                 if e["check"] == "switch-mixed-handles" and e["genus"] == 2)
    entry["embedded"] = True
    assert not all(ok for _, ok, _ in workloads.check(fk, inp, tasks, REFERENCE))


def test_wrong_points_fail_the_content_check(fk, tmp_path):
    inp = workloads.set_up(fk, "varieties", 7, "smoke", str(tmp_path))
    tasks = workloads.run_varieties(fk, inp)
    assert all(ok for _, ok, _ in workloads.check(fk, inp, tasks, REFERENCE))
    path = tasks[0].value["path"]
    with open(path) as fh:
        data = json.load(fh)
    data["points"][1] = data["points"][0]  # same count, one point wrong
    with open(path, "w") as fh:
        fh.write(workloads.cli_dumps(data))
    results = dict((tid, ok) for tid, ok, _ in workloads.check(fk, inp, tasks, REFERENCE))
    assert not results[tasks[0].id]


def test_benchmark_conjugation_matches_program(fk):
    for g in (fk.groups.symmetric_group(4), fk.groups.quaternion_group()):
        assert np.array_equal(workloads.conjugation_table(g.mul), g.conj)


def test_bare_directory_fails_without_result(tmp_path):
    copy_benchmark(tmp_path, with_src=False)
    proc = run_bench("--workload", "categories", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
