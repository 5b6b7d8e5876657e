import hashlib
import io
import json
import sys

import pytest

from floerkit import io as fio
from floerkit.cli import dispatch
from floerkit.fieldfun import lens_chain, s1_x_s2_chain, sphere_chain
from floerkit.groups import cyclic_group, symmetric_group
from floerkit.quilt import cylinder_diagram
from floerkit.bordobjects import surface
from floerkit.repvar import (
    VarietyCache,
    canonical_point,
    diagonal_relation,
    relation_of_attach2,
    relation_of_cyl,
    satisfies_relator,
)
from floerkit.bordism import canonical_circle
from floerkit.words import dehn_twist_a


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = dispatch(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")

    def write(name, data):
        p = tmp / name
        p.write_text(json.dumps(data))
        return str(p)

    s3 = symmetric_group(3)
    cache = VarietyCache(s3)
    rel_a = relation_of_attach2(s3, canonical_circle(1), cache)
    rel_g = relation_of_cyl(s3, dehn_twist_a(1), cache)
    q = cylinder_diagram([rel_a, rel_a.transpose()])
    nonjson = tmp / "nonjson.json"
    nonjson.write_text("not json")

    def forged(group, point):
        # the diagonal on the genus-1 variety, with one more point and pair
        data = diagonal_relation(VarietyCache(group).variety(surface(1))).to_json()
        for side in ("source", "target"):
            data[side]["points"].append(point)
        data["pairs"].append([point, point])
        return data

    pairs = [(a, b) for a in range(s3.order) for b in range(s3.order)]
    off_relator = next(p for p in pairs if not satisfies_relator(s3, p))
    off_canonical = next(
        p for p in pairs if satisfies_relator(s3, p) and canonical_point(s3, p) != p
    )
    return {
        "nonjson": str(nonjson),
        "nomul": write("nomul.json", {"bad": 1}),
        "ragged": write("ragged.json", {"mul": [[0, 1], [1]]}),
        "twist_a1": write("twist_a1.json", dehn_twist_a(1).to_json()),
        "s3": write("s3.json", s3.to_json()),
        "z2": write("z2.json", cyclic_group(2).to_json()),
        "sphere": write("sphere.json", fio.chain_to_json(sphere_chain())),
        "lens2": write("lens2.json", fio.chain_to_json(lens_chain(2))),
        "s1s2": write("s1s2.json", fio.chain_to_json(s1_x_s2_chain())),
        "pres": write("pres.json", {"generators": 1, "relators": [[1, 1]]}),
        "rel_a": write("rel_a.json", rel_a.to_json()),
        "rel_at": write("rel_at.json", rel_a.transpose().to_json()),
        "rel_g": write("rel_g.json", rel_g.to_json()),
        "diagram": write("diagram.json", fio.diagram_to_json(q)),
        "badgroup": write("badgroup.json", {"name": "bad", "order": 2, "mul": [[1, 0], [1, 0]]}),
        "chain_nogenus": write("chain_nogenus.json", [{"kind": "cyl"}]),
        "chain_string": write("chain_string.json", ["cyl"]),
        "chain_badgenus": write("chain_badgenus.json", [{"kind": "cyl", "genus": "a"}]),
        "chain_nokind": write("chain_nokind.json", [{"genus": 1}]),
        "chain_noimages": write(
            "chain_noimages.json", [{"kind": "cyl", "genus": 1, "auto": {"genus": 1}}]
        ),
        "emptydiagram": write("emptydiagram.json", {}),
        "forged_range": write("forged_range.json", forged(cyclic_group(2), [7, 7])),
        "forged_relator": write("forged_relator.json", forged(s3, list(off_relator))),
        "forged_canonical": write(
            "forged_canonical.json", forged(s3, list(off_canonical))
        ),
    }


def test_usage_error_exit_2():
    code, _ = run([])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2


def test_group_check(files):
    code, out = run(["group-check", "--group", files["s3"]])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6 and len(data["conjugacy_classes"]) == 3
    code, out = run(["group-check", "--group", files["badgroup"]])
    assert code == 1
    assert json.loads(out)["error"] == "NoIdentity"


MALFORMED_CHAINS = (
    "chain_nogenus",
    "chain_string",
    "chain_badgenus",
    "chain_nokind",
    "chain_noimages",
)


@pytest.mark.parametrize(
    "argv",
    [
        ["group-check", "--group", "nomul"],
        ["group-check", "--group", "nonjson"],
        ["group-check", "--group", "ragged"],
        ["repvar", "--group", "nonjson", "--genus", "1"],
        ["repvar", "--group", "s3", "--genus", "-1"],
        ["lagrangian", "--group", "s3", "--genus", "1", "--kind", "cyl",
         "--auto", "nonjson"],
        *(["bordism-validate", "--chain", chain] for chain in MALFORMED_CHAINS),
        *(["invariant", "--group", "s3", "--chain", chain] for chain in MALFORMED_CHAINS),
        ["quilt-validate", "--group", "s3", "--diagram", "emptydiagram"],
        ["quilt-glue", "--group", "s3", "--first", "emptydiagram",
         "--second", "diagram", "--end", "e0"],
        ["quilt-shrink", "--group", "s3", "--diagram", "emptydiagram", "--patch", "f0"],
        ["quilt-export-dot", "--group", "s3", "--diagram", "emptydiagram"],
        ["compose", "--group", "z2", "forged_range", "forged_range"],
        ["compose", "--group", "s3", "forged_relator", "forged_relator"],
        ["compose", "--group", "s3", "forged_canonical", "forged_canonical"],
    ],
    ids=[
        "group-without-mul",
        "group-not-json",
        "group-ragged-table",
        "repvar-not-json",
        "repvar-negative-genus",
        "auto-not-json",
        *(f"bordism-validate-{chain}" for chain in MALFORMED_CHAINS),
        *(f"invariant-{chain}" for chain in MALFORMED_CHAINS),
        "quilt-validate-empty-diagram",
        "quilt-glue-empty-diagram",
        "quilt-shrink-empty-diagram",
        "quilt-export-dot-empty-diagram",
        "compose-point-out-of-range",
        "compose-point-off-relator",
        "compose-point-not-canonical",
    ],
)
def test_bad_input_exits_1_with_report(files, argv):
    argv = [files.get(a, a) for a in argv]
    code, out = run(argv)
    assert code == 1
    assert "error" in json.loads(out)


def test_forged_variety_point_is_the_witness(files):
    code, out = run(
        ["compose", "--group", files["z2"], files["forged_range"], files["forged_range"]]
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "FloerkitError"
    assert report["witness"] == repr([7, 7])


def test_lagrangian_cyl_without_auto_is_the_diagonal(files):
    code, out = run(
        ["lagrangian", "--group", files["s3"], "--genus", "1", "--kind", "cyl"]
    )
    assert code == 0
    variety = VarietyCache(symmetric_group(3)).variety(surface(1))
    assert out == fio.dumps(diagonal_relation(variety).to_json())


def test_lagrangian_cyl_with_auto_output_pinned(files):
    code, out = run(
        [
            "lagrangian", "--group", files["s3"], "--genus", "1", "--kind", "cyl",
            "--auto", files["twist_a1"],
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9614d035b17e3925e9dce73062b59518ea550647559af7fce0bcb224b6cc1287"
    )


def test_repvar_counts(files):
    code, out = run(["repvar", "--group", files["s3"], "--genus", "1"])
    assert code == 0
    assert len(json.loads(out)["points"]) == 8


def test_invariants(files):
    for chain_file, group_file, expected in [
        ("sphere", "s3", 1),
        ("sphere", "z2", 1),
        ("lens2", "s3", 2),
        ("s1s2", "s3", 3),
    ]:
        code, out = run(
            ["invariant", "--group", files[group_file], "--chain", files[chain_file]]
        )
        assert code == 0
        assert json.loads(out)["count"] == expected


def test_oracle(files):
    code, out = run(
        ["oracle", "--group", files["s3"], "--presentation", files["pres"]]
    )
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_compose_embedded_generators(files):
    code, out = run(
        ["compose", "--group", files["s3"], files["rel_at"], files["rel_a"]]
    )
    assert code == 0
    code, out = run(
        ["embedded", "--group", files["s3"], files["rel_a"], files["rel_at"]]
    )
    # attach then its transpose: the one-point middle makes intermediates
    # unique, so this is embedded
    assert code == 0 and json.loads(out)["embedded"] is True
    code, out = run(
        ["embedded", "--group", files["s3"], files["rel_at"], files["rel_a"]]
    )
    assert code == 1 and json.loads(out)["embedded"] is False
    assert "witness" in json.loads(out)
    code, out = run(
        [
            "generators",
            "--group",
            files["s3"],
            "--cyclic",
            files["rel_a"],
            files["rel_at"],
        ]
    )
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_verify_cerf_cli(files):
    code, out = run(["verify-cerf", "--group", files["z2"], "--genus", "1"])
    assert code == 0
    report = json.loads(out)
    assert report and all(e["status"] == "pass" for e in report)


def test_bordism_cli(files):
    code, out = run(["bordism-validate", "--chain", files["sphere"]])
    assert code == 0
    assert json.loads(out)["steps"] == 4
    code, out = run(["bordism-neighbors", "--chain", files["sphere"]])
    assert code == 0
    moves = json.loads(out)
    assert any(m["kind"] == "CritCancel" for m in moves)
    code, out = run(
        [
            "bordism-connect",
            "--chain",
            files["sphere"],
            "--to",
            files["sphere"],
            "--depth",
            "1",
        ]
    )
    assert code == 0 and json.loads(out)["connected"] is True
    code, out = run(
        [
            "bordism-connect",
            "--chain",
            files["sphere"],
            "--to",
            files["s1s2"],
            "--depth",
            "1",
        ]
    )
    assert code == 1 and json.loads(out)["connected"] is False


def test_quilt_cli(files, tmp_path):
    code, out = run(
        ["quilt-validate", "--group", files["s3"], "--diagram", files["diagram"]]
    )
    assert code == 0
    code, out = run(
        ["quilt-export-dot", "--group", files["s3"], "--diagram", files["diagram"]]
    )
    assert code == 0 and out.startswith("graph quilt {")
    # round-trip: glue the diagram with itself
    code, out = run(
        [
            "quilt-glue",
            "--group",
            files["s3"],
            "--first",
            files["diagram"],
            "--second",
            files["diagram"],
            "--end",
            "e0",
        ]
    )
    assert code == 0
    glued = json.loads(out)
    assert len(glued["seams"]) == 2
    inputs = tmp_path / "inputs.json"
    diagram_data = json.loads(open(files["diagram"]).read())
    # generator tuple for the incoming end: [( (0,0) point?, () )]; compute via eval
    from floerkit.groups import symmetric_group
    from floerkit.io import diagram_from_json
    from floerkit.relcat import generator_set

    q = diagram_from_json(symmetric_group(3), diagram_data)
    incoming = q.surface.incoming_ends()[0]
    gens = generator_set(q.end_cyclic_chain(incoming))
    t = gens.tuples[0]
    inputs.write_text(json.dumps({incoming: [list(p) for p in t]}))
    code, out = run(
        [
            "quilt-eval",
            "--group",
            files["s3"],
            "--diagram",
            files["diagram"],
            "--inputs",
            str(inputs),
        ]
    )
    assert code == 0
    assert json.loads(out)["outputs"] == [[list(p) for p in t]]


def test_cat_cli(files, tmp_path):
    from floerkit.catgen import poset_category
    from floerkit.io import category_to_json

    cat = poset_category(lambda x, y: x <= y, (0, 1), name="two")
    cat_file = tmp_path / "cat.json"
    cat_file.write_text(json.dumps(category_to_json(cat)))
    code, out = run(["cat-validate", "--category", str(cat_file)])
    assert code == 0 and json.loads(out)["valid"] is True

    bad = category_to_json(cat)
    bad["composition"] = bad["composition"][1:]
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    code, out = run(["cat-validate", "--category", str(bad_file)])
    assert code == 1 and json.loads(out)["valid"] is False

    code, out = run(["cat-quotient", "--group", files["z2"]])
    assert code == 0
    code, out = run(["cat-yoneda", "--group", files["z2"]])
    assert code == 0


def test_bicategory_file_round_trip(files, tmp_path):
    from floerkit.catgen import relation_bicategory
    from floerkit.cats import bicategory_with_identity_2cells
    from floerkit.catgen import poset_category
    from floerkit.io import bicategory_from_json, bicategory_to_json

    B = bicategory_with_identity_2cells(
        poset_category(lambda x, y: x <= y, (0, 1), name="two")
    )
    data = bicategory_to_json(B)
    B2 = bicategory_from_json(data)
    B2.validate_bicategory()
    assert len(B2.one) == len(B.one)

    bic_file = tmp_path / "bic.json"
    bic_file.write_text(json.dumps(data))
    code, out = run(["cat-validate", "--bicategory", str(bic_file)])
    assert code == 0 and json.loads(out)["two_morphisms"] == 3
    code, out = run(["cat-quotient", "--bicategory", str(bic_file)])
    assert code == 0 and json.loads(out)["morphism_classes"] == 3
    code, out = run(
        ["cat-yoneda", "--bicategory", str(bic_file), "--base", "0"]
    )
    assert code == 0


def test_worker_determinism(files):
    commands = [
        ["repvar", "--group", files["s3"], "--genus", "2"],
        ["invariant", "--group", files["s3"], "--chain", files["sphere"]],
        ["verify-cerf", "--group", files["z2"], "--genus", "1"],
        ["lagrangian", "--group", files["s3"], "--genus", "1", "--kind", "attach2"],
    ]
    for base in commands:
        outputs = set()
        for workers in ("1", "4", "8"):
            code, out = run(base + ["--workers", workers])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1, base


def test_output_file(files, tmp_path):
    target = tmp_path / "out.json"
    code, _ = run(
        ["group-check", "--group", files["s3"], "--output", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["order"] == 6
