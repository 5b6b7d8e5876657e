import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from floerkit import io as fio
from floerkit import repvar
from floerkit.cli import dispatch
from floerkit.fieldfun import lens_chain, s1_x_s2_chain, sphere_chain
from floerkit.groups import cyclic_group, symmetric_group
from floerkit.quilt import (
    QuiltDiagram,
    QuiltSurface,
    cylinder_diagram,
    object_cylinder_diagram,
)
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
from floerkit.catgen import poset_category, random_category
from floerkit.cats import FinCategory, bicategory_with_identity_2cells
from floerkit.io import bicategory_to_json, category_to_json
from floerkit.relcat import generator_set
from floerkit.words import dehn_twist_a
from test_cats import validate_oracle  # the multi-pass FinCategory.validate


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = dispatch(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


# an order-5 Latin square with identity 0 that is not associative:
# (1*1)*2 = 2 but 1*(1*2) = 1*3 = 4
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


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

    # the genus-1 diagonal with its source cut to the one point (0, 0), and
    # with its last source point listed twice: each point is valid, the
    # source is not the variety
    diag = diagonal_relation(cache.variety(surface(1))).to_json()
    source = diag["source"]
    cut = {**diag, "source": {**source, "points": [[0, 0]]}, "pairs": [[[0, 0], [0, 0]]]}
    doubled = {**diag, "source": {**source, "points": [*source["points"], source["points"][-1]]}}

    pairs = [(a, b) for a in range(s3.order) for b in range(s3.order)]
    off_relator = next(p for p in pairs if not satisfies_relator(s3, p))
    off_canonical = next(
        p for p in pairs if satisfies_relator(s3, p) and canonical_point(s3, p) != p
    )

    def relation_with(**fields):
        # the attach relation with some fields replaced (None drops one)
        data = {**rel_a.to_json(), **fields}
        return {k: v for k, v in data.items() if v is not None}

    two = poset_category(lambda x, y: x <= y, (0, 1), name="two")
    cat_short_row = category_to_json(two)
    cat_short_row["composition"][0] = cat_short_row["composition"][0][:1]
    bic = bicategory_to_json(bicategory_with_identity_2cells(two))
    bic_short_row = json.loads(json.dumps(bic))
    bic_short_row["vertical_composition"][0] = bic_short_row["vertical_composition"][0][:1]
    h2_short = {**bic, "horizontal_composition_2": bic["horizontal_composition_2"][1:]}
    h2_not_cell = json.loads(json.dumps(bic))
    h2_not_cell["horizontal_composition_2"][0][2] = "no-such-cell"
    # a 2-cell on a 1-cell 0 -> 1 does not compose with itself
    arrow = next(a for a, (f, _) in bic["two_morphisms"].items()
                 if len(set(bic["one_morphisms"][f])) == 2)
    h2_extra = {**bic, "horizontal_composition_2": [
        *bic["horizontal_composition_2"], [arrow, arrow, arrow]
    ]}

    diagram = fio.diagram_to_json(q)
    loaded = fio.diagram_from_json(s3, diagram)
    incoming = loaded.surface.incoming_ends()[0]
    generator = generator_set(loaded.end_cyclic_chain(incoming)).tuples[0]

    def diagram_with(**fields):
        # the diagram with some top-level fields replaced
        return {**diagram, **fields}

    first_patch, first_seam = sorted(diagram["patch_labels"])[0], sorted(diagram["seams"])[0]
    # seams s1 and s2 both pair seam-end "a"
    diag_label = {"kind": "raw", **diag}
    paired_twice = {
        "ends": {"e0": ["a", "b", "c", "d"]},
        "outgoing": "e0",
        "seams": {"s1": ["a", "b"], "s2": ["a", "c"], "s3": ["c", "d"]},
        "patch_labels": {"f0": surface(1).to_json()},
        "seam_labels": {s: diag_label for s in ("s1", "s2", "s3")},
    }
    end_order = diagram["ends"]["e0"]
    torus = cache.variety(surface(1))
    auto = dehn_twist_a(1).to_json()
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
        "nonassoc": write("nonassoc.json", {"mul": NON_ASSOCIATIVE_LOOP}),
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
        "diag": write("diag.json", diag),
        "cut": write("cut.json", cut),
        "doubled": write("doubled.json", doubled),
        "rel_nopairs": write("rel_nopairs.json", relation_with(pairs=None)),
        "rel_short_pair": write("rel_short_pair.json", relation_with(pairs=[[[0, 0]]])),
        "rel_int_pair": write("rel_int_pair.json", relation_with(pairs=[[1, 2]])),
        "rel_nested_pair": write(
            "rel_nested_pair.json", relation_with(pairs=[[[0, [0]], [0, 0]]])
        ),
        "rel_nosource": write("rel_nosource.json", relation_with(source=None)),
        "rel_list": write("rel_list.json", [rel_a.to_json()]),
        "pres_empty": write("pres_empty.json", {}),
        "pres_string_count": write(
            "pres_string_count.json", {"generators": "a", "relators": [[1]]}
        ),
        "pres_list": write("pres_list.json", [1]),
        "pres_string_relator": write(
            "pres_string_relator.json", {"generators": 1, "relators": ["ab"]}
        ),
        "cat_empty": write("cat_empty.json", {}),
        "cat_list": write("cat_list.json", [1]),
        "cat_short_row": write("cat_short_row.json", cat_short_row),
        "bic_short_row": write("bic_short_row.json", bic_short_row),
        "inputs_list": write("inputs_list.json", [1]),
        "inputs_int": write("inputs_int.json", {"e0": 5}),
        "inputs": write("inputs.json", {incoming: [list(p) for p in generator]}),
        "cat": write("cat.json", category_to_json(two)),
        "bic": write("bic.json", bic),
        "bic_h2_short": write("bic_h2_short.json", h2_short),
        "bic_h2_not_cell": write("bic_h2_not_cell.json", h2_not_cell),
        "bic_h2_extra": write("bic_h2_extra.json", h2_extra),
        "auto_noimages": write(
            "auto_noimages.json", {k: v for k, v in auto.items() if k != "images"}
        ),
        "auto_badgenus": write("auto_badgenus.json", {**auto, "genus": [[0]]}),
        "auto_badword": write("auto_badword.json", {**auto, "images": [1, 2]}),
        "diagram_nopatch": write(
            "diagram_nopatch.json",
            diagram_with(patch_labels={
                p: v for p, v in diagram["patch_labels"].items() if p != first_patch
            }),
        ),
        "diagram_noseam": write(
            "diagram_noseam.json",
            diagram_with(seam_labels={
                s: v for s, v in diagram["seam_labels"].items() if s != first_seam
            }),
        ),
        "diagram_list_end": write(
            "diagram_list_end.json",
            diagram_with(ends={**diagram["ends"], "e0": [[0], *end_order[1:]]}),
        ),
        "diagram_list_outgoing": write(
            "diagram_list_outgoing.json", diagram_with(outgoing=[0])
        ),
        "diagram_paired_twice": write("diagram_paired_twice.json", paired_twice),
        # two bare ends, and two ends of one seam: one end label each
        "bare_cylinder": write(
            "bare_cylinder.json", fio.diagram_to_json(object_cylinder_diagram(torus))
        ),
        "seam_cylinder": write(
            "seam_cylinder.json",
            fio.diagram_to_json(cylinder_diagram([diagonal_relation(torus)])),
        ),
        # the one-vertex torus with its end outgoing, and with that end
        # incoming beside a bare outgoing end
        **{
            name: write(f"{name}.json", fio.diagram_to_json(QuiltDiagram(
                QuiltSurface(ends, "out", {"A": ("a", "c"), "B": ("b", "d")}, end_patch=bare),
                {"f0": torus},
                {"A": diagonal_relation(torus), "B": diagonal_relation(torus)},
            )))
            for name, ends, bare in (
                ("torus_out", {"out": ("a", "b", "c", "d")}, {}),
                ("torus_in", {"in": ("a", "b", "c", "d"), "out": ()}, {"out": "f0"}),
            )
        },
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
MALFORMED_RELATIONS = (
    "rel_nopairs",
    "rel_short_pair",
    "rel_int_pair",
    "rel_nested_pair",
    "rel_nosource",
    "rel_list",
)
MALFORMED_PRESENTATIONS = (
    "pres_empty",
    "pres_string_count",
    "pres_list",
    "pres_string_relator",
)
BAD_AUTOS = ("auto_noimages", "auto_badgenus", "auto_badword")
UNLABELED_DIAGRAMS = ("diagram_nopatch", "diagram_noseam")
UNLABELED_COMMANDS = (
    ["quilt-glue", "--group", "s3", "--second", "diagram", "--end", "e0", "--first"],
    ["quilt-shrink", "--group", "s3", "--patch", "f1", "--diagram"],
    ["quilt-eval", "--group", "s3", "--inputs", "inputs", "--diagram"],
    ["quilt-export-dot", "--group", "s3", "--diagram"],
)
UNHASHABLE_DIAGRAMS = ("diagram_list_end", "diagram_list_outgoing")
BAD_HCOMP2 = ("bic_h2_short", "bic_h2_not_cell", "bic_h2_extra")
MALFORMED_CATEGORIES = (
    *(("--category", name) for name in ("cat_empty", "cat_list", "cat_short_row")),
    *(("--bicategory", name) for name in ("cat_empty", "cat_list", "bic_short_row")),
)


@pytest.mark.parametrize(
    "argv",
    [
        ["group-check", "--group", "nomul"],
        ["group-check", "--group", "nonjson"],
        ["group-check", "--group", "ragged"],
        ["group-check", "--group", "nonassoc"],
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
        ["compose", "--group", "s3", "cut", "diag"],
        ["compose", "--group", "s3", "doubled", "diag"],
        *(["compose", "--group", "s3", rel, "rel_a"] for rel in MALFORMED_RELATIONS),
        *(["embedded", "--group", "s3", "rel_a", rel] for rel in MALFORMED_RELATIONS),
        ["embedded", "--group", "s3", "rel_a", "rel_a"],
        *(["generators", "--group", "s3", "--cyclic", rel] for rel in MALFORMED_RELATIONS),
        *(["oracle", "--group", "s3", "--presentation", pres]
          for pres in MALFORMED_PRESENTATIONS),
        *(["cat-validate", flag, name] for flag, name in MALFORMED_CATEGORIES),
        *(["quilt-eval", "--group", "s3", "--diagram", "diagram", "--inputs", inputs]
          for inputs in ("inputs_list", "inputs_int")),
        *(["lagrangian", "--group", "s3", "--genus", "1", "--kind", "cyl", "--auto", auto]
          for auto in BAD_AUTOS),
        *([*cmd, name] for cmd in UNLABELED_COMMANDS for name in UNLABELED_DIAGRAMS),
        *(["quilt-validate", "--group", "s3", "--diagram", name]
          for name in UNHASHABLE_DIAGRAMS),
        *(["cat-yoneda", "--bicategory", name] for name in BAD_HCOMP2),
    ],
    ids=[
        "group-without-mul",
        "group-not-json",
        "group-ragged-table",
        "group-not-associative",
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
        "compose-variety-cut",
        "compose-point-listed-twice",
        *(f"compose-{rel}" for rel in MALFORMED_RELATIONS),
        *(f"embedded-{rel}" for rel in MALFORMED_RELATIONS),
        "embedded-endpoint-mismatch",
        *(f"generators-{rel}" for rel in MALFORMED_RELATIONS),
        *(f"oracle-{pres}" for pres in MALFORMED_PRESENTATIONS),
        *(f"cat-validate{flag[1:]}-{name}" for flag, name in MALFORMED_CATEGORIES),
        "quilt-eval-inputs-list",
        "quilt-eval-inputs-int",
        *(f"lagrangian-{auto}" for auto in BAD_AUTOS),
        *(f"{cmd[0]}-{name}" for cmd in UNLABELED_COMMANDS for name in UNLABELED_DIAGRAMS),
        *(f"quilt-validate-{name}" for name in UNHASHABLE_DIAGRAMS),
        *(f"cat-yoneda-{name}" for name in BAD_HCOMP2),
    ],
)
def test_bad_input_exits_1_with_report(files, argv):
    argv = [files.get(a, a) for a in argv]
    code, out = run(argv)
    assert code == 1
    assert "error" in json.loads(out)


def test_group_check_non_associative_is_witnessed(files):
    code, out = run(["group-check", "--group", files["nonassoc"]])
    assert code == 1
    assert json.loads(out) == {"error": "NonAssociative", "witness": [1, 1, 2]}


def test_embedded_endpoint_mismatch_is_witnessed(files):
    # the same witness as compose gives for the pair
    for cmd in ("embedded", "compose"):
        code, out = run([cmd, "--group", files["s3"], files["rel_a"], files["rel_a"]])
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "EndpointMismatch"
        assert report["witness"] == repr((repr(surface(0)), repr(surface(1))))


def test_forged_variety_point_is_the_witness(files):
    code, out = run(
        ["compose", "--group", files["z2"], files["forged_range"], files["forged_range"]]
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "FloerkitError"
    assert report["witness"] == repr([7, 7])


def test_incomplete_variety_least_missing_point_is_the_witness(files):
    code, out = run(["compose", "--group", files["s3"], files["cut"], files["diag"]])
    assert code == 1
    assert json.loads(out) == {
        "error": "FloerkitError",
        "message": "variety point [0, 1] is missing",
        "witness": repr([0, 1]),
    }
    code, out = run(["compose", "--group", files["s3"], files["doubled"], files["diag"]])
    assert code == 1
    assert json.loads(out)["message"].endswith("is listed twice")


def test_variety_check_runs_under_the_budget(files):
    # |S3|^2 = 36 tuples to enumerate for the genus-1 varieties
    argv = ["compose", "--group", files["s3"], files["diag"], files["diag"]]
    assert run(argv + ["--budget", "36"])[0] == 0
    code, out = run(argv + ["--budget", "35"])
    assert code == 1
    assert json.loads(out)["error"] == "ResourceLimit"
    # so do the varieties of a diagram's patch and raw seam labels
    argv = ["quilt-validate", "--group", files["s3"], "--diagram", files["diagram"]]
    assert run(argv + ["--budget", "36"])[0] == 0
    assert json.loads(run(argv + ["--budget", "35"])[1])["error"] == "ResourceLimit"


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


def test_repvar_output_is_the_same_with_a_forked_pool(files, monkeypatch, chunk_workers):
    # S3 genus 2 is below the fork threshold; at 0, --workers 2 and 4 fork
    monkeypatch.setattr(repvar, "_FORK_MIN_TUPLES", 0)
    outputs = set()
    for workers in ("1", "2", "4"):
        code, out = run(["repvar", "--group", files["s3"], "--genus", "2", "--workers", workers])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert chunk_workers == [1, 2, 4]


@pytest.mark.parametrize("threshold,imported", [(None, False), (0, True)])
def test_repvar_imports_multiprocessing_only_to_fork(files, threshold, imported):
    # a fresh process: --workers 2 over S3 genus 2 runs in the parent, and
    # never imports multiprocessing, unless the fork threshold is forced to 0
    force = "" if threshold is None else f"repvar._FORK_MIN_TUPLES = {threshold}\n"
    script = (
        "import sys\n"
        "from floerkit import repvar\n"
        "from floerkit.cli import dispatch\n"
        f"{force}"
        "code = dispatch(sys.argv[1:])\n"
        "sys.stderr.write(f'{code} {\"multiprocessing\" in sys.modules}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script,
         "repvar", "--group", files["s3"], "--genus", "2", "--workers", "2"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == f"0 {imported}"
    assert json.loads(proc.stdout)["points"]


def test_output_file(files, tmp_path):
    target = tmp_path / "out.json"
    code, _ = run(
        ["group-check", "--group", files["s3"], "--output", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["order"] == 6


def run_captured(argv):
    """(exit code, stdout, stderr) of one dispatch."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


# one valid command line per subcommand (two for the cat-* commands that
# take either --group or --bicategory); names of fixture files are
# replaced by their paths
EVERY_SUBCOMMAND = (
    ["group-check", "--group", "s3"],
    ["repvar", "--group", "s3", "--genus", "1"],
    ["lagrangian", "--group", "s3", "--genus", "1", "--kind", "cyl", "--auto", "twist_a1"],
    ["compose", "--group", "s3", "rel_at", "rel_a"],
    ["embedded", "--group", "s3", "rel_a", "rel_at"],
    ["generators", "--group", "s3", "--cyclic", "rel_a", "rel_at"],
    ["invariant", "--group", "s3", "--chain", "sphere"],
    ["verify-cerf", "--group", "z2", "--genus", "1"],
    ["oracle", "--group", "s3", "--presentation", "pres"],
    ["bordism-validate", "--chain", "sphere"],
    ["bordism-neighbors", "--chain", "sphere"],
    ["bordism-connect", "--chain", "sphere", "--to", "sphere", "--depth", "1"],
    ["quilt-validate", "--group", "s3", "--diagram", "diagram"],
    ["quilt-glue", "--group", "s3", "--first", "diagram", "--second", "diagram", "--end", "e0"],
    ["quilt-shrink", "--group", "s3", "--diagram", "diagram", "--patch", "f1"],
    ["quilt-eval", "--group", "s3", "--diagram", "diagram", "--inputs", "inputs"],
    ["quilt-export-dot", "--group", "s3", "--diagram", "diagram"],
    ["cat-validate", "--category", "cat"],
    ["cat-validate", "--bicategory", "bic"],
    ["cat-yoneda", "--group", "z2"],
    ["cat-yoneda", "--bicategory", "bic"],
    ["cat-quotient", "--group", "z2"],
    ["cat-quotient", "--bicategory", "bic"],
)
SUBCOMMAND_IDS = [f"{argv[0]}{argv[1][1:]}" for argv in EVERY_SUBCOMMAND]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
def test_every_subcommand_succeeds(files, argv):
    code, out, err = run_captured([files.get(a, a) for a in argv])
    assert code == 0 and out and not err


# the commands of acceptance criterion 7, plus one that fails
OUTPUT_COMMANDS = (
    ["group-check", "--group", "s3"],
    ["repvar", "--group", "s3", "--genus", "2"],
    ["lagrangian", "--group", "s3", "--genus", "2", "--kind", "attach2"],
    ["compose", "--group", "s3", "rel_at", "rel_a"],
    ["embedded", "--group", "s3", "rel_a", "rel_at"],
    ["generators", "--group", "s3", "--cyclic", "rel_a", "rel_at"],
    ["invariant", "--group", "s3", "--chain", "sphere"],
    ["invariant", "--group", "s3", "--chain", "lens2"],
    ["verify-cerf", "--group", "z2", "--genus", "1"],
    ["oracle", "--group", "s3", "--presentation", "pres"],
    ["bordism-validate", "--chain", "sphere"],
    ["bordism-neighbors", "--chain", "sphere"],
    ["quilt-validate", "--group", "s3", "--diagram", "diagram"],
    ["quilt-export-dot", "--group", "s3", "--diagram", "diagram"],
    ["cat-quotient", "--group", "z2"],
    ["compose", "--group", "s3", "rel_nopairs", "rel_a"],
)


@pytest.mark.parametrize(
    "argv", OUTPUT_COMMANDS, ids=[f"{a[0]}-{a[-1]}" for a in OUTPUT_COMMANDS]
)
def test_output_file_gets_the_stdout_bytes(files, tmp_path, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, _ = run_captured(argv)
    target = tmp_path / "out"
    code_to_file, out_with_file, _ = run_captured(argv + ["--output", str(target)])
    assert code_to_file == code
    assert out_with_file == ""
    assert target.read_bytes() == out.encode()


def test_unopenable_paths_exit_2_with_one_line(files, tmp_path):
    for argv in (
        ["repvar", "--group", str(tmp_path), "--genus", "1"],
        ["repvar", "--group", files["s3"], "--genus", "1", "--output", str(tmp_path)],
        ["compose", "--group", files["s3"], "nonexistent.json", "--output", str(tmp_path)],
    ):
        code, out, err = run_captured(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
def test_budget_is_checked_by_every_subcommand(files, argv):
    code, out, _ = run_captured([files.get(a, a) for a in argv] + ["--budget", "0"])
    assert code == 1
    assert out == fio.dumps({"error": "FloerkitError", "message": "budget must be positive"})


def test_negative_depth_report(files):
    argv = ["bordism-connect", "--chain", files["sphere"], "--to", files["sphere"]]
    code, out, _ = run_captured(argv + ["--depth", "-1"])
    assert code == 1
    assert out == fio.dumps({"error": "FloerkitError", "message": "depth must be non-negative"})


def test_bad_hcomp2_table_fails_cat_validate(files):
    for name in BAD_HCOMP2:
        code, out, _ = run_captured(["cat-validate", "--bicategory", files[name]])
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False and "horizontal 2-composit" in report["violation"]


def test_extra_hcomp2_pair_report(files):
    # the one pair that is not composable is the witness
    with open(files["bic_h2_extra"]) as fh:
        arrow = json.load(fh)["horizontal_composition_2"][-1][0]
    code, out, err = run_captured(["cat-validate", "--bicategory", files["bic_h2_extra"]])
    assert (code, err) == (1, "")
    assert out == fio.dumps({
        "valid": False,
        "violation": "horizontal 2-composition domain mismatch",
        "witness": repr({"extra": [(arrow, arrow)], "missing": []}),
    })


def test_horizontal_associativity_failure_report(tmp_path):
    # one object, 1-cells 0 and 1 composing as f.g = 1 - f, and identity
    # 2-cells only: (0.0).0 = 0 but 0.(0.0) = 1
    cells = ("0", "1")
    product = {(f, g): cells[1 - int(f)] for f in cells for g in cells}
    bic = {
        "objects": ["x"],
        "one_morphisms": {f: ["x", "x"] for f in cells},
        "two_morphisms": {f"id{f}": [f, f] for f in cells},
        "vertical_composition": [[f"id{f}"] * 3 for f in cells],
        "identity_2cells": {f: f"id{f}" for f in cells},
        "horizontal_composition_1": [[f, g, h] for (f, g), h in product.items()],
        "horizontal_composition_2": [
            [f"id{f}", f"id{g}", f"id{h}"] for (f, g), h in product.items()
        ],
        "weak_units": {"x": "0"},
    }
    path = tmp_path / "bic.json"
    path.write_text(json.dumps(bic))
    code, out, err = run_captured(["cat-validate", "--bicategory", str(path)])
    assert (code, err) == (1, "")
    assert out == fio.dumps({
        "valid": False,
        "violation": "horizontal associativity fails up to 2-isomorphism",
        "witness": repr(("0", "0", "0")),
    })


def test_vertical_failure_report(tmp_path):
    # the identity 2-cell of one 1-cell given as the composite of two
    # identity 2-cells of another: the 2-cells are not a category
    bic = bicategory_to_json(bicategory_with_identity_2cells(
        poset_category(lambda x, y: x <= y, (0, 1), name="two")
    ))
    a, b, c = bic["vertical_composition"][0]
    other = next(d for d in bic["two_morphisms"] if d != c)
    bic["vertical_composition"][0] = [a, b, other]
    path = tmp_path / "bic.json"
    path.write_text(json.dumps(bic))
    code, out, err = run_captured(["cat-validate", "--bicategory", str(path)])
    assert (code, err) == (1, "")
    assert out == fio.dumps({
        "valid": False,
        "violation": f"vertical composite of {a!r}, {b!r} has wrong endpoints",
        "witness": repr((a, b, other)),
    })


def test_unlabeled_diagram_keeps_its_full_report(files):
    for name in UNLABELED_DIAGRAMS:
        code, out, _ = run_captured(
            ["quilt-validate", "--group", files["s3"], "--diagram", files[name]]
        )
        assert code == 1
        failed = [e["check"] for e in json.loads(out) if e["status"] == "fail"]
        assert len(failed) == 1 and "labeled" in failed[0]


def test_seam_end_paired_twice_fails_quilt_validate(files):
    code, out, err = run_captured(
        ["quilt-validate", "--group", files["s3"], "--diagram", files["diagram_paired_twice"]]
    )
    assert code == 1 and not err
    failed = [e for e in json.loads(out) if e["status"] == "fail"]
    assert failed == [{
        "check": "interval seams pair two attached seam-ends",
        "status": "fail",
        "detail": ["s2"],
    }]


def test_gluing_a_bare_end_to_one_seam_is_a_cyclic_mismatch(files):
    for first, second, counts in (
        ("bare_cylinder", "seam_cylinder", (0, 1)),
        ("seam_cylinder", "bare_cylinder", (1, 0)),
    ):
        code, out, err = run_captured([
            "quilt-glue", "--group", files["s3"], "--first", files[first],
            "--second", files[second], "--end", "e0",
        ])
        assert (code, err) == (1, "")
        assert out == fio.dumps({
            "error": "CyclicMismatch",
            "message": f"end seam-end counts differ: {counts[0]} vs {counts[1]}",
            "witness": repr(counts),
        })


def test_gluing_into_a_torus_reports_the_invalid_diagram(files):
    # the welded seams are closed curves that do not separate, so the
    # glued diagram fails its circle-seam check: exit 1 and the report
    code, out, err = run_captured([
        "quilt-glue", "--group", files["s3"], "--first", files["torus_out"],
        "--second", files["torus_in"], "--end", "e0",
    ])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["error"] == "CyclicMismatch"
    assert payload["message"] == "gluing produced an invalid diagram"
    assert "circle seams form trees of regions inside faces" in payload["witness"]
    assert payload["witness"].count("'fail'") == 1


FUZZ_VALUES = (None, 1, -1, "a", [], {}, [[0]])
FUZZ_MUTANTS = 20


def mutate(data, rng):
    """A copy of ``data`` with one change: a key or item dropped, a value
    replaced by one of FUZZ_VALUES, or one such change made inside a child."""
    if not isinstance(data, (dict, list)) or not data:
        return rng.choice(FUZZ_VALUES)
    copy = dict(data) if isinstance(data, dict) else list(data)
    key = rng.choice(sorted(copy)) if isinstance(copy, dict) else rng.randrange(len(copy))
    roll = rng.random()
    if roll < 0.25:
        del copy[key]
    elif roll < 0.5:
        copy[key] = rng.choice(FUZZ_VALUES)
    else:
        copy[key] = mutate(copy[key], rng)
    return copy


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
def test_mutated_input_files_never_escape_dispatch(files, tmp_path, argv):
    """Every file argument, replaced by FUZZ_MUTANTS seeded mutations of
    itself, gives exit 0, 1 or 2 and never a traceback."""
    output = str(tmp_path / "out")
    failures = []
    for pos, name in enumerate(argv):
        if name not in files:
            continue
        with open(files[name]) as fh:
            original = json.load(fh)
        rng = random.Random(f"{' '.join(argv)}:{pos}")
        for i in range(FUZZ_MUTANTS):
            mutant = tmp_path / f"mutant-{pos}-{i}.json"
            mutant.write_text(json.dumps(mutate(original, rng)))
            line = [str(mutant) if j == pos else files.get(a, a) for j, a in enumerate(argv)]
            try:
                code, _, err = run_captured(line + ["--output", output])
            except Exception as exc:  # anything that escapes dispatch
                failures.append((name, mutant.read_text(), repr(exc)))
                continue
            if code not in (0, 1, 2) or "Traceback" in err:
                failures.append((name, mutant.read_text(), code, err))
    assert not failures


def single_mutations(data, values):
    """Every copy of ``data`` with one change: a key or item dropped, or a
    value at any depth replaced by one of ``values``."""
    if isinstance(data, (dict, list)):
        keys = sorted(data) if isinstance(data, dict) else range(len(data))
        for key in keys:
            copy = dict(data) if isinstance(data, dict) else list(data)
            del copy[key]
            yield copy
            for child in single_mutations(data[key], values):
                copy = dict(data) if isinstance(data, dict) else list(data)
                copy[key] = child
                yield copy
    yield from values


def strings_in(data):
    if isinstance(data, dict):
        return {s for k, v in data.items() for s in strings_in(v) | {k}}
    if isinstance(data, list):
        return {s for v in data for s in strings_in(v)}
    return {data} if isinstance(data, str) else set()


@pytest.mark.parametrize(
    "seed, laws", [(None, set()), (6, {"left", "right", "associativity"})]
)
def test_cat_validate_reports_each_mutation_as_the_oracle(tmp_path, monkeypatch, seed, laws):
    """Each single mutation of a category file (the two-object chain, or a
    random one-object category), with values from FUZZ_VALUES and from the
    file's own strings: exit 0, 1 or 2, no traceback, and the stdout that
    cat-validate prints when the multi-pass oracle validates."""
    cat = random_category(seed) if seed is not None else poset_category(
        lambda x, y: x <= y, (0, 1), name="two"
    )
    original = category_to_json(cat)
    values = FUZZ_VALUES + tuple(sorted(strings_in(original)))
    mutant = tmp_path / "mutant.json"
    argv = ["cat-validate", "--category", str(mutant)]

    def oracle(self):
        validate_oracle(self.objects, self.morphisms, self.comp, self.identity)

    reports, failures = set(), []
    for data in single_mutations(original, values):
        mutant.write_text(json.dumps(data))
        with monkeypatch.context() as patched:
            patched.setattr(FinCategory, "validate", oracle)
            expected = run_captured(argv)
        code, out, err = run_captured(argv)
        if code not in (0, 1, 2) or "Traceback" in err or (code, out, err) != expected:
            failures.append((data, expected, (code, out, err)))
        report = json.loads(out)
        reports.add(report.get("violation", report.get("message", "valid")).split()[0])
    assert not failures
    # the mutations reach every check of the file and of the tables; only
    # a category with several parallel morphisms can break the laws
    assert {"valid", "malformed", "duplicate", "morphism", "identity", "composition",
            "composite"} | laws <= reports

