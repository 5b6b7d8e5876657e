import itertools

import pytest

from floerkit.catgen import (
    monoid_category,
    path_category,
    poset_category,
    random_category,
    relation_bicategory,
)
from floerkit.cats import (
    FinBicategory,
    FinCategory,
    FinFunctor,
    all_functors,
    all_nats,
    bicategory_with_identity_2cells,
    conjugacy_nonexample,
    discrete_category,
    functor_category,
    identity_functor,
    identity_nat,
    nat_horizontal_compose,
    nat_vertical_compose,
    quotient_by_2isos,
    yoneda,
)
from floerkit.errors import (
    CategoryMismatch,
    IllFormedQuotient,
    InvalidObject,
    MiddleMismatch,
)
from floerkit.groups import cyclic_group, symmetric_group


def two_chain():
    return poset_category(lambda x, y: x <= y, (0, 1), name="2chain")


def three_chain():
    return poset_category(lambda x, y: x <= y, (0, 1, 2), name="3chain")


def test_category_validation_catches_bad_tables():
    with pytest.raises(CategoryMismatch):
        FinCategory((0,), {"f": (0, 0)}, {}, {0: "f"})  # missing comp entry
    with pytest.raises(CategoryMismatch):
        FinCategory((0,), {"f": (0, 1)}, {("f", "f"): "f"}, {0: "f"})


def test_category_validation_catches_broken_associativity():
    # comp table with a deliberate associativity defect on a 3-element monoid
    mor = {"e": (0, 0), "a": (0, 0), "b": (0, 0)}
    comp = {}
    for x in mor:
        comp[("e", x)] = x
        comp[(x, "e")] = x
    comp[("a", "a")] = "b"
    comp[("a", "b")] = "e"
    comp[("b", "a")] = "b"   # broken: (a.a).a = b.a = b, a.(a.a) = a.b = e
    comp[("b", "b")] = "a"
    with pytest.raises(CategoryMismatch) as err:
        FinCategory((0,), mor, comp, {0: "e"})
    assert str(err.value) == "associativity fails"
    assert err.value.witness == ("a", "a", "a")


def first_associativity_failure(morphisms, comp):
    """Brute force: scan all m^3 triples in table order, return the first
    composable (f, g, h) with (fg)h != f(gh), or None."""
    for f, (_, df) in morphisms.items():
        for g, (sg, dg) in morphisms.items():
            if df != sg:
                continue
            for h, (sh, _) in morphisms.items():
                if dg != sh:
                    continue
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    return (f, g, h)
    return None


def corrupted_tables(cat, rng, tries):
    """Copies of cat.comp with one composite of two non-identity morphisms
    replaced by another morphism with the same endpoints, so the domain,
    the typing and the identity laws still hold."""
    identities = set(cat.identity.values())
    pairs = [
        (f, g) for (f, g) in cat.comp if f not in identities and g not in identities
    ]
    for _ in range(tries):
        if not pairs:
            return
        f, g = pairs[int(rng.integers(len(pairs)))]
        h = cat.comp[(f, g)]
        others = [
            m for m, ends in cat.morphisms.items()
            if ends == cat.morphisms[h] and m != h
        ]
        if others:
            comp = dict(cat.comp)
            comp[(f, g)] = others[int(rng.integers(len(others)))]
            yield comp


def check_against_brute_force(cat, comp):
    expected = first_associativity_failure(cat.morphisms, comp)
    if expected is None:
        FinCategory(cat.objects, cat.morphisms, comp, cat.identity)
        return False
    with pytest.raises(CategoryMismatch) as err:
        FinCategory(cat.objects, cat.morphisms, comp, cat.identity)
    assert str(err.value) == "associativity fails"
    assert err.value.witness == expected
    return True


def test_associativity_check_matches_brute_force():
    import numpy as np

    rng = np.random.default_rng(7)
    # the free category on 0 -> 1 -> 2 -> 3 with two parallel edges per step
    # has parallel composites that longer paths factor through, so a
    # relabelling can break associativity across several objects (in the
    # random multi-object categories it never does)
    parallel = path_category(
        (0, 1, 2, 3), [(i, i + 1, t) for i in range(3) for t in "ab"]
    )
    outcomes = set()
    for cat in [random_category(seed) for seed in range(30)] + [parallel]:
        for comp in corrupted_tables(cat, rng, 5):
            raised = check_against_brute_force(cat, comp)
            outcomes.add((len(cat.objects) > 1, raised))
    # (several objects?, raised?): every combination occurs
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def validate_oracle(objects, morphisms, comp, identity):
    """FinCategory.validate as it was before the one-pass numbering: a
    pass per check, the domain compared as sets, and the associativity
    witness from the brute-force scan."""
    objset = set(objects)
    if len(objects) != len(objset):
        raise CategoryMismatch("duplicate object ids")
    mor = morphisms
    starting = {x: [] for x in objects}
    for f, (s, d) in mor.items():
        if s not in objset or d not in objset:
            raise CategoryMismatch(
                f"morphism {f!r} has endpoints outside the object set",
                witness=f,
            )
        starting[s].append((f, d))
    for x in objects:
        i = identity.get(x)
        if i not in mor or mor[i] != (x, x):
            raise CategoryMismatch(
                f"identity of {x!r} missing or not an endomorphism", witness=x
            )
    composable = {(f, g) for f, (_, d) in mor.items() for g, _ in starting[d]}
    keys = set(comp)
    if keys != composable:
        raise CategoryMismatch(
            "composition table domain mismatch",
            witness={
                "extra": sorted(keys - composable, key=repr)[:3],
                "missing": sorted(composable - keys, key=repr)[:3],
            },
        )
    for (f, g), h in comp.items():
        if h not in mor:
            raise CategoryMismatch(f"composite {h!r} not a morphism", witness=(f, g))
        if mor[h] != (mor[f][0], mor[g][1]):
            raise CategoryMismatch(
                f"composite of {f!r}, {g!r} has wrong endpoints", witness=(f, g, h)
            )
    for f, (s, d) in mor.items():
        if comp[(identity[s], f)] != f:
            raise CategoryMismatch(
                f"left identity law fails at {f!r}", witness=("left", f)
            )
        if comp[(f, identity[d])] != f:
            raise CategoryMismatch(
                f"right identity law fails at {f!r}", witness=("right", f)
            )
    witness = first_associativity_failure(mor, comp)
    if witness is not None:
        raise CategoryMismatch("associativity fails", witness=witness)


def corrupt(tables, rng):
    """A copy of (objects, morphisms, comp, identity) with one fault: a
    composite replaced, an entry dropped, a key added, a morphism's ends
    moved, or an identity changed."""
    objects, morphisms, comp, identity = (
        tables[0], dict(tables[1]), dict(tables[2]), dict(tables[3])
    )
    mors = list(morphisms)
    # the entries of two morphisms whose composite is a morphism
    keys = [k for k, h in comp.items() if isinstance(k, tuple) and len(k) == 2
            and k[0] in morphisms and k[1] in morphisms
            and isinstance(h, str | tuple) and h in morphisms]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    kind = int(rng.integers(9))
    if kind == 0:  # a composite replaced by another morphism, often one of its ends
        key = pick(keys)
        ends = (morphisms[key[0]][0], morphisms[key[1]][1])
        same = [m for m in mors if morphisms[m] == ends]
        comp[key] = pick(same if same and rng.random() < 0.7 else mors)
    elif kind == 1:  # a composite that is no morphism, hashable or not
        comp[pick(keys)] = pick(["nope", ("x", 0), [0]])
    elif kind == 2:  # an entry missing
        del comp[pick(keys)]
    elif kind == 3:  # an extra key of two morphisms, composable or not
        comp[(pick(mors), pick(mors))] = pick(mors)
    elif kind == 4:  # a malformed key
        f, g = pick(keys)
        glued = f + g if isinstance(f, str) and isinstance(g, str) else "fg"
        comp[pick(["x", (f,), (f, g, f), (f, "nope"), ("nope", g), glued])] = f
    elif kind == 5:  # a morphism's ends moved, inside or outside the objects
        f = pick(mors)
        morphisms[f] = (pick(list(objects) + ["elsewhere"]), pick(objects))
    elif kind == 6:  # a composite with an identity replaced: an identity law fault
        units = set(identity.values())
        key = pick([k for k in keys if units & set(k)] or keys)
        comp[key] = pick([m for m in mors if morphisms[m] == morphisms[comp[key]]])
    elif kind == 7:  # an identity that is another morphism, or none
        identity[pick(objects)] = pick(mors + ["nope"])
    else:  # an object listed twice
        objects = objects + (pick(objects),)
    return objects, morphisms, comp, identity


def outcome(check, tables):
    """None when check(*tables) passes, else the type, message and witness
    of what it raises."""
    try:
        check(*tables)
    except (CategoryMismatch, TypeError) as err:
        return type(err), str(err), getattr(err, "witness", None)
    return None


@pytest.mark.parametrize("faults", [1, 2])
def test_validate_matches_the_multi_pass_oracle(faults):
    import numpy as np

    rng = np.random.default_rng(faults)
    messages = set()
    # and one category whose morphism ids are letters, so that a string
    # of two of them can stand where a pair belongs
    z3 = monoid_category("eab", lambda x, y: "eab"[("eab".index(x) + "eab".index(y)) % 3])
    for cat in [random_category(seed) for seed in range(40)] + [z3]:
        tables = (cat.objects, cat.morphisms, cat.comp, cat.identity)
        for _ in range(25):
            bad = tables
            for _ in range(faults):
                bad = corrupt(bad, rng)
            expected = outcome(validate_oracle, bad)
            assert outcome(FinCategory, bad) == expected, (cat, bad)
            messages.add(expected and expected[1].split(" ")[0])
    # every check is reached: the domain, the composites (a TypeError for
    # an unhashable one), the identities, the laws and associativity
    assert {"composition", "composite", "unhashable", "identity", "left", "right",
            "morphism", "duplicate", "associativity", None} <= messages


def test_functor_validation():
    C = two_chain()
    ident = identity_functor(C)
    assert ident.on_obj(0) == 0
    with pytest.raises(CategoryMismatch):
        FinFunctor(C, C, {0: 0, 1: 0}, {f: f for f in C.morphisms})


def brute_functors(C, D):
    """Oracle for all_functors: every map of objects and of morphisms that
    keeps the ends, in the search order, kept when it preserves identities
    and every composite."""
    objs = list(C.objects)
    mors = sorted(C.morphisms, key=repr)
    out = []
    for values in itertools.product(D.objects, repeat=len(objs)):
        obj_map = dict(zip(objs, values))
        images = [
            D.by_ends.get((obj_map[s], obj_map[d]), ())
            for s, d in (C.morphisms[f] for f in mors)
        ]
        for image in itertools.product(*images):
            F = dict(zip(mors, image))
            if all(F[C.identity[x]] == D.identity[obj_map[x]] for x in objs) and all(
                D.comp[(F[f], F[g])] == F[h] for (f, g), h in C.comp.items()
            ):
                out.append((obj_map, F))
    return out


def test_all_functors_match_brute_force_in_order():
    small = [s for s in range(60) if len(random_category(s).morphisms) <= 6]
    assert len(small) >= 30
    for seed in small:
        C = random_category(seed)
        brute = brute_functors(C, C)
        assert brute
        for limit in (1, 3, None):
            ours = all_functors(C, C, limit=limit)
            assert [(F.obj_map, F.mor_map) for F in ours] == brute[:limit], (seed, limit)


def brute_nats(F, G):
    """Component tuples (objects in repr order) of the natural
    transformations F => G: the whole product of the hom-sets F(x) -> G(x),
    each in repr order of its (id, ends) items, filtered by every
    naturality square; also the size of that product."""
    C, D = F.source, F.target
    objs = sorted(C.objects, key=repr)
    homs = [
        sorted(
            (m for m, ends in D.morphisms.items() if ends == (F.obj_map[x], G.obj_map[x])),
            key=lambda m: repr((m, D.morphisms[m])),
        )
        for x in objs
    ]
    out = []
    candidates = 0
    for choice in itertools.product(*homs):
        candidates += 1
        eta = dict(zip(objs, choice))
        if all(
            D.comp[(F.mor_map[k], eta[y])] == D.comp[(eta[x], G.mor_map[k])]
            for k, (x, y) in C.morphisms.items()
        ):
            out.append(choice)
    return out, candidates


def test_all_nats_match_product_and_filter_in_order():
    # the functor categories of the law suite: random_category seeds with
    # at most 8 morphisms, the first 12 functors of each
    seeds = [s for s in range(50) if len(random_category(s).morphisms) <= 8]
    assert len(seeds) >= 20
    rejected = 0
    for seed in seeds:
        C = random_category(seed)
        objs = sorted(C.objects, key=repr)
        functors = all_functors(C, C, limit=12)
        for F, G in itertools.product(functors, repeat=2):
            ours = all_nats(F, G)
            assert all(eta.F is F and eta.G is G for eta in ours)
            brute, candidates = brute_nats(F, G)
            assert [tuple(eta.components[x] for x in objs) for eta in ours] == brute, seed
            rejected += candidates - len(brute)
    assert rejected > 0  # the filter is not vacuous


def test_nat_vertical_compose_identity():
    C, D = two_chain(), three_chain()
    functors = all_functors(C, D)
    assert functors  # monotone maps exist
    F = functors[0]
    eta = identity_nat(F)
    assert nat_vertical_compose(eta, eta) == eta


def test_nat_vertical_middle_mismatch():
    C, D = two_chain(), three_chain()
    functors = all_functors(C, D)
    F, G = functors[0], functors[1]
    etas = all_nats(F, G)
    if not etas:
        pytest.skip("no transformation between the first two functors")
    with pytest.raises(MiddleMismatch):
        nat_vertical_compose(etas[0], etas[0])


def test_vertical_composition_componentwise():
    # two transformations between constant functors on a 2-object poset
    C = two_chain()
    D = three_chain()
    const0 = FinFunctor(C, D, {0: 0, 1: 0}, {f: D.identity[0] for f in C.morphisms})
    const1 = FinFunctor(C, D, {0: 1, 1: 1}, {f: D.identity[1] for f in C.morphisms})
    const2 = FinFunctor(C, D, {0: 2, 1: 2}, {f: D.identity[2] for f in C.morphisms})
    eta = all_nats(const0, const1)
    zeta = all_nats(const1, const2)
    assert len(eta) == 1 and len(zeta) == 1
    comp = nat_vertical_compose(eta[0], zeta[0])
    for x in C.objects:
        assert comp.at(x) == D.comp[(eta[0].at(x), zeta[0].at(x))]


def test_interchange_on_chain_categories():
    # exhaustive interchange over a 3-object chain: both bracketings agree
    C = two_chain()
    D = three_chain()
    E = three_chain()
    fun_cd = all_functors(C, D)
    fun_de = all_functors(D, E)
    checked = 0
    for F, G, H in itertools.product(fun_cd, repeat=3):
        for F2, G2, H2 in itertools.product(fun_de, repeat=3):
            for eta in all_nats(F, G):
                for zeta in all_nats(G, H):
                    for eta2 in all_nats(F2, G2):
                        for zeta2 in all_nats(G2, H2):
                            lhs = nat_horizontal_compose(
                                nat_vertical_compose(eta, zeta),
                                nat_vertical_compose(eta2, zeta2),
                            )
                            rhs = nat_vertical_compose(
                                nat_horizontal_compose(eta, eta2),
                                nat_horizontal_compose(zeta, zeta2),
                            )
                            assert lhs == rhs
                            checked += 1
                            if checked > 400:
                                return
    assert checked > 0


def test_horizontal_identity_whiskering():
    C, D = two_chain(), three_chain()
    functors = all_functors(C, D)
    F = functors[0]
    ident = identity_functor(C)
    eta = identity_nat(F)
    whisker = nat_horizontal_compose(identity_nat(ident), eta)
    assert whisker.components == {x: eta.at(x) for x in C.objects}


def test_horizontal_compose_category_mismatch():
    C, D = two_chain(), three_chain()
    F = all_functors(C, D)[0]
    with pytest.raises(CategoryMismatch):
        nat_horizontal_compose(identity_nat(F), identity_nat(F))


def test_functor_category_laws():
    C, D = two_chain(), two_chain()
    fun_cat = functor_category(C, D)
    # FinCategory construction validates unit and associativity laws
    assert len(fun_cat.objects) == 3  # monotone maps 2 -> 2
    assert all(
        fun_cat.morphisms[fun_cat.identity[x]] == (x, x) for x in fun_cat.objects
    )


# (objects, morphisms) of functor_category(cat, cat, functor_limit=12) for
# some random_category seeds
FUNCTOR_CATEGORY_SIZES = {
    0: (12, 16), 1: (9, 65), 6: (6, 56), 9: (12, 228), 12: (5, 25)
}


def test_functor_category_matches_vertical_composition():
    cases = {"2->2": (two_chain(), two_chain(), None)}
    cases["2->3"] = (two_chain(), three_chain(), None)
    for seed in range(30):
        cat = random_category(seed)
        if len(cat.morphisms) <= 8:
            cases[seed] = (cat, cat, 12)
    assert len(cases) > 20 and FUNCTOR_CATEGORY_SIZES.keys() <= cases.keys()
    for label, (C, D, limit) in cases.items():
        fun = functor_category(C, D, functor_limit=limit)
        nat_of = fun.nat_of
        assert set(fun.comp) == {
            (m1, m2) for m1 in nat_of for m2 in nat_of if m1[1] == m2[0]
        }
        for (m1, m2), m in fun.comp.items():
            assert nat_of[m] == nat_vertical_compose(nat_of[m1], nat_of[m2]), label
        for i, F in fun.functor_of.items():
            assert nat_of[fun.identity[i]] == identity_nat(F), label
        if label in FUNCTOR_CATEGORY_SIZES:
            size = (len(fun.objects), len(fun.morphisms))
            assert size == FUNCTOR_CATEGORY_SIZES[label]


def test_functor_category_looks_up_composites(monkeypatch):
    import floerkit.cats as cats

    def forbidden(*args):
        raise AssertionError("functor_category rebuilt a transformation")

    monkeypatch.setattr(cats, "nat_vertical_compose", forbidden)
    monkeypatch.setattr(cats, "identity_nat", forbidden)
    fun = functor_category(two_chain(), three_chain())
    assert len(fun.objects) == 6


def test_quotient_identity_2cells_recovers_category():
    C = three_chain()
    B = bicategory_with_identity_2cells(C)
    B.validate_bicategory()
    q = quotient_by_2isos(B)
    assert len(q.objects) == len(C.objects)
    assert len(q.morphisms) == len(C.morphisms)


def pair_bicategory(inverse=True):
    """Two objects, parallel 1-cells f, g: x -> y with a 2-cell a: f => g,
    its inverse b unless ``inverse`` is false, and units ux, uy; no
    horizontal 2-composition."""
    objects = ("x", "y")
    one = {"f": ("x", "y"), "g": ("x", "y"), "ux": ("x", "x"), "uy": ("y", "y")}
    two = {
        "idf": ("f", "f"), "idg": ("g", "g"), "idux": ("ux", "ux"),
        "iduy": ("uy", "uy"), "a": ("f", "g"), "b": ("g", "f"),
    }
    vcomp = {}
    for m, (s, d) in two.items():
        vcomp[(f"id{s}", m)] = m
        vcomp[(m, f"id{d}")] = m
    vcomp[("a", "b")] = "idf"
    vcomp[("b", "a")] = "idg"
    # fix the double-keyed identity entries
    vcomp[("idf", "idf")] = "idf"
    vcomp[("idg", "idg")] = "idg"
    vcomp[("idux", "idux")] = "idux"
    vcomp[("iduy", "iduy")] = "iduy"
    vcomp[("idf", "a")] = "a"
    vcomp[("a", "idg")] = "a"
    vcomp[("idg", "b")] = "b"
    vcomp[("b", "idf")] = "b"
    id2 = {"f": "idf", "g": "idg", "ux": "idux", "uy": "iduy"}
    hcomp1 = {}
    for p in one:
        for q in one:
            if one[p][1] != one[q][0]:
                continue
            if p.startswith("u"):
                hcomp1[(p, q)] = q
            elif q.startswith("u"):
                hcomp1[(p, q)] = p
            else:
                hcomp1[(p, q)] = p
    if not inverse:
        del two["b"]
        vcomp = {pair: c for pair, c in vcomp.items() if "b" not in pair}
    return FinBicategory(
        objects, one, two, vcomp, id2, hcomp1, None,
        {"x": "ux", "y": "uy"}, name="pair",
    )


def test_quotient_identifies_isomorphic_pair():
    q = quotient_by_2isos(pair_bicategory())
    assert len(q.morphisms) == 3  # [f]=[g], [ux], [uy]
    assert q.class_of["f"] == q.class_of["g"]


def strict_tables():
    """The FinBicategory arguments, by name, of one object, 1-cells f0, f1
    composing as Z2, and 2-cells a{f}{m}: f => f for m in Z3, composing as
    Z3 both ways."""
    one = {f"f{f}": ("x", "x") for f in range(2)}
    two = {f"a{f}{m}": (f"f{f}", f"f{f}") for f in range(2) for m in range(3)}
    vcomp = {
        (f"a{f}{m}", f"a{f}{n}"): f"a{f}{(m + n) % 3}"
        for f in range(2) for m in range(3) for n in range(3)
    }
    hcomp1 = {(f"f{f}", f"f{g}"): f"f{(f + g) % 2}" for f in range(2) for g in range(2)}
    hcomp2 = {
        (a, b): f"a{(int(a[1]) + int(b[1])) % 2}{(int(a[2]) + int(b[2])) % 3}"
        for a in two for b in two
    }
    return {
        "objects": ("x",), "one_morphisms": one, "two_morphisms": two,
        "vcomp": vcomp, "id2": {f: f"a{f[1]}0" for f in one}, "hcomp1": hcomp1,
        "hcomp2": hcomp2, "weak_unit": {"x": "f0"},
    }


def strict_two_category(vcomp_edits=(), hcomp2_edits=()):
    """The bicategory of strict_tables(); the edits overwrite table
    entries, (pair, value) each."""
    tables = strict_tables()
    tables["vcomp"].update(vcomp_edits)
    tables["hcomp2"].update(hcomp2_edits)
    return FinBicategory(**tables, name="strict")


@pytest.mark.parametrize("table", ["vcomp", "hcomp1"])
def test_bicategory_table_value_that_is_not_a_cell(table):
    B = bicategory_with_identity_2cells(two_chain())
    tables = {"vcomp": dict(B.vcomp), "hcomp1": dict(B.hcomp1)}
    pair = min(tables[table], key=repr)
    tables[table][pair] = "zz"
    with pytest.raises(CategoryMismatch) as err:
        FinBicategory(
            B.objects, B.one, B.two, tables["vcomp"], B.id2, tables["hcomp1"],
            B.hcomp2, B.weak_unit,
        )
    assert err.value.witness == pair


def test_bicategory_vertical_associativity_failure():
    strict_two_category().validate_bicategory()
    # a01.a01 := a00 keeps the typing and the unit laws but not associativity:
    # (a01.a01).a02 = a02 while a01.(a01.a02) = a01.a00 = a01
    with pytest.raises(CategoryMismatch) as err:
        strict_two_category(vcomp_edits={("a01", "a01"): "a00"})
    assert str(err.value) == "vertical associativity fails"
    assert err.value.witness == ("a01", "a01", "a02")


# every single-entry edit of the strict 2-category's vertical composition
# that keeps the typing and the unit laws: the composite a{f}{m}.a{f}{n} of
# two non-identity 2-cells on f becomes another 2-cell a{f}{k} on f
VCOMP_EDITS = [
    ((f"a{f}{m}", f"a{f}{n}"), f"a{f}{k}")
    for f in range(2) for m in (1, 2) for n in (1, 2)
    for k in range(3) if k != (m + n) % 3
]


@pytest.mark.parametrize(
    "pair, value", VCOMP_EDITS, ids=[f"{a}.{b}={v}" for (a, b), v in VCOMP_EDITS]
)
def test_bicategory_vertical_witness_matches_brute_force(pair, value):
    base = strict_two_category()
    expected = first_associativity_failure(base.two, {**base.vcomp, pair: value})
    assert expected is not None  # no such edit keeps Z3 associative
    with pytest.raises(CategoryMismatch) as err:
        strict_two_category(vcomp_edits={pair: value})
    assert str(err.value) == "vertical associativity fails"
    assert err.value.witness == expected


# one edit of the strict 2-category's tables per way its 2-cells can fail
# to be a category, with the start of FinCategory's message for it
VERTICAL_FAILURES = {
    "unknown-1-cell": (
        lambda t: t["two_morphisms"].update(b=("f9", "f9")),
        "morphism 'b' has endpoints outside the object set",
    ),
    "missing-identity": (
        lambda t: t["id2"].pop("f1"), "identity of 'f1' missing"
    ),
    "domain": (
        lambda t: t["vcomp"].pop(("a01", "a02")), "composition table domain mismatch"
    ),
    "not-a-cell": (
        lambda t: t["vcomp"].update({("a01", "a02"): "zz"}),
        "composite 'zz' not a morphism",
    ),
    "wrong-ends": (
        lambda t: t["vcomp"].update({("a01", "a02"): "a10"}),
        "composite of 'a01', 'a02' has wrong endpoints",
    ),
    "unit-law": (
        lambda t: t["vcomp"].update({("a00", "a01"): "a02"}),
        "left identity law fails at 'a01'",
    ),
    "associativity": (
        lambda t: t["vcomp"].update({("a01", "a01"): "a00"}), "associativity fails"
    ),
}


@pytest.mark.parametrize("kind", VERTICAL_FAILURES)
def test_vertical_failure_is_the_vertical_category_failure(kind):
    edit, message = VERTICAL_FAILURES[kind]
    tables = strict_tables()
    edit(tables)
    with pytest.raises(CategoryMismatch) as expected:
        FinCategory(
            tuple(tables["one_morphisms"]), tables["two_morphisms"],
            tables["vcomp"], tables["id2"],
        )
    assert str(expected.value).startswith(message)
    with pytest.raises(CategoryMismatch) as err:
        FinBicategory(**tables)
    assert str(err.value) == f"vertical {expected.value}"
    assert err.value.witness == expected.value.witness


def test_interchange_check_matches_brute_force():
    def first_interchange_failure(B):
        # all 2-cells have one object at both ends: every 2x2 grid of
        # vertically composable pairs is horizontally composable
        for a, b, c, d in itertools.product(B.two, repeat=4):
            if B.two[a][1] != B.two[b][0] or B.two[c][1] != B.two[d][0]:
                continue
            lhs = B.hcomp2[(B.vcomp[(a, b)], B.vcomp[(c, d)])]
            if lhs != B.vcomp[(B.hcomp2[(a, c)], B.hcomp2[(b, d)])]:
                return (a, b, c, d)
        return None

    witnesses = set()
    # relabel one entry of hcomp2, keeping its typing; a is not an identity,
    # so the identity 2-cells stay compatible with horizontal composition
    for a in ("a01", "a02", "a11", "a12"):
        for b in ("a00", "a02", "a10", "a11"):
            value = strict_two_category().hcomp2[(a, b)]
            for m in {0, 1, 2} - {int(value[2])}:
                B = strict_two_category(hcomp2_edits={(a, b): value[:2] + str(m)})
                expected = first_interchange_failure(B)
                assert expected is not None
                with pytest.raises(CategoryMismatch) as err:
                    B.validate_bicategory()
                assert str(err.value) == "interchange law fails"
                assert err.value.witness == expected
                witnesses.add(expected)
    assert len(witnesses) > 1


def test_conjugacy_nonexample_raises_with_witness():
    B = conjugacy_nonexample(3)
    with pytest.raises(IllFormedQuotient) as err:
        quotient_by_2isos(B)
    w = err.value.witness
    assert "class_pair" in w and len(w["representative_composites"]) == 2
    (pair1, h1), (pair2, h2) = w["representative_composites"]
    # the two composites really are inequivalent maps
    assert h1 != h2


@pytest.mark.parametrize("n", [2, 3])
def test_conjugacy_nonexample_composes_every_composable_pair(n):
    # the vertical composites are exactly the entries of a scan over all
    # pairs of 2-cells, in the scan's order
    B = conjugacy_nonexample(n)
    expected = [
        ((a, b), (B.two[a][0], tuple(b[1][a[1][i]] for i in range(n))))
        for a, b in itertools.product(B.two, repeat=2)
        if B.two[a][1] == B.two[b][0]
    ]
    assert list(B.vcomp.items()) == expected
    assert len(expected) == {2: 16, 3: 972}[n]


def test_yoneda_trivial_bicategory():
    C = discrete_category(("x",))
    B = bicategory_with_identity_2cells(C)
    y = yoneda(B, "x")
    cat = y["categories"]["x"]
    assert len(cat.objects) == 1 and len(cat.morphisms) == 1


def test_yoneda_invalid_object():
    C = discrete_category(("x",))
    B = bicategory_with_identity_2cells(C)
    with pytest.raises(InvalidObject):
        yoneda(B, "zzz")


def test_yoneda_weak_unit_isomorphic_to_identity():
    B = relation_bicategory(cyclic_group(2))
    x = B.objects[1]  # the sphere object
    y = yoneda(B, B.objects[0])
    unit_functor = y["functors"][B.weak_unit[x]]
    cat = y["categories"][x]
    # composing with the weak unit fixes every object up to 2-isomorphism
    for g in cat.objects:
        assert B.two_isomorphic(unit_functor.on_obj(g), g)


def test_yoneda_relation_bicategory_matches_handlebodies():
    from floerkit.bordism import CAP0, attach1, canonical_circle, chain
    from floerkit.bordobjects import EMPTY, surface
    from floerkit.fieldfun import PartialFunctorSpec, functor_eval

    group = cyclic_group(2)
    B = relation_bicategory(group)
    y = yoneda(B, EMPTY)
    spec = PartialFunctorSpec(group)
    handlebody = chain([CAP0, attach1(canonical_circle(1))])
    value = functor_eval(spec, handlebody)
    torus_cat = y["categories"][surface(1)]
    chains_as_relations = [
        tuple(B.relation_of[i] for i in ch) for ch in torus_cat.objects
    ]
    assert tuple(value.chain.relations) in chains_as_relations


def test_relation_bicategory_quotient_composes_geometrically():
    from floerkit.relcat import geometric_compose, is_embedded

    B = relation_bicategory(cyclic_group(3))
    B.validate_bicategory()
    q = quotient_by_2isos(B)
    rel_of = B.relation_of
    # composition of classes equals the class of the geometric composition
    for f in B.one:
        for g in B.one:
            if B.one[f][1] != B.one[g][0]:
                continue
            a = B.chain_complete[f]
            b = B.chain_complete[g]
            flag, _ = is_embedded(rel_of[a], rel_of[b])
            if not flag:
                continue
            comp_class = q.comp[(q.class_of[f], q.class_of[g])]
            composite = geometric_compose(rel_of[a], rel_of[b])
            member = q.class_members[comp_class][0]
            assert rel_of[B.chain_complete[member]] == composite


@pytest.mark.parametrize(
    "group_name, sizes",
    [("Z2", (11, 33, 105)), ("Z3", (12, 34, 104)), ("S3", (15, 37, 107))],
)
def test_relation_bicategory_composites_match_geometric_composition(group_name, sizes):
    from functools import reduce

    from floerkit.relcat import geometric_compose

    group = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "S3": symmetric_group(3)}[
        group_name
    ]
    B = relation_bicategory(group)
    assert (len(B.relation_of), len(B.one), len(B.two)) == sizes
    rel_id = {rel: i for i, rel in B.relation_of.items()}
    assert len(rel_id) == len(B.relation_of)

    def folded(chain):
        # the independent route: compose the relations themselves
        return rel_id[reduce(geometric_compose, (B.relation_of[i] for i in chain))]

    assert set(B.chain_complete) == set(B.one)
    for ch, complete in B.chain_complete.items():
        assert complete == folded(ch)
    for (x, y), h in B.hcomp1.items():
        assert h == x + y or h == (folded(x + y),)
        assert folded(h) == folded(x + y)

    # the thin tables, entries and order, against their pairwise
    # definitions; every pool relation ends a two-step chain, with the
    # diagonal of its target
    pool = {i for ch in B.one if len(ch) == 2 for i in ch}

    def hcomp(x, y):
        z = x + y
        return z if len(z) <= 2 and set(z) <= pool else (folded(z),)

    pairs = list(itertools.product(B.two, repeat=2))
    assert list(B.vcomp.items()) == [
        (((c1, c2), (c2b, c3)), (c1, c3)) for (c1, c2), (c2b, c3) in pairs if c2 == c2b
    ]
    assert list(B.hcomp2.items()) == [
        (((a1, a2), (b1, b2)), (hcomp(a1, b1), hcomp(a2, b2)))
        for (a1, a2), (b1, b2) in pairs
        if B.one[a1][1] == B.one[b1][0]
    ]


def invertible_pairs(B):
    """The definition of 2-isomorphism, by a scan over all pairs of
    2-cells: the (f, g) with some a: f => g and b: g => f whose vertical
    composites are the identity 2-cells of f and of g."""
    return {
        B.two[a]
        for a, b in itertools.product(B.two, repeat=2)
        if B.two[a] == B.two[b][::-1]
        and B.vcomp[(a, b)] == B.id2[B.two[a][0]]
        and B.vcomp[(b, a)] == B.id2[B.two[a][1]]
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda: relation_bicategory(cyclic_group(2)),
        lambda: conjugacy_nonexample(3),
        strict_two_category,
        pair_bicategory,
        lambda: pair_bicategory(inverse=False),
        *(
            lambda seed=seed: bicategory_with_identity_2cells(random_category(seed))
            for seed in range(4)
        ),
    ],
    ids=[
        "Rel(Z2)", "maps3+conjugacy", "strict", "pair", "pair-without-inverse",
        *(f"random{s}+id2" for s in range(4)),
    ],
)
def test_two_isomorphic_matches_the_definition(make):
    B = make()
    expected = invertible_pairs(B)
    assert expected >= {(f, f) for f in B.one}
    for f, g in itertools.product(B.one, repeat=2):
        assert B.two_isomorphic(f, g) == ((f, g) in expected), (f, g)


def test_two_isomorphism_is_equivalence_random():
    import numpy as np

    B = relation_bicategory(cyclic_group(2))
    rng = np.random.default_rng(0)
    ones = sorted(B.one, key=repr)
    for _ in range(50):
        f, g, h = (ones[int(i)] for i in rng.integers(0, len(ones), size=3))
        assert B.two_isomorphic(f, f)
        if B.two_isomorphic(f, g):
            assert B.two_isomorphic(g, f)
            if B.two_isomorphic(g, h):
                assert B.two_isomorphic(f, h)


def quotient_oracle(B):
    """The quotient by 2-isomorphism from the definition: each 1-cell, in
    repr order, joins the first class whose first member is 2-isomorphic
    to it (by invertible_pairs), and each composable class pair is scanned
    for the classes of all its composites.  Returns (objects, morphisms,
    comp, identity, class_members, class_of), the tables as item lists, or
    raises IllFormedQuotient at the first class pair that does not
    descend."""
    iso = invertible_pairs(B)
    class_of, classes = {}, []
    for f in sorted(B.one, key=repr):
        ci = next((i for i, m in enumerate(classes) if (m[0], f) in iso), len(classes))
        if ci == len(classes):
            classes.append([])
        classes[ci].append(f)
        class_of[f] = ci
    comp = {}
    for (ci, m1), (cj, m2) in itertools.product(enumerate(classes), repeat=2):
        if B.one[m1[0]][1] != B.one[m2[0]][0]:
            continue
        first = {}  # target class -> the first composite landing in it
        for f, g in itertools.product(m1, m2):
            h = B.hcomp1[(f, g)]
            first.setdefault(class_of[h], ((f, g), h))
        if len(first) > 1:
            raise IllFormedQuotient(
                "horizontal composition does not descend to 2-isomorphism classes",
                witness={
                    "class_pair": (m1[0], m2[0]),
                    "representative_composites": sorted(first.values(), key=repr)[:2],
                },
            )
        (comp[(ci, cj)],) = first
    return (
        B.objects,
        [(ci, B.one[m[0]]) for ci, m in enumerate(classes)],
        list(comp.items()),
        [(x, class_of[B.weak_unit[x]]) for x in B.objects],
        [(ci, tuple(m)) for ci, m in enumerate(classes)],
        list(class_of.items()),
    )


QUOTIENT_CASES = {
    "Rel(Z2)": lambda: relation_bicategory(cyclic_group(2)),
    "Rel(Z3)": lambda: relation_bicategory(cyclic_group(3)),
    "Rel(S3)": lambda: relation_bicategory(symmetric_group(3)),
    "maps2+conjugacy": lambda: conjugacy_nonexample(2),
    "maps3+conjugacy": lambda: conjugacy_nonexample(3),
    "strict": strict_two_category,
    "pair": pair_bicategory,
    "pair-without-inverse": lambda: pair_bicategory(inverse=False),
    **{
        f"random{s}+id2": lambda s=s: bicategory_with_identity_2cells(random_category(s))
        for s in range(50)
    },
}


@pytest.mark.parametrize("name", QUOTIENT_CASES)
def test_quotient_matches_the_oracle(name):
    B = QUOTIENT_CASES[name]()
    try:
        expected = quotient_oracle(B)
    except IllFormedQuotient as oracle_err:
        with pytest.raises(IllFormedQuotient) as err:
            quotient_by_2isos(B)
        assert str(err.value) == str(oracle_err)
        assert err.value.witness == oracle_err.witness
        return
    q = quotient_by_2isos(B)
    assert (
        q.objects,
        list(q.morphisms.items()),
        list(q.comp.items()),
        list(q.identity.items()),
        list(q.class_members.items()),
        list(q.class_of.items()),
    ) == expected


def magma_bicategory(table, unit):
    """One object x, 1-cells 0..n-1 composing as table[f][g] with weak unit
    ``unit``, and only identity 2-cells: the 2-cell f is the identity of
    the 1-cell f, so hcomp2 is table too."""
    cells = range(len(table))
    hcomp = {(f, g): table[f][g] for f in cells for g in cells}
    return FinBicategory(
        ("x",), {f: ("x", "x") for f in cells}, {f: (f, f) for f in cells},
        {(f, f): f for f in cells}, {f: f for f in cells}, hcomp, hcomp, {"x": unit},
    )


def first_horizontal_law_failure(B):
    """(message, witness) of the first failure of horizontal associativity
    or of a weak unit up to 2-isomorphism (by invertible_pairs), scanning
    the definitions in validate_bicategory's loop order, or None.  B has
    one object, so every pair of 1-cells composes."""
    iso, h = invertible_pairs(B), B.hcomp1
    for f, g, k in itertools.product(B.one, repeat=3):
        if (h[(h[(f, g)], k)], h[(f, h[(g, k)])]) not in iso:
            return "horizontal associativity fails up to 2-isomorphism", (f, g, k)
    for x in B.objects:
        u = B.weak_unit[x]
        for f in B.one:
            if (h[(f, u)], f) not in iso:
                return "weak unit fails on the right", (x, f)
            if (h[(u, f)], f) not in iso:
                return "weak unit fails on the left", (x, f)
    return None


def test_horizontal_law_failures_match_brute_force():
    import random

    rng = random.Random(0)
    # every table on two 1-cells with either unit, and random ones on three
    cases = [
        ([list(values[:2]), list(values[2:])], unit)
        for values in itertools.product(range(2), repeat=4)
        for unit in range(2)
    ] + [
        ([[rng.randrange(3) for _ in range(3)] for _ in range(3)], rng.randrange(3))
        for _ in range(100)
    ]
    seen = set()
    for table, unit in cases:
        B = magma_bicategory(table, unit)
        expected = first_horizontal_law_failure(B)
        if expected is None:
            B.validate_bicategory()
        else:
            with pytest.raises(CategoryMismatch) as err:
                B.validate_bicategory()
            assert (str(err.value), err.value.witness) == expected, (table, unit)
        seen.add(expected and expected[0])
    assert seen == {
        None,
        "horizontal associativity fails up to 2-isomorphism",
        "weak unit fails on the right",
        "weak unit fails on the left",
    }


@pytest.mark.parametrize(
    "table, pair, value, message, witness",
    [
        ("hcomp1", ("f1", "f0"), None, "horizontal 1-composition",
         {"extra": [], "missing": [("f1", "f0")]}),
        ("hcomp1", ("f0", "f9"), "f0", "horizontal 1-composition",
         {"extra": [("f0", "f9")], "missing": []}),
        ("hcomp2", ("a00", "zz"), "a00", "horizontal 2-composition",
         {"extra": [("a00", "zz")], "missing": []}),
    ],
    ids=["hcomp1-missing", "hcomp1-extra", "hcomp2-extra"],
)
def test_horizontal_domain_mismatch_witness(table, pair, value, message, witness):
    tables = strict_tables()
    if value is None:
        del tables[table][pair]
    else:
        tables[table][pair] = value
    with pytest.raises(CategoryMismatch) as err:
        FinBicategory(**tables)
    assert str(err.value) == f"{message} domain mismatch"
    assert err.value.witness == witness


@pytest.mark.parametrize("seed", range(12))
def test_random_categories_are_valid(seed):
    cat = random_category(seed)
    assert len(cat.objects) <= 5
    assert len(cat.morphisms) <= 40


def test_path_category_composition():
    C = path_category((0, 1, 2), [(0, 1, "a"), (1, 2, "b")])
    paths = [f for f, (s, d) in C.morphisms.items() if (s, d) == (0, 2)]
    assert len(paths) == 1
