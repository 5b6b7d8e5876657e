import numpy as np
import pytest

from floerkit.errors import NoIdentity, NoInverse, NonAssociative
from floerkit.groups import (
    cyclic_group,
    dihedral_group,
    group_load,
    quaternion_group,
    symmetric_group,
)


def brute_conjugacy_classes(g):
    """Independent orbit enumeration of the conjugation action."""
    classes = set()
    for x in g.elements():
        orbit = frozenset(g.op(g.op(g.inverse(h), x), h) for h in g.elements())
        classes.add(orbit)
    return sorted(tuple(sorted(c)) for c in classes)


def test_trivial_group():
    g = group_load([[0]])
    assert g.order == 1
    assert g.conjugacy_classes == ((0,),)


def test_z4_classes_equal_elements():
    g = cyclic_group(4)
    assert g.order == 4
    assert len(g.conjugacy_classes) == 4
    assert g.is_abelian()


def test_s3_has_three_classes():
    g = symmetric_group(3)
    assert g.order == 6
    assert len(g.conjugacy_classes) == 3
    assert sorted(len(c) for c in g.conjugacy_classes) == [1, 2, 3]
    assert g.conjugacy_classes == tuple(brute_conjugacy_classes(g))


@pytest.mark.parametrize(
    "g",
    [cyclic_group(2), cyclic_group(5), symmetric_group(3), symmetric_group(4),
     dihedral_group(4), quaternion_group()],
)
def test_group_axioms_hold(g):
    n = g.order
    for a in range(n):
        assert g.op(0, a) == a == g.op(a, 0)
        assert g.op(a, g.inverse(a)) == 0
        assert g.op(g.inverse(a), a) == 0
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = rng.integers(0, n, size=3)
        assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
    assert g.conjugacy_classes == tuple(brute_conjugacy_classes(g))


def test_q8_structure():
    g = quaternion_group()
    assert g.order == 8
    assert len(g.conjugacy_classes) == 5
    assert not g.is_abelian()


def test_non_associative_rejected():
    # latin square that is not a group table (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NonAssociative) as err:
        group_load(table)
    a, b, c = err.value.witness
    t = table
    assert t[t[a][b]][c] != t[a][t[b][c]]


def first_nonassociative_triple(table):
    """Oracle: both sides of (a*b)*c == a*(b*c) as order^3 arrays; the
    lexicographically first failing (a, b, c), or None."""
    t = np.asarray(table)
    failing = np.argwhere(t[t, :] != t[:, t])
    return tuple(int(v) for v in failing[0]) if len(failing) else None


def corrupted_table(g, seed):
    """g's table with two entries of a non-identity row swapped and, for
    odd seeds, two entries of a non-identity column too; the identity row
    and column stay, so only associativity and inverses can fail."""
    rng = np.random.default_rng(seed)
    t = g.mul.copy()
    row = int(rng.integers(1, g.order))
    i, j = rng.choice(np.arange(1, g.order), size=2, replace=False)
    t[row, [i, j]] = t[row, [j, i]]
    if seed % 2:
        col = int(rng.integers(1, g.order))
        i, j = rng.choice(np.arange(1, g.order), size=2, replace=False)
        t[[i, j], col] = t[[j, i], col]
    return t


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "make", [lambda: symmetric_group(3), quaternion_group, lambda: dihedral_group(6),
             lambda: symmetric_group(4)],
    ids=["S3", "Q8", "D6", "S4"],
)
def test_non_associative_witness_matches_oracle(make, seed):
    table = corrupted_table(make(), seed)
    expected = first_nonassociative_triple(table)
    assert expected is not None  # every corruption here breaks associativity
    with pytest.raises(NonAssociative) as err:
        group_load(table.tolist())
    assert err.value.witness == expected


def test_s5_loads_in_little_memory_and_a_swap_is_caught():
    import tracemalloc

    from floerkit.groups import FiniteGroup

    table = symmetric_group(5).mul
    tracemalloc.start()
    try:
        FiniteGroup(table.copy())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an order^3 check would hold 2 * 120^3 int64 entries, 27.6 MB
    assert peak < 8 * 2**20
    table = table.copy()
    table[7, [11, 13]] = table[7, [13, 11]]
    with pytest.raises(NonAssociative) as err:
        FiniteGroup(table)
    assert err.value.witness == first_nonassociative_triple(table)


def test_building_a_group_leaves_the_callers_table_alone():
    from floerkit.groups import FiniteGroup

    for build in (FiniteGroup, group_load):
        t = symmetric_group(3).mul.copy()
        before = t.copy()
        G = build(t)
        assert t.flags.writeable and np.array_equal(t, before)
        assert not G.mul.flags.writeable
        t[1, 1] = 0  # the caller's copy can still be written
        assert G.mul[1, 1] == before[1, 1]


def test_loader_reindexes_identity():
    # Z/2 written with the identity at index 1: loader relabels
    g = group_load([[1, 0], [0, 1]])
    assert g.order == 2
    assert g.op(0, 1) == 1 and g.op(1, 1) == 0


def test_missing_identity_rejected():
    # no element acts as a two-sided unit
    with pytest.raises(NoIdentity):
        group_load([[1, 0], [1, 0]])


def test_missing_inverse_rejected():
    # associative monoid with absorbing element but no inverses
    table = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
    with pytest.raises(NoInverse) as err:
        group_load(table)
    assert err.value.witness in (1, 2)


def test_commutator_and_conjugate():
    g = symmetric_group(3)
    for a in g.elements():
        for b in g.elements():
            lhs = g.commutator(a, b)
            rhs = g.op(g.op(g.op(a, b), g.inverse(a)), g.inverse(b))
            assert lhs == rhs
            assert g.conjugate(b, a) == g.op(g.op(g.inverse(b), a), b)


def test_json_round_trip():
    from floerkit.groups import group_from_json

    g = dihedral_group(3)
    data = g.to_json()
    h = group_from_json(data)
    assert g == h
    assert h.name == g.name


def test_dihedral_3_is_s3_shape():
    g = dihedral_group(3)
    assert g.order == 6
    assert len(g.conjugacy_classes) == 3
