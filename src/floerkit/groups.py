"""Finite groups given by multiplication tables.

A group is a square table ``mul`` of element indices with the convention
that index 0 is the two-sided identity.  Loading a table validates the
identity, associativity (by Light's test, on the table as a flat list of
ints) and inverses, and precomputes the inverse table and the conjugacy
class partition; everything downstream (representation varieties,
relations, invariants) uses this class.

The public tables ``mul``, ``inv`` and ``conj`` are read-only numpy
arrays.  The hot kernels (``op``, ``inverse``, ``commutator``,
``words.eval_word`` and the fiber walk of the relator enumeration) read
private copies instead: ``_rows[a][b]`` and ``_inverse[a]``, tuples of
Python ints, one int object per element, since a numpy scalar read costs
several times a tuple read.  The numpy tables stay public until the
benchmark workloads stop reading them as arrays.

Elements are plain ``int`` indices.  Instances are immutable after
construction and safe to share between worker processes.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .cats import _first_nonassociative
from .errors import FloerkitError, NoIdentity, NoInverse, NonAssociative


class FiniteGroup:
    """Finite group with identity at index 0.

    Attributes
    ----------
    order : int
    mul : numpy array of shape (order, order); ``mul[a, b]`` is a*b
    inv : numpy array; ``inv[a]`` is the inverse of a
    name : text label used in file output and error messages
    conjugacy_classes : tuple of tuples, sorted, covering 0..order-1
    class_of : tuple mapping each element to the index of its class
    """

    def __init__(self, mul, name="G"):
        table = np.array(mul, dtype=np.int64)  # a copy: the caller keeps its data
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NoIdentity("multiplication table must be square", witness=table.shape)
        n = table.shape[0]
        if n == 0:
            raise NoIdentity("empty table")
        if table.min() < 0 or table.max() >= n:
            bad = int(np.argmax((table < 0) | (table >= n)))
            raise NoIdentity(
                f"table entries out of range for order {n}",
                witness=divmod(bad, n),
            )

        if not (np.array_equal(table[0], np.arange(n)) and np.array_equal(table[:, 0], np.arange(n))):
            bad = next(
                i for i in range(n)
                if table[0, i] != i or table[i, 0] != i
            )
            raise NoIdentity("element 0 is not a two-sided identity", witness=bad)

        # rows of Python ints, built a row at a time: mapping through one
        # list of the elements makes every entry share that element's int
        # object (range(n).__getitem__ would make a new int above 256)
        elements = list(range(n))
        rows = tuple(tuple(map(elements.__getitem__, row.tolist())) for row in table)
        # the table as a one-object category with identity 0, read as a
        # flat list of those ints: a numpy scalar read costs ten times as much
        ends = [0] * n
        witness = _first_nonassociative(
            ends, ends, {0}, list(itertools.chain.from_iterable(rows))
        )
        if witness is not None:
            a, b, c = witness
            raise NonAssociative(
                f"({a}*{b})*{c} != {a}*({b}*{c}) in {name}", witness=witness
            )

        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.where(table[a] == 0)[0]
            if len(hits) != 1 or table[hits[0], a] != 0:
                raise NoInverse(f"element {a} has no two-sided inverse in {name}", witness=a)
            inv[a] = hits[0]

        self.order = n
        self.name = str(name)
        self.mul = table
        self.inv = inv
        self._rows = rows
        self._inverse = tuple(map(elements.__getitem__, inv.tolist()))
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

        # conj[h, x] = h^-1 * x * h, the action used for canonical forms
        conj = np.empty((n, n), dtype=np.int64)
        for h in range(n):
            conj[h] = table[table[inv[h], np.arange(n)], h]
        self.conj = conj
        self.conj.setflags(write=False)

        seen = np.zeros(n, dtype=bool)
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            orbit = np.unique(conj[:, x])
            seen[orbit] = True
            classes.append(tuple(int(v) for v in orbit))
        self.conjugacy_classes = tuple(sorted(classes))
        class_of = [0] * n
        for ci, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                class_of[x] = ci
        self.class_of = tuple(class_of)

    @cached_property
    def _pair_conjugators(self):
        """Entry ``x * order + y``: the rows of ``conj``, as lists, of the
        conjugators that take (x, y) to its least conjugate pair.

        Those conjugators form one coset of C(x) & C(y), found inside the
        coset of C(x) that takes x to its class minimum.  Conjugators that
        differ by a central factor share a row, so each row is kept once.
        Built on first use: loading a group does not pay for it.
        """
        rows = [list(r) for r in dict.fromkeys(map(tuple, self.conj.tolist()))]
        table = []
        for x in range(self.order):
            least_x = self.conjugacy_classes[self.class_of[x]][0]
            to_least = [row for row in rows if row[x] == least_x]
            for y in range(self.order):
                least_y = min(row[y] for row in to_least)
                table.append([row for row in to_least if row[y] == least_y])
        return table

    # -- basic operations --------------------------------------------

    def op(self, a, b):
        return self._rows[a][b]

    def inverse(self, a):
        return self._inverse[a]

    def conjugate(self, h, x):
        """h^-1 x h."""
        return int(self.conj[h, x])

    def commutator(self, a, b):
        """a b a^-1 b^-1."""
        rows, inv = self._rows, self._inverse
        return rows[rows[rows[a][b]][inv[a]]][inv[b]]

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        return bool(np.array_equal(self.mul, self.mul.T))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.mul, other.mul)
        )

    def __hash__(self):
        return hash((self.order, self.mul.tobytes()))

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def to_json(self):
        return {"name": self.name, "order": self.order, "mul": self.mul.tolist()}


def group_load(table, name="G"):
    """Validate a raw multiplication table and build a FiniteGroup.

    The identity must act as a two-sided unit somewhere in the table; if
    it is not element 0 the table is re-indexed (a transposition of
    labels) so that the bit-exact file convention holds.
    """
    try:
        raw = np.asarray(table, dtype=np.int64)
    except (TypeError, ValueError):
        raise NoIdentity("multiplication table must hold integers") from None
    if raw.ndim == 2 and raw.shape[0] == raw.shape[1] and raw.shape[0] > 0:
        n = raw.shape[0]
        ident = next(
            (
                e
                for e in range(n)
                if np.array_equal(raw[e], np.arange(n))
                and np.array_equal(raw[:, e], np.arange(n))
            ),
            None,
        )
        if ident is not None and ident != 0:
            perm = np.arange(n)
            perm[0], perm[ident] = ident, 0  # relabel: swap 0 and the identity
            raw = perm[raw[np.ix_(perm, perm)]]  # perm is its own inverse
    return FiniteGroup(raw, name=name)


def group_from_json(data):
    if not isinstance(data, dict) or "mul" not in data:
        found = sorted(data) if isinstance(data, dict) else type(data).__name__
        raise FloerkitError('a group file is a JSON object with "mul"', witness=found)
    g = group_load(data["mul"], name=data.get("name", "G"))
    if "order" in data and data["order"] != g.order:
        raise NoIdentity(
            f"declared order {data['order']} does not match table size {g.order}"
        )
    return g


# -- builders for the standard test groups --------------------------------

def cyclic_group(n):
    """Z/n with elements 0..n-1 under addition."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"Z{n}")


def _table_from_elements(elems, compose, name):
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[compose(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=name)


def symmetric_group(n):
    """S_n on {0..n-1}; permutations composed left-to-right, identity first."""
    ident = tuple(range(n))
    elems = [ident] + sorted(p for p in itertools.permutations(range(n)) if p != ident)

    def compose(p, q):
        # apply p, then q
        return tuple(q[p[i]] for i in range(n))

    return _table_from_elements(elems, compose, name=f"S{n}")


def dihedral_group(n):
    """Dihedral group of order 2n, as (rotation, flip) pairs."""
    elems = [(r, f) for f in (0, 1) for r in range(n)]

    def compose(a, b):
        r1, f1 = a
        r2, f2 = b
        # apply a then b, acting on the n-gon
        r = (r2 + (r1 if f2 == 0 else -r1)) % n
        return (r, f1 ^ f2)

    return _table_from_elements(elems, compose, name=f"D{n}")


def quaternion_group():
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def units(a):
        sign = 1 if not a.startswith("-") else -1
        return sign, a.lstrip("-")

    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def compose(a, b):
        sa, ua = units(a)
        sb, ub = units(b)
        s, u = prod[(ua, ub)]
        s *= sa * sb
        return u if s == 1 else "-" + u

    return _table_from_elements(names, compose, name="Q8")


def standard_test_groups():
    """The default group list used by Cerf-compatibility checks."""
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4),
            symmetric_group(3), quaternion_group()]
