"""Words in free and surface groups, and mapping classes as automorphisms.

A word is a tuple of nonzero signed integers: letter ``k`` is the k-th
generator, ``-k`` its inverse.  For a genus-g surface the alphabet is
1..2g with the convention that generator ``2i-1`` is a_i and ``2i`` is
b_i, so the surface relator is a_1 b_1 a_1^-1 b_1^-1 ... of length 4g.

Word equality in the surface group is decided by abelianization for the
torus and by Dehn's greedy algorithm for genus >= 2 (the relator has
pieces of length 1, so the small-cancellation hypothesis applies and the
greedy reduction is complete).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import GenusMismatch, InvalidAutomorphism


# -- raw word operations (alphabet-agnostic tuples of signed ints) --------

def reduce_word(letters):
    """Freely reduce; returns a tuple."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(letters):
    return tuple(-x for x in reversed(letters))


def concat(*parts):
    return reduce_word(x for p in parts for x in p)


def cyclic_reduce(letters):
    w = list(reduce_word(letters))
    while len(w) >= 2 and w[0] == -w[-1]:
        w.pop(0)
        w.pop()
    return tuple(w)


def rotations(letters):
    n = len(letters)
    return {tuple(letters[i:]) + tuple(letters[:i]) for i in range(n)} or {()}


def words_cyclically_equal(u, v):
    """True iff the cyclically reduced forms are rotations of each other."""
    cu, cv = cyclic_reduce(u), cyclic_reduce(v)
    if len(cu) != len(cv):
        return False
    return cv in rotations(cu)


def abelianization(letters, rank):
    vec = [0] * rank
    for x in letters:
        vec[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(vec)


def eval_word(letters, assignment, group):
    """Evaluate a word at an assignment of group elements to generators.

    ``assignment[k-1]`` is the image of generator k; exponent -1 uses the
    group inverse.  Reads the group's int rows, not its numpy table.
    """
    rows = group._rows
    inv = group._inverse
    acc = 0
    for x in letters:
        acc = rows[acc][assignment[x - 1] if x > 0 else inv[assignment[-x - 1]]]
    return acc


def substitute(letters, images):
    """Apply the substitution generator k -> images[k-1] to a word."""
    parts = []
    for x in letters:
        w = images[x - 1] if x > 0 else invert_word(images[-x - 1])
        parts.append(w)
    return concat(*parts)


# -- surface-group layer ---------------------------------------------------

def gen_a(i):
    """Letter index of a_i (1-based handle index)."""
    return 2 * i - 1


def gen_b(i):
    return 2 * i


def surface_relator(genus):
    """The word prod_i a_i b_i a_i^-1 b_i^-1 of length 4*genus."""
    rel = []
    for i in range(1, genus + 1):
        a, b = gen_a(i), gen_b(i)
        rel += [a, b, -a, -b]
    return tuple(rel)


@dataclass(frozen=True)
class Word:
    """A word in the genus-g surface alphabet, stored freely reduced."""

    letters: tuple
    genus: int

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_word(self.letters))
        for x in self.letters:
            if x == 0 or abs(x) > 2 * self.genus:
                raise GenusMismatch(
                    f"letter {x} outside alphabet of genus {self.genus}", witness=x
                )

    def __iter__(self):
        return iter(self.letters)

    def abelianization(self):
        return abelianization(self.letters, 2 * self.genus)


def word_eval(w, assignment, group):
    """Evaluate a surface word; assignment has one element per generator."""
    genus = w.genus if isinstance(w, Word) else None
    letters = w.letters if isinstance(w, Word) else tuple(w)
    if genus is not None and len(assignment) != 2 * genus:
        raise GenusMismatch(
            f"assignment of length {len(assignment)} for genus {genus}",
            witness=len(assignment),
        )
    return eval_word(letters, assignment, group)


def free_conjugate_test(u, v) -> bool:
    lu = u.letters if isinstance(u, Word) else tuple(u)
    lv = v.letters if isinstance(v, Word) else tuple(v)
    return words_cyclically_equal(lu, lv)


# -- the word problem in surface groups ------------------------------------

@functools.cache
def _relator_rotations(genus):
    rel = surface_relator(genus)
    rots = set()
    for r in (rel, invert_word(rel)):
        rots |= rotations(r)
    return tuple(sorted(rots))


def surface_word_is_trivial(letters, genus):
    """Decide w == 1 in pi_1 of the closed genus-g surface.

    Genus 0 is the trivial group, genus 1 is Z^2, genus >= 2 uses Dehn's
    algorithm: repeatedly replace any subword that is more than half of a
    relator rotation by the shorter complement.
    """
    w = reduce_word(letters)
    if genus == 0:
        return True
    if genus == 1:
        return abelianization(w, 2) == (0, 0)

    half = 2 * genus  # relator length is 4g
    rots = _relator_rotations(genus)
    while w:
        shortened = False
        # scan for a subword of length > half matching a relator prefix
        for size in range(len(w), half, -1):
            if size > 4 * genus:
                continue
            for start in range(0, len(w) - size + 1):
                piece = w[start:start + size]
                for r in rots:
                    if piece == r[:size]:
                        remainder = invert_word(r[size:])
                        w = reduce_word(w[:start] + remainder + w[start + size:])
                        shortened = True
                        break
                if shortened:
                    break
            if shortened:
                break
        if not shortened:
            return False
    return True


def surface_words_equal(u, v, genus):
    """Decide u == v in the surface group."""
    lu = u.letters if isinstance(u, Word) else tuple(u)
    lv = v.letters if isinstance(v, Word) else tuple(v)
    return surface_word_is_trivial(concat(lu, invert_word(lv)), genus)


# -- surface automorphisms (mapping classes on pi_1) ------------------------

@dataclass(frozen=True)
class SurfaceAutomorphism:
    """An automorphism of the genus-g surface group, with explicit inverse.

    ``images[k-1]`` is the image word of generator k; ``inverse_images``
    gives the inverse automorphism.  Construction validates that the
    relator is preserved up to conjugacy (orientation preserving) and
    that the two substitutions invert each other in the surface group.
    """

    genus: int
    images: tuple
    inverse_images: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        g = self.genus
        imgs = tuple(reduce_word(w) for w in self.images)
        invs = tuple(reduce_word(w) for w in self.inverse_images)
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "inverse_images", invs)
        if len(imgs) != 2 * g or len(invs) != 2 * g:
            raise GenusMismatch(
                f"need 2g={2 * g} image words, got {len(imgs)}/{len(invs)}"
            )
        validate_automorphism(self)

    def apply(self, letters):
        """Apply to a raw word (substitution by image words)."""
        src = letters.letters if isinstance(letters, Word) else tuple(letters)
        return substitute(src, self.images)

    def apply_inverse(self, letters):
        src = letters.letters if isinstance(letters, Word) else tuple(letters)
        return substitute(src, self.inverse_images)

    def then(self, other: "SurfaceAutomorphism") -> "SurfaceAutomorphism":
        """The mapping class 'self first, then other'."""
        if self.genus != other.genus:
            raise GenusMismatch(
                f"cannot compose genus {self.genus} with {other.genus}"
            )
        imgs = tuple(other.apply(w) for w in self.images)
        invs = tuple(self.apply_inverse(w) for w in other.inverse_images)
        name = ""
        if self.name and other.name:
            name = f"{self.name};{other.name}"
        return SurfaceAutomorphism(self.genus, imgs, invs, name=name)

    def inverse(self) -> "SurfaceAutomorphism":
        name = f"~{self.name}" if self.name else ""
        return SurfaceAutomorphism(self.genus, self.inverse_images, self.images, name=name)

    def is_identity(self):
        return all(
            surface_words_equal(w, (k,), self.genus)
            for k, w in enumerate(self.images, start=1)
        )

    def same_mapping_class(self, other) -> bool:
        """Conservative on-the-nose equality in the surface group."""
        if self.genus != other.genus:
            return False
        return all(
            surface_words_equal(a, b, self.genus)
            for a, b in zip(self.images, other.images)
        )

    def hom_permutation(self, group):
        """The induced map rho -> rho o phi on Hom(pi_1, G) tuples."""
        from .repvar import enumerate_relator_solutions

        return {
            pt: tuple(eval_word(w, pt, group) for w in self.images)
            for pt in enumerate_relator_solutions(group, self.genus)
        }

    def to_json(self):
        def enc(w):
            return [[abs(x), 1 if x > 0 else -1] for x in w]

        return {
            "genus": self.genus,
            "images": [enc(w) for w in self.images],
            "inverse_images": [enc(w) for w in self.inverse_images],
        }

    def __repr__(self):
        label = self.name or "?"
        return f"SurfaceAutomorphism(genus={self.genus}, {label})"


def automorphism_from_json(data):
    def dec(pairs):
        return tuple(k * e for k, e in pairs)

    return SurfaceAutomorphism(
        data["genus"],
        tuple(dec(w) for w in data["images"]),
        tuple(dec(w) for w in data["inverse_images"]),
        name=data.get("name", ""),
    )


def validate_automorphism(phi, cross_check_group=None):
    """Reject maps that are not orientation-preserving mapping classes.

    Checks the relator-conjugacy invariant, that the declared inverse
    really inverts in the surface group, and (optionally) that the
    induced self-map of Hom(pi_1, G) is a bijection for a finite group.
    """
    g = phi.genus
    rel = surface_relator(g)
    img_rel = substitute(rel, phi.images)
    if not words_cyclically_equal(img_rel, rel):
        raise InvalidAutomorphism(
            f"image of surface relator not conjugate to relator (genus {g})",
            witness={"relator_image": img_rel},
        )
    inv_rel = substitute(rel, phi.inverse_images)
    if not words_cyclically_equal(inv_rel, rel):
        raise InvalidAutomorphism(
            "inverse images do not preserve the relator",
            witness={"relator_image": inv_rel},
        )
    for k in range(1, 2 * g + 1):
        round_trip = substitute(phi.apply_inverse((k,)), phi.images)
        if not surface_word_is_trivial(concat(round_trip, (-k,)), g):
            raise InvalidAutomorphism(
                f"phi o phi^-1 does not fix generator {k}",
                witness={"generator": k, "round_trip": round_trip},
            )
        round_trip = substitute(phi.apply((k,)), phi.inverse_images)
        if not surface_word_is_trivial(concat(round_trip, (-k,)), g):
            raise InvalidAutomorphism(
                f"phi^-1 o phi does not fix generator {k}",
                witness={"generator": k, "round_trip": round_trip},
            )
    if cross_check_group is not None:
        perm = phi.hom_permutation(cross_check_group)
        if len(set(perm.values())) != len(perm):
            raise InvalidAutomorphism(
                f"induced map on Hom(pi_1, {cross_check_group.name}) not injective",
                witness={"group": cross_check_group.name},
            )


# -- the built-in mapping class library -------------------------------------

def identity_automorphism(genus):
    gens = tuple((k,) for k in range(1, 2 * genus + 1))
    return SurfaceAutomorphism(genus, gens, gens, name=f"id_{genus}")


def _plain_swap(genus, i, j):
    # relabeling a_i <-> a_j, b_i <-> b_j; a mapping class only at genus 2
    def image(k):
        h, off = divmod(k - 1, 2)
        h += 1
        if h == i:
            h = j
        elif h == j:
            h = i
        return ((h - 1) * 2 + off + 1,)

    imgs = tuple(image(k) for k in range(1, 2 * genus + 1))
    return SurfaceAutomorphism(genus, imgs, imgs, name=f"swap{i}{j}_{genus}")


def _braid_swap(genus, k):
    """Exchange handles k, k+1 with the commutator correction that keeps
    the surface relator fixed on the nose (a handle-slide composite)."""
    a1, b1 = gen_a(k), gen_b(k)
    a2, b2 = gen_a(k + 1), gen_b(k + 1)
    K = (a1, b1, -a1, -b1)
    M = (a2, b2, -a2, -b2)
    imgs = []
    invs = []
    for g in range(1, 2 * genus + 1):
        if g == a1:
            imgs.append(concat(K, (a2,), invert_word(K)))
            invs.append((a2,))
        elif g == b1:
            imgs.append(concat(K, (b2,), invert_word(K)))
            invs.append((b2,))
        elif g == a2:
            imgs.append((a1,))
            invs.append(concat(invert_word(M), (a1,), M))
        elif g == b2:
            imgs.append((b1,))
            invs.append(concat(invert_word(M), (b1,), M))
        else:
            imgs.append((g,))
            invs.append((g,))
    return SurfaceAutomorphism(genus, tuple(imgs), tuple(invs), name=f"braid{k}_{genus}")


def handle_swap(genus, i, j):
    """Exchange handles i and j.

    At genus 2 this is the plain relabeling a_i <-> a_j, b_i <-> b_j
    (an involution on the nose); at higher genus the relabeling does not
    preserve the relator up to conjugacy, so adjacent commutator-corrected
    swaps are composed instead.
    """
    if not (1 <= i <= genus and 1 <= j <= genus and i != j):
        raise GenusMismatch(f"handles {i},{j} out of range for genus {genus}")
    i, j = min(i, j), max(i, j)
    if genus == 2:
        return _plain_swap(genus, i, j)
    phi = _braid_swap(genus, i)
    for k in range(i + 1, j):
        step = _braid_swap(genus, k)
        phi = step.then(phi).then(step)
    return SurfaceAutomorphism(
        genus, phi.images, phi.inverse_images, name=f"swap{i}{j}_{genus}"
    )


def s_move(genus=1, handle=1):
    """The genus-1 quarter rotation a -> b, b -> a^-1.

    Only defined on the torus; at higher genus the formula does not give a
    mapping class (use crossing_transport for a relator-exact variant).
    """
    if genus != 1 or handle != 1:
        raise GenusMismatch("the plain S-move formula is a mapping class only at genus 1")
    return SurfaceAutomorphism(1, ((2,), (-1,)), ((-2,), (1,)), name="S_1")


def crossing_transport(genus, handle=1):
    """A mapping class sending a_h to a conjugate of b_h, fixing the
    relator exactly: a -> a b a^-1, b -> a^-1 on the given handle.

    Used to present the b-circle of a handle as a transported a-circle;
    together with the identity it forms the canonical single-intersection
    circle pair.
    """
    a, b = gen_a(handle), gen_b(handle)
    imgs = []
    invs = []
    for k in range(1, 2 * genus + 1):
        if k == a:
            imgs.append((a, b, -a))
            invs.append((-b,))
        elif k == b:
            imgs.append((-a,))
            invs.append((b, a, -b))
        else:
            imgs.append((k,))
            invs.append((k,))
    return SurfaceAutomorphism(genus, tuple(imgs), tuple(invs), name=f"rot{handle}_{genus}")


def _dehn_twist(genus, moved, along, power, name):
    """Generator ``moved`` -> moved * along^power, every other one fixed."""
    letter = along if power >= 0 else -along

    def images(x):
        return tuple(
            (k,) + (x,) * abs(power) if k == moved else (k,)
            for k in range(1, 2 * genus + 1)
        )

    return SurfaceAutomorphism(genus, images(letter), images(-letter), name=name)


def dehn_twist_a(genus, handle=1, power=1):
    """Dehn twist along a_handle: b -> b a^power, everything else fixed."""
    return _dehn_twist(
        genus, gen_b(handle), gen_a(handle), power, f"Ta{handle}^{power}_{genus}"
    )


def dehn_twist_b(genus, handle=1, power=1):
    """Dehn twist along b_handle: a -> a b^power."""
    return _dehn_twist(
        genus, gen_a(handle), gen_b(handle), power, f"Tb{handle}^{power}_{genus}"
    )


def builtin_library(genus):
    """The registered automorphisms used to seed Cerf-move searches."""
    lib = [identity_automorphism(genus)]
    if genus == 1:
        lib.append(s_move(1))
    if genus >= 1:
        lib.append(crossing_transport(genus, 1))
        lib.append(dehn_twist_a(genus, 1))
        lib.append(dehn_twist_b(genus, 1))
    if genus >= 2:
        lib.append(handle_swap(genus, 1, 2))
        lib.append(dehn_twist_a(genus, 2))
        lib.append(dehn_twist_b(genus, 2))
    return lib
