import itertools

import pytest

from floerkit import words
from floerkit.errors import GenusMismatch, InvalidAutomorphism
from floerkit.groups import cyclic_group, symmetric_group
from floerkit.words import (
    SurfaceAutomorphism,
    Word,
    abelianization,
    builtin_library,
    concat,
    dehn_twist_a,
    dehn_twist_b,
    eval_word,
    free_conjugate_test,
    handle_swap,
    identity_automorphism,
    invert_word,
    reduce_word,
    s_move,
    substitute,
    surface_relator,
    surface_word_is_trivial,
    surface_words_equal,
    validate_automorphism,
    word_eval,
)

A1, B1, A2, B2 = 1, 2, 3, 4


def test_reduce_cancellation():
    assert reduce_word((A1, -A1)) == ()
    assert reduce_word((A1, B1, -B1, A2)) == (A1, A2)
    r2 = surface_relator(2)
    assert reduce_word(r2) == r2


def test_reduce_idempotent_and_abelianization_invariant():
    words = [
        (A1, A1, -B1, B1, -A1),
        (B2, -B2, B2),
        (A1, B1, -A1, -B1, A2, -A2),
    ]
    for w in words:
        red = reduce_word(w)
        assert reduce_word(red) == red
        assert abelianization(w, 4) == abelianization(red, 4)


def test_word_type_validates_alphabet():
    w = Word((A1, -A1, B1), genus=1)
    assert w.letters == (B1,)
    with pytest.raises(GenusMismatch):
        Word((A2,), genus=1)
    assert Word((A1, -A1), 1).letters == ()


def test_surface_relator_shape():
    for g in range(1, 4):
        r = surface_relator(g)
        assert len(r) == 4 * g
        assert abelianization(r, 2 * g) == (0,) * (2 * g)


def test_word_eval_examples():
    z4 = cyclic_group(4)
    # empty word -> identity
    assert eval_word((), (1, 2), z4) == 0
    # a1 with assignment (x, y) -> x
    assert word_eval(Word((A1,), 1), (3, 2), z4) == 3
    # commutator in an abelian group is the identity
    for x, y in itertools.product(range(4), repeat=2):
        assert word_eval(Word(surface_relator(1), 1), (x, y), z4) == 0


def test_word_eval_is_homomorphism():
    s3 = symmetric_group(3)
    u = (A1, B1, -A1)
    v = (B1, B1, A1)
    assign = (3, 5)
    lhs = eval_word(concat(u, v), assign, s3)
    rhs = s3.op(eval_word(u, assign, s3), eval_word(v, assign, s3))
    assert lhs == rhs
    # invariance under free reduction
    w = (A1, -A1, B1, A1, -A1)
    assert eval_word(w, assign, s3) == eval_word(reduce_word(w), assign, s3)


def test_genus_mismatch_raises():
    z4 = cyclic_group(4)
    with pytest.raises(GenusMismatch):
        word_eval(Word((A1,), 1), (0, 1, 2), z4)


def test_free_conjugate_examples():
    r2 = surface_relator(2)
    conj = reduce_word((-B1,) + r2 + (B1,))
    assert free_conjugate_test(conj, r2)
    assert not free_conjugate_test((A1,), (A2,))
    # [b1, a1^-1] is conjugate to [a1, b1]: verify by direct reduction first
    lhs = (B1, -A1, -B1, A1)
    rhs = (A1, B1, -A1, -B1)
    direct = reduce_word((-A1,) + rhs + (A1,))
    assert direct == lhs
    assert free_conjugate_test(lhs, rhs)


def test_surface_word_problem_genus1():
    # pi_1(T^2) = Z^2: relator collapses, commutators vanish
    assert surface_word_is_trivial(surface_relator(1), 1)
    assert surface_word_is_trivial((A1, B1, -A1, -B1), 1)
    assert not surface_word_is_trivial((A1,), 1)


def test_surface_word_problem_genus2():
    r2 = surface_relator(2)
    assert surface_word_is_trivial(r2, 2)
    assert surface_word_is_trivial(concat(r2, r2), 2)
    conj = concat((A2, B1), r2, invert_word((A2, B1)))
    assert surface_word_is_trivial(conj, 2)
    # commutators do not vanish in genus 2
    assert not surface_word_is_trivial((A1, B1, -A1, -B1), 2)
    assert not surface_word_is_trivial((A1, B2), 2)
    # the relator with one letter dropped is nontrivial
    assert not surface_word_is_trivial(r2[:-1], 2)


def test_surface_words_equal():
    r2 = surface_relator(2)
    # a1 b1 a1^-1 b1^-1 equals the inverse of the second commutator
    u = (A1, B1, -A1, -B1)
    v = invert_word((A2, B2, -A2, -B2))
    assert surface_words_equal(u, v, 2)
    assert not surface_words_equal((A1,), (B1,), 2)


def test_identity_and_swap():
    ident = identity_automorphism(2)
    assert ident.is_identity()
    swap = handle_swap(2, 1, 2)
    assert swap.apply((A1,)) == (A2,)
    # involution: swap o swap = id on generators after reduction
    twice = swap.then(swap)
    assert twice.is_identity()
    assert [twice.apply((k,)) for k in range(1, 5)] == [(1,), (2,), (3,), (4,)]


def test_s_move_order_four():
    s = s_move(1)
    assert s.apply((A1,)) == (B1,)
    assert s.apply((B1,)) == (-A1,)
    four = s.then(s).then(s.then(s))
    assert four.is_identity()
    two = s.then(s)
    assert not two.is_identity()


def test_compose_with_identity():
    t = dehn_twist_a(1)
    ident = identity_automorphism(1)
    assert t.then(ident).same_mapping_class(t)
    assert ident.then(t).same_mapping_class(t)


def test_compose_contravariant_convention():
    # phi.then(psi) applies phi first: check on a generator
    s = s_move(1)
    t = dehn_twist_a(1)  # a -> a, b -> b a
    st = s.then(t)       # a -> t(s(a)) = t(b) = b a
    assert st.apply((A1,)) == (B1, A1)


def test_twists_preserve_relator_exactly():
    for g in (1, 2):
        for phi in (dehn_twist_a(g, 1), dehn_twist_b(g, 1)):
            img = phi.apply(surface_relator(g))
            assert img == surface_relator(g)


def test_builtin_library_validates():
    for g in (1, 2, 3):
        for phi in builtin_library(g):
            validate_automorphism(phi, cross_check_group=cyclic_group(2))


def test_composites_and_inverses_are_automorphisms(monkeypatch):
    # then and inverse build their results without validate_automorphism;
    # the check, kept as the reference, accepts every composite and
    # inverse of the library, and each equals, hashes and prints as the
    # same automorphism built through the validating constructor
    for g in (1, 2, 3):
        lib = builtin_library(g)
        checks = []
        original = words.validate_automorphism
        monkeypatch.setattr(words, "validate_automorphism", lambda *a: checks.append(a))
        built = [f.then(h) for f, h in itertools.product(lib, repeat=2)]
        built += [phi.inverse() for phi in lib + built]
        monkeypatch.setattr(words, "validate_automorphism", original)
        assert checks == []
        for phi in built:
            validate_automorphism(phi, cross_check_group=cyclic_group(2))
            rebuilt = SurfaceAutomorphism(g, phi.images, phi.inverse_images, name=phi.name)
            assert (phi, hash(phi), repr(phi)) == (rebuilt, hash(rebuilt), repr(rebuilt))
            assert (phi.images, phi.inverse_images) == (rebuilt.images, rebuilt.inverse_images)


def test_composite_words_are_reduced_and_counted():
    t = dehn_twist_a(1)
    inverse = t.inverse()
    assert inverse.images == t.inverse_images and inverse.name == "~" + t.name
    ident = t.then(inverse)
    assert all(w == reduce_word(w) for w in ident.images + ident.inverse_images)
    assert ident.is_identity()
    with pytest.raises(GenusMismatch):
        SurfaceAutomorphism._composite(1, t.images, t.images[:1], "")


def test_crossing_transport_relator_exact():
    from floerkit.words import crossing_transport

    for g in (1, 2, 3):
        rot = crossing_transport(g, 1)
        assert rot.apply(surface_relator(g)) == surface_relator(g)
        # the transported circle word is a conjugate of b_1
        assert free_conjugate_test(rot.apply((A1,)), (B1,))


def test_plain_s_move_rejected_beyond_torus():
    with pytest.raises(GenusMismatch):
        s_move(2)


def test_handle_swap_genus3():
    swap = handle_swap(3, 1, 2)
    assert swap.apply(surface_relator(3)) == surface_relator(3)
    # swapping twice is the identity mapping class; on an abelian group the
    # induced Hom action forgets the inner correction entirely
    twice = swap.then(swap)
    perm = twice.hom_permutation(cyclic_group(2))
    assert all(k == v for k, v in perm.items())


def test_invalid_automorphism_rejected():
    # a -> a^2 is not an automorphism of the surface group
    with pytest.raises(InvalidAutomorphism):
        SurfaceAutomorphism(1, ((A1, A1), (B1,)), ((A1,), (B1,)))
    # orientation-reversing map a -> a^-1, b -> b sends the relator to a
    # conjugate of its inverse and must be rejected
    with pytest.raises(InvalidAutomorphism):
        SurfaceAutomorphism(1, ((-A1,), (B1,)), ((-A1,), (B1,)))


def test_wrong_inverse_rejected():
    t = dehn_twist_a(1)
    with pytest.raises(InvalidAutomorphism):
        SurfaceAutomorphism(1, t.images, t.images)


def test_compose_associative_via_group_action():
    s3 = symmetric_group(3)
    lib = builtin_library(1)
    for f, g, h in itertools.product(lib, repeat=3):
        left = f.then(g).then(h)
        right = f.then(g.then(h))
        assert left.hom_permutation(s3) == right.hom_permutation(s3)


def test_hom_permutation_is_bijection():
    s3 = symmetric_group(3)
    for phi in builtin_library(1):
        perm = phi.hom_permutation(s3)
        assert len(set(perm.values())) == len(perm)


def test_genus_zero_identity():
    phi = identity_automorphism(0)
    assert phi.is_identity()
    assert phi.apply(()) == ()


def test_substitute_inverse_letters():
    t = dehn_twist_a(1)
    assert substitute((-B1,), t.images) == invert_word(t.apply((B1,)))
