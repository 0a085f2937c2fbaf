"""Invariant factors, duality and annihilators, against brute enumeration."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corprod import abelian as ab
from corprod import lattice
from corprod.errors import InvariantViolation, SizeCapExceeded

small_groups = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), max_size=3).map(
    ab.group_from_moduli
)


def test_group_invariants():
    with pytest.raises(InvariantViolation):
        ab.FiniteAbelianGroup((3, 2))
    with pytest.raises(InvariantViolation):
        ab.FiniteAbelianGroup((1,))
    assert ab.FiniteAbelianGroup(()).order == 1
    assert ab.group_from_moduli([4, 6]).factors == (2, 12)


def test_smith_normal_form_examples():
    d, u, v = ab.smith_normal_form([[2, 0], [0, 3]])
    assert d == (1, 6)
    assert ab.smith_normal_form([[1, 0], [0, 1]])[0] == (1, 1)
    assert ab.smith_normal_form([[0, 0], [0, 0]])[0] == (0, 0)


def test_dual_examples():
    a = ab.FiniteAbelianGroup((4,))
    dual, pairing = ab.dual_group(a)
    assert dual.factors == (4,)
    assert pairing.value((1,), (1,)) == Fraction(1, 4)
    assert ab.dual_group(ab.FiniteAbelianGroup((2, 4)))[0].factors == (2, 4)
    assert ab.dual_group(ab.FiniteAbelianGroup(()))[0].factors == ()


def is_nondegenerate(pairing):
    """Brute force: every nonzero element of either side pairs to a
    nonzero value with some element of the other."""
    left, right = list(pairing.left.elements()), list(pairing.right.elements())
    left_ok = all(
        any(pairing.value(x, chi) != 0 for chi in right) for x in left if any(x)
    )
    right_ok = all(
        any(pairing.value(x, chi) != 0 for x in left) for chi in right if any(chi)
    )
    return left_ok and right_ok


@settings(max_examples=60, deadline=None)
@given(small_groups)
def test_duality_involution_and_nondegeneracy(a):
    dual, pairing = ab.dual_group(a)
    double, _ = ab.dual_group(dual)
    assert double.factors == a.factors
    if a.order <= 72:
        assert is_nondegenerate(pairing)


def brute_hom_count(a, b):
    """Count all matrices that define homomorphisms a -> b."""
    if a.rank == 0 or b.rank == 0:
        return 1
    count = 0
    cells = [(i, j) for i in range(b.rank) for j in range(a.rank)]
    for entries in itertools.product(*(range(b.factors[i]) for i, _ in cells)):
        ok = True
        mat = [[0] * a.rank for _ in range(b.rank)]
        for (i, j), x in zip(cells, entries):
            mat[i][j] = x
        for j, d in enumerate(a.factors):
            for i, e in enumerate(b.factors):
                if (mat[i][j] * d) % e:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_hom_group_examples_and_oracle():
    assert ab.hom_group(ab.FiniteAbelianGroup((4,)), ab.FiniteAbelianGroup((2,))).factors == (2,)
    assert ab.hom_group(ab.FiniteAbelianGroup((2,)), ab.FiniteAbelianGroup((3,))).factors == ()
    assert ab.hom_group(
        ab.FiniteAbelianGroup((3, 3)), ab.FiniteAbelianGroup((3,))
    ).factors == (3, 3)
    rng = random.Random(9)
    for _ in range(15):
        a = ab.group_from_moduli([rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))])
        b = ab.group_from_moduli([rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))])
        expected = prod(gcd(d, e) for d in a.factors for e in b.factors)
        assert ab.hom_group(a, b).order == expected == brute_hom_count(a, b)


def test_sub_and_quotient_examples():
    a4 = ab.FiniteAbelianGroup((4,))
    sq = ab.sub_and_quotient(a4, [(2,)])
    assert sq.sub_group.factors == (2,)
    assert sq.quotient.factors == (2,)
    assert sq.ann.structure.factors == (2,)

    sq = ab.sub_and_quotient(a4, [(1,)])
    assert sq.quotient.factors == () and sq.ann.structure.factors == ()

    sq = ab.sub_and_quotient(a4, [])
    assert sq.quotient.factors == (4,) and sq.ann.structure.factors == (4,)


def test_annihilator_law_200_random_pairs():
    rng = random.Random(10)
    for _ in range(200):
        moduli = [rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randint(0, 3))]
        a = ab.group_from_moduli(moduli) if moduli else ab.TRIVIAL
        gens = [
            tuple(rng.randrange(d) for d in a.factors)
            for _ in range(rng.randint(0, 3))
        ]
        sq = ab.sub_and_quotient(a, gens)
        assert sq.sub.order * sq.ann.order == a.order
        assert sq.ann.structure.factors == sq.quotient.factors
        assert sq.projection.is_surjective()
        assert sq.projection.kernel().same_subgroup(sq.sub)


def brute_annihilator(a, gens):
    out = []
    m = a.exponent
    for chi in a.elements():
        if all(
            sum(g[i] * chi[i] * (m // d) for i, d in enumerate(a.factors)) % m == 0
            for g in gens
        ):
            out.append(chi)
    return set(out)


def test_annihilator_matches_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        moduli = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 2))]
        a = ab.group_from_moduli(moduli)
        gens = [tuple(rng.randrange(d) for d in a.factors) for _ in range(rng.randint(0, 2))]
        ann = ab.annihilator(a, gens)
        brute = brute_annihilator(a, gens)
        assert ann.order == len(brute)
        assert all(ann.contains(chi) for chi in brute)


def test_abhom_validation_and_kernel_image():
    a = ab.FiniteAbelianGroup((2, 4))
    b = ab.FiniteAbelianGroup((4,))
    with pytest.raises(InvariantViolation):
        ab.AbHom(a, b, ((1, 1),))  # 1 * 2 != 0 mod 4 on the first factor
    h = ab.AbHom(a, b, ((2, 1),))
    assert h.image().order * h.kernel().order == a.order
    for x in itertools.product(range(2), range(4)):
        y = h.apply(x)
        assert h.kernel().contains(x) == (y == (0,))


def test_abhom_refuses_a_matrix_of_the_wrong_shape():
    z2 = ab.FiniteAbelianGroup((2,))
    # an extra column, an extra row, a short row, no rows
    for matrix in (((1, 5),), ((1,), (0,)), ((),), ()):
        with pytest.raises(InvariantViolation):
            ab.AbHom(z2, z2, matrix)
    assert ab.AbHom(ab.TRIVIAL, z2, ((),)).matrix == ((),)
    assert ab.AbHom(z2, ab.TRIVIAL, ()).matrix == ()


def random_hom(rng, a, b):
    """A homomorphism a -> b: entry (i, j) is a multiple of e_i / gcd(d_j, e_i)."""
    return ab.AbHom(a, b, tuple(
        tuple(rng.randrange(gcd(d, e)) * (e // gcd(d, e)) for d in a.factors) for e in b.factors
    ))


def random_group(rng):
    moduli = [rng.choice([2, 3, 4, 6, 9]) for _ in range(rng.randint(0, 3))]
    return ab.group_from_moduli(moduli) if moduli else ab.TRIVIAL


def test_composing_through_the_trivial_group_is_the_zero_map():
    z2, z6 = ab.FiniteAbelianGroup((2,)), ab.FiniteAbelianGroup((2, 6))
    for a, c in ((z2, z2), (z6, z2), (z2, z6), (ab.TRIVIAL, z2), (z6, ab.TRIVIAL)):
        into = ab.AbHom(a, ab.TRIVIAL, ())
        out = ab.AbHom(ab.TRIVIAL, c, ((),) * c.rank)
        through = out.compose(into)
        assert (through.source, through.target) == (a, c)
        assert through.matrix == ((0,) * a.rank,) * c.rank
    # and compose agrees with applying one map after the other
    rng = random.Random(14)
    for _ in range(100):
        a, b, c = random_group(rng), random_group(rng), random_group(rng)
        f, g = random_hom(rng, a, b), random_hom(rng, b, c)
        gf = g.compose(f)
        assert (gf.source, gf.target) == (a, c)
        for x in itertools.islice(a.elements(), 20):
            assert gf.apply(x) == g.apply(f.apply(x))


def test_is_injective_agrees_with_the_kernel_order_on_seeded_homomorphisms():
    rng = random.Random(15)
    seen = set()
    for _ in range(200):
        a, b = random_group(rng), random_group(rng)
        h = random_hom(rng, a, b)
        assert h.is_injective() == (h.kernel().order == 1)
        seen.add((h.is_injective(), a.rank == 0, b.rank == 0))
    z2 = ab.FiniteAbelianGroup((2,))
    assert ab.AbHom(ab.TRIVIAL, z2, ((),)).is_injective()
    assert not ab.AbHom(z2, ab.TRIVIAL, ()).is_injective()
    assert ab.AbHom(z2, z2, lattice.identity_matrix(1)).is_injective()
    # both answers, trivial sources and trivial targets all occur
    assert {inj for inj, _, _ in seen} == {True, False}
    assert any(src for _, src, _ in seen) and any(tgt for _, _, tgt in seen)


def test_absubgroup_refuses_a_generator_of_the_wrong_length():
    z2 = ab.FiniteAbelianGroup((2,))
    for gens in (((1, 1),), ((),), ((1,), (0, 1))):
        with pytest.raises(InvariantViolation):
            ab.AbSubgroup(z2, gens)
    assert ab.AbSubgroup(ab.TRIVIAL, ((),)).order == 1


def test_absubgroup_refuses_a_factor_beyond_int64():
    sub = ab.AbSubgroup(ab.FiniteAbelianGroup((2**63,)), ((2,),))
    with pytest.raises(SizeCapExceeded):
        sub.order
    with pytest.raises(SizeCapExceeded):
        sub.contains((4,))


def test_elements_refuses_a_factor_beyond_int64():
    # the group is made, as above; enumerating it once raised a bare OverflowError
    for factors in ((2**63,), (2, 2**64)):
        with pytest.raises(SizeCapExceeded, match=rf"factor {factors[-1]} >= 2\^63"):
            ab.FiniteAbelianGroup(factors).elements()


def test_elements_are_decoded_lazily_in_product_order():
    # product() copied each range into a tuple first: this raised MemoryError
    assert next(iter(ab.FiniteAbelianGroup((2**63 - 1,)).elements())) == (0,)
    for factors in ((), (2,), (2, 4), (3, 3, 9), (2, 2, 2, 4)):
        want = list(itertools.product(*(range(d) for d in factors)))
        assert list(ab.FiniteAbelianGroup(factors).elements()) == want


def hermite_reference(a, gens):
    """HNF basis of the preimage of <gens> in Z^rank, and the order of <gens>."""
    n = a.rank
    rel = [tuple(d if j == i else 0 for j in range(n)) for i, d in enumerate(a.factors)]
    h = lattice.hnf(list(gens) + rel, n)
    index = prod(row[p] for row, p in zip(h, lattice.hnf_pivots(h)))
    return h, a.order // index


def test_subgroup_queries_match_the_hermite_form_300_random_subgroups():
    rng = random.Random(12)
    unequal_of_equal_order = outside = 0
    for _ in range(300):
        moduli = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(0, 3))]
        a = ab.group_from_moduli(moduli) if moduli else ab.TRIVIAL

        def element():
            return tuple(rng.randrange(d) for d in a.factors)

        gens = tuple(element() for _ in range(rng.randint(0, 3)))
        sub = ab.AbSubgroup(a, gens)
        h, order = hermite_reference(a, gens)
        assert sub.order == order

        # members, members moved by one unit, and unreduced or negative lifts
        members = [
            tuple(sum(rng.randrange(5) * g[i] for g in gens) for i in range(a.rank))
            for _ in range(4)
        ]
        probes = members + [element() for _ in range(4)]
        for v in members:
            for i in range(a.rank):
                probes.append(tuple(x + (j == i) for j, x in enumerate(v)))
        probes += [tuple(x - 3 * d for x, d in zip(v, a.factors)) for v in probes[:6]]
        want = [lattice.solve_against_basis(h, v) is not None for v in probes]
        assert sub.contains_many(probes) == tuple(want)
        assert [sub.contains(v) for v in probes] == want
        outside += want.count(False)

        # a random subgroup, then cyclic subgroups of the same order as <x>
        other_gens = tuple(element() for _ in range(rng.randint(0, 3)))
        equal = h == hermite_reference(a, other_gens)[0]
        assert sub.same_subgroup(ab.AbSubgroup(a, other_gens)) == equal
        x = element()
        cyclic_x, h_x = ab.AbSubgroup(a, (x,)), hermite_reference(a, (x,))[0]
        for y in [y for y in a.elements() if a.element_order(y) == a.element_order(x)][:6]:
            cyclic_y = ab.AbSubgroup(a, (y,))
            equal = hermite_reference(a, (y,))[0] == h_x
            assert cyclic_x.same_subgroup(cyclic_y) == cyclic_y.same_subgroup(cyclic_x) == equal
            unequal_of_equal_order += not equal
    assert unequal_of_equal_order > 100 and outside > 500
