"""Open-set decisions against a brute-force basis-cover oracle."""

import random

import pytest

from corprod import families as fam
from corprod import groups as gr
from corprod import topology as topo
from corprod.errors import InvariantViolation


@pytest.fixture
def tail_family(zoo):
    c4, c3 = zoo["C4"], zoo["C3"]
    return fam.family(
        [("a", c4, gr.subgroup_from_generators(c4, [2]))],
        tail=(c3, gr.full_subgroup(c3)),
    )


def brute_force_is_open(v: topo.OpenSetSpec, extra_slots: int = 3) -> bool:
    """Independent oracle on a finite model of the tail.

    Model the tail with the exception slots plus ``extra_slots`` default
    slots and one symbolic slot for everything beyond; V is open iff
    every point is covered by a basic open subset of V.  Fiber points
    are their own basic opens, and a basic star neighborhood excludes a
    finite slot set F, so the check enumerates subsets F of the modeled
    concrete slots.
    """
    if not v.contains_star:
        return True
    if v.family.tail is None:
        return True
    u = set(v.family.tail.subgroup.elements)
    max_exc = max(v.tail_exceptions, default=0)
    concrete = list(range(1, max_exc + extra_slots + 1))
    import itertools

    for size in range(len(concrete) + 1):
        for f_set in itertools.combinations(concrete, size):
            excluded = set(f_set)
            ok = all(
                u <= set(v.tail_part(i)) for i in concrete if i not in excluded
            )
            # the symbolic beyond-slot always carries the default part
            ok = ok and u <= set(v.tail_default)
            if ok:
                return True
    return False


def test_is_open_examples(tail_family):
    full_tail = frozenset(range(3))
    v = topo.OpenSetSpec(tail_family, {"a": {0, 1}}, full_tail, {}, True)
    assert topo.is_open(v).is_open

    v = topo.OpenSetSpec(tail_family, {}, frozenset(), {}, True)
    chk = topo.is_open(v)
    assert not chk.is_open and chk.witness == "tail1"

    v = topo.OpenSetSpec(
        tail_family, {}, frozenset(), {1: full_tail, 2: frozenset()}, True
    )
    assert topo.is_open(v).witness == "tail3"

    # without the star the condition is vacuous
    v = topo.OpenSetSpec(tail_family, {"a": {1, 3}}, frozenset(), {5: {1}}, False)
    assert topo.is_open(v).is_open


def test_is_open_matches_bruteforce(tail_family, rng):
    n_tail = 3
    for _ in range(300):
        star = rng.random() < 0.5
        default = frozenset(x for x in range(n_tail) if rng.random() < 0.6)
        exceptions = {
            i: frozenset(x for x in range(n_tail) if rng.random() < 0.5)
            for i in rng.sample([1, 2, 3], k=rng.randint(0, 3))
        }
        parts = {"a": frozenset(x for x in range(4) if rng.random() < 0.5)}
        v = topo.OpenSetSpec(tail_family, parts, default, exceptions, star)
        assert topo.is_open(v).is_open == brute_force_is_open(v)


def test_closure_under_meets_and_joins(tail_family, rng):
    def rand_open():
        while True:
            star = rng.random() < 0.5
            default = frozenset(x for x in range(3) if rng.random() < 0.7)
            exceptions = {
                i: frozenset(x for x in range(3) if rng.random() < 0.5)
                for i in rng.sample([1, 2, 3], k=rng.randint(0, 2))
            }
            parts = {"a": frozenset(x for x in range(4) if rng.random() < 0.5)}
            v = topo.OpenSetSpec(tail_family, parts, default, exceptions, star)
            if topo.is_open(v).is_open:
                return v

    for _ in range(150):
        a, b = rand_open(), rand_open()
        assert topo.is_open(topo.intersect_specs(a, b)).is_open
        assert topo.is_open(topo.union_specs(a, b)).is_open


def test_open_map_certificates(tail_family, zoo):
    cert = topo.open_map_certificate(fam.identity_morphism(tail_family))
    assert cert.certified_open

    # quotient morphism: fibers G_t/closure(U_t), strict and surjective
    c4, c3 = zoo["C4"], zoo["C3"]
    u2 = gr.subgroup_from_generators(c4, [2])
    _, qmor = fam.quotient_family_morphism(
        tail_family, {"a": u2}, gr.trivial_subgroup(c3)
    )
    cert = topo.open_map_certificate(qmor)
    assert cert.certified_open

    # non-strict morphism: collapse a fiber with U != G onto the star
    tgt = fam.family(
        [("b", zoo["C2"], gr.full_subgroup(zoo["C2"]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    mor = fam.FamilyMorphism(tail_family, tgt, {"a": "*"}, {"tail": gr.identity_hom(c3)})
    cert = topo.open_map_certificate(mor)
    assert not cert.certified_open
    assert "not strict" in cert.failures
    assert "star preimage is not unique" in cert.failures


def test_preimage_of_open_is_open(tail_family, zoo, rng):
    c4, c3 = zoo["C4"], zoo["C3"]
    u2 = gr.subgroup_from_generators(c4, [2])
    qspec, qmor = fam.quotient_family_morphism(
        tail_family, {"a": u2}, gr.trivial_subgroup(c3)
    )
    assert topo.open_map_certificate(qmor).certified_open
    g_t = qspec.fiber("a").group
    n_tail = qspec.tail.group.order
    for _ in range(150):
        star = rng.random() < 0.5
        default = (
            frozenset(range(n_tail))
            if (star or rng.random() < 0.5)
            else frozenset(x for x in range(n_tail) if rng.random() < 0.5)
        )
        v = topo.OpenSetSpec(
            qspec,
            {"a": frozenset(x for x in range(g_t.order) if rng.random() < 0.5)},
            default,
            {},
            star,
        )
        if topo.is_open(v).is_open:
            pre = topo.preimage_spec(qmor, v)
            assert topo.is_open(pre).is_open


def test_open_set_validation(tail_family):
    with pytest.raises(InvariantViolation):
        topo.OpenSetSpec(tail_family, {"a": {99}}, frozenset(), {}, False)
    with pytest.raises(InvariantViolation):
        topo.OpenSetSpec(tail_family, {}, frozenset(), {0: frozenset()}, False)


def test_multiway_unions_and_intersections(tail_family, rng):
    from functools import reduce

    def rand_open():
        while True:
            star = rng.random() < 0.5
            default = frozenset(x for x in range(3) if rng.random() < 0.7)
            parts = {"a": frozenset(x for x in range(4) if rng.random() < 0.5)}
            v = topo.OpenSetSpec(tail_family, parts, default, {}, star)
            if topo.is_open(v).is_open:
                return v

    for _ in range(30):
        sets = [rand_open() for _ in range(4)]
        assert topo.is_open(reduce(topo.union_specs, sets)).is_open
        assert topo.is_open(reduce(topo.intersect_specs, sets)).is_open


def test_preimage_through_star_collapse(tail_family, zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    tgt = fam.family(
        [("b", c2, gr.full_subgroup(c2))], tail=(c3, gr.full_subgroup(c3))
    )
    mor = fam.FamilyMorphism(tail_family, tgt, {"a": "*"}, {"tail": gr.identity_hom(c3)})
    with_star = topo.OpenSetSpec(tgt, {"b": {0}}, frozenset(range(3)), {}, True)
    pre = topo.preimage_spec(mor, with_star)
    assert pre.part("a") == frozenset(range(4))  # everything lands on the star
    without = topo.OpenSetSpec(tgt, {"b": {0}}, frozenset(), {}, False)
    pre = topo.preimage_spec(mor, without)
    assert pre.part("a") == frozenset()
