"""Family specs, their transforms, morphism predicates, towers, truncation."""

import pytest

from corprod import families as fam
from corprod import groups as gr
from corprod.errors import InvariantViolation, PreconditionError


def d4_reflection(d4):
    return min(
        x
        for x in range(d4.order)
        if d4.element_order(x) == 2
        and any(d4.mul(x, y) != d4.mul(y, x) for y in range(d4.order))
    )


def test_validate_examples(zoo):
    c4 = zoo["C4"]
    spec = fam.family([("a", c4, gr.subgroup_from_generators(c4, [2]))])
    v = fam.validate_family(spec)
    assert v[0].already_normal

    d4 = zoo["D4"]
    sub = gr.subgroup_from_generators(d4, [d4_reflection(d4)])
    v = fam.validate_family(fam.family([("a", d4, sub)]))
    assert not v[0].already_normal
    assert v[0].closure_order == 4


def test_invalid_subgroup_rejected(zoo):
    c4 = zoo["C4"]
    with pytest.raises(InvariantViolation):
        gr.Subgroup(c4, (0, 1))  # not closed


def test_prime_set_enforced(zoo):
    with pytest.raises(InvariantViolation):
        fam.FamilySpec(
            (fam.FiberSpec("a", zoo["C6"], gr.trivial_subgroup(zoo["C6"])),),
            None,
            frozenset({2}),
        )
    # a group is checked once for all its fibers; the error names the
    # first fiber that fails
    c2, c6 = zoo["C2"], zoo["C6"]
    fibers = [(n, g, gr.trivial_subgroup(g)) for n, g in (("a", c2), ("b", c6), ("c", c6))]
    with pytest.raises(InvariantViolation, match="fiber b has order divisible by 3"):
        fam.family(fibers, prime_set={2})
    with pytest.raises(InvariantViolation, match="fiber tail has order divisible by 3"):
        fam.family(fibers[:1], tail=(c6, gr.full_subgroup(c6)), prime_set={2})


def test_normal_closure_family(zoo):
    d4 = zoo["D4"]
    sub = gr.subgroup_from_generators(d4, [d4_reflection(d4)])
    spec = fam.family([("a", d4, sub)])
    closed = fam.normal_closure_family(spec)
    assert closed.fiber("a").subgroup.order == 4
    assert fam.normal_closure_family(closed) == closed

    v4 = zoo["V4"]
    tail_spec = fam.family([], tail=(v4, gr.subgroup_from_generators(v4, [1])))
    assert fam.normal_closure_family(tail_spec).tail.subgroup.order == 2


def test_abelianize_family_examples(zoo):
    c4, c2 = zoo["C4"], zoo["C2"]
    spec = fam.family(
        [
            ("a", c4, gr.subgroup_from_generators(c4, [2])),
            ("b", c2, gr.full_subgroup(c2)),
        ]
    )
    raf = fam.abelianize_family(spec)
    assert raf.flavor == "compactified"
    pairs = dict(raf.pairs)
    assert pairs["a"].ambient.factors == (4,)
    assert pairs["a"].structure.factors == (2,)
    assert pairs["b"].ambient.factors == (2,)
    assert pairs["b"].structure.factors == (2,)

    h27 = zoo["Heis27"]
    center = tuple(
        x for x in range(27) if all(h27.mul(x, y) == h27.mul(y, x) for y in range(27))
    )
    raf = fam.abelianize_family(fam.family([("h", h27, gr.Subgroup(h27, center))]))
    pair = dict(raf.pairs)["h"]
    assert pair.ambient.factors == (3, 3)
    assert pair.structure.factors == ()  # the center dies in G^ab


def test_abelianize_after_closure_is_the_same(zoo):
    d4 = zoo["D4"]
    sub = gr.subgroup_from_generators(d4, [d4_reflection(d4)])
    spec = fam.family([("a", d4, sub)])
    assert fam.abelianize_family(spec).same_as(
        fam.abelianize_family(fam.normal_closure_family(spec))
    )


def test_quotient_family(zoo):
    c4 = zoo["C4"]
    u2 = gr.subgroup_from_generators(c4, [2])
    spec = fam.family([("a", c4, u2)])
    q = fam.quotient_family(spec, {"a": u2})
    assert q.fiber("a").group.order == 2
    assert q.fiber("a").subgroup.order == 1
    # trivial choices leave everything intact up to renumbering
    q2 = fam.quotient_family(spec, {})
    assert q2.fiber("a").group.order == 4
    assert q2.fiber("a").subgroup.order == 2


def test_morphism_predicates(zoo):
    c4, c2, c3 = zoo["C4"], zoo["C2"], zoo["C3"]
    u2 = gr.subgroup_from_generators(c4, [2])
    spec = fam.family([("a", c4, u2)], tail=(c3, gr.full_subgroup(c3)))

    preds = fam.morphism_predicates(fam.identity_morphism(spec))
    assert preds.strict and preds.fibrewise_surjective
    assert preds.star_unique_preimage and preds.index_map_open

    # strict surjective quotient morphism: C4 -> C4/<2>
    _, qmor = fam.quotient_family_morphism(spec, {"a": u2})
    preds = fam.morphism_predicates(qmor)
    assert preds.strict and preds.fibrewise_surjective and preds.failures() == []

    # collapsing a non-star fiber onto the star
    tgt = fam.family([("b", c2, gr.full_subgroup(c2))], tail=(c3, gr.full_subgroup(c3)))
    mor = fam.FamilyMorphism(spec, tgt, {"a": "*"}, {"tail": gr.identity_hom(c3)})
    preds = fam.morphism_predicates(mor)
    assert not preds.star_unique_preimage
    assert not preds.index_map_open  # image of the singleton {a} is {*}
    assert not preds.strict  # U_a is not all of C4
    assert not preds.fibrewise_surjective  # fiber b is never reached
    assert preds.failures() == [
        "not fibrewise surjective",
        "not strict",
        "index map is not open",
        "star preimage is not unique",
    ]

    # the preimage check on C4 -> C2: with U = <2> upstairs the preimage
    # of the full C2 downstairs is all of C4, so this is NOT strict; it
    # becomes strict exactly when the downstairs subgroup is trivial
    dspec = fam.family([("a", c4, u2)])
    hom = gr.GroupHom(c4, c2, (0, 1, 0, 1))
    dtgt = fam.family([("a", c2, gr.full_subgroup(c2))])
    mor = fam.FamilyMorphism(dspec, dtgt, {"a": "a"}, {"a": hom})
    preds = fam.morphism_predicates(mor)
    assert preds.fibrewise_surjective and not preds.strict
    dtgt2 = fam.family([("a", c2, gr.trivial_subgroup(c2))])
    mor2 = fam.FamilyMorphism(dspec, dtgt2, {"a": "a"}, {"a": hom})
    preds2 = fam.morphism_predicates(mor2)
    assert preds2.fibrewise_surjective and preds2.strict


def test_the_tail_map_is_checked_as_the_fiber_named_tail(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    full = gr.full_subgroup(c3)
    spec = fam.family([("a", c3, full)], tail=(c3, full))
    ident = fam.identity_morphism(spec)
    assert ident.target_of == {"a": "a", "tail": "tail"}
    assert ident.fiber_maps == {"a": gr.identity_hom(c3), "tail": gr.identity_hom(c3)}
    finite = fam.family([("a", c3, full)])
    with pytest.raises(InvariantViolation, match="^unknown target fiber tail$"):
        fam.FamilyMorphism(spec, finite, {"a": "a"}, {"a": gr.identity_hom(c3)})
    with pytest.raises(InvariantViolation, match="^missing fiber map for tail$"):
        fam.FamilyMorphism(spec, spec, {"a": "a"}, {"a": gr.identity_hom(c3)})
    wrong = {"a": gr.identity_hom(c3), "tail": gr.identity_hom(c2)}
    with pytest.raises(InvariantViolation, match="^fiber map for tail has wrong type$"):
        fam.FamilyMorphism(spec, spec, {"a": "a"}, wrong)
    # an exceptional fiber does not map to the tail pattern
    with pytest.raises(InvariantViolation, match="^unknown target fiber tail$"):
        fam.FamilyMorphism(spec, spec, {"a": "tail"}, ident.fiber_maps)


def test_index_map_open_finite_into_infinite(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    src = fam.family([("a", c2, gr.full_subgroup(c2))])
    tgt = fam.family([("a", c2, gr.full_subgroup(c2))], tail=(c3, gr.full_subgroup(c3)))
    mor = fam.FamilyMorphism(src, tgt, {"a": "a"}, {"a": gr.identity_hom(c2)})
    preds = fam.morphism_predicates(mor)
    assert not preds.index_map_open
    assert not preds.fibrewise_surjective


def test_towers(zoo):
    c4, c3 = zoo["C4"], zoo["C3"]
    u2 = gr.subgroup_from_generators(c4, [2])
    spec = fam.family([("a", c4, u2)], tail=(c3, gr.full_subgroup(c3)))
    ident = fam.identity_morphism(spec)
    cert = fam.check_tower(fam.Tower((spec, spec), (ident,)))
    assert cert.passed

    # two-level tower with a strict surjective C4 -> C2 fiber map
    # (strictness needs matching subgroups: full upstairs, full down)
    upper = fam.family(
        [("a", c4, gr.full_subgroup(c4))], tail=(c3, gr.full_subgroup(c3))
    )
    lower = fam.family(
        [("a", zoo["C2"], gr.full_subgroup(zoo["C2"]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    hom = gr.GroupHom(c4, zoo["C2"], (0, 1, 0, 1))
    mor = fam.FamilyMorphism(upper, lower, {"a": "a"}, {"a": hom, "tail": gr.identity_hom(c3)})
    cert = fam.check_tower(fam.Tower((lower, upper), (mor,)))
    assert cert.passed

    # a transition that is not fibrewise surjective fails with a reason
    inc = gr.GroupHom(zoo["C2"], c4, (0, 2))
    bad_src = fam.family(
        [("a", zoo["C2"], gr.trivial_subgroup(zoo["C2"]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    bad = fam.FamilyMorphism(bad_src, spec, {"a": "a"}, {"a": inc, "tail": gr.identity_hom(c3)})
    cert = fam.check_tower(fam.Tower((spec, bad_src), (bad,)))
    assert not cert.passed
    assert any("surjective" in f for f in cert.failures)
    assert any("strict" in f for f in cert.failures)


def test_truncate(zoo):
    c4, c3 = zoo["C4"], zoo["C3"]
    u2 = gr.subgroup_from_generators(c4, [2])

    # a family without a tail is its own truncation at every level
    spec = fam.family([("a", c4, u2)])
    assert fam.truncate(spec, 0) == spec
    assert fam.truncate(spec, 5) is spec

    spec = fam.family([("a", c4, u2)], tail=(c3, gr.full_subgroup(c3)))
    t = fam.truncate(spec, 2)
    assert t.tail is None and t.prime_set == spec.prime_set
    assert t.names == ("a", "tail1", "tail2")
    assert t.fiber("tail2") == fam.FiberSpec("tail2", c3, gr.full_subgroup(c3))

    # C4 / closure(<2>) = C2 lives past every cut
    spec = fam.family([], tail=(c4, u2))
    with pytest.raises(PreconditionError, match="nontrivial pattern beyond the cut"):
        fam.truncate(spec, 1)

    with pytest.raises(PreconditionError, match="level"):
        fam.truncate(spec, -1)


def test_truncations_nest(zoo):
    c3 = zoo["C3"]
    spec = fam.family(
        [("a", zoo["C4"], gr.trivial_subgroup(zoo["C4"]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    for n in range(3):
        smaller = fam.truncate(spec, n)
        bigger = fam.truncate(spec, n + 1)
        assert bigger.fibers[: len(smaller.fibers)] == smaller.fibers


def test_truncation_embedding_morphism(zoo):
    # with closure(U_tail) = G_tail, level N includes into level N+1 by
    # a strict, fibrewise-injective morphism
    c3, c4 = zoo["C3"], zoo["C4"]
    spec = fam.family(
        [("a", c4, gr.subgroup_from_generators(c4, [2]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    for n in range(3):
        lo = fam.truncate(spec, n)
        hi = fam.truncate(spec, n + 1)
        mor = fam.FamilyMorphism(
            lo,
            hi,
            {f.name: f.name for f in lo.fibers},
            {f.name: gr.identity_hom(f.group) for f in lo.fibers},
        )
        preds = fam.morphism_predicates(mor)
        assert preds.strict
        assert all(
            mor.fiber_maps[f.name].is_injective() for f in lo.fibers
        )


def test_tail_name_collision_rejected(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    with pytest.raises(InvariantViolation):
        fam.family(
            [("tail1", c2, gr.full_subgroup(c2))],
            tail=(c3, gr.full_subgroup(c3)),
        )
    # without a tail the name is unambiguous and allowed
    spec = fam.family([("tail1", c2, gr.full_subgroup(c2))])
    assert spec.names == ("tail1",)


def test_abelianize_trivial_family():
    t = gr.trivial_group()
    spec = fam.family([("a", t, gr.trivial_subgroup(t))], prime_set={2})
    raf = fam.abelianize_family(spec)
    pair = dict(raf.pairs)["a"]
    assert pair.ambient.factors == () and pair.structure.factors == ()


def test_quotient_family_by_center(zoo):
    d4 = zoo["D4"]
    center = tuple(
        x for x in range(d4.order) if all(d4.mul(x, y) == d4.mul(y, x) for y in range(d4.order))
    )
    spec = fam.family([("a", d4, gr.full_subgroup(d4))])
    q = fam.quotient_family(spec, {"a": gr.Subgroup(d4, center)})
    assert q.fiber("a").group.order == 4


def test_tail_name_is_reserved(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    for tail in (None, (c3, gr.full_subgroup(c3))):
        with pytest.raises(InvariantViolation, match="reserved for the tail pattern"):
            fam.family([("tail", c2, gr.full_subgroup(c2))], tail=tail)
    with pytest.raises(InvariantViolation, match="reserved"):
        fam.FamilySpec((fam.FiberSpec("tail", c2, gr.full_subgroup(c2)),), None, frozenset({2}))
    # and the tail fiber carries it
    with pytest.raises(InvariantViolation, match="the tail fiber must be named 'tail', not 't'"):
        fam.FamilySpec((), fam.FiberSpec("t", c3, gr.full_subgroup(c3)), frozenset({3}))


def test_fibers_list_the_tail_last_and_with_fibers_inverts(zoo):
    c2, c4, v4 = zoo["C2"], zoo["C4"], zoo["V4"]
    exc = [("b", c4, gr.trivial_subgroup(c4)), ("a", c2, gr.full_subgroup(c2))]
    tail_u = gr.subgroup_from_generators(v4, [1])
    with_tail = fam.family(exc, tail=(v4, tail_u))
    without = fam.family(exc)

    assert without.fibers == without.exceptional
    assert [f.name for f in with_tail.fibers] == ["b", "a", "tail"]
    assert with_tail.fibers[:2] == with_tail.exceptional
    assert with_tail.fibers[-1] == fam.FiberSpec("tail", v4, tail_u)

    assert with_tail.with_fibers(with_tail.fibers) == with_tail
    # the last of the new fibers is the new tail
    full_u = fam.FiberSpec("tail", v4, gr.full_subgroup(v4))
    swapped = with_tail.with_fibers(with_tail.exceptional + (full_u,))
    assert swapped.exceptional == with_tail.exceptional and swapped.tail == full_u
    assert without.with_fibers(without.fibers) == without


def _old_normal_closure_family(spec):
    """The per-site loop ``normal_closure_family`` replaced, as a reference."""
    fibers = tuple(
        fam.FiberSpec(f.name, f.group, gr.normal_closure(f.group, f.subgroup))
        for f in spec.exceptional
    )
    tl = None
    if spec.tail is not None:
        tl = fam.FiberSpec("tail", spec.tail.group, gr.normal_closure(spec.tail.group, spec.tail.subgroup))
    return fam.FamilySpec(fibers, tl, spec.prime_set)


def _old_quotient_family_morphism(spec, choices, tail_choice=None):
    """The per-site loop ``quotient_family_morphism`` replaced, as a reference."""
    fibers, fiber_maps = [], {}
    for f in spec.exceptional:
        v = choices.get(f.name)
        if v is None:
            v = gr.Subgroup(f.group, (f.group.identity,))
        q, proj = gr.quotient_group(f.group, v)
        u_image = gr.subgroup_from_generators(q, [proj.apply(x) for x in f.subgroup.elements])
        fibers.append(fam.FiberSpec(f.name, q, u_image))
        fiber_maps[f.name] = proj
    tl = tail_map = None
    if spec.tail is not None:
        t = spec.tail
        v = tail_choice if tail_choice is not None else gr.Subgroup(t.group, (t.group.identity,))
        q, proj = gr.quotient_group(t.group, v)
        tl = fam.FiberSpec("tail", q, gr.subgroup_from_generators(q, [proj.apply(x) for x in t.subgroup.elements]))
        tail_map = proj
    target = fam.FamilySpec(tuple(fibers), tl, spec.prime_set)
    return target, fiber_maps, tail_map


def test_closure_and_quotient_with_a_tail_match_the_old_loops(zoo):
    d4, c4, v4 = zoo["D4"], zoo["C4"], zoo["V4"]
    refl = gr.subgroup_from_generators(d4, [d4_reflection(d4)])
    center = gr.Subgroup(
        d4, tuple(x for x in range(d4.order) if all(d4.mul(x, y) == d4.mul(y, x) for y in range(d4.order)))
    )
    u2 = gr.subgroup_from_generators(c4, [2])
    cases = [
        (fam.family([("a", c4, u2), ("b", d4, refl)], tail=(d4, refl)), {"a": u2}, center),
        (fam.family([("a", c4, u2)], tail=(v4, gr.subgroup_from_generators(v4, [1]))), {}, None),
        (fam.family([], tail=(c4, gr.trivial_subgroup(c4))), {"tail": u2}, u2),
        (fam.family([("a", d4, refl)]), {"a": center}, None),
    ]
    for spec, choices, tail_choice in cases:
        assert fam.normal_closure_family(spec) == _old_normal_closure_family(spec)
        for tc in (tail_choice, None):
            target, fiber_maps, tail_map = _old_quotient_family_morphism(spec, choices, tc)
            new_target, mor = fam.quotient_family_morphism(spec, choices, tc)
            assert new_target == target
            assert mor.fiber_maps == ({**fiber_maps, "tail": tail_map} if tail_map else fiber_maps)
            assert mor.index_map == {n: n for n in spec.names}
