"""The formula engine: oracle, four-term sequence, duality, colimits."""

import itertools
import math
import random

import pytest

import corprod.cohomology as coh
from conftest import corrupt_map_entry, negation_action, scale
from corprod import families as fam
from corprod import formulas as fp
from corprod import groups as gr
from corprod import modular
from corprod.abelian import AbHom
from corprod.abelian import FiniteAbelianGroup as FAG
from corprod.errors import InvariantViolation, PreconditionError, SizeCapExceeded
from corprod.lattice import identity_matrix


def neg_module(spec, coeff, names):
    actions = {}
    for name in names:
        g = spec.fiber(name).group
        actions[name] = negation_action(g, coeff, 1)
    return fp.FamilyModule.build(coeff, actions)


@pytest.fixture
def worked_instance(zoo):
    c2 = zoo["C2"]
    spec = fam.family(
        [("a", c2, gr.trivial_subgroup(c2)), ("b", c2, gr.trivial_subgroup(c2))]
    )
    module = neg_module(spec, FAG((3,)), ["a", "b"])
    return spec, module


def test_oracle_examples(zoo, worked_instance):
    c3 = zoo["C3"]
    spec = fam.family(
        [("a", c3, gr.full_subgroup(c3)), ("b", c3, gr.full_subgroup(c3))]
    )
    o = fp.oracle_h1(fam.truncate(spec, 0), fp.FamilyModule.build(FAG((3,))))
    assert o.value.factors == (3, 3)

    spec, module = worked_instance
    o = fp.oracle_h1(fam.truncate(spec, 0), module)
    assert o.value.factors == (3,)

    c4 = zoo["C4"]
    single = fam.family([("a", c4, gr.trivial_subgroup(c4))])
    o = fp.oracle_h1(fam.truncate(single, 0), fp.FamilyModule.build(FAG((2,))))
    assert o.value.factors == (2,)
    assert coh.cohomology(
        fp.FamilyModule.build(FAG((2,))).gmodule(single.exceptional[0]), 1
    ).value.factors == (2,)


def test_oracle_cardinality_bookkeeping(zoo, rng):
    # |H1| * |A/A^G| = prod |Z1_t| for every instance
    from corprod.formulas import _fiber_z1, _fiber_modules, common_fixed_elements

    groups = [zoo["C2"], zoo["C3"], zoo["C4"], zoo["S3"], zoo["V4"]]
    for _ in range(15):
        picks = rng.sample(groups, k=rng.randint(2, 3))
        coeff = FAG(rng.choice([(2,), (3,), (6,), (2, 2)]))
        spec = fam.family(
            [(f"f{i}", g, gr.trivial_subgroup(g)) for i, g in enumerate(picks)]
        )
        module = fp.FamilyModule.build(coeff)
        trunc = fam.truncate(spec, 0)
        o = fp.oracle_h1(trunc, module)
        # each lifted representative classifies to its unit vector
        k = len(o.value.factors)
        assert o.classify_many(o.representatives) == tuple(
            tuple(int(i == j) for j in range(k)) for i in range(k)
        )
        z1 = 1
        for m in _fiber_modules(trunc, module):
            z1 *= len(_fiber_z1(m).cocycles)
        fixed = len(common_fixed_elements(trunc, module))
        assert o.value.order * (coeff.order // fixed) == z1


def test_four_term_worked_instance(worked_instance):
    spec, module = worked_instance
    seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
    assert [t.factors for t in seq.terms] == [(3,), (3, 3), (3,), ()]
    assert fp.check_exactness(seq).passed
    assert seq.oracle.value == seq.terms[2]
    assert corrupt_map_entry(seq, 1, 0, 0, 1).oracle is seq.oracle


def builds():
    """Oracles and sequences built since the memos were last cleared."""
    return fp._oracle_h1.cache_info().misses, fp._four_term_sequence.cache_info().misses


def clear_builds():
    fp._oracle_h1.cache_clear()
    fp._four_term_sequence.cache_clear()


def non_normal_instance(zoo):
    """A corpus instance on D4 with a reflection subgroup, which is not
    normal, so its spec and its normal closure truncate differently."""
    from corprod import corpus

    d4, c2 = zoo["D4"], zoo["C2"]
    sub = next(
        u for x in range(d4.order)
        if (u := gr.subgroup_from_generators(d4, [x])).order == 2
        and fam.normal_closure(d4, u).order != 2
    )
    spec = fam.family([("a", d4, sub), ("b", c2, gr.trivial_subgroup(c2))])
    return corpus.CorpusInstance(0, spec, fp.FamilyModule.build(FAG((2,))), ())


def test_each_truncation_builds_one_oracle(zoo):
    from corprod import corpus

    c2, c3 = zoo["C2"], zoo["C3"]
    spec = fam.family([("a", c2, gr.trivial_subgroup(c2))], tail=(c3, gr.full_subgroup(c3)))
    module = neg_module(spec, FAG((3,)), ["a"])
    clear_builds()
    assert fp.truncation_colimit(spec, module, 1, 3).passed
    assert builds() == (4, 4)
    # the closure record compares no oracle and no sequence, so it builds
    # none, also when the spec and its closure truncate differently
    for inst in (corpus.generate_corpus(0, 1)[0], non_normal_instance(zoo)):
        clear_builds()
        assert corpus.closure_invariance_record(inst, coh.DEFAULT_COH_CAP).passed
        assert builds() == (0, 0)


def test_equal_inputs_share_one_oracle_and_one_sequence():
    from dataclasses import FrozenInstanceError

    from corprod import corpus

    (a,), (b,) = corpus.generate_corpus(0, 1), corpus.generate_corpus(0, 1)
    ta, tb = fam.truncate(a.spec, 0), fam.truncate(b.spec, 0)
    assert ta == tb and ta is not tb and a.module == b.module and a.module is not b.module
    # the defaults and the same caps passed explicitly share one entry
    oracle = fp.oracle_h1(ta, a.module)
    assert fp.oracle_h1(tb, b.module, fp.DEFAULT_ENUM_CAP) is oracle
    seq = fp.four_term_sequence(ta, a.module)
    assert fp.four_term_sequence(tb, b.module, coh.DEFAULT_COH_CAP, fp.DEFAULT_ENUM_CAP) is seq
    assert seq.oracle is oracle
    # one object is shared by every caller, so neither can be changed
    with pytest.raises(FrozenInstanceError):
        seq.maps = ()
    with pytest.raises(FrozenInstanceError):
        oracle.representatives = ()


def test_a_family_without_a_tail_is_its_own_truncation(zoo):
    c2 = zoo["C2"]
    spec = fam.family([("a", c2, gr.trivial_subgroup(c2))])
    module = fp.FamilyModule.build(FAG((2,)))
    assert fp.oracle_h1(fam.truncate(spec, 0), module) is fp.oracle_h1(spec, module)


def test_a_family_with_a_tail_is_refused_until_truncated(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    spec = fam.family([("a", c2, gr.trivial_subgroup(c2))], tail=(c3, gr.full_subgroup(c3)))
    module = fp.FamilyModule.build(FAG((3,)))
    for call in (
        lambda: fp.oracle_h1(spec, module),
        lambda: fp.four_term_sequence(spec, module),
        lambda: fp.splitting_check(spec, ["a"], module),
    ):
        with pytest.raises(PreconditionError, match="truncate the tail first"):
            call()
    assert fp.check_exactness(fp.four_term_sequence(fam.truncate(spec, 1), module)).passed


def test_a_refusal_is_raised_on_every_call_and_never_cached(zoo):
    c2 = zoo["C2"]
    spec = fam.family([("a", c2, gr.full_subgroup(c2))], prime_set=[2])
    trunc, module = fam.truncate(spec, 0), fp.FamilyModule.build(FAG((4,)))
    for build, cache, kwargs, budget in (
        (fp.oracle_h1, fp._oracle_h1, {"cap": 3}, "the enumeration cap"),
        (fp.four_term_sequence, fp._four_term_sequence, {"cap": 1}, "the cohomology cap 1"),
    ):
        size = cache.cache_info().currsize
        for _ in range(2):
            with pytest.raises(SizeCapExceeded, match=budget):
                build(trunc, module, **kwargs)
        assert cache.cache_info().currsize == size


def test_the_colimit_names_the_enumeration_cap_before_the_cohomology_cap(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    spec = fam.family([("a", c2, gr.trivial_subgroup(c2))], tail=(c3, gr.full_subgroup(c3)))
    module = neg_module(spec, FAG((3,)), ["a"])
    with pytest.raises(SizeCapExceeded, match="enumeration cap"):
        fp.truncation_colimit(spec, module, 1, 2, cap=1, enum_cap=2)


def test_four_term_trivial_action(zoo):
    c3 = zoo["C3"]
    spec = fam.family(
        [("a", c3, gr.full_subgroup(c3)), ("b", c3, gr.full_subgroup(c3))]
    )
    seq = fp.four_term_sequence(fam.truncate(spec, 0), fp.FamilyModule.build(FAG((3,))))
    assert seq.terms[0].factors == () and seq.terms[1].factors == ()
    assert seq.terms[2].factors == seq.terms[3].factors == (3, 3)
    assert fp.check_exactness(seq).passed


def test_four_term_single_factor(zoo):
    c4 = zoo["C4"]
    spec = fam.family([("a", c4, gr.trivial_subgroup(c4))])
    seq = fp.four_term_sequence(fam.truncate(spec, 0), fp.FamilyModule.build(FAG((2,))))
    assert seq.terms[2].factors == (2,) and seq.terms[3].factors == (2,)
    assert fp.check_exactness(seq).passed


def test_check_exactness_reports_witness(worked_instance):
    spec, module = worked_instance
    seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
    bad = corrupt_map_entry(seq, 1, 0, 0, 1)
    rep = fp.check_exactness(bad)
    assert not rep.passed
    assert any(p.witness is not None for p in rep.failures())


def test_all_single_entry_mutations_detected(worked_instance):
    spec, module = worked_instance
    seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
    total = detected = 0
    for which, hom in enumerate(seq.maps):
        for i in range(len(hom.matrix)):
            for j in range(len(hom.matrix[0]) if hom.matrix else 0):
                modulus = hom.target.factors[i]
                for delta in range(1, modulus):
                    total += 1
                    try:
                        bad = corrupt_map_entry(seq, which, i, j, delta)
                        if not fp.check_exactness(bad).passed:
                            detected += 1
                    except Exception:
                        detected += 1
    assert total and detected == total


def test_h_formula(zoo):
    c3 = zoo["C3"]
    spec = fam.family([], tail=(c3, gr.full_subgroup(c3)))
    out = fp.h_formula(spec, fp.FamilyModule.build(FAG((3,))), 1)
    assert out.flavor == "discretized"
    assert dict(out.pairs)["tail"].ambient.factors == (3,)
    assert dict(out.pairs)["tail"].structure.factors == ()
    assert fp.summarize_family(out).is_direct_sum

    v4 = zoo["V4"]
    spec = fam.family([], tail=(v4, gr.subgroup_from_generators(v4, [2])))
    out = fp.h_formula(spec, fp.FamilyModule.build(FAG((2,))), 1)
    assert dict(out.pairs)["tail"].ambient.factors == (2, 2)
    assert dict(out.pairs)["tail"].structure.factors == (2,)
    assert not fp.summarize_family(out).is_direct_sum

    empty = fam.family([], prime_set={2})
    out = fp.h_formula(empty, fp.FamilyModule.build(FAG((2,))), 1)
    assert out.pairs == ()


def test_h_formula_degree2(zoo):
    c4 = zoo["C4"]
    spec = fam.family([("a", c4, gr.subgroup_from_generators(c4, [2]))])
    out = fp.h_formula(spec, fp.FamilyModule.build(FAG((2,))), 2)
    pair = dict(out.pairs)["a"]
    assert pair.ambient.factors == (2,)
    # the degree-2 inflation H^2(C4/<2>, Z/2) -> H^2(C4, Z/2) is zero:
    # in the five-term sequence the restriction H^1(C4) -> H^1(<2>) is
    # the zero map, so the transgression hits all of H^2(C2, Z/2)
    assert pair.structure.factors == ()
    # sanity: with the full subgroup the quotient is trivial, nr = 0,
    # and with the trivial subgroup nr is everything
    full = fam.family([("a", c4, gr.full_subgroup(c4))])
    assert dict(fp.h_formula(full, fp.FamilyModule.build(FAG((2,))), 2).pairs)[
        "a"
    ].structure.factors == ()
    triv = fam.family([("a", c4, gr.trivial_subgroup(c4))])
    assert dict(fp.h_formula(triv, fp.FamilyModule.build(FAG((2,))), 2).pairs)[
        "a"
    ].structure.factors == (2,)


def test_high_degree_formula(zoo):
    c2 = zoo["C2"]
    spec = fam.family([], tail=(c2, gr.full_subgroup(c2)))
    out = fp.high_degree_formula(spec, fp.FamilyModule.build(FAG((2,))), 3)
    assert [(name, g.factors) for name, g in out] == [("tail", (2,))]
    out = fp.high_degree_formula(spec, fp.FamilyModule.build(FAG((3,))), 3)
    assert [(name, g.factors) for name, g in out] == [("tail", ())]

    c4 = zoo["C4"]
    bad = fam.family([("a", c4, gr.subgroup_from_generators(c4, [2]))])
    with pytest.raises(PreconditionError):
        fp.high_degree_formula(bad, fp.FamilyModule.build(FAG((2,))), 3)


def test_abelianization_formula_and_duality(zoo):
    c4, c2 = zoo["C4"], zoo["C2"]
    spec = fam.family(
        [("a", c4, gr.subgroup_from_generators(c4, [2]))],
        tail=(c2, gr.full_subgroup(c2)),
    )
    abf = fp.abelianization_formula(spec)
    assert abf.flavor == "compactified"
    pairs = dict(abf.pairs)
    assert pairs["a"].ambient.factors == (4,)
    assert pairs["a"].structure.factors == (2,)
    assert pairs["tail"].ambient.factors == (2,)

    dual = fp.dualize_family(abf)
    assert dual.flavor == "discretized"
    assert fp.dualize_family(dual).same_as(abf)
    for name, pair in abf.pairs:
        dpair = dict(dual.pairs)[name]
        assert pair.order * dpair.order == pair.ambient.order
    # plain stays plain
    plain = fp.RestrictedAbFamily(abf.pairs, "plain")
    assert fp.dualize_family(plain).flavor == "plain"


def test_cross_check(zoo):
    c4 = zoo["C4"]
    spec = fam.family([("a", c4, gr.subgroup_from_generators(c4, [2]))])
    rep = fp.cross_check_h1_vs_ab(spec, 2)
    fiber = rep.fibers[0]
    assert fiber.h1_factors == (2,) and fiber.nr_factors == (2,)
    assert rep.passed

    h27 = zoo["Heis27"]
    center = tuple(
        x for x in range(27) if all(h27.mul(x, y) == h27.mul(y, x) for y in range(27))
    )
    spec = fam.family([("h", h27, gr.Subgroup(h27, center))])
    rep = fp.cross_check_h1_vs_ab(spec, 3)
    fiber = rep.fibers[0]
    assert fiber.h1_factors == (3, 3) and fiber.nr_factors == (3, 3)
    assert rep.passed

    trivial = fam.family([("t", gr.trivial_group(), gr.trivial_subgroup(gr.trivial_group()))], prime_set={2})
    assert fp.cross_check_h1_vs_ab(trivial, 2).passed

    with pytest.raises(PreconditionError):
        fp.cross_check_h1_vs_ab(spec, 5)


def test_truncation_colimit_deg1(zoo):
    c3 = zoo["C3"]
    spec = fam.family([], tail=(c3, gr.full_subgroup(c3)))
    system = fp.truncation_colimit(spec, fp.FamilyModule.build(FAG((3,))), 1, 4)
    assert [lvl.factors for lvl in system.levels] == [
        (), (3,), (3, 3), (3, 3, 3), (3, 3, 3, 3)
    ]
    assert system.passed and system.tail_contribution == 3
    assert system.stabilization is None

    # exceptional nontrivial action + trivially-acted tail
    c2 = zoo["C2"]
    spec = fam.family(
        [("a", c2, gr.trivial_subgroup(c2))], tail=(c3, gr.full_subgroup(c3))
    )
    module = neg_module(spec, FAG((3,)), ["a"])
    system = fp.truncation_colimit(spec, module, 1, 3)
    assert system.passed
    assert [lvl.order for lvl in system.levels] == [1, 3, 9, 27]


def test_truncation_colimit_deg2(zoo):
    c2 = zoo["C2"]
    spec = fam.family([], tail=(c2, gr.full_subgroup(c2)))
    system = fp.truncation_colimit(spec, fp.FamilyModule.build(FAG((2,))), 2, 3)
    assert [lvl.factors for lvl in system.levels] == [(), (2,), (2, 2), (2, 2, 2)]
    assert system.passed


def test_truncation_colimit_empty_tail(zoo):
    c4 = zoo["C4"]
    spec = fam.family([("a", c4, gr.trivial_subgroup(c4))])
    system = fp.truncation_colimit(spec, fp.FamilyModule.build(FAG((2,))), 1, 3)
    assert system.stabilization == 0
    assert all(lvl.factors == (2,) for lvl in system.levels)
    assert system.passed


def test_truncation_colimit_preconditions(zoo):
    c4, c2 = zoo["C4"], zoo["C2"]
    bad_tail = fam.family([], tail=(c4, gr.subgroup_from_generators(c4, [2])))
    with pytest.raises(PreconditionError):
        fp.truncation_colimit(bad_tail, fp.FamilyModule.build(FAG((2,))), 1, 2)
    spec = fam.family([], tail=(c2, gr.full_subgroup(c2)))
    acting = fp.FamilyModule.build(
        FAG((3,)), {"tail": negation_action(c2, FAG((3,)), 1)}
    )
    with pytest.raises(PreconditionError):
        fp.truncation_colimit(spec, acting, 1, 2)
    for degree in (1, 2):
        with pytest.raises(PreconditionError, match="level"):
            fp.truncation_colimit(spec, fp.FamilyModule.build(FAG((3,))), degree, -1)


def test_splitting(zoo):
    c4, c2 = zoo["C4"], zoo["C2"]
    spec = fam.family(
        [
            ("a", c4, gr.trivial_subgroup(c4)),
            ("b", c2, gr.trivial_subgroup(c2)),
            ("c", c2, gr.trivial_subgroup(c2)),
        ]
    )
    trunc = fam.truncate(spec, 0)
    module = fp.FamilyModule.build(FAG((2,)))
    rep = fp.splitting_check(trunc, ["a"], module)
    assert rep.passed and rep.h1_full == (2, 2, 2) and rep.h1_sub == (2,)
    rep = fp.splitting_check(trunc, ["a", "b", "c"], module)
    assert rep.passed and rep.h1_sub == rep.h1_full
    rep = fp.splitting_check(trunc, [], module)
    assert rep.passed and rep.h1_sub == ()

    # nontrivial complement action: the section is found by linear algebra
    c3 = zoo["C3"]
    spec = fam.family(
        [("a", c3, gr.trivial_subgroup(c3)), ("b", c2, gr.trivial_subgroup(c2))]
    )
    module = neg_module(spec, FAG((3,)), ["b"])
    rep = fp.splitting_check(fam.truncate(spec, 0), ["a"], module)
    assert rep.passed and rep.h1_sub == (3,)


def test_blocks_split_rejects_a_wrong_inclusion():
    full, sub = [(2,), (2,), (4,)], [(2,), (4,)]
    assert fp.blocks_split(full, sub, [0, 2], [0, 2])
    assert fp.blocks_split(full, sub, [1, 2], [1, 2])
    # included as block 1 but projected from block 0: the composite kills Z/2
    assert not fp.blocks_split(full, sub, [1, 2], [0, 2])
    # Z/2 cannot go onto the Z/4 block
    assert not fp.blocks_split(full, sub, [2, 0], [2, 0])
    assert not fp.blocks_split(full, sub, [0], [0])


def test_direct_sums_keep_zero_length_blocks(zoo):
    s = fp.direct_sum([(), (2,), (), (4,), ()])
    assert s.factors == (2, 4) and s.ambient == (2, 4)
    assert [fp.split_blocks(rep, [0, 1, 0, 1, 0]) for rep in s.reps] == [
        [(), (1,), (), (0,), ()],
        [(), (0,), (), (1,), ()],
    ]
    assert fp.direct_sum([(), ()]).reps == () and fp.split_blocks((), [0, 0]) == [(), ()]
    # the wrong-inclusion cases, with empty blocks around and between them
    full, sub = [(), (2,), (2,), (), (4,)], [(2,), (), (4,)]
    assert fp.blocks_split(full, sub, [1, 3, 4], [1, 3, 4])
    assert fp.blocks_split(full, sub, [2, 0, 4], [2, 0, 4])
    assert not fp.blocks_split(full, sub, [2, 0, 4], [1, 0, 4])
    assert not fp.blocks_split(full, sub, [4, 0, 1], [4, 0, 1])
    assert not fp.blocks_split(full, sub, [1, 3], [1, 3])
    # a fiber whose A/A^{G_t} is 0 lifts each element of the sum to 0 there
    c2 = zoo["C2"]
    spec = fam.family([("a", c2, gr.trivial_subgroup(c2)), ("b", c2, gr.trivial_subgroup(c2))])
    seq = fp.four_term_sequence(fam.truncate(spec, 0), neg_module(spec, FAG((3,)), ["a"]))
    assert [t.factors for t in seq.terms] == [(3,), (3,), (), ()]
    assert seq.maps[0].matrix == ((1,),) and fp.check_exactness(seq).passed


def test_corestriction_compare(zoo):
    c4 = zoo["C4"]
    big = fam.family([("a", c4, gr.full_subgroup(c4))])
    small = fam.family([("a", c4, gr.subgroup_from_generators(c4, [2]))])
    rep = fp.corestriction_compare(big, small)
    assert rep.passed
    fiber = rep.fibers[0]
    assert fiber.sub_big == (4,) and fiber.sub_small == (2,)

    trivial = fam.family([("a", c4, gr.trivial_subgroup(c4))])
    assert fp.corestriction_compare(big, trivial).passed
    assert fp.corestriction_compare(big, big).passed

    with pytest.raises(PreconditionError):
        fp.corestriction_compare(small, big)  # containment violated


def test_oracle_enumeration_cap(zoo):
    from corprod.errors import SizeCapExceeded

    v4 = zoo["V4"]
    spec = fam.family([("a", v4, gr.trivial_subgroup(v4))])
    with pytest.raises(SizeCapExceeded):
        fp.oracle_h1(fam.truncate(spec, 0), fp.FamilyModule.build(FAG((2,))), cap=2)


def test_four_term_single_factor_collapses_to_identity(zoo):
    c4 = zoo["C4"]
    spec = fam.family([("a", c4, gr.trivial_subgroup(c4))])
    seq = fp.four_term_sequence(fam.truncate(spec, 0), fp.FamilyModule.build(FAG((2,))))
    m3 = seq.maps[2]
    assert m3.is_injective() and m3.is_surjective()
    assert seq.terms[0].factors == () and seq.terms[1].factors == ()


def test_zero_sequence_of_trivial_groups_is_exact():
    t = gr.trivial_group()
    spec = fam.family(
        [("a", t, gr.trivial_subgroup(t)), ("b", t, gr.trivial_subgroup(t))],
        prime_set={2},
    )
    seq = fp.four_term_sequence(fam.truncate(spec, 0), fp.FamilyModule.build(FAG((2,))))
    assert all(term.factors == () for term in seq.terms)
    assert fp.check_exactness(seq).passed


def test_oracle_agreement_cardinality_identity(zoo, rng):
    # |H1| = |sum A/A^{G_t}| * |sum H1(G_t, A)| / |A/A^G| on exact instances
    groups = [zoo["C2"], zoo["C3"], zoo["C4"], zoo["S3"], zoo["V4"], zoo["D4"]]
    for _ in range(12):
        picks = [rng.choice(groups) for _ in range(rng.randint(2, 4))]
        coeff = FAG(rng.choice([(2,), (3,), (4,), (6,), (2, 2)]))
        spec = fam.family(
            [(f"f{i}", g, gr.trivial_subgroup(g)) for i, g in enumerate(picks)]
        )
        actions = {}
        for i, g in enumerate(picks):
            if coeff.exponent > 2 and rng.random() < 0.4:
                try:
                    actions[f"f{i}"] = negation_action(g, coeff, gr.generating_set(g)[0])
                except Exception:
                    pass
        module = fp.FamilyModule.build(coeff, actions)
        seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
        assert fp.check_exactness(seq).passed
        t1, t2, t3, t4 = (t.order for t in seq.terms)
        assert t3 * t1 == t2 * t4


def test_exactness_with_nontrivial_tail_action(zoo):
    # truncations of a tail whose copies act nontrivially are still
    # plain finite free products, and the sequence stays exact
    c2, c3 = zoo["C2"], zoo["C3"]
    spec = fam.family(
        [("a", c3, gr.full_subgroup(c3))], tail=(c2, gr.full_subgroup(c2))
    )
    module = fp.FamilyModule.build(
        FAG((3,)), {"tail": negation_action(c2, FAG((3,)), 1)}
    )
    for level in (1, 2, 3):
        trunc = fam.truncate(spec, level)
        seq = fp.four_term_sequence(trunc, module)
        assert fp.check_exactness(seq).passed
    # level 2: A^G = 0 and only the two negation fibers contribute to
    # the fixed-quotient sum (the C3 fiber acts trivially), so
    # |H1| = |T2| * |T4| / |T1| = 9 * 3 / 3 = 9
    seq = fp.four_term_sequence(fam.truncate(spec, 2), module)
    assert [t.factors for t in seq.terms] == [(3,), (3, 3), (3, 3), (3,)]


def test_each_distinct_fiber_module_is_presented_once(zoo, monkeypatch):
    # A4, D4 and three copies of the V4 tail: five fibers, three modules
    a4 = gr.group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)])
    d4, v4 = zoo["D4"], zoo["V4"]
    spec = fam.family(
        [("a4", a4, gr.trivial_subgroup(a4)), ("d4", d4, gr.trivial_subgroup(d4))],
        tail=(v4, gr.full_subgroup(v4)),
    )
    module = fp.FamilyModule.build(FAG((2, 2)))
    trunc = fam.truncate(spec, 3)
    calls = []
    original = fp.fixed_elements

    def counted(coeff, mods):
        calls.append(tuple(mods))
        return original(coeff, calls[-1])

    monkeypatch.setattr(fp, "fixed_elements", counted)
    # a sequence or oracle an earlier test built would make no call
    clear_builds()
    seq = fp.four_term_sequence(trunc, module)
    # one call for the oracle's A^G over all five fibers, then one per module
    assert [len(mods) for mods in calls] == [5, 1, 1, 1]
    assert len({mods[0] for mods in calls[1:]}) == 3
    assert len(trunc.fibers) == 5 and fp.check_exactness(seq).passed


def test_family_module_prefers_exceptional_actions(zoo):
    # an exceptional fiber that happens to be named like a tail copy
    # still gets its own action
    c2 = zoo["C2"]
    spec = fam.family([("tail1", c2, gr.trivial_subgroup(c2))])
    neg = negation_action(c2, FAG((3,)), 1)
    module = fp.FamilyModule.build(FAG((3,)), {"tail1": neg})
    m = module.gmodule(spec.exceptional[0])
    assert not m.is_trivial_action()


def test_family_module_takes_modules_over_its_coefficients(zoo):
    c2, c3 = zoo["C2"], zoo["C3"]
    neg = negation_action(c2, FAG((3,)), 1)
    with pytest.raises(InvariantViolation, match="'a' is not a GModule over"):
        fp.FamilyModule.build(FAG((3,)), {"a": (((1,),), ((2,),))})
    with pytest.raises(InvariantViolation, match="'tail' is not a GModule over"):
        fp.FamilyModule.build(FAG((9,)), {"tail": neg})
    # a module over C2 stored for a C3 fiber is refused when it is read
    spec = fam.family([("a", c3, gr.trivial_subgroup(c3))])
    module = fp.FamilyModule.build(FAG((3,)), {"a": neg})
    with pytest.raises(PreconditionError, match="fiber 'a'"):
        module.gmodule(spec.exceptional[0])


def test_trivial_coefficients_everywhere(zoo):
    spec = fam.family(
        [("a", zoo["C4"], gr.trivial_subgroup(zoo["C4"]))],
        tail=(zoo["C3"], gr.full_subgroup(zoo["C3"])),
    )
    module = fp.FamilyModule.build(FAG(()))
    trunc = fam.truncate(spec, 2)
    o = fp.oracle_h1(trunc, module)
    assert o.value.factors == ()
    seq = fp.four_term_sequence(trunc, module)
    assert all(t.factors == () for t in seq.terms)
    assert fp.check_exactness(seq).passed


def test_abelianization_formula_plain_finite_sum(zoo):
    # trivial subgroups: the pairs have trivial B and the ambient data
    # is the free-product abelianization Z/4 + Z/2
    c4, c2 = zoo["C4"], zoo["C2"]
    spec = fam.family(
        [("a", c4, gr.trivial_subgroup(c4)), ("b", c2, gr.trivial_subgroup(c2))]
    )
    abf = fp.abelianization_formula(spec)
    pairs = dict(abf.pairs)
    assert pairs["a"].ambient.factors == (4,) and pairs["a"].structure.factors == ()
    assert pairs["b"].ambient.factors == (2,) and pairs["b"].structure.factors == ()
    total = fp.direct_sum([p.ambient.factors for _, p in abf.pairs])
    assert total.factors == (2, 4)


def test_tail_fiber_gets_the_tail_action(zoo):
    # the tail pattern and its truncation copies get the stored tail
    # module itself, or the one trivial module when none is stored
    c2, c3 = zoo["C2"], zoo["C3"]
    spec = fam.family(
        [("a", c3, gr.full_subgroup(c3))], tail=(c2, gr.full_subgroup(c2))
    )
    neg = negation_action(c2, FAG((3,)), 1)
    for module, want in (
        (fp.FamilyModule.build(FAG((3,)), {"tail": neg}), neg),
        (fp.FamilyModule.build(FAG((3,))), coh.trivial_module(c2, FAG((3,)))),
    ):
        tail, trunc = spec.fibers[-1], fam.truncate(spec, 2)
        assert tail.name == "tail"
        for fiber in (tail, trunc.fiber("tail1"), trunc.fiber("tail2")):
            assert module.gmodule(fiber) is want
        assert module.gmodule(spec.exceptional[0]).is_trivial_action()
    assert not neg.is_trivial_action()


def test_section_for_splits_its_system_once(monkeypatch):
    # one system for all the target's generators, split by prime once
    split = modular._split_by_prime
    calls = []
    monkeypatch.setattr(modular, "_split_by_prime", lambda *args: calls.append(args) or split(*args))
    src, tgt = FAG((2, 4, 12)), FAG((2, 12))
    hom = AbHom(src, tgt, ((1, 0, 1), (0, 3, 1)))
    section = fp.section_for(hom)
    assert section is not None and hom.compose(section).matrix == ((1, 0), (0, 1))
    assert len(calls) == 1


def test_section_for_refuses_at_the_int64_bound_of_its_one_system():
    # a section of the identity on (Z/q)^t solves one system of 2t^2 rows
    # and t^2 columns, so the guard reads dot products of length 2t^2 over
    # entries up to q-1.  For the prime q = 2^30 + 3, 2(q-1)^2 < 2^63 <=
    # 8(q-1)^2; for the prime q = 2^30 - 35, 8(q-1)^2 < 2^63
    def identity(q, t):
        group = FAG((q,) * t)
        return AbHom(group, group, identity_matrix(t))

    assert fp.section_for(identity(2**30 + 3, 1)).matrix == ((1,),)
    assert fp.section_for(identity(2**30 - 35, 2)).matrix == ((1, 0), (0, 1))
    with pytest.raises(SizeCapExceeded, match="length 8"):
        fp.section_for(identity(2**30 + 3, 2))


def test_section_for_agrees_with_brute_force():
    # seeded random surjections between small groups; a right inverse
    # exists exactly when every basis vector e_j of the target has a
    # preimage x with f_j.x = 0, f_j its factor: Hom(target, source)
    # searched column by column
    rng = random.Random(19)
    shapes = [(2,), (4,), (2, 4), (6,), (3, 9), (4, 4)]
    seen, outcomes = set(), []
    for src_f, tgt_f in itertools.product(shapes, repeat=2):
        src, tgt = FAG(src_f), FAG(tgt_f)
        for _ in range(12):
            mat = tuple(
                tuple(e // math.gcd(d, e) * rng.randrange(math.gcd(d, e)) for d in src_f)
                for e in tgt_f
            )
            hom = AbHom(src, tgt, mat)
            if (src_f, tgt_f, hom.matrix) in seen or not hom.is_surjective():
                continue
            seen.add((src_f, tgt_f, hom.matrix))
            identity = identity_matrix(tgt.rank)
            splits = all(
                any(hom.apply(x) == identity[j] and not any(scale(src, f, x)) for x in src.elements())
                for j, f in enumerate(tgt_f)
            )
            section = fp.section_for(hom)
            if splits:
                assert section is not None and hom.compose(section).matrix == identity
            else:
                assert section is None
            outcomes.append(splits)
    assert len(outcomes) >= 30 and True in outcomes and False in outcomes
    # Z/4 -> Z/2 does not split
    assert fp.section_for(AbHom(FAG((4,)), FAG((2,)), ((1,),))) is None
