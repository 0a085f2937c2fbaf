"""Acceptance suite: one test per criterion, each printing a pass line
and holding to its stated time budget.

All checks are exact; there are no numerical tolerances anywhere.
"""

import random
import time

import pytest

from conftest import corrupt_map_entry, negation_action
from corprod import corpus
from corprod import families as fam
from corprod import formulas as fp
from corprod import groups as gr
from corprod import topology as topo
from corprod.abelian import AbSubgroup
from corprod.abelian import FiniteAbelianGroup as FAG
from corprod.abelian import group_from_moduli
from corprod.errors import InvariantViolation

CAP = 20_000
ENUM_CAP = 200_000


@pytest.fixture(scope="module")
def instances():
    return corpus.generate_corpus(seed=0, count=30)


def report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget


def test_criterion_1_four_term_exactness(instances):
    start = time.time()
    assert len(instances) >= 30
    for inst in instances:
        rec = corpus.exactness_record(inst, CAP, ENUM_CAP)
        assert rec.passed, (inst.descriptor, rec)
    report(1, "four-term exactness on the corpus", time.time() - start, 30)


def test_criterion_2_worked_instance(zoo):
    start = time.time()
    c2 = zoo["C2"]
    spec = fam.family(
        [("a", c2, gr.trivial_subgroup(c2)), ("b", c2, gr.trivial_subgroup(c2))]
    )
    neg = negation_action(c2, FAG((3,)), 1)
    module = fp.FamilyModule.build(FAG((3,)), {"a": neg, "b": neg})
    seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
    assert [t.factors for t in seq.terms] == [(3,), (3, 3), (3,), ()]
    assert fp.check_exactness(seq).passed
    report(2, "C2 * C2 on Z/3 by negation", time.time() - start, 1)


def test_criterion_3_duality():
    start = time.time()
    rng = random.Random(3)
    pairs_checked = 0
    while pairs_checked < 200:
        n_pairs = rng.randint(1, 3)
        named = []
        for i in range(n_pairs):
            moduli = [rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randint(0, 3))]
            a = group_from_moduli(moduli) if moduli else FAG(())
            gens = tuple(
                tuple(rng.randrange(d) for d in a.factors)
                for _ in range(rng.randint(0, 3))
            )
            named.append((f"f{i}", AbSubgroup(a, gens)))
        family_obj = fam.RestrictedAbFamily(tuple(named), "compactified")
        dual = fp.dualize_family(family_obj)
        double = fp.dualize_family(dual)
        assert dual.flavor == "discretized" and double.flavor == "compactified"
        assert double.same_as(family_obj)
        for name, pair in family_obj.pairs:
            dpair = dict(dual.pairs)[name]
            assert pair.order * dpair.order == pair.ambient.order
            pairs_checked += 1
    report(3, "duality involution and annihilator law", time.time() - start, 5)


def test_criterion_4_cross_pipeline(instances):
    start = time.time()
    for inst in instances:
        for rec in corpus.cross_check_records(inst, CAP):
            assert rec.passed, (inst.descriptor, rec)
    report(4, "cohomological vs abelianization-dual pipelines", time.time() - start, 10)


def test_criterion_5_normal_closure_invariance(instances):
    start = time.time()
    for inst in instances:
        rec = corpus.closure_invariance_record(inst, CAP)
        assert rec.passed, (inst.descriptor, rec)
    report(5, "normal-closure invariance of all formulas", time.time() - start, 10)


def test_criterion_6_colimit_structure(zoo):
    start = time.time()
    c2, c3, c4 = zoo["C2"], zoo["C3"], zoo["C4"]

    spec = fam.family(
        [("a", c4, gr.subgroup_from_generators(c4, [2]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    system = fp.truncation_colimit(spec, fp.FamilyModule.build(FAG((6,))), 1, 6)
    assert system.passed and len(system.levels) == 7
    assert system.tail_contribution == 3
    for lo, hi in zip(system.levels, system.levels[1:]):
        assert hi.order == lo.order * 3

    # a nontrivially acted exceptional fiber on top of a trivial tail
    spec2 = fam.family(
        [("a", c2, gr.trivial_subgroup(c2))], tail=(c3, gr.full_subgroup(c3))
    )
    module2 = fp.FamilyModule.build(
        FAG((3,)), {"a": negation_action(c2, FAG((3,)), 1)}
    )
    system2 = fp.truncation_colimit(spec2, module2, 1, 6)
    assert system2.passed and system2.tail_contribution == 3

    # degree 2: one Z/2 per tail index
    spec3 = fam.family([], tail=(c2, gr.full_subgroup(c2)))
    system3 = fp.truncation_colimit(spec3, fp.FamilyModule.build(FAG((2,))), 2, 6)
    assert system3.passed
    assert [lvl.order for lvl in system3.levels] == [2**n for n in range(7)]
    report(6, "truncation colimits, levels 0..6", time.time() - start, 10)


def test_criterion_7_dimension_shifting(instances):
    start = time.time()
    for inst in instances:
        for rec in corpus.dimension_shift_records(inst, CAP):
            assert rec.passed, (inst.descriptor, rec)
    report(7, "dimension shifting on every corpus fiber", time.time() - start, 10)


def _mutation_instances(zoo):
    c2 = zoo["C2"]
    neg3 = negation_action(c2, FAG((3,)), 1)
    neg9 = negation_action(c2, FAG((9,)), 1)
    out = []
    spec = fam.family(
        [("a", c2, gr.trivial_subgroup(c2)), ("b", c2, gr.trivial_subgroup(c2))]
    )
    out.append((spec, fp.FamilyModule.build(FAG((3,)), {"a": neg3, "b": neg3})))
    out.append((spec, fp.FamilyModule.build(FAG((9,)), {"a": neg9, "b": neg9})))
    spec3 = fam.family(
        [
            ("a", c2, gr.trivial_subgroup(c2)),
            ("b", c2, gr.trivial_subgroup(c2)),
            ("c", c2, gr.trivial_subgroup(c2)),
        ]
    )
    out.append(
        (spec3, fp.FamilyModule.build(FAG((3,)), {"a": neg3, "b": neg3, "c": neg3}))
    )
    return out


def test_criterion_8_mutation_sensitivity(zoo):
    start = time.time()
    # every single-entry corruption of these sequences must be detected,
    # either by the exactness check or by the matrix invariant
    mutations = []
    for spec, module in _mutation_instances(zoo):
        seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
        assert fp.check_exactness(seq).passed
        for which, hom in enumerate(seq.maps):
            for i in range(len(hom.matrix)):
                for j in range(len(hom.matrix[0]) if hom.matrix else 0):
                    for delta in range(1, hom.target.factors[i]):
                        mutations.append((seq, which, i, j, delta))
    assert len(mutations) >= 50
    rng = random.Random(8)
    detected = 0
    sample = rng.sample(mutations, 50)
    for seq, which, i, j, delta in sample:
        try:
            bad = corrupt_map_entry(seq, which, i, j, delta)
            if not fp.check_exactness(bad).passed:
                detected += 1
        except InvariantViolation:
            detected += 1
    assert detected == 50

    # 50 Cayley-table corruptions, all rejected by validation
    groups = [zoo["C4"], zoo["S3"], zoo["D4"], zoo["Q8"], zoo["C6"]]
    table_detected = 0
    done = 0
    while done < 50:
        g = rng.choice(groups)
        table = [list(r) for r in g.table]
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        new = rng.randrange(g.order)
        if new == table[i][j]:
            continue
        table[i][j] = new
        done += 1
        try:
            gr.validate_cayley_table(table)
        except InvariantViolation:
            table_detected += 1
    assert table_detected == 50
    report(8, "mutation sensitivity, 100 corruptions", time.time() - start, 10)


def test_criterion_9_topology_predicates(zoo):
    start = time.time()
    c4, c3, c2 = zoo["C4"], zoo["C3"], zoo["C2"]
    spec = fam.family(
        [("a", c4, gr.subgroup_from_generators(c4, [2]))],
        tail=(c3, gr.full_subgroup(c3)),
    )
    from test_topology import brute_force_is_open

    rng = random.Random(9)
    for _ in range(250):
        star = rng.random() < 0.5
        default = frozenset(x for x in range(3) if rng.random() < 0.6)
        exceptions = {
            i: frozenset(x for x in range(3) if rng.random() < 0.5)
            for i in rng.sample([1, 2, 3], k=rng.randint(0, 3))
        }
        parts = {"a": frozenset(x for x in range(4) if rng.random() < 0.5)}
        v = topo.OpenSetSpec(spec, parts, default, exceptions, star)
        assert topo.is_open(v).is_open == brute_force_is_open(v)

    # certificates: identity and the quotient morphism are certified
    assert topo.open_map_certificate(fam.identity_morphism(spec)).certified_open
    _, qmor = fam.quotient_family_morphism(
        spec, {"a": gr.subgroup_from_generators(c4, [2])}, gr.trivial_subgroup(c3)
    )
    assert topo.open_map_certificate(qmor).certified_open
    # hand-built negative: collapsing a fiber with U != G onto the star
    tgt = fam.family(
        [("b", c2, gr.full_subgroup(c2))], tail=(c3, gr.full_subgroup(c3))
    )
    bad = fam.FamilyMorphism(spec, tgt, {"a": "*"}, {"tail": gr.identity_hom(c3)})
    cert = topo.open_map_certificate(bad)
    assert not cert.certified_open
    assert set(cert.failures) >= {"not strict", "star preimage is not unique"}
    # hand-built negative: a non-surjective fiber map
    inc_src = fam.family(
        [("b", c2, gr.full_subgroup(c2))], tail=(c3, gr.full_subgroup(c3))
    )
    inc_tgt = fam.family(
        [("b", c4, gr.full_subgroup(c4))], tail=(c3, gr.full_subgroup(c3))
    )
    inc = fam.FamilyMorphism(
        inc_src, inc_tgt, {"b": "b"}, {"b": gr.GroupHom(c2, c4, (0, 2)), "tail": gr.identity_hom(c3)},
    )
    cert = topo.open_map_certificate(inc)
    assert not cert.certified_open and "not fibrewise surjective" in cert.failures
    report(9, "topology predicates vs brute force", time.time() - start, 5)
