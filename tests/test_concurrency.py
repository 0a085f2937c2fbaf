"""Concurrent use of the pure operations gives identical results."""

from concurrent.futures import ThreadPoolExecutor

import corprod.cohomology as coh
from corprod import families as fam
from corprod import formulas as fp
from corprod import groups as gr
from corprod.abelian import FiniteAbelianGroup as FAG


def test_parallel_instances_agree(zoo):
    c2 = zoo["C2"]
    spec = fam.family(
        [("a", c2, gr.trivial_subgroup(c2)), ("b", c2, gr.trivial_subgroup(c2))]
    )
    neg = (((1,),), ((-1,),))
    module = fp.FamilyModule.build(
        FAG((3,)),
        {"a": coh.GModule(c2, FAG((3,)), neg), "b": coh.GModule(c2, FAG((3,)), neg)},
    )

    def work(_):
        seq = fp.four_term_sequence(fam.truncate(spec, 0), module)
        assert fp.check_exactness(seq).passed
        return tuple(t.factors for t in seq.terms)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(32)))
    assert len(set(results)) == 1
    assert results[0] == ((3,), (3, 3), (3,), ())


def test_parallel_cohomology_on_shared_modules(zoo):
    modules = [
        coh.trivial_module(zoo["D4"], FAG((2,))),
        coh.trivial_module(zoo["Q8"], FAG((2,))),
        coh.trivial_module(zoo["S3"], FAG((6,))),
    ]

    def work(i):
        m = modules[i % len(modules)]
        return (coh.cohomology(m, 1).value.factors, coh.cohomology(m, 2).value.factors)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(24)))
    for i, res in enumerate(results):
        assert res == results[i % len(modules)]
