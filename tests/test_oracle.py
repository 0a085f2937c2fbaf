"""The crossed-hom oracle's array enumeration against the loop it replaced.

``reference_fiber_z1`` is the per-candidate Cayley-graph walk the oracle
used before its enumeration became chunked array passes.  Every module
below must give the same cocycle list, in the same order, and the same
group structure from both.
"""

import itertools

import numpy as np
import pytest

import corprod.cohomology as coh
from corprod import corpus, modular
from corprod import groups as gr
from corprod import families as fam
from corprod import formulas as fp
from corprod.abelian import FiniteAbelianGroup as FAG
from corprod.errors import SizeCapExceeded, VerificationFailure
from corprod.groups import abelian_structure_from_elements
from test_cohomology import engine_vs_brutes_cases
from test_coinduced import unipotent_modules


def reference_fiber_z1(m, cap=fp.DEFAULT_ENUM_CAP):
    """All crossed homomorphisms f: G -> A by exhaustive search on
    generator values plus consistency checks over the Cayley graph."""
    g, a = m.group, m.coeff
    gens = g.generators
    n_candidates = a.order ** max(len(gens), 1)
    if n_candidates > cap:
        raise SizeCapExceeded(
            f"{n_candidates} generator assignments exceed the enumeration cap"
        )
    cocycles = []
    for choice in itertools.product(list(a.elements()), repeat=len(gens)):
        table: list = [None] * g.order
        table[g.identity] = a.zero
        frontier = [g.identity]
        ok = True
        while frontier and ok:
            nxt = []
            for x in frontier:
                for s, gelt in enumerate(gens):
                    y = g.mul(x, gelt)
                    val = a.add(table[x], m.act(x, choice[s]))
                    if table[y] is None:
                        table[y] = val
                        nxt.append(y)
                    elif table[y] != val:
                        ok = False
                        break
                if not ok:
                    break
            frontier = nxt
        if not ok:
            continue
        for x in range(g.order):
            for s, gelt in enumerate(gens):
                if table[g.mul(x, gelt)] != a.add(table[x], m.act(x, choice[s])):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cocycles.append(tuple(table))
    zero = tuple(a.zero for _ in range(g.order))

    def add_tables(t1, t2):
        return tuple(a.add(v1, v2) for v1, v2 in zip(t1, t2))

    return cocycles, abelian_structure_from_elements(cocycles, add_tables, zero)


def assert_matches_reference(m):
    cocycles, structure = reference_fiber_z1(m)
    z1 = fp._fiber_z1.__wrapped__(m)
    assert z1.cocycles == cocycles
    assert z1.structure.factors == structure.factors
    for table in cocycles:
        coords = structure.coordinates(table)
        assert z1.coordinates(table) == coords
        assert z1.table(coords) == table


def zoo_modules(zoo):
    """Both zoos, every group with the corpus's coefficient groups and
    named actions, and the unipotent actions, which alone tell the rows
    of an action matrix from its columns."""
    groups = {**{f"corpus-{k}": g for k, g in corpus._zoo().items()}, **zoo}
    for name, g in groups.items():
        for factors in corpus._MODULES:
            a = FAG(factors)
            for aname, option in corpus._action_options(g, a).items():
                yield f"{name}-{factors}-{aname}", corpus._action_module(g, a, option)
    yield from unipotent_modules()


def corpus_fiber_modules(seed):
    return {inst.module.gmodule(f) for inst in corpus.generate_corpus(seed, 30) for f in inst.spec.fibers}


def test_zoo_modules_match_the_reference(zoo):
    for name, m in zoo_modules(zoo):
        assert_matches_reference(m)


def test_engine_cases_match_the_reference(zoo):
    for m in engine_vs_brutes_cases(zoo):
        assert_matches_reference(m)


@pytest.mark.parametrize("seed", [0, 3])
def test_corpus_fibers_match_the_reference(seed):
    for m in corpus_fiber_modules(seed):
        assert_matches_reference(m)


def test_chunk_budget_is_a_small_constant():
    assert 0 < fp._Z1_CHUNK_BYTES <= 1 << 20


@pytest.mark.parametrize("rows", [1, 7])
def test_modules_spanning_several_chunks(zoo, monkeypatch, rows):
    cases = [
        coh.trivial_module(zoo["S3"], FAG((6,))),
        coh.trivial_module(zoo["C2xC4"], FAG((2, 4))),
        coh.trivial_module(zoo["C2"], FAG((2, 4))),
        corpus._action_module(
            zoo["D4"], FAG((3, 3)), corpus._action_options(zoo["D4"], FAG((3, 3)))["swap"]),
    ]
    for m in cases:
        chunk = rows * 8 * m.group.order * m.coeff.rank
        monkeypatch.setattr(fp, "_Z1_CHUNK_BYTES", chunk)
        # `rows` assignments per chunk: the search spans two chunks or more
        assert m.coeff.order ** len(m.group.generators) > rows
        assert_matches_reference(m)


def test_a_skipped_edge_check_is_caught(zoo, monkeypatch):
    # every assignment fills the spanning tree; only the other edges refuse one
    monkeypatch.setattr(fp, "_edges_hold", lambda m, tables, vals: np.ones(len(tables), dtype=bool))
    for m in (coh.trivial_module(zoo["C2"], FAG((4,))), coh.trivial_module(zoo["S3"], FAG((2,)))):
        with pytest.raises(AssertionError):
            assert_matches_reference(m)


def test_the_enumeration_reaches_no_engine(zoo, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    for name in ("subquotient", "congruence_kernel", "local_diagonalize", "quotient_presentation"):
        monkeypatch.setattr(modular, name, refuse)
    monkeypatch.setattr(fp, "_act", refuse)
    assert_matches_reference(coh.trivial_module(zoo["D4"], FAG((2, 2))))


def test_enumeration_cap_refusals_are_unchanged(zoo):
    v4 = zoo["V4"]
    m = coh.trivial_module(v4, FAG((3,)))
    message = "9 generator assignments exceed the enumeration cap"
    for enumerate_z1 in (reference_fiber_z1, fp._fiber_z1.__wrapped__):
        with pytest.raises(SizeCapExceeded) as err:
            enumerate_z1(m, 8)
        assert str(err.value) == message
    # a fiber on one generator weighs |A|; with no fiber, A itself is weighed
    one = fam.family([("a", zoo["C2"], gr.full_subgroup(zoo["C2"]))], prime_set=[2])
    with pytest.raises(SizeCapExceeded, match="^4 generator assignments exceed the enumeration cap$"):
        fp.oracle_h1(fam.truncate(one, 0), fp.FamilyModule.build(FAG((4,))), cap=3)
    empty = fam.family([], prime_set=[2])
    with pytest.raises(SizeCapExceeded, match="^4 elements of A exceed the enumeration cap$"):
        fp.oracle_h1(fam.truncate(empty, 0), fp.FamilyModule.build(FAG((4,))), cap=3)


def test_a_table_outside_z1_is_refused(zoo):
    m = coh.trivial_module(zoo["C4"], FAG((4,)))
    z1 = fp._fiber_z1(m)
    good = z1.cocycles[1]
    assert z1.table(z1.coordinates(good)) == good
    for bad in (
        tuple(v if x != 2 else ((v[0] + 1) % 4,) for x, v in enumerate(good)),
        tuple((v[0] + 4,) for v in good),
        tuple((0,) for _ in good[:-1]) + ((3,),),
    ):
        with pytest.raises(VerificationFailure):
            z1.coordinates(bad)
