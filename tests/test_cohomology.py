"""The cohomology engine against literal brute-force resolutions.

Degree-1 values are cross-checked by enumerating all crossed
homomorphisms; degree-2 values against a bar-resolution solver that
works directly with the normalized cochain system.  The engine's array
cochain checks, inflation and restriction are compared with loops over
nested tuples that check or pull back one value at a time.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corprod.cohomology as coh
from conftest import negation_action, scale
from corprod import corpus, modular
from corprod import groups as gr
from corprod.abelian import AbHom
from corprod.abelian import FiniteAbelianGroup as FAG
from corprod.errors import InvariantViolation, NotASubgroup, PreconditionError, SizeCapExceeded


def brute_z1(m):
    """All crossed homomorphisms by checking every function table."""
    g, a = m.group, m.coeff
    out = []
    for values in itertools.product(list(a.elements()), repeat=g.order - 1):
        table = [None] * g.order
        table[g.identity] = a.zero
        rest = [x for x in range(g.order) if x != g.identity]
        for x, v in zip(rest, values):
            table[x] = tuple(v)
        if all(
            table[g.mul(x, y)] == a.add(table[x], m.act(x, table[y]))
            for x in range(g.order)
            for y in range(g.order)
        ):
            out.append(tuple(table))
    return out


def brute_h1_factors(m):
    z1 = brute_z1(m)
    a = m.coeff

    def add_tables(t1, t2):
        return tuple(a.add(u, v) for u, v in zip(t1, t2))

    zero = tuple(a.zero for _ in range(m.group.order))
    b1 = []
    for vec in a.elements():
        b1.append(tuple(a.add(m.act(x, vec), scale(a, -1, vec)) for x in range(m.group.order)))
    moduli = []
    structure = gr.abelian_structure_from_elements(z1, add_tables, zero)
    quotient = modular.quotient_presentation(
        structure.factors, [structure.coordinates(t) for t in b1]
    )
    return quotient.factors


def bar_h2_factors(m):
    """Independent oracle: the normalized inhomogeneous bar system."""
    g, a = m.group, m.coeff
    n, r = g.order, a.rank
    if r == 0 or n == 1:
        return ()
    others = [x for x in range(n) if x != g.identity]
    pos = {x: i for i, x in enumerate(others)}
    nvars = len(others) ** 2 * r

    def var(x, y, i):
        return (pos[x] * len(others) + pos[y]) * r + i

    rows, row_moduli = [], []
    for x in others:
        for y in others:
            for z in others:
                block = [[0] * nvars for _ in range(r)]
                mat = m.action[x]
                for i in range(r):
                    for j in range(r):
                        block[i][var(y, z, j)] += mat[i][j]
                xy, yz = g.mul(x, y), g.mul(y, z)
                for i in range(r):
                    if xy != g.identity:
                        block[i][var(xy, z, i)] -= 1
                    if yz != g.identity:
                        block[i][var(x, yz, i)] += 1
                    block[i][var(x, y, i)] -= 1
                rows.extend(tuple(rr) for rr in block)
                row_moduli.extend(a.factors)
    col_moduli = tuple(a.factors[i % r] for i in range(nvars))
    z2 = modular.congruence_kernel(rows, row_moduli, col_moduli)
    b2 = []
    for w in others:
        for i in range(r):
            e_i = tuple(1 if j == i else 0 for j in range(r))
            vec = [0] * nvars
            for x in others:
                for y in others:
                    acc = a.zero
                    if x == w:
                        acc = a.add(acc, e_i)
                    if y == w:
                        acc = a.add(acc, m.act(x, e_i))
                    if g.mul(x, y) == w:
                        acc = a.add(acc, scale(a, -1, e_i))
                    for j in range(r):
                        vec[var(x, y, j)] = acc[j]
            b2.append(tuple(vec))
    return modular.subquotient(col_moduli, z2, b2).factors


def loop_is_cocycle(m, degree, cocycle):
    """Reference: the cocycle identity checked one pair or triple at a
    time on nested tuples, with ``act``."""
    g, a = m.group, m.coeff
    if degree == 1:
        if cocycle[g.identity] != a.zero:
            return False
        return all(
            cocycle[g.mul(x, y)] == a.add(cocycle[x], m.act(x, cocycle[y]))
            for x in range(g.order)
            for y in range(g.order)
        )
    e = g.identity
    if any(cocycle[e][x] != a.zero or cocycle[x][e] != a.zero for x in range(g.order)):
        return False
    for x in range(g.order):
        for y in range(g.order):
            for z in range(g.order):
                lhs = a.add(m.act(x, cocycle[y][z]), cocycle[x][g.mul(y, z)])
                rhs = a.add(cocycle[g.mul(x, y)][z], cocycle[x][y])
                if lhs != rhs:
                    return False
    return True


def as_tuples(cochain):
    """An array cochain as the nested tuples ``loop_is_cocycle`` reads."""
    if cochain.ndim == 1:
        return tuple(int(x) for x in cochain)
    return tuple(as_tuples(part) for part in cochain)


def test_h1_examples(zoo):
    m = coh.trivial_module(zoo["C3"], FAG((3,)))
    assert coh.cohomology(m, 1).value.factors == (3,)
    m = negation_action(zoo["C2"], FAG((3,)), 1)
    assert coh.cohomology(m, 1).value.factors == ()
    m = coh.trivial_module(zoo["C4"], FAG((2,)))
    assert coh.cohomology(m, 1).value.factors == (2,)


def test_h2_examples(zoo):
    m = coh.trivial_module(zoo["C3"], FAG((3,)))
    assert coh.cohomology(m, 2).value.factors == (3,)
    m = coh.trivial_module(zoo["C2"], FAG((2,)))
    assert coh.cohomology(m, 2).value.factors == (2,)


def engine_vs_brutes_cases(zoo):
    cases = [
        coh.trivial_module(zoo["C2"], FAG((2,))),
        coh.trivial_module(zoo["C2"], FAG((4,))),
        coh.trivial_module(zoo["C3"], FAG((3,))),
        coh.trivial_module(zoo["C4"], FAG((4,))),
        coh.trivial_module(zoo["C6"], FAG((6,))),
        coh.trivial_module(zoo["V4"], FAG((2,))),
        coh.trivial_module(zoo["S3"], FAG((2,))),
        coh.trivial_module(zoo["S3"], FAG((3,))),
        coh.trivial_module(zoo["S3"], FAG((6,))),
        coh.trivial_module(zoo["D4"], FAG((2,))),
        coh.trivial_module(zoo["Q8"], FAG((2,))),
        coh.trivial_module(zoo["C2"], FAG((2, 4))),
        negation_action(zoo["C2"], FAG((3,)), 1),
        negation_action(zoo["C4"], FAG((3,)), 1),
        negation_action(zoo["C4"], FAG((9,)), 1),
        negation_action(zoo["C2"], FAG((3, 3)), 1),
    ]
    return cases


def test_h1_engine_matches_enumeration(zoo):
    for m in engine_vs_brutes_cases(zoo):
        if m.coeff.order ** (m.group.order - 1) > 100_000:
            continue
        assert coh.cohomology(m, 1).value.factors == brute_h1_factors(m), m.group.label


def test_h2_engine_matches_bar_resolution(zoo):
    for m in engine_vs_brutes_cases(zoo):
        if (m.group.order - 1) ** 2 * m.coeff.rank > 300:
            continue
        assert coh.cohomology(m, 2).value.factors == bar_h2_factors(m), m.group.label


def test_classical_h2_values(zoo):
    # frozen from the bar-resolution oracle (and classical tables)
    assert coh.cohomology(coh.trivial_module(zoo["V4"], FAG((2,))), 2).value.factors == (2, 2, 2)
    assert coh.cohomology(coh.trivial_module(zoo["D4"], FAG((2,))), 2).value.factors == (2, 2, 2)
    assert coh.cohomology(coh.trivial_module(zoo["Q8"], FAG((2,))), 2).value.factors == (2, 2)
    assert coh.cohomology(coh.trivial_module(zoo["C9"], FAG((9,))), 2).value.factors == (9,)


def test_representatives_satisfy_cocycle_identities(zoo):
    for m in engine_vs_brutes_cases(zoo):
        for degree in (1, 2):
            h = coh.cohomology(m, degree)
            for i, rep in enumerate(h.representatives):
                assert coh.is_cocycle(m, degree, rep)
                coords = h.classify(rep)
                assert coords == tuple(
                    1 if j == i else 0 for j in range(len(h.value.factors))
                )


def coboundary(m, degree, b):
    """The coboundary of the cochain ``b`` one degree down: x.b - b for a
    vector b, or (x, y) -> x.b(y) - b(xy) + b(x) for a normalized b."""
    g, a = m.group, m.coeff
    n = g.order
    if degree == 1:
        return [a.add(m.act(x, b), scale(a, -1, b)) for x in range(n)]
    return [
        [a.add(a.add(m.act(x, b[y]), scale(a, -1, b[g.mul(x, y)])), b[x]) for y in range(n)]
        for x in range(n)
    ]


def test_classify_many_reads_representatives_and_ignores_coboundaries(zoo):
    rnd = random.Random(8)
    for m in engine_vs_brutes_cases(zoo):
        g, a = m.group, m.coeff
        for degree in (1, 2):
            h = coh.cohomology(m, degree)
            reps = h.representatives
            k = len(h.value.factors)
            identity = tuple(tuple(int(j == i) for j in range(k)) for i in range(k))
            assert h.classify_many(reps) == identity
            assert h.classify_many([]) == ()
            # each representative plus a random coboundary, as nested tuples
            if degree == 1:
                b = [tuple(rnd.randrange(d) for d in a.factors) for _ in reps]
            else:
                b = [[tuple(rnd.randrange(d) for d in a.factors) for _ in range(g.order)] for _ in reps]
                for cochain in b:
                    cochain[g.identity] = a.zero
            moved = [
                np.mod(rep + np.array(coboundary(m, degree, bi), dtype=np.int64), a.factors)
                for rep, bi in zip(reps, b)
            ]
            assert h.classify_many([as_tuples(c) for c in moved]) == identity
            # and as one int64 stack after the representatives themselves
            shape = (2 * k,) + (g.order,) * degree + (a.rank,)
            stack = np.array(moved + list(reps), dtype=np.int64).reshape(shape)
            assert h.classify_many(stack) == identity * 2


def named_module(gname, factors, action):
    """A corpus group acting on a corpus module by a named action."""
    g, a = corpus._zoo()[gname], FAG(factors)
    return corpus._action_module(g, a, corpus._action_options(g, a)[action])


def test_is_cocycle_matches_the_loop_reference(zoo):
    # every representative, and every one of them with one entry raised by
    # 1 mod its factor; some of those are cocycles too (for C2 over Z/2 the
    # indicator of (g, g) is), so only agreement is required.  The last two
    # modules are nonabelian groups acting nontrivially, where the sides of
    # f(xy) = f(x) + x.f(y) cannot be swapped
    extra = [named_module("S3", (3,), "negation"), named_module("D4", (4,), "negation")]
    for m in engine_vs_brutes_cases(zoo) + extra:
        # a constant factor set meets the identity for a trivial action but
        # is not normalized
        ones = np.ones((m.group.order,) * 2 + (m.coeff.rank,), dtype=np.int64)
        assert coh.is_cocycle(m, 2, ones) == loop_is_cocycle(m, 2, as_tuples(ones))
        for degree in (1, 2):
            for rep in coh.cohomology(m, degree).representatives:
                assert coh.is_cocycle(m, degree, rep)
                assert loop_is_cocycle(m, degree, as_tuples(rep))
                for slot in np.ndindex(rep.shape):
                    bumped = rep.copy()
                    bumped[slot] = (bumped[slot] + 1) % m.coeff.factors[slot[-1]]
                    want = loop_is_cocycle(m, degree, as_tuples(bumped))
                    assert coh.is_cocycle(m, degree, bumped) == want, (m.group.label, slot)


def loop_inflation(m, n, degree):
    """Reference: inflation by pulling each representative back one value
    at a time through ``AbHom.apply`` on nested tuples."""
    mq, proj, fixed = coh.induced_quotient_action(m, n)
    h_q, h_g = coh.cohomology(mq, degree), coh.cohomology(m, degree)
    inc, p, order = fixed.inclusion, proj.apply, m.group.order
    cols = []
    for rep in map(as_tuples, h_q.representatives):
        if degree == 1:
            pulled = tuple(inc.apply(rep[p(x)]) for x in range(order))
        else:
            pulled = tuple(
                tuple(inc.apply(rep[p(x)][p(y)]) for y in range(order)) for x in range(order)
            )
        cols.append(h_g.classify(pulled))
    return AbHom.from_columns(h_q.value, h_g.value, cols)


def loop_restriction(m, h, degree):
    """Reference: restriction by reading each representative's values at
    the subgroup's elements one at a time."""
    mh, ordered = coh.restricted_module(m, h)
    h_g, h_h = coh.cohomology(m, degree), coh.cohomology(mh, degree)
    cols = []
    for rep in map(as_tuples, h_g.representatives):
        if degree == 1:
            restricted = tuple(rep[x] for x in ordered)
        else:
            restricted = tuple(tuple(rep[x][y] for y in ordered) for x in ordered)
        cols.append(h_h.classify(restricted))
    return AbHom.from_columns(h_g.value, h_h.value, cols)


def test_inflation_and_restriction_match_loop_pull_backs():
    zoo = corpus._zoo()

    def center(g):
        return gr.Subgroup(g, tuple(
            x for x in range(g.order) if all(g.mul(x, y) == g.mul(y, x) for y in range(g.order))
        ))

    a3 = next(x for x in range(6) if zoo["S3"].element_order(x) == 3)
    cases = [
        (named_module("C3xC3", (3,), "trivial"), gr.trivial_subgroup(zoo["C3xC3"])),
        (named_module("C3xC3", (3,), "trivial"), gr.subgroup_from_generators(zoo["C3xC3"], [1])),
        # restriction to the whole group: the alternating class of H^2
        # would change under a transposition of the factor set
        (named_module("C3xC3", (3,), "trivial"), gr.full_subgroup(zoo["C3xC3"])),
        (named_module("S3", (3,), "negation"), gr.subgroup_from_generators(zoo["S3"], [a3])),
        (named_module("D4", (4,), "negation"), center(zoo["D4"])),
        (named_module("D4", (2, 4), "negation"), center(zoo["D4"])),
        (named_module("Q8", (2,), "trivial"), center(zoo["Q8"])),
    ]
    for m, n in cases:
        for degree in (1, 2):
            if n.is_normal():
                assert coh.inflation(m, n, degree) == loop_inflation(m, n, degree)
            assert coh.restriction(m, n, degree) == loop_restriction(m, n, degree)
    # a subgroup that is not normal, restriction only
    d4 = zoo["D4"]
    refl = next(x for x in range(8) if d4.element_order(x) == 2 and x not in center(d4).elements)
    h = gr.subgroup_from_generators(d4, [refl])
    for degree in (1, 2):
        m = named_module("D4", (4,), "negation")
        assert coh.restriction(m, h, degree) == loop_restriction(m, h, degree)


def test_int64_refusal_boundary_of_the_engines(zoo):
    # H^2 over Z/2^29 still fits the int64 kernel and its cochains; Z/2^30
    # is refused there, while H^1 over Z/2^30 still has short enough systems
    v4 = zoo["V4"]
    m = coh.trivial_module(v4, FAG((2**29,)))
    h2 = coh.cohomology(m, 2)
    assert h2.value.factors == (2, 2, 2)
    assert all(coh.is_cocycle(m, 2, rep) for rep in h2.representatives)
    m = coh.trivial_module(v4, FAG((2**30,)))
    with pytest.raises(SizeCapExceeded):
        coh.cohomology(m, 2)
    assert coh.cohomology(m, 1).value.factors == (2, 2)


def _bar_sized_zoo_modules():
    """Corpus groups, modules and named actions within the bar solver's
    reach, as in ``test_h2_engine_matches_bar_resolution``."""
    out = []
    for g in corpus._zoo().values():
        for factors in corpus._MODULES:
            a = FAG(factors)
            if (g.order - 1) ** 2 * a.rank > 300:
                continue
            for option in corpus._action_options(g, a).values():
                out.append(corpus._action_module(g, a, option))
    return out


BAR_SIZED = _bar_sized_zoo_modules()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(BAR_SIZED), st.randoms(use_true_random=False))
def test_h2_engine_differential(m, rnd):
    g, a = m.group, m.coeff
    h2 = coh.cohomology(m, 2)
    assert h2.value.factors == bar_h2_factors(m)
    k = len(h2.value.factors)
    for i, rep in enumerate(h2.representatives):
        assert h2.classify(rep) == tuple(int(j == i) for j in range(k))
    # the coboundary of a random normalized 1-cochain b is the class 0
    b = [tuple(rnd.randrange(d) for d in a.factors) for _ in range(g.order)]
    b[g.identity] = a.zero
    delta = [
        [a.add(a.add(m.act(x, b[y]), scale(a, -1, b[g.mul(x, y)])), b[x]) for y in range(g.order)]
        for x in range(g.order)
    ]
    assert coh.is_cocycle(m, 2, delta)
    assert h2.classify(delta) == (0,) * k


def test_cardinality_bookkeeping(zoo):
    # |Z1| = |B1| * |H1| and |B1| = |A| / |A^G|
    for m in engine_vs_brutes_cases(zoo):
        if m.coeff.order ** (m.group.order - 1) > 100_000:
            continue
        z1 = brute_z1(m)
        fixed = coh.fixed_submodule(m, gr.full_subgroup(m.group))
        b1_order = m.coeff.order // fixed.order
        h1 = coh.cohomology(m, 1)
        assert len(z1) == b1_order * h1.value.order


def test_fixed_submodule_examples(zoo):
    c2 = zoo["C2"]
    mneg = negation_action(c2, FAG((3,)), 1)
    assert coh.fixed_submodule(mneg, gr.full_subgroup(c2)).structure.factors == ()
    assert coh.fixed_submodule(mneg, gr.trivial_subgroup(c2)).structure.factors == (3,)
    mtriv = coh.trivial_module(c2, FAG((3,)))
    assert coh.fixed_submodule(mtriv, gr.full_subgroup(c2)).structure.factors == (3,)


def test_inflation_examples(zoo):
    c4 = zoo["C4"]
    m = coh.trivial_module(c4, FAG((2,)))
    n = gr.subgroup_from_generators(c4, [2])
    infl = coh.inflation(m, n, 1)
    assert infl.source.factors == (2,) and infl.is_injective()
    assert infl.image().order == 2

    infl = coh.inflation(m, gr.full_subgroup(c4), 1)
    assert infl.source.factors == ()
    infl = coh.inflation(m, gr.trivial_subgroup(c4), 1)
    assert infl.is_injective() and infl.is_surjective()


def test_restriction_examples(zoo):
    c4 = zoo["C4"]
    m = coh.trivial_module(c4, FAG((2,)))
    assert coh.restriction(m, gr.full_subgroup(c4), 1).is_injective()
    assert coh.restriction(m, gr.trivial_subgroup(c4), 1).target.factors == ()
    # computed by hand: the nontrivial character of C4 dies on the
    # order-2 subgroup, so the restriction map is zero with full kernel
    res = coh.restriction(m, gr.subgroup_from_generators(c4, [2]), 1)
    assert all(x == 0 for row in res.matrix for x in row) and res.kernel().order == 2


def test_inflation_then_restriction_vanishes(zoo):
    # classes inflated from G/N restrict to zero on N, degree 1
    cases = [
        (zoo["C4"], gr.subgroup_from_generators(zoo["C4"], [2]), FAG((2,))),
        (zoo["D4"], None, FAG((2,))),
        (zoo["C6"], gr.subgroup_from_generators(zoo["C6"], [3]), FAG((6,))),
    ]
    for g, n, a in cases:
        if n is None:
            center = tuple(
                x for x in range(g.order) if all(g.mul(x, y) == g.mul(y, x) for y in range(g.order))
            )
            n = gr.Subgroup(g, center)
        m = coh.trivial_module(g, a)
        infl = coh.inflation(m, n, 1)
        res = coh.restriction(m, n, 1)
        assert all(x == 0 for row in res.compose(infl).matrix for x in row)


def test_unramified_examples(zoo):
    v4 = zoo["V4"]
    m = coh.trivial_module(v4, FAG((2,)))
    u = gr.subgroup_from_generators(v4, [2])
    nr = coh.unramified_subgroup(m, u, 1)
    assert nr.structure.factors == (2,)
    assert coh.unramified_subgroup(m, gr.full_subgroup(v4), 1).structure.factors == ()
    assert coh.unramified_subgroup(m, gr.trivial_subgroup(v4), 1).structure.factors == (2, 2)


def test_unramified_closure_invariance(zoo):
    d4 = zoo["D4"]
    refl = min(
        x
        for x in range(d4.order)
        if d4.element_order(x) == 2
        and any(d4.mul(x, y) != d4.mul(y, x) for y in range(d4.order))
    )
    u = gr.subgroup_from_generators(d4, [refl])
    closure = gr.normal_closure(d4, u)
    m = coh.trivial_module(d4, FAG((2,)))
    for degree in (1, 2):
        a = coh.unramified_subgroup(m, u, degree)
        b = coh.unramified_subgroup(m, closure, degree)
        assert a.same_subgroup(b)


def closed_form_modules(zoo):
    """Every conftest-zoo group with the corpus's coefficient groups and
    named actions, and the corpus zoo's groups with its nontrivial ones."""
    for groups, skip in ((zoo, ()), (corpus._zoo(), ("trivial",))):
        for g in groups.values():
            for factors in corpus._MODULES:
                a = FAG(factors)
                for aname, option in corpus._action_options(g, a).items():
                    if aname not in skip:
                        yield corpus._action_module(g, a, option)


def test_the_closed_forms_match_inflation_at_closure_g_and_1(zoo):
    # closure G: inflation from the trivial quotient, image 0; closure 1:
    # inflation along G -> G/1, image all of H^i, with the same generators
    count = 0
    for m in closed_form_modules(zoo):
        g = m.group
        for u in (gr.full_subgroup(g), gr.trivial_subgroup(g)):
            for degree in (1, 2):
                general = coh.inflation(m, gr.normal_closure(g, u), degree).image()
                nr = coh.unramified_subgroup(m, u, degree)
                assert nr.ambient == general.ambient and nr.gens == general.gens
                count += 1
    assert count > 1000


def test_the_closed_forms_build_no_quotient(zoo, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a quotient")

    monkeypatch.setattr(coh, "quotient_group", refuse)
    monkeypatch.setattr(coh, "induced_quotient_action", refuse)
    # a transposition normally generates S3, and so does the full group
    s3 = zoo["S3"]
    transposition = min(x for x in range(s3.order) if s3.element_order(x) == 2)
    sign = corpus._action_options(s3, FAG((3,)))["negation"]
    cases = [
        (coh.trivial_module(zoo["V4"], FAG((2,))), [], (2, 2), (2, 2, 2)),
        (negation_action(zoo["C4"], FAG((4,)), 1), [], (2,), (2,)),
        (corpus._action_module(s3, FAG((3,)), sign), [transposition], (3,), (3,)),
    ]
    for m, closing, h1, h2 in cases:
        g = m.group
        closing = [gr.full_subgroup(g)] + [gr.subgroup_from_generators(g, [x]) for x in closing]
        for degree, factors in ((1, h1), (2, h2)):
            for u in closing:
                nr = coh.unramified_subgroup(m, u, degree)
                assert nr.ambient.factors == factors and nr.gens == ()
            nr = coh.unramified_subgroup(m, gr.trivial_subgroup(g), degree)
            assert nr.ambient.factors == factors and nr.order == nr.ambient.order
    v4 = zoo["V4"]
    with pytest.raises(AssertionError, match="built a quotient"):
        coh.unramified_subgroup(coh.trivial_module(v4, FAG((2,))), gr.subgroup_from_generators(v4, [1]), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda m, u: coh.inflation(m, u, 1),
        lambda m, u: coh.restriction(m, u, 1),
        lambda m, u: coh.fixed_submodule(m, u),
        lambda m, u: gr.quotient_group(m.group, u),
        lambda m, u: coh.unramified_subgroup(m, u, 1),
    ],
    ids=["inflation", "restriction", "fixed_submodule", "quotient_group", "unramified_subgroup"],
)
def test_a_subgroup_of_another_group_is_refused(call):
    # {0, 2} is a normal subgroup of C4, and its elements are closed under
    # the product of V4 too, so only the parent check can tell them apart
    c4, v4 = gr.cyclic_group(4), gr.abelian_group_from_factors((2, 2))
    u = gr.subgroup_from_generators(c4, [2])
    m = coh.trivial_module(v4, FAG((2,)))
    with pytest.raises(NotASubgroup, match="different group"):
        call(m, u)


def test_a_cohomology_group_is_frozen_and_its_representatives_one_stack(zoo):
    m = coh.trivial_module(zoo["V4"], FAG((2,)))
    for degree, count in ((1, 2), (2, 3)):
        h = coh.cohomology(m, degree)
        reps = h.representatives
        assert reps.shape == (count,) + (4,) * degree + (1,) and reps.dtype == np.int64
        with pytest.raises(ValueError):
            reps[(0,) * reps.ndim] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.value = FAG(())


def test_trivial_modules_are_built_once_per_pair(zoo):
    assert coh.trivial_module(zoo["S3"], FAG((6,))) is coh.trivial_module(zoo["S3"], FAG((6,)))


def test_coinduced_examples(zoo):
    c2 = zoo["C2"]
    cm = coh.coinduced_module(coh.trivial_module(c2, FAG((2,))))
    assert cm.module.coeff.factors == (2, 2)
    assert cm.quotient.coeff.factors == (2,)
    assert cm.quotient.is_trivial_action()
    cm = coh.coinduced_module(coh.trivial_module(gr.trivial_group(), FAG((4,))))
    assert cm.module.coeff.factors == (4,)
    assert cm.quotient.coeff.factors == ()
    cm = coh.coinduced_module(coh.trivial_module(c2, FAG((3,))))
    assert cm.module.coeff.factors == (3, 3)
    assert cm.quotient.coeff.factors == (3,)


def test_coinduced_embedding_is_equivariant(zoo):
    for g, a in [(zoo["C4"], FAG((2,))), (zoo["S3"], FAG((6,)))]:
        m = coh.trivial_module(g, a)
        cm = coh.coinduced_module(m)
        for x in range(g.order):
            for vec in a.elements():
                lhs = cm.module.act(x, cm.embedding.apply(vec))
                rhs = cm.embedding.apply(m.act(x, vec))
                assert lhs == rhs


def test_coinduced_acyclic(zoo):
    for g, a in [
        (zoo["C2"], FAG((2,))),
        (zoo["C4"], FAG((4,))),
        (zoo["S3"], FAG((6,))),
        (zoo["V4"], FAG((2,))),
    ]:
        cm = coh.coinduced_module(coh.trivial_module(g, a))
        assert coh.cohomology(cm.module, 1).value.factors == ()


def test_dimension_shift_examples(zoo):
    rep = coh.dimension_shift_check(coh.trivial_module(zoo["C2"], FAG((2,))))
    assert rep.passed and rep.h2_factors == (2,)
    rep = coh.dimension_shift_check(coh.trivial_module(zoo["C2"], FAG((3,))))
    assert rep.passed and rep.h2_factors == ()
    rep = coh.dimension_shift_check(coh.trivial_module(gr.trivial_group(), FAG((2,))))
    assert rep.passed


def test_dimension_shift_refuses_before_building_maps(monkeypatch):
    # Maps(C128, (Z/2)^2) would be 128 * 256^2 int64 entries; H^2's cap
    # check refuses first, with its own message, and caches nothing
    def build(m):
        raise AssertionError("Maps(G, A) was built")

    monkeypatch.setattr(coh, "coinduced_module", build)
    m = coh.trivial_module(gr.cyclic_group(128), FAG((2, 2)))
    size = coh.dimension_shift_check.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SizeCapExceeded, match=r"\|G\|\^2 \* rank = 32768 exceeds the cohomology cap 20000"):
            coh.dimension_shift_check(m)
    assert coh.dimension_shift_check.cache_info().currsize == size


def test_shifted_cohomology(zoo):
    m = coh.trivial_module(zoo["C2"], FAG((2,)))
    assert coh.shifted_cohomology(m, 3).value.factors == (2,)
    assert coh.shifted_cohomology(m, 4).value.factors == (2,)
    # H^odd(C3, Z/3) = Z/3 for the trivial action
    m3 = coh.trivial_module(zoo["C3"], FAG((3,)))
    assert coh.shifted_cohomology(m3, 3).value.factors == (3,)
    assert coh.shifted_cohomology(coh.trivial_module(zoo["C2"], FAG((3,))), 3).value.factors == ()


def test_h1_is_hom_for_trivial_modules(zoo):
    # for trivial Z/p coefficients H^1 is dual to the mod-p abelianization
    for g in zoo.values():
        for p in (2, 3):
            m = coh.trivial_module(g, FAG((p,)))
            h1 = coh.cohomology(m, 1)
            ab, _ = gr.abelianization(g)
            expected = tuple(p for d in ab.factors if d % p == 0)
            assert h1.value.factors == expected


def test_size_cap(zoo):
    m = coh.trivial_module(zoo["Heis27"], FAG((3,)))
    with pytest.raises(SizeCapExceeded):
        coh.cohomology(m, 2, cap=10)
    with pytest.raises(PreconditionError):
        coh.cohomology(m, 0)


def test_the_zero_answer_follows_the_cap_and_builds_no_presentation(zoo, monkeypatch):
    # |G| coprime to exp(A), A = 0 and G = 1 all give 0 with no presentation,
    # but only after the cap has been checked
    for coeff in (FAG((2,)), FAG(())):
        with pytest.raises(SizeCapExceeded):
            coh.cohomology(coh.trivial_module(zoo["Heis27"], coeff), 2, cap=10)

    def refuse(g):
        raise AssertionError("built a presentation")

    monkeypatch.setattr(coh, "free_presentation", refuse)
    c7 = gr.cyclic_group(7)
    for g, coeff in ((c7, FAG((4,))), (c7, FAG(())), (gr.trivial_group(), FAG((5,)))):
        m = coh.trivial_module(g, coeff)
        for degree in (1, 2):
            h = coh.cohomology(m, degree)
            assert h.value.factors == ()
            reps = h.representatives
            assert reps.shape == (0,) + (g.order,) * degree + (coeff.rank,)
            assert reps.dtype == np.int64 and not reps.flags.writeable
            assert h.classify(np.zeros((g.order,) * degree + (coeff.rank,), dtype=np.int64)) == ()


def test_module_from_generator_matrices_requires_generation(zoo):
    with pytest.raises(PreconditionError):
        coh.module_from_generator_matrices(zoo["C4"], FAG((3,)), {2: ((-1,),)})


def test_degree2_inflation_five_term_prediction(zoo):
    # res: H1(C4, Z/4) -> H1(<2>, Z/4) is onto (the order-4 character
    # restricts to the nontrivial character), so the transgression is
    # zero and the degree-2 inflation embeds H2(C2, Z/4) = Z/2
    c4 = zoo["C4"]
    n = gr.subgroup_from_generators(c4, [2])
    m = coh.trivial_module(c4, FAG((4,)))
    infl = coh.inflation(m, n, 2)
    assert infl.source.factors == (2,)
    assert infl.is_injective() and infl.image().order == 2


def test_degree2_restriction_carry_cocycle(zoo):
    # the generator of H2(C4, Z/2) is the carry factor set of C8 -> C4,
    # f(i, j) = [i + j >= 4]; on the subgroup {0, 2} it keeps
    # f(2, 2) = 1, which presents C4 as a nontrivial extension of C2,
    # so the restriction map is an isomorphism here
    c4 = zoo["C4"]
    n = gr.subgroup_from_generators(c4, [2])
    m = coh.trivial_module(c4, FAG((2,)))
    res = coh.restriction(m, n, 2)
    assert res.is_injective() and res.is_surjective()


def test_inconsistent_redundant_action_rejected(zoo):
    from corprod.errors import InvariantViolation

    c4 = zoo["C4"]
    neg = ((-1,),)
    ident = ((1,),)
    with pytest.raises((PreconditionError, InvariantViolation)):
        coh.module_from_generator_matrices(c4, FAG((3,)), {1: neg, 2: neg})
    # a consistent redundant listing is fine: act(2) = act(1)^2 = identity
    m = coh.module_from_generator_matrices(c4, FAG((3,)), {1: neg, 2: ident})
    assert m.act(3, (1,)) == (2,)


def _inverse_3x3(a, q):
    cof = [
        [
            a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
            - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]
    det_inv = pow(sum(a[0][j] * cof[0][j] for j in range(3)), -1, q)
    return [[cof[j][i] * det_inv % q for j in range(3)] for i in range(3)]


def _mat_mul_mod(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def test_module_validation_refuses_rather_than_wraps():
    # M = P.diag(1, -1, 1).P^-1 has order 2 on (Z/q)^3 with q = 2^31 - 1;
    # validated with wrapping int64 products, one of these 20 was rejected
    # as "not a homomorphism"
    q = 2**31 - 1
    g = gr.cyclic_group(2)
    coeff = FAG((q, q, q))
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    rng = random.Random(1)
    outcomes = set()
    for _ in range(20):
        while True:
            p = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            try:
                p_inv = _inverse_3x3(p, q)
                break
            except ValueError:  # singular mod q
                continue
        diag = [[1, 0, 0], [0, q - 1, 0], [0, 0, 1]]
        m = _mat_mul_mod(_mat_mul_mod(p, diag, q), p_inv, q)
        assert _mat_mul_mod(m, m, q) == [list(row) for row in ident]
        acts = [ident, ident]
        acts[1 - g.identity] = tuple(map(tuple, m))
        try:
            coh.GModule(g, coeff, tuple(acts))
            outcomes.add("accepted")
        except SizeCapExceeded as exc:
            assert "2^63" in str(exc)
            outcomes.add("refused")
    assert outcomes == {"accepted", "refused"}


def test_actions_equal_mod_the_factors_are_one_module(zoo):
    # the matrices differ by multiples of the row factors 2 and 6, and
    # one entry is far past int64
    c6, coeff = zoo["C6"], FAG((2, 6))
    small = negation_action(c6, coeff, 1)
    shifted = [
        [[x + 2 * (i + 1) for x in mat[0]], [x - 6 * 10**30 for x in mat[1]]]
        for i, mat in enumerate(small.action.tolist())
    ]
    big = coh.GModule(c6, coeff, shifted)
    assert big == small and hash(big) == hash(small)
    assert big.action.dtype == np.int64
    assert (big.action < np.array(coeff.factors)[:, None]).all()
    coh._cohomology_cached.cache_clear()
    h_small = coh.cohomology(small, 2)
    hits = coh._cohomology_cached.cache_info().hits
    assert coh.cohomology(big, 2) is h_small
    assert coh._cohomology_cached.cache_info().hits == hits + 1


def test_the_action_array_is_read_only(zoo):
    m = negation_action(zoo["C4"], FAG((3,)), 1)
    with pytest.raises(ValueError):
        m.action[1, 0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.action = np.eye(1, dtype=np.int64)[None].repeat(4, axis=0)
    assert m.act(1, (1,)) == (2,)


@pytest.mark.parametrize(
    "action",
    [
        [[[1]]] * 3,  # one matrix short
        [[[1, 0]]] * 4,  # not square
        [[[1]], [[2]], [[1]], [[2, 0]]],  # ragged
        [[[1.0]]] * 4,  # not integers
    ],
)
def test_wrong_action_shapes_are_refused(zoo, action):
    with pytest.raises(InvariantViolation):
        coh.GModule(zoo["C4"], FAG((3,)), action)


def test_rank_zero_modules_build(zoo):
    g = zoo["S3"]
    for action in ([()] * g.order, np.zeros((g.order, 0, 0), dtype=np.int64)):
        m = coh.GModule(g, FAG(()), action)
        assert m.action.shape == (g.order, 0, 0)
        assert m == coh.trivial_module(g, FAG(())) and m.is_trivial_action()
        assert coh.cohomology(m, 2).value.factors == ()
        assert coh.fixed_submodule(m, gr.Subgroup(g, tuple(range(g.order)))).structure.factors == ()
