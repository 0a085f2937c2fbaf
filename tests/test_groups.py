"""Finite group arithmetic, with brute-force oracles for the derived values."""

import random
import tracemalloc

import numpy as np
import pytest

from corprod import groups as gr
from corprod.errors import InvariantViolation, NotASubgroup, NotNormal, SizeCapExceeded


def brute_normal_closure(g, sub_elements):
    """Independent oracle: close the conjugate orbit under products."""
    gens = {g.mul(g.mul(x, a), g.inv[x]) for x in range(g.order) for a in sub_elements}
    closure = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(closure)


def brute_commutator_subgroup(g):
    gens = {
        g.mul(g.mul(g.mul(a, b), g.inv[a]), g.inv[b]) for a in range(g.order) for b in range(g.order)
    }
    closure = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(closure)


def brute_normal_subgroups(g):
    """Every normal subgroup, as the joins of the normal closures of
    single elements."""
    found = {brute_normal_closure(g, (x,)) for x in range(g.order)}
    frontier = set(found)
    while frontier:
        frontier = {brute_normal_closure(g, a | b) for a in frontier for b in found} - found
        found |= frontier
    return sorted(found, key=sorted)


def reference_quotient(g, n):
    """The coset loop the array form replaced: G/N's table and the
    projection's images, cosets numbered by their least elements."""
    rep_of = {}
    for x in range(g.order):
        if x in rep_of:
            continue
        coset = sorted(g.mul(a, x) for a in n.elements)
        for y in coset:
            rep_of[y] = coset[0]
    reps = sorted(set(rep_of.values()))
    index = {r: i for i, r in enumerate(reps)}
    table = tuple(tuple(index[rep_of[g.mul(a, b)]] for b in reps) for a in reps)
    return table, tuple(index[rep_of[x]] for x in range(g.order))


def reference_hom_refusal(s, t, images):
    """The pair loop the generator rule replaced: None for a homomorphism,
    else the message it refused with."""
    if len(images) != s.order:
        return "image list has wrong length"
    if any(not 0 <= x < t.order for x in images):
        return "image index out of range"
    if images[s.identity] != t.identity:
        return "identity is not mapped to the identity"
    for a in range(s.order):
        for b in range(s.order):
            if images[s.mul(a, b)] != t.mul(images[a], images[b]):
                return f"not a homomorphism at pair ({a},{b})"
    return None


def both_zoos(zoo):
    from corprod.corpus import _zoo

    return {**{f"corpus-{k}": g for k, g in _zoo().items()}, **zoo}


def test_closure_examples():
    c3 = gr.group_from_generators(3, [(1, 2, 0)])
    assert c3.order == 3
    d4 = gr.group_from_generators(4, [(1, 2, 3, 0), (2, 1, 0, 3)])
    assert d4.order == 8
    assert gr.group_from_generators(1, []).order == 1


def test_an_unbacked_degree_is_refused_before_allocation():
    # 10^9 points would take gigabytes as a tuple; the refusal builds nothing
    tracemalloc.start()
    try:
        for gens in ([(1, 0)], [(1, 2, 0), (0, 1)], []):
            with pytest.raises(InvariantViolation, match="^degree 1000000000 is not the length"):
                gr.group_from_generators(10**9, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(InvariantViolation, match="not the length"):
        gr.group_from_generators(3, [(1, 0, 2), (1, 0)])


def test_closure_cap(monkeypatch):
    s6 = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
    monkeypatch.setattr(gr, "DEFAULT_ORDER_CAP", 720)
    assert gr.group_from_generators(6, s6).order == 720
    monkeypatch.setattr(gr, "DEFAULT_ORDER_CAP", 719)
    with pytest.raises(SizeCapExceeded, match="order cap 719"):
        gr.group_from_generators(6, s6)
    monkeypatch.undo()
    # S10's 3628800^2 table would take 100 TB; the walk stops at the cap
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="order cap 2000"):
            gr.group_from_generators(10, [(1, 0, *range(2, 10)), (*range(1, 10), 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def reference_permutation_table(degree, generators):
    """The level-by-level closure and the n^2 composition table that
    :func:`gr.group_from_generators` fills by gathers along its tree."""
    idp = tuple(range(degree))
    elems, seen, frontier = [idp], {idp: 0}, [idp]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple(x[g[i]] for i in range(degree))
                if y not in seen:
                    seen[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(tuple(seen[tuple(a[b[i]] for i in range(degree))] for b in elems) for a in elems)


def test_permutation_tables_match_the_composition_loop():
    cases = {
        "S5": (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
        # seven disjoint transpositions of 14 points
        "C2^7": (14, [tuple(j ^ 1 if j // 2 == i else j for j in range(14)) for i in range(7)]),
        "repeats": (4, [(1, 2, 3, 0), (1, 2, 3, 0), (0, 1, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)]),
        "degree 1": (1, []),
    }
    for name, (degree, gens) in cases.items():
        g = gr.group_from_generators(degree, gens)
        assert g.table == reference_permutation_table(degree, gens), name


def test_normal_closure_examples(zoo):
    c4 = zoo["C4"]
    s = gr.subgroup_from_generators(c4, [2])
    assert gr.normal_closure(c4, s).elements == s.elements

    d4 = zoo["D4"]
    refl = min(
        x
        for x in range(d4.order)
        if d4.element_order(x) == 2
        and any(d4.mul(x, y) != d4.mul(y, x) for y in range(d4.order))
    )
    sub = gr.subgroup_from_generators(d4, [refl])
    nc = gr.normal_closure(d4, sub)
    assert nc.order == 4
    assert set(nc.elements) == set(brute_normal_closure(d4, sub.elements))

    assert gr.normal_closure(d4, gr.trivial_subgroup(d4)).order == 1


def test_normal_closure_random_properties(zoo, rng):
    groups = list(zoo.values())
    for _ in range(60):
        g = rng.choice(groups)
        gens = rng.sample(range(g.order), k=rng.randint(0, 2))
        s = gr.subgroup_from_generators(g, gens)
        nc = gr.normal_closure(g, s)
        assert nc.is_normal()
        assert set(s.elements) <= set(nc.elements)
        assert (nc.elements == s.elements) == s.is_normal()
        assert set(nc.elements) == set(brute_normal_closure(g, s.elements))


def test_quotient_examples(zoo):
    c4 = zoo["C4"]
    q, proj = gr.quotient_group(c4, gr.subgroup_from_generators(c4, [2]))
    assert q.order == 2 and proj.is_surjective() and proj.kernel().order == 2

    d4 = zoo["D4"]
    center = tuple(
        x for x in range(d4.order) if all(d4.mul(x, y) == d4.mul(y, x) for y in range(d4.order))
    )
    q, proj = gr.quotient_group(d4, gr.Subgroup(d4, center))
    assert q.order == 4
    assert all(q.element_order(x) <= 2 for x in range(q.order))

    q, _ = gr.quotient_group(c4, gr.full_subgroup(c4))
    assert q.order == 1

    # one object per (G, N): equal inputs built afresh hit the memo
    d4_again = gr.dihedral_group(4)
    again = gr.quotient_group(d4_again, gr.Subgroup(d4_again, center))
    assert again is gr.quotient_group(d4, gr.Subgroup(d4, center))
    assert proj.preimage({q.identity}) == proj.kernel().elements == center


def test_quotient_and_projection_match_the_reference_loops(zoo):
    corruptions = refused = 0
    for name, g in both_zoos(zoo).items():
        for elements in brute_normal_subgroups(g):
            n = gr.Subgroup(g, tuple(elements))
            q, proj = gr.quotient_group(g, n)
            table, images = reference_quotient(g, n)
            assert (q.table, proj.images) == (table, images), (name, elements)
            # every single-entry corruption of the projection, out of range too
            for x in range(g.order):
                for v in range(-1, q.order + 1):
                    if v == images[x]:
                        continue
                    bad = images[:x] + (v,) + images[x + 1 :]
                    try:
                        gr.GroupHom(g, q, bad)
                        got = None
                    except InvariantViolation as exc:
                        got = str(exc)
                    assert got == reference_hom_refusal(g, q, bad), (name, elements, x, v)
                    corruptions += 1
                    refused += got is not None
    assert corruptions == 6336 and 0 < refused < corruptions


def test_quotient_needs_normal(zoo):
    d4 = zoo["D4"]
    refl = min(
        x
        for x in range(d4.order)
        if d4.element_order(x) == 2
        and any(d4.mul(x, y) != d4.mul(y, x) for y in range(d4.order))
    )
    before = gr.quotient_group.cache_info().currsize
    for _ in range(2):  # a refusal is not memoized: it raises every time
        with pytest.raises(NotNormal):
            gr.quotient_group(d4, gr.subgroup_from_generators(d4, [refl]))
    assert gr.quotient_group.cache_info().currsize == before


def test_order_multiplicativity(zoo, rng):
    for _ in range(40):
        g = rng.choice(list(zoo.values()))
        s = gr.subgroup_from_generators(g, rng.sample(range(g.order), k=rng.randint(0, 2)))
        n = gr.normal_closure(g, s)
        q, _ = gr.quotient_group(g, n)
        assert g.order == n.order * q.order


def test_abelianization_examples(zoo):
    a, m = gr.abelianization(zoo["Heis27"])
    assert a.factors == (3, 3)
    kernel = {x for x in range(27) if m.apply(x) == a.zero}
    assert kernel == set(brute_commutator_subgroup(zoo["Heis27"]))

    a, m = gr.abelianization(zoo["C4"])
    assert a.factors == (4,)
    assert [x for x in range(4) if m.apply(x) == a.zero] == [0]

    a, _ = gr.abelianization(zoo["D4"])
    assert a.factors == (2, 2)
    a, _ = gr.abelianization(zoo["Q8"])
    assert a.factors == (2, 2)
    a, _ = gr.abelianization(zoo["S3"])
    assert a.factors == (2,)


def test_abelianization_order_and_kernel(zoo):
    for g in zoo.values():
        a, m = gr.abelianization(g)
        comm = brute_commutator_subgroup(g)
        assert a.order == g.order // len(comm)
        assert {x for x in range(g.order) if m.apply(x) == a.zero} == set(comm)
        # the projection kills every commutator and is a homomorphism
        for x in range(g.order):
            for y in range(g.order):
                lhs = m.apply(g.mul(x, y))
                rhs = a.add(m.apply(x), m.apply(y))
                assert lhs == rhs


def test_array_is_a_read_only_view_of_the_table(zoo):
    for g in zoo.values():
        arr = g.array
        assert arr is g.array and arr.dtype == np.int64
        assert arr.tolist() == [list(row) for row in g.table]
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_table_validation_rejects_any_single_corruption(zoo, rng):
    d4 = zoo["D4"]
    table = [list(r) for r in d4.table]
    gr.validate_cayley_table(table)
    for _ in range(60):
        i, j = rng.randrange(8), rng.randrange(8)
        new = rng.randrange(8)
        if new == table[i][j]:
            continue
        old, table[i][j] = table[i][j], new
        with pytest.raises(InvariantViolation):
            gr.validate_cayley_table(table)
        table[i][j] = old


def test_group_from_table_roundtrip(zoo):
    d4 = zoo["D4"]
    rebuilt = gr.group_from_table([list(r) for r in d4.table])
    assert rebuilt.table == d4.table


def test_non_associative_latin_square_rejected():
    # a quasigroup with identity (loop) of order 5 that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvariantViolation):
        gr.validate_cayley_table(table)


def test_generating_sets(zoo):
    for g in zoo.values():
        s = gr.generating_set(g)
        assert len(gr.subgroup_from_generators(g, s).elements) == g.order
    assert len(gr.generating_set(zoo["Heis27"])) == 2


def reference_generating_set(g):
    """The greedy loop of :func:`gr.generating_set` with a validated
    Subgroup per candidate, kept to pin the generators it chooses."""
    if g.order == 1:
        return ()
    gens, closure = [], {g.identity}
    if g.order <= 128:
        cent = {
            x: sum(1 for y in range(g.order) if g.mul(x, y) == g.mul(y, x))
            for x in range(g.order)
        }
        while len(closure) < g.order:
            best, best_key = None, None
            for x in range(g.order):
                if x in closure:
                    continue
                size = len(gr.subgroup_from_generators(g, gens + [x]).elements)
                key = (-size, cent[x], x)
                if best_key is None or key < best_key:
                    best, best_key = x, key
            gens.append(best)
            closure = set(gr.subgroup_from_generators(g, gens).elements)
        return tuple(gens)
    order = {x: g.element_order(x) for x in range(g.order)}
    for x in sorted(range(g.order), key=lambda x: (-order[x], x)):
        if x in closure:
            continue
        gens.append(x)
        closure = set(gr.subgroup_from_generators(g, gens).elements)
        if len(closure) == g.order:
            break
    return tuple(gens)


def test_generating_set_matches_the_reference_loop(zoo):
    from corprod.corpus import _zoo

    groups = {
        "A4": gr.group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
        "S4": gr.symmetric_group(4),
        "D16": gr.dihedral_group(16),
        "Q8": gr.quaternion_group(),
        "C2^5": gr.abelian_group_from_factors((2,) * 5),
        "C2^6": gr.abelian_group_from_factors((2,) * 6),
        "C2^7": gr.abelian_group_from_factors((2,) * 7),
        "D64": gr.dihedral_group(64),  # order 128, the last the greedy search takes
        "C3^4": gr.abelian_group_from_factors((3,) * 4),
        "C4^3": gr.abelian_group_from_factors((4,) * 3),
        "C2^8": gr.abelian_group_from_factors((2,) * 8),  # past the greedy search
        **{f"corpus-{k}": g for k, g in _zoo().items()},
        **zoo,
    }
    for name, g in groups.items():
        assert gr.generating_set(g) == reference_generating_set(g), name


def check_spanning_tree(g, elems):
    """The tree against the level sets of the Cayley graph of <elems>."""
    depth, level, d = {g.identity: 0}, {g.identity}, 0
    while level:
        level, d = {g.mul(x, e) for x in level for e in elems} - depth.keys(), d + 1
        depth.update((y, d) for y in level)
    tree = gr.spanning_tree(g, elems)
    ends = [y for _, _, y in tree]
    assert all(y == g.mul(x, elems[s]) for x, s, y in tree)
    assert sorted(ends) == sorted(depth.keys() - {g.identity})
    reached = [g.identity, *ends]
    # breadth-first: ends by depth, and each end from the earliest reached
    # element, by the first index, that leads to it
    assert [depth[y] for y in ends] == sorted(depth[y] for y in ends)
    assert all(depth[y] == depth[x] + 1 for x, _, y in tree)
    assert [(reached.index(x), s) for x, s, _ in tree] == sorted(
        (reached.index(x), s) for x, s, _ in tree
    )
    for x, s, y in tree:
        firsts = [
            (i, t) for i, z in enumerate(reached[: reached.index(y)])
            for t, e in enumerate(elems) if g.mul(z, e) == y
        ]
        assert firsts[0] == (reached.index(x), s)
    return tree


def test_spanning_tree(zoo):
    for g in zoo.values():
        assert len(check_spanning_tree(g, list(g.generators))) == g.order - 1
        every = check_spanning_tree(g, list(range(g.order)))
        assert every == [(g.identity, x, x) for x in range(1, g.order)]
    d4, heis = zoo["D4"], zoo["Heis27"]
    # non-generating lists, lists with repeats, the empty list
    for x in range(1, d4.order):
        assert len(check_spanning_tree(d4, [x])) == d4.element_order(x) - 1
    assert len(check_spanning_tree(heis, [heis.generators[0]] * 3)) == 2
    gens = list(heis.generators)
    assert check_spanning_tree(heis, gens + gens + [gens[0]]) == gr.spanning_tree(heis, gens)
    assert check_spanning_tree(d4, []) == []


def test_generators_and_abelianization_are_computed_once(monkeypatch):
    from corprod.cohomology import trivial_module
    from corprod.abelian import FiniteAbelianGroup as FAG

    g = gr.dihedral_group(4)  # a fresh group: nothing cached on it yet
    trivial_module(g, FAG((2,)))
    calls = []
    original = gr.generating_set
    monkeypatch.setattr(gr, "generating_set", lambda *a: calls.append(a) or original(*a))
    trivial_module(g, FAG((3,)))
    assert calls == [] and g.generators == original(g)
    first = gr.abelianization(g)
    assert gr.abelianization(g) is first and g.abelianization is first


def test_enumerated_structure(zoo, rng):
    g = zoo["C2xC4"]
    st = gr.abelian_structure_from_elements(list(range(8)), g.mul, 0)
    assert st.factors == (2, 4)
    for _ in range(40):
        a, b = rng.randrange(8), rng.randrange(8)
        ca, cb = st.coordinates(a), st.coordinates(b)
        cab = st.coordinates(g.mul(a, b))
        assert cab == tuple((x + y) % f for x, y, f in zip(ca, cb, st.factors))
    # ``element`` inverts ``coordinates``, reading each coordinate mod its factor
    for x in range(8):
        c = st.coordinates(x)
        assert st.element(c) == x
        assert st.element([ci + 3 * f for ci, f in zip(c, st.factors)]) == x


def test_direct_product(zoo):
    g = gr.direct_product(zoo["C2"], zoo["C3"])
    assert g.order == 6
    a, _ = gr.abelianization(g)
    assert a.factors == (6,)
    g = gr.direct_product(zoo["S3"], zoo["C2"])
    assert g.order == 12
    a, _ = gr.abelianization(g)
    assert a.factors == (2, 2)


def test_subgroup_checks_every_range_before_any_product():
    c4 = gr.cyclic_group(4)
    for elements in ((0, 100), (0, 2, 4), (-1, 0)):
        bad = max(elements) if max(elements) >= 4 else min(elements)
        with pytest.raises(NotASubgroup, match=f"element {bad} out of range"):
            gr.Subgroup(c4, elements)
