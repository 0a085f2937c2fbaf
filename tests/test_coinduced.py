"""Coinduced modules, the connecting map and coboundary assembly against
dense reference implementations.

The library builds Maps(G, A) as a coordinate permutation, takes the
shifted module A' to be the maps vanishing at 1, reads the connecting
map's preimages at the identity coordinates and assembles the H^1
coboundaries and the H^2 denominator in bulk from each module's action
array.  The references below do the same work the direct way: one dense
matrix per group element, a general quotient presentation of
Maps(G, A)/A, one ``act`` per vector and one congruence solve per pair of
group elements.  Maps(G, A), its embedding and the cohomology engines
must match them exactly; A' and the connecting map must match them through
the reference projection, over every corpus group, module and named
action, and over a few actions by non-symmetric matrices.
"""

import numpy as np
import pytest

import corprod.cohomology as coh
from conftest import WordRewriting, scale
from corprod import corpus, lattice, modular
from corprod.abelian import AbHom
from corprod.abelian import FiniteAbelianGroup as FAG
from corprod.errors import InvariantViolation, SizeCapExceeded, VerificationFailure
from corprod.presentation import free_presentation


def ref_coinduced(m):
    """Maps(G, A) with dense translation matrices; returns (module,
    embedding, projection, lift, quotient)."""
    g, a = m.group, m.coeff
    n, r = g.order, a.rank
    factors = tuple(d for d in a.factors for _ in range(n))
    coind_ab = FAG(factors)
    acts = []
    for x in range(n):
        mat = [[0] * (n * r) for _ in range(n * r)]
        for i in range(r):
            for y in range(n):
                mat[i * n + y][i * n + g.mul(y, x)] = 1
        acts.append(tuple(tuple(row) for row in mat))
    coind = coh.GModule(g, coind_ab, tuple(acts))
    emb_cols = []
    for i in range(r):
        e_i = tuple(1 if j == i else 0 for j in range(r))
        vec = [0] * (n * r)
        for x in range(n):
            img = m.act(x, e_i)
            for j in range(r):
                vec[j * n + x] = img[j]
        emb_cols.append(tuple(vec))
    embedding = AbHom(
        a, coind_ab, tuple(tuple(emb_cols[j][i] for j in range(r)) for i in range(n * r))
    )
    qpres = modular.quotient_presentation(factors, emb_cols)
    quotient_ab = FAG(qpres.factors)
    rq = quotient_ab.rank
    basis = [tuple(1 if j == i else 0 for j in range(n * r)) for i in range(n * r)]
    proj_cols = [qpres.classify(b) for b in basis]
    projection = AbHom(
        coind_ab,
        quotient_ab,
        tuple(tuple(proj_cols[j][i] for j in range(n * r)) for i in range(rq)),
    )
    lift = tuple(tuple(qpres.reps[j][i] for j in range(rq)) for i in range(n * r))
    q_acts = []
    for x in range(n):
        cols = [projection.apply(coind.act(x, qpres.reps[j])) for j in range(rq)]
        q_acts.append(tuple(tuple(cols[j][i] for j in range(rq)) for i in range(rq)))
    quotient = coh.GModule(g, quotient_ab, tuple(q_acts))
    return coind, embedding, projection, lift, quotient


def ref_connecting_matrix(m, coind, embedding, lift, quotient):
    """The shift map H^1(G, A') -> H^2(G, A) with one solve per pair."""
    g, a = m.group, m.coeff
    big = coind.coeff
    h1q = coh.cohomology(quotient, 1)
    h2 = coh.cohomology(m, 2)
    solver = modular.CongruenceSolver(embedding.matrix, big.factors, a.factors)
    cols = []
    for rep in h1q.representatives:
        lifted = tuple(big.reduce(lattice.mat_vec(lift, rep[x])) for x in range(g.order))
        table = []
        for x in range(g.order):
            row = []
            for y in range(g.order):
                v = big.add(
                    big.add(lifted[x], coind.act(x, lifted[y])),
                    scale(big, -1, lifted[g.mul(x, y)]),
                )
                pre = solver.solve(v)
                assert pre is not None
                row.append(a.reduce(pre))
            table.append(tuple(row))
        cols.append(h2.classify(tuple(table)))
    return tuple(tuple(c[i] for c in cols) for i in range(h2.value.rank))


def ref_h1(m):
    """Factors and generator values of the H^1 representatives."""
    a = m.coeff
    pres = free_presentation(m.group)
    ref = WordRewriting(pres)
    r, k = a.rank, len(pres.gens)
    rows, row_moduli = [], []
    for e in range(pres.rank):
        block = [[0] * (k * r) for _ in range(r)]
        for sign, prefix, s in ref.derivation_terms(e):
            mat = m.action[prefix]
            for i in range(r):
                for j in range(r):
                    block[i][s * r + j] += sign * mat[i][j]
        rows.extend(tuple(row) for row in block)
        row_moduli.extend(a.factors)
    col_moduli = a.factors * k
    z1 = modular.congruence_kernel(rows, row_moduli, col_moduli)
    b1 = []
    for i in range(r):
        e_i = tuple(1 if j == i else 0 for j in range(r))
        vec = []
        for s in range(k):
            img = m.act(pres.gens[s], e_i)
            vec.extend((img[j] - e_i[j]) % a.factors[j] for j in range(r))
        b1.append(tuple(vec))
    sq = modular.subquotient(col_moduli, z1, b1)
    return sq.factors, sq.reps


def ref_h2(m):
    """Factors and representative tables of H^2."""
    g, a = m.group, m.coeff
    pres = free_presentation(g)
    ref = WordRewriting(pres)
    r, rho = a.rank, pres.rank
    col_moduli = a.factors * rho
    rows, row_moduli = [], []
    for s, gelt in enumerate(pres.gens):
        # s n_e s^-1 by Reidemeister rewriting, not the library's table
        conj = [ref.rewrite((s + 1,) + ref.edge_word(e) + (-(s + 1),)) for e in range(rho)]
        mat = m.action[gelt]
        for e in range(rho):
            block = [[0] * (rho * r) for _ in range(r)]
            for e2 in range(rho):
                if conj[e][e2]:
                    for i in range(r):
                        block[i][e2 * r + i] += conj[e][e2]
            for i in range(r):
                for j in range(r):
                    block[i][e * r + j] -= mat[i][j]
            rows.extend(tuple(row) for row in block)
            row_moduli.extend(a.factors)
    hom_gens = modular.congruence_kernel(rows, row_moduli, col_moduli)
    den = []
    derivs = [ref.derivation_terms(e) for e in range(rho)]
    for s0 in range(len(pres.gens)):
        for i in range(r):
            e_i = tuple(1 if j == i else 0 for j in range(r))
            vec = [0] * (rho * r)
            for e in range(rho):
                acc = a.zero
                for sign, prefix, s in derivs[e]:
                    if s == s0:
                        term = m.act(prefix, e_i)
                        acc = a.add(acc, term if sign > 0 else scale(a, -1, term))
                vec[e * r : (e + 1) * r] = acc
            den.append(tuple(vec))
    sq = modular.subquotient(col_moduli, hom_gens, den)
    tables = []
    for phi in sq.reps:
        table = []
        for x in range(g.order):
            row = []
            for y in range(g.order):
                acc = a.zero
                for e, c in enumerate(ref.pair_vector(x, y)):
                    acc = a.add(acc, scale(a, c, phi[e * r : (e + 1) * r]))
                row.append(acc)
            table.append(tuple(row))
        tables.append(tuple(table))
    return sq.factors, tuple(tables)


def corpus_modules():
    """Every corpus group with every named action on every corpus module."""
    for gname, g in corpus._zoo().items():
        for factors in corpus._MODULES:
            a = FAG(factors)
            for aname, option in corpus._action_options(g, a).items():
                yield f"{gname}-{factors}-{aname}", corpus._action_module(g, a, option)


def unipotent_modules():
    """Actions by non-symmetric matrices, which the corpus's diagonal and
    swap actions never use: only these tell rows from columns."""
    zoo = corpus._zoo()
    for gname, factors, order, mat in [
        ("C2", (2, 2), 2, ((1, 1), (0, 1))),
        ("S3", (2, 4), 2, ((1, 0), (2, 1))),
        ("D4", (2, 4), 2, ((1, 1), (0, 1))),
        ("A4", (3, 3), 3, ((1, 1), (0, 1))),
    ]:
        g, a = zoo[gname], FAG(factors)
        chi = corpus._character(g, order)
        yield f"{gname}-{factors}-unipotent", corpus._action_module(g, a, (chi, order, mat))


CASES = list(corpus_modules()) + list(unipotent_modules())


def test_the_cases_cover_the_corpus():
    names = {name for name, _ in CASES}
    assert len({name.split("-")[0] for name in names}) == len(corpus._zoo())
    assert any(name.startswith("C6-(6,)-negation") for name in names)
    assert any(name.startswith("D4-(2, 4)-") for name in names)
    assert {name.rsplit("-", 1)[1] for name in names} == {
        "trivial", "negation", "swap", "scalar3", "unipotent",
    }


@pytest.mark.parametrize("name,m", CASES, ids=[name for name, _ in CASES])
def test_coinduced_module_matches_dense_reference(name, m):
    cm = coh.coinduced_module(m)
    module, embedding, projection, lift, quotient = ref_coinduced(m)
    assert cm.module == module
    assert cm.embedding == embedding
    # phi: the reference projection on the maps vanishing at 1 must be an
    # isomorphism of G-modules from A' onto the reference A'
    n = m.group.order
    keep = [p for p in range(module.coeff.rank) if p % n != m.group.identity]
    phi = AbHom(
        cm.quotient.coeff,
        quotient.coeff,
        tuple(tuple(row[p] for p in keep) for row in projection.matrix),
    )
    assert phi.is_injective() and phi.is_surjective()
    mat = np.array(phi.matrix, dtype=np.int64).reshape(quotient.coeff.rank, len(keep))
    fac = np.array(quotient.coeff.factors, dtype=np.int64)[:, None]
    for x in range(n):
        assert np.array_equal(
            np.mod(mat @ cm.quotient.action[x], fac), np.mod(quotient.action[x] @ mat, fac)
        )
    # column f of the connecting map is the reference image of phi o f
    h1 = coh.cohomology(cm.quotient, 1)
    h1_ref = coh.cohomology(quotient, 1)
    h2_factors = coh.cohomology(m, 2).value.factors
    ref = ref_connecting_matrix(m, module, embedding, lift, quotient)
    delta = coh.connecting_map(cm).matrix
    for j, rep in enumerate(h1.representatives):
        c = h1_ref.classify(tuple(phi.apply(v) for v in rep))
        expected = [sum(u * v for u, v in zip(row, c)) % d for row, d in zip(ref, h2_factors)]
        assert [row[j] % d for row, d in zip(delta, h2_factors)] == expected


@pytest.mark.parametrize("name,m", CASES, ids=[name for name, _ in CASES])
def test_h1_h2_match_act_based_assembly(name, m):
    h1 = coh.cohomology(m, 1)
    h2 = coh.cohomology(m, 2)
    factors, reps = ref_h1(m)
    assert h1.value.factors == factors
    gens = free_presentation(m.group).gens
    assert tuple(tuple(x for s in gens for x in rep[s]) for rep in h1.representatives) == reps
    factors, tables = ref_h2(m)
    assert (h2.value.factors, len(h2.representatives)) == (factors, len(tables))
    assert all(np.array_equal(rep, table) for rep, table in zip(h2.representatives, tables))


def test_corrupted_perm_is_caught_by_re_embedding():
    # H^1(C3, A') = H^2(C3, Z/3) = Z/3; translation by x != 1 is corrupted
    # so that the coboundaries of scattered cocycles leave the embedded
    # coefficients
    m = coh.trivial_module(corpus._zoo()["C3"], FAG((3,)))
    cm = coh.coinduced_module(m)
    assert coh.connecting_map(cm).is_surjective()
    x = next(x for x in range(3) if x != m.group.identity)
    bad = cm.perm.copy()
    bad[x, [0, 1]] = bad[x, [1, 0]]
    with pytest.raises(VerificationFailure, match="embedded coefficients"):
        coh.connecting_map(coh.CoinducedModule(cm.base, cm.module, cm.embedding, cm.quotient, bad))


def test_denominator_outside_the_numerator_raises():
    # one of several denominator rows leaves the numerator, in the 3-part
    with pytest.raises(VerificationFailure, match="numerator"):
        modular.subquotient((4, 9), [(2, 0), (0, 3)], [(2, 0), (0, 3), (0, 1)])
    sq = modular.subquotient((4, 9), [(2, 0), (0, 3)], [(2, 0)])
    assert sq.factors == (3,)


def test_coinduced_products_beyond_int64_are_refused():
    # Z/f with f the product of the primes up to 29: every prime-power
    # kernel is tiny, but the quotient action has the entry -1 = f - 1, and
    # products of two entries below f reach (f - 1)^2 >= 2^63
    c2 = corpus._zoo()["C2"]
    f = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29
    assert (f - 1) ** 2 >= 2**63
    with pytest.raises(SizeCapExceeded, match=r"module action matrices.*2\^63"):
        coh.coinduced_module(coh.trivial_module(c2, FAG((f,))))
    # one prime fewer keeps the products exact
    small = f // 29
    cm = coh.coinduced_module(coh.trivial_module(c2, FAG((small,))))
    assert cm.quotient.coeff.factors == (small,)


def test_corruptions_of_a_coinduced_action_are_refused():
    # the permutation action of Maps(G, A), of rank 12, is validated on
    # each row's one nonzero column and value; a corruption that keeps every
    # row monomial is refused there, and a second nonzero in a row by the
    # dense product.  Moving a row's 1 to another column changes two entries
    g = corpus._zoo()["S3"]
    coind = coh.coinduced_module(coh.trivial_module(g, FAG((2, 4)))).module
    act, fac = coind.action, coind.coeff.factors
    coh.GModule(g, coind.coeff, act.copy())
    for x in range(g.order):
        for i in range(len(fac)):
            j = int(act[x, i].argmax())  # the row's one nonzero entry, a 1
            other = (j + 1 + x) % len(fac)
            changes = [[(j, 0)], [(other, 1)], [(j, 0), (other, 1)]]
            changes += [[(j, v)] for v in range(2, fac[i])]
            for change in changes:
                bad = act.copy()
                for col, value in change:
                    bad[x, i, col] = value
                want = "identity" if x == g.identity else "homomorphism"
                with pytest.raises(InvariantViolation, match=want):
                    coh.GModule(g, coind.coeff, bad)
