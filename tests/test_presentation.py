"""Schreier rewriting sanity: edge words, factor sets, conjugation."""

import itertools
import random

import numpy as np

from conftest import WordRewriting
from corprod import groups as gr
from corprod.presentation import free_presentation


def conj_by_element(ref, gelt, vec):
    """Conjugate an abelianized-kernel vector by a coset representative."""
    out = [0] * ref.pres.rank
    w = ref.pres.coset_word[gelt]
    for e, c in enumerate(vec):
        if c:
            word = w + ref.edge_word(e) + tuple(-x for x in reversed(w))
            r = ref.rewrite(word)
            out = [a + c * b for a, b in zip(out, r)]
    return tuple(out)


def test_presentation_invariants(zoo):
    rng = random.Random(7)
    for g in [zoo["C2"], zoo["C6"], zoo["D4"], zoo["Q8"], zoo["S3"], zoo["Heis27"], gr.trivial_group()]:
        pres = free_presentation(g)
        ref = WordRewriting(pres)
        n, k = g.order, len(pres.gens)
        assert pres.rank == n * k - (n - 1)
        for e in range(pres.rank):
            unit = tuple(1 if i == e else 0 for i in range(pres.rank))
            assert ref.rewrite(ref.edge_word(e)) == unit
        # the factor-set identity in the abelianized kernel:
        # g.(h,k) + (g,hk) = (g,h) + (gh,k)
        triples = list(itertools.product(range(n), repeat=3))
        rng.shuffle(triples)
        for x, y, z in triples[:25]:
            lhs = conj_by_element(ref, x, ref.pair_vector(y, z))
            lhs = tuple(a + b for a, b in zip(lhs, ref.pair_vector(x, g.mul(y, z))))
            rhs = tuple(
                a + b
                for a, b in zip(ref.pair_vector(x, y), ref.pair_vector(g.mul(x, y), z))
            )
            assert lhs == rhs


def test_normalization(zoo):
    g = zoo["D4"]
    pres = free_presentation(g)
    ref = WordRewriting(pres)
    for x in range(g.order):
        assert ref.pair_vector(g.identity, x) == (0,) * pres.rank
        assert ref.pair_vector(x, g.identity) == (0,) * pres.rank


def test_cached_tables_match_the_rewriting(zoo):
    # pair_edges against the rewriting of w_a w_b w_{ab}^-1, coset_walks
    # against coset_word, derivation_table against the walk along each
    # edge word and conjugation_table against the rewriting of s n_e s^-1
    c2_cubed = gr.abelian_group_from_factors((2, 2, 2))
    c2_fifth = gr.abelian_group_from_factors((2,) * 5)  # rank 129
    s4 = gr.symmetric_group(4)
    for g in [zoo["C6"], zoo["D4"], zoo["Q8"], zoo["S3"], zoo["Heis27"], c2_cubed, c2_fifth, s4, gr.trivial_group()]:
        pres = free_presentation(g)
        ref = WordRewriting(pres)
        n = g.order
        pair, edge = pres.pair_edges
        dense = np.zeros((n * n, pres.rank), dtype=np.int64)
        np.add.at(dense, (pair, edge), 1)
        assert dense.tolist() == [list(ref.pair_vector(a, b)) for a in range(n) for b in range(n)]
        prefix, letter = pres.coset_walks
        for b, word in enumerate(pres.coset_word):
            assert letter[b, : len(word)].tolist() == [s - 1 for s in word]
            assert (letter[b, len(word):] == -1).all()
            cur = g.identity
            for t, s in enumerate(word):
                assert prefix[b, t] == cur
                cur = g.mul(cur, pres.gens[s - 1])
            assert cur == b
        flat = [(e, *t) for e in range(pres.rank) for t in ref.derivation_terms(e)]
        assert np.array(pres.derivation_table).T.tolist() == [list(t) for t in flat]
        conj = pres.conjugation_table
        assert conj.shape == (len(pres.gens), pres.rank, pres.rank)
        for arr in (pair, edge, prefix, letter, *pres.derivation_table, conj):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        for s in range(len(pres.gens)):
            for e in range(pres.rank):
                word = (s + 1,) + ref.edge_word(e) + (-(s + 1),)
                assert conj[s, e].tolist() == list(ref.rewrite(word))


def frontier_bfs_presentation(g):
    """Independent reference: the level-by-level breadth-first walk of the
    Cayley graph on ``g.generators``, giving every element's tree word and
    the non-tree (element, generator index) pairs in row-major order."""
    gens = g.generators
    coset_word = [None] * g.order
    coset_word[g.identity] = ()
    tree = set()
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, gelt in enumerate(gens):
                y = g.mul(x, gelt)
                if coset_word[y] is None:
                    coset_word[y] = coset_word[x] + (s + 1,)
                    tree.add((x, s))
                    nxt.append(y)
        frontier = nxt
    edges = tuple((x, s) for x in range(g.order) for s in range(len(gens)) if (x, s) not in tree)
    return tuple(coset_word), edges


def test_transversal_and_edges_match_a_frontier_walk():
    from corprod.corpus import _zoo

    for g in [*_zoo().values(), gr.trivial_group()]:
        pres = free_presentation(g)
        assert (pres.coset_word, pres.edges) == frontier_bfs_presentation(g), g.label
