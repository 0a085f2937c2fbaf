import random

import pytest

from corprod import groups as gr
from corprod.abelian import AbHom, FiniteAbelianGroup
from corprod.formulas import FourTermSequence


@pytest.fixture(scope="session")
def zoo():
    return {
        "C2": gr.cyclic_group(2),
        "C3": gr.cyclic_group(3),
        "C4": gr.cyclic_group(4),
        "C6": gr.cyclic_group(6),
        "C9": gr.cyclic_group(9),
        "V4": gr.abelian_group_from_factors((2, 2)),
        "C2xC4": gr.abelian_group_from_factors((2, 4)),
        "S3": gr.symmetric_group(3),
        "D4": gr.dihedral_group(4),
        "Q8": gr.quaternion_group(),
        "Heis27": gr.heisenberg_group(3),
    }


@pytest.fixture
def rng():
    return random.Random(20250809)


def negation_action(group, coeff: FiniteAbelianGroup, generator: int):
    """Action through the order-2 character sending ``generator`` to -1."""
    from corprod.cohomology import module_from_generator_matrices

    neg = tuple(
        tuple(-1 if i == j else 0 for j in range(coeff.rank))
        for i in range(coeff.rank)
    )
    return module_from_generator_matrices(group, coeff, {generator: neg})


def scale(group: FiniteAbelianGroup, c: int, v):
    """The element c.v of ``group``; c = -1 gives the negative of v."""
    return tuple(c * x % d for x, d in zip(v, group.factors))


def corrupt_map_entry(seq: FourTermSequence, which: int, i: int, j: int, delta: int) -> FourTermSequence:
    """Copy of the sequence with maps[which].matrix[i][j] += delta.

    May raise InvariantViolation when the corrupted matrix no longer
    respects the source relations; that also counts as detection.
    """
    hom = seq.maps[which]
    mat = [list(row) for row in hom.matrix]
    mat[i][j] += delta
    maps = list(seq.maps)
    maps[which] = AbHom(hom.source, hom.target, tuple(tuple(r) for r in mat))
    return FourTermSequence(seq.terms, tuple(maps), seq.oracle)


def _invert_word(w):
    return tuple(-x for x in reversed(w))


class WordRewriting:
    """Reidemeister rewriting of a free presentation one word at a time:
    the reference that the presentation's cached arrays are held to.

    Words are tuples of letters, +(i+1) for generator i and -(i+1) for
    its inverse.  The edge index is built here from ``pres.edges``, so
    the reference shares no array with the tables it checks.
    """

    def __init__(self, pres):
        self.pres = pres
        self.edge_index = {edge: e for e, edge in enumerate(pres.edges)}

    def rewrite(self, word):
        """Edge coordinates of a word that evaluates to the identity."""
        pres, g = self.pres, self.pres.group
        vec = [0] * pres.rank
        cur = g.identity
        for letter in word:
            if letter > 0:
                s = letter - 1
                if (e := self.edge_index.get((cur, s))) is not None:
                    vec[e] += 1
                cur = g.mul(cur, pres.gens[s])
            else:
                s = -letter - 1
                prev = g.mul(cur, g.inv[pres.gens[s]])
                if (e := self.edge_index.get((prev, s))) is not None:
                    vec[e] -= 1
                cur = prev
        if cur != g.identity:
            raise ValueError("word does not lie in the kernel")
        return tuple(vec)

    def edge_word(self, e):
        """n_e = w_x s w_{xs}^{-1} for e = (x, s), as a word."""
        pres = self.pres
        x, s = pres.edges[e]
        target = pres.group.mul(x, pres.gens[s])
        return pres.coset_word[x] + (s + 1,) + _invert_word(pres.coset_word[target])

    def derivation_terms(self, e):
        """d(n_e) as a list of (sign, prefix element, generator index): a
        derivation d on the free group restricts on the edge word to
        sum sign * prefix . d(s)."""
        pres, g = self.pres, self.pres.group
        out = []
        cur = g.identity
        for letter in self.edge_word(e):
            if letter > 0:
                s = letter - 1
                out.append((1, cur, s))
                cur = g.mul(cur, pres.gens[s])
            else:
                s = -letter - 1
                prev = g.mul(cur, g.inv[pres.gens[s]])
                out.append((-1, prev, s))
                cur = prev
        assert cur == g.identity, "edge word did not close up"
        return tuple(out)

    def pair_vector(self, a, b):
        """Edge coordinates of w_a w_b w_{ab}^{-1}."""
        words = self.pres.coset_word
        return self.rewrite(words[a] + words[b] + _invert_word(words[self.pres.group.mul(a, b)]))
