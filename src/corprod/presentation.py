"""Free presentations of finite groups via Schreier transversals.

For a finite group G with generating set S, take the free group F on S
and the kernel N of F -> G.  The breadth-first spanning tree of the
Cayley graph (``groups.spanning_tree``) yields a Schreier transversal
{w_g}; the non-tree edges (g, s), in row-major order, give a free basis
n_{g,s} = w_g s w_{gs}^{-1} of N.  The abelianized kernel is then a free
Z-module on the non-tree edges, with G acting by conjugation, and every
word of N rewrites to an integer vector over the edge basis
(Reidemeister rewriting).

Degree-1 and degree-2 cohomology both reduce to small linear systems
over this data, which is how the package stays fast at desk scale.  The
bulk consumers read it as cached int64 arrays: the derivation terms of
every edge word, the walk along every transversal word, the edges that
every pair of transversal words crosses and the conjugation action of the
generators on the edges.  Each is gathered from the walks and from one
array that indexes the edges, ``_edge_of[x, s]``: the index of edge
(x, s), or -1 on the tree.  The tests hold these arrays to a word-level
Reidemeister rewriting of their own.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import MEMO_SIZE
from .groups import FiniteGroup, spanning_tree
from .records import record

Word = tuple[int, ...]  # +(i+1) = generator i, -(i+1) = its inverse


@record(frozen=True)
class FreePresentation:
    group: FiniteGroup
    gens: tuple[int, ...]
    coset_word: tuple[Word, ...]          # element -> its word along the tree
    edges: tuple[tuple[int, int], ...]    # the non-tree (element, gen index), row-major

    @property
    def rank(self) -> int:
        """Z-rank of the abelianized kernel."""
        return len(self.edges)

    # -- group action on the abelianized kernel -----------------------------

    @cached_property
    def conjugation_table(self) -> np.ndarray:
        """Read-only int64 array of shape (k, rank, rank): row e of matrix s
        is s n_e s^-1 in edge coordinates.  For e = (x, t) and g = gens[s]
        that is (g, x) + n_{(gx, t)} - (g, xt), where (a, b) is the edge
        vector of w_a w_b w_{ab}^-1 (``pair_edges``), since
        s n_e s^-1 = u (g, x) n_{(gx, t)} (g, xt)^-1 u^-1 with u = s w_g^-1."""
        n, rho = self.group.order, self.rank
        pair, pair_edge = self.pair_edges
        table = self.group.array
        x, t = np.array(self.edges, dtype=np.int64).reshape(rho, 2).T
        gens = np.array(self.gens, dtype=np.int64)
        a, b = np.divmod(pair, n)
        slot = np.full(n, -1, dtype=np.int64)  # [g]: s with gens[s] = g, or -1
        slot[gens] = np.arange(len(gens))
        # entries are 0, 1 (and -1, 2 in ``out``), so the gathers move int8
        by_gen = np.zeros((len(gens), n, rho), dtype=np.int8)  # [s, y]: the vector of (gens[s], y)
        hit = slot[a] >= 0
        by_gen[slot[a[hit]], b[hit], pair_edge[hit]] = 1
        out = by_gen[:, x] - by_gen[:, table[x, gens[t]]]
        target = self._edge_of[table[gens[:, None], x], t]  # n_{(gx, t)}, or -1 on the tree
        s, e = np.nonzero(target >= 0)
        out[s, e, target[s, e]] += 1
        return _frozen(out.astype(np.int64))[0]

    # -- derivations ---------------------------------------------------------

    @cached_property
    def derivation_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The derivation terms of every edge word n_e, as read-only int64
        arrays (edge, sign, prefix element, generator index): a derivation
        d on the free group restricts on n_e to sum sign * prefix . d(s).
        They are read off ``coset_walks``: the word of edge (x, s) is w_x
        with sign +1, the letter s read at x, then w_{xs} reversed with
        sign -1."""
        prefix, letter = self.coset_walks
        x, s = np.array(self.edges, dtype=np.int64).reshape(self.rank, 2).T
        y = self.group.array[x, np.array(self.gens, dtype=np.int64)[s]]
        depth = prefix.shape[1]
        rows = np.broadcast_to(np.arange(self.rank)[:, None], (self.rank, 2 * depth + 1))
        sign = np.broadcast_to(np.repeat(np.array([1, 1, -1]), [depth, 1, depth]), rows.shape)
        at = np.hstack([prefix[x], x[:, None], prefix[y, ::-1]])
        gen = np.hstack([letter[x], s[:, None], letter[y, ::-1]])
        keep = gen >= 0  # letter -1 pads a word past its end
        return _frozen(rows[keep], sign[keep], at[keep], gen[keep])

    @cached_property
    def coset_walks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int64 arrays (prefix, letter) of shape (|G|, depth):
        ``prefix[b, t]`` is the element reached after t letters of w_b and
        ``letter[b, t]`` the generator index of letter t, or -1 past the
        end of w_b.  Every transversal word is positive."""
        g = self.group
        depth = max(map(len, self.coset_word))
        prefix = np.zeros((g.order, depth), dtype=np.int64)
        letter = np.full((g.order, depth), -1, dtype=np.int64)
        for b, word in enumerate(self.coset_word):
            cur = g.identity
            for t, s in enumerate(word):
                prefix[b, t], letter[b, t] = cur, s - 1
                cur = g.mul(cur, self.gens[s - 1])
        return _frozen(prefix, letter)

    # -- factor sets ---------------------------------------------------------

    @cached_property
    def pair_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero entries of the edge vector of every w_a w_b w_{ab}^-1,
        as read-only int64 arrays (a*|G| + b, edge) sorted by pair; each
        entry is 1.

        w_a and w_{ab}^{-1} run along the tree, so only the letters of w_b,
        read from a, cross edges, and they visit distinct elements.
        """
        n = self.group.order
        prefix, letter = self.coset_walks
        edge = self._edge_of[self.group.array[:, prefix], letter]  # (a, b, t): the letter t of w_b read from a
        a, b, _ = np.nonzero(edge >= 0)
        return _frozen(a * n + b, edge[edge >= 0])

    @cached_property
    def _edge_of(self) -> np.ndarray:
        """``[x, s]``: the index of edge (x, s), or -1 on a tree edge and in
        column k, which letter -1 (past the end of a word) reads."""
        edge_of = np.full((self.group.order, len(self.gens) + 1), -1, dtype=np.int64)
        for i, (x, s) in enumerate(self.edges):
            edge_of[x, s] = i
        return edge_of


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=MEMO_SIZE)
def free_presentation(group: FiniteGroup) -> FreePresentation:
    gens = group.generators
    coset_word: list[Word] = [()] * group.order
    tree = set()
    for x, s, y in spanning_tree(group, gens):
        coset_word[y] = coset_word[x] + (s + 1,)
        tree.add((x, s))
    edges = tuple(
        (x, s)
        for x in range(group.order)
        for s in range(len(gens))
        if (x, s) not in tree
    )
    return FreePresentation(group, gens, tuple(coset_word), edges)
