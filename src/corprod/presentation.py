"""Free presentations of finite groups via Schreier transversals.

For a finite group G with generating set S, take the free group F on S
and the kernel N of F -> G.  A breadth-first spanning tree of the Cayley
graph yields a Schreier transversal {w_g}; the non-tree edges (g, s)
give a free basis n_{g,s} = w_g s w_{gs}^{-1} of N.  The abelianized
kernel is then a free Z-module on the non-tree edges, with G acting by
conjugation, and every word of N rewrites to an integer vector over the
edge basis (Reidemeister rewriting).

Degree-1 and degree-2 cohomology both reduce to small linear systems
over this data, which is how the package stays fast at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import FiniteGroup, generating_set

Word = tuple[int, ...]  # +(i+1) = generator i, -(i+1) = its inverse


def _invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


@dataclass(frozen=True)
class FreePresentation:
    group: FiniteGroup
    gens: tuple[int, ...]
    coset_word: tuple[Word, ...]          # element -> tree word
    edges: tuple[tuple[int, int], ...]    # non-tree (element, gen index)
    edge_index: dict
    tree_edges: frozenset

    @property
    def rank(self) -> int:
        """Z-rank of the abelianized kernel."""
        return len(self.edges)

    # -- rewriting ---------------------------------------------------------

    def rewrite(self, word: Word) -> tuple[int, ...]:
        """Reidemeister rewriting of a kernel word to edge coordinates.

        The word must evaluate to the identity in the group.
        """
        g = self.group
        vec = [0] * len(self.edges)
        cur = g.identity
        for letter in word:
            if letter > 0:
                s = letter - 1
                key = (cur, s)
                if key not in self.tree_edges:
                    vec[self.edge_index[key]] += 1
                cur = g.mul(cur, self.gens[s])
            else:
                s = -letter - 1
                prev = g.mul(cur, g.inv[self.gens[s]])
                key = (prev, s)
                if key not in self.tree_edges:
                    vec[self.edge_index[key]] -= 1
                cur = prev
        if cur != g.identity:
            raise ValueError("word does not lie in the kernel")
        return tuple(vec)

    def edge_word(self, e: int) -> Word:
        elem, s = self.edges[e]
        g = self.group
        target = g.mul(elem, self.gens[s])
        return self.coset_word[elem] + (s + 1,) + _invert_word(self.coset_word[target])

    # -- group action on the abelianized kernel -----------------------------

    def conjugation_matrix(self, s: int) -> tuple[tuple[int, ...], ...]:
        """Action of generator s on the edge basis, one row per edge."""
        rows = []
        for e in range(len(self.edges)):
            w = (s + 1,) + self.edge_word(e) + (-(s + 1),)
            rows.append(self.rewrite(w))
        return tuple(rows)

    # -- derivations ---------------------------------------------------------

    def derivation_terms(self, e: int) -> tuple[tuple[int, int, int], ...]:
        """d(n_e) as a list of (sign, prefix element, generator index).

        A derivation d on the free group restricts on the edge word to
        sum sign * prefix . d(s).
        """
        g = self.group
        out = []
        cur = g.identity
        for letter in self.edge_word(e):
            if letter > 0:
                s = letter - 1
                out.append((1, cur, s))
                cur = g.mul(cur, self.gens[s])
            else:
                s = -letter - 1
                prev = g.mul(cur, g.inv[self.gens[s]])
                out.append((-1, prev, s))
                cur = prev
        return tuple(out)

    # -- factor sets ---------------------------------------------------------

    def pair_vector(self, a: int, b: int) -> tuple[int, ...]:
        """Edge coordinates of w_a w_b w_{ab}^{-1}."""
        g = self.group
        w = (
            self.coset_word[a]
            + self.coset_word[b]
            + _invert_word(self.coset_word[g.mul(a, b)])
        )
        return self.rewrite(w)


@lru_cache(maxsize=None)
def free_presentation(group: FiniteGroup) -> FreePresentation:
    gens = generating_set(group)
    n = group.order
    coset_word: list[Word | None] = [None] * n
    coset_word[group.identity] = ()
    tree = set()
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, gelt in enumerate(gens):
                y = group.mul(x, gelt)
                if coset_word[y] is None:
                    coset_word[y] = coset_word[x] + (s + 1,)
                    tree.add((x, s))
                    nxt.append(y)
        frontier = nxt
    edges = tuple(
        (x, s)
        for x in range(n)
        for s in range(len(gens))
        if (x, s) not in tree
    )
    return FreePresentation(
        group,
        gens,
        tuple(coset_word),  # type: ignore[arg-type]
        edges,
        {e: i for i, e in enumerate(edges)},
        frozenset(tree),
    )
