"""Exact arithmetic for finite groups given by Cayley tables.

Elements are indices 0..order-1 with 0 the identity by convention of all
factory functions.  Tables built by the factories here are valid by
construction; tables from untrusted input go through
:func:`group_from_table`, which checks the Latin square property,
identity laws and associativity.

A group also keeps ``array``, one read-only int64 view of its table that
bulk readers gather from; ``mul`` and scalar loops read the tuples, whose
Python ints reach witnesses.  Homomorphisms are checked on generators, as
module actions are, and G/N is built once per (G, N).  Plain
``np.unique(x)`` is avoided: its first call imports ``numpy.ma``.

Every breadth-first walk of a Cayley table is :func:`spanning_tree`: the
closure of a list of elements, the Schreier transversal of
``presentation``, the extension of a module action from generators and
the crossed-hom oracle's table fill all read its edges.
:func:`group_from_generators` has no table yet: it walks permutations
once and fills the table along that walk's tree by array gathers, and
:func:`generating_set` builds one closure per coset of the closure so far.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .abelian import FiniteAbelianGroup
from .errors import (
    MEMO_SIZE,
    InvariantViolation,
    NotASubgroup,
    NotNormal,
    SizeCapExceeded,
)
from .records import record

DEFAULT_ORDER_CAP = 2000


@record(frozen=True)
class FiniteGroup:
    """A group by its Cayley table.  Derived data (the table as an array,
    the inverse table, :func:`generating_set` and :func:`abelianization`)
    is computed on first use and kept on the group."""

    table: tuple[tuple[int, ...], ...]
    identity: int = 0
    label: str = "G"

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(int(x) for x in r) for r in self.table))
        n = len(self.table)
        e = self.identity
        if not 0 <= e < n:
            raise InvariantViolation("identity index out of range")
        for g in range(n):
            if self.table[e][g] != g or self.table[g][e] != g:
                raise InvariantViolation("identity row/column is not the identity map")
        object.__setattr__(self, "_hash", hash((self.table, e)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.table == other.table
            and self.identity == other.identity
        )

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def array(self) -> np.ndarray:
        """The table as a read-only int64 array of shape (order, order)."""
        arr = np.array(self.table, dtype=np.int64).reshape(self.order, self.order)
        arr.flags.writeable = False
        return arr

    @cached_property
    def inv(self) -> tuple[int, ...]:
        right = self.array == self.identity  # [a, b]: ab = 1
        found = right.any(axis=1)
        if not found.all():
            raise InvariantViolation(f"element {int(np.argmin(found))} has no right inverse")
        return tuple(right.argmax(axis=1).tolist())

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return generating_set(self)

    @cached_property
    def abelianization(self) -> tuple[FiniteAbelianGroup, "AbelianizationMap"]:
        q, proj = quotient_group(self, commutator_subgroup(self))
        structure = abelian_structure_from_elements(list(range(q.order)), q.mul, q.identity)
        target = FiniteAbelianGroup(structure.factors)
        images = tuple(structure.coordinates(proj.apply(x)) for x in range(self.order))
        return target, AbelianizationMap(self, target, images)

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            n += 1
        return n


def validate_cayley_table(table, identity: int = 0) -> None:
    """Full validation: Latin square, identity, associativity.

    Any single-entry corruption of a valid table breaks the Latin square
    property and is rejected here.  Associativity uses Light's test:
    with the identity laws already checked, the elements that associate
    in the middle form a multiplicatively closed set, so it suffices to
    test a set that generates the loop.
    """
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvariantViolation("Cayley table must be square")
    n = arr.shape[0]
    if n == 0:
        raise InvariantViolation("empty Cayley table")
    if arr.min() < 0 or arr.max() >= n:
        raise InvariantViolation("table entries out of range")
    want = np.arange(n, dtype=np.int64)
    if not (np.array_equal(np.sort(arr, axis=1), np.tile(want, (n, 1)))
            and np.array_equal(np.sort(arr, axis=0), np.tile(want[:, None], (1, n)))):
        raise InvariantViolation("table rows/columns are not permutations")
    if not (np.array_equal(arr[identity], want) and np.array_equal(arr[:, identity], want)):
        raise InvariantViolation("identity row/column is not the identity map")
    for g in _loop_generating_set(arr, identity):
        # (x g) y == x (g y) for all x, y
        if not np.array_equal(arr[arr[:, g], :], arr[:, arr[g, :]]):
            raise InvariantViolation(f"associativity fails with middle element {g}")


def _loop_generating_set(arr: np.ndarray, identity: int) -> list[int]:
    """Elements whose multiplicative closure is the whole table."""
    n = len(arr)
    closed = np.zeros(n, dtype=bool)
    closed[identity] = True
    gens: list[int] = []
    while not closed.all():
        x = int(np.flatnonzero(~closed)[0])
        gens.append(x)
        closed[x] = True
        while True:
            idx = np.flatnonzero(closed)
            products = arr[np.ix_(idx, idx)]
            before = int(closed.sum())
            closed[products.ravel()] = True
            if int(closed.sum()) == before:
                break
    return gens


def group_from_table(table, identity: int = 0, label: str = "G") -> FiniteGroup:
    """Construct from an untrusted Cayley table; validates everything."""
    validate_cayley_table(table, identity)
    return FiniteGroup(tuple(tuple(int(x) for x in row) for row in table), identity, label)


def group_from_mul(elements, mul, identity_elem, label: str = "G") -> FiniteGroup:
    """Build a group from abstract elements and a multiplication callable.

    The identity is moved to index 0; the rest keep the given order.
    """
    elems = [identity_elem] + [x for x in elements if x != identity_elem]
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    table = tuple(
        tuple(index[mul(elems[i], elems[j])] for j in range(n)) for i in range(n)
    )
    return FiniteGroup(table, 0, label)


# ---------------------------------------------------------------------------
# permutation closures
# ---------------------------------------------------------------------------


def _compose(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def group_from_generators(degree: int, generators, label: str = "G") -> FiniteGroup:
    """Closure of permutations of 0..degree-1 under composition.

    Element 0 is the identity; the remaining elements are enumerated by
    breadth-first search, which makes the numbering reproducible.  A
    degree that is not every generator's length (at most 1 with none) is
    refused before anything of its size is built.  The walk records
    ``right[s][x]``, the index of elems[x]∘gens[s], and the table is filled
    along its tree: row y of the transpose is ``right[s]`` gathered at row
    x, where elems[y] = elems[x]∘gens[s].  A closure past
    ``DEFAULT_ORDER_CAP`` elements is refused.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if any(len(g) != degree for g in gens) or (not gens and degree > 1):
        raise InvariantViolation(f"degree {degree} is not the length of every generator")
    idp = tuple(range(degree))
    for g in gens:
        if sorted(g) != list(idp):
            raise InvariantViolation(f"not a permutation of 0..{degree-1}: {g}")
    elems, seen, right, tree = [idp], {idp: 0}, [[] for _ in gens], []
    for x, p in enumerate(elems):  # grows while it is read
        for s, g in enumerate(gens):
            y = _compose(p, g)
            if y not in seen:
                if len(elems) >= DEFAULT_ORDER_CAP:
                    raise SizeCapExceeded(f"closure exceeds the order cap {DEFAULT_ORDER_CAP}")
                seen[y] = len(elems)
                elems.append(y)
                tree.append((x, s, seen[y]))
            right[s].append(seen[y])
    n, right = len(elems), np.array(right, dtype=np.int64).reshape(len(gens), len(elems))
    columns = np.empty((n, n), dtype=np.int64)  # [j, i]: elems[i]∘elems[j]
    columns[0] = np.arange(n)
    for x, s, y in tree:
        columns[y] = right[s, columns[x]]
    return FiniteGroup(columns.T.tolist(), 0, label)


# ---------------------------------------------------------------------------
# standard small groups
# ---------------------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(table, 0, f"C{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    elems = [(r, f) for f in (0, 1) for r in range(n)]

    def mul(a, b):
        (i, e), (j, d) = a, b
        return ((i + (j if e == 0 else -j)) % n, (e + d) % 2)

    return group_from_mul(elems, mul, (0, 0), f"D{n}")


def quaternion_group() -> FiniteGroup:
    """Order-8 quaternion group {+-1, +-i, +-j, +-k}."""
    base = {
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def mul(a, b):
        (sa, xa), (sb, xb) = a, b
        s = sa * sb
        if xa == "1":
            return (s, xb)
        if xb == "1":
            return (s, xa)
        s2, x = base[(xa, xb)]
        return (s * s2, x)

    elems = [(s, x) for x in ("1", "i", "j", "k") for s in (1, -1)]
    return group_from_mul(elems, mul, (1, "1"), "Q8")


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p; order p^3, exponent p for odd p."""
    elems = list(itertools.product(range(p), repeat=3))

    def mul(x, y):
        (a, b, c), (d, e, f) = x, y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    return group_from_mul(elems, mul, (0, 0, 0), f"Heis{p**3}")


def symmetric_group(n: int) -> FiniteGroup:
    gens = []
    if n >= 2:
        gens.append(tuple([1, 0] + list(range(2, n))))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_generators(n, gens, f"S{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, label: str | None = None) -> FiniteGroup:
    elems = [(a, b) for a in range(g.order) for b in range(h.order)]

    def mul(x, y):
        return (g.mul(x[0], y[0]), h.mul(x[1], y[1]))

    return group_from_mul(elems, mul, (g.identity, h.identity), label or f"{g.label}x{h.label}")


def abelian_group_from_factors(factors) -> FiniteGroup:
    """The group prod Z/d as a Cayley table (for building fibers)."""
    factors = tuple(factors)
    elems = list(itertools.product(*(range(d) for d in factors)))

    def mul(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, factors))

    label = "x".join(f"C{d}" for d in factors) or "C1"
    return group_from_mul(elems, mul, tuple(0 for _ in factors), label)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), 0, "1")


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


@record(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(int(x) for x in self.elements)))
        object.__setattr__(self, "elements", elems)
        g = self.parent
        eset = set(elems)
        if g.identity not in eset:
            raise NotASubgroup("subgroup does not contain the identity")
        for a in elems:
            if not 0 <= a < g.order:
                raise NotASubgroup(f"element {a} out of range")
        for a in elems:
            if g.inv[a] not in eset:
                raise NotASubgroup(f"subgroup not closed under inversion at {a}")
            for b in elems:
                if g.mul(a, b) not in eset:
                    raise NotASubgroup(f"subgroup not closed under product {a},{b}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, g: int) -> bool:
        return g in set(self.elements)

    def is_normal(self) -> bool:
        member = np.zeros(self.parent.order, dtype=bool)
        member[list(self.elements)] = True
        return bool(member[_conjugates(self.parent, self.elements)].all())


def _conjugates(g: FiniteGroup, elements) -> np.ndarray:
    """x a x^-1 at [x, i] for every x of g and the i-th of ``elements``."""
    inv = np.array(g.inv, dtype=np.int64)
    return g.array[g.array[:, list(elements)], inv[:, None]]


def spanning_tree(g: FiniteGroup, elems) -> list[tuple[int, int, int]]:
    """The edges (x, s, x*elems[s]) of the breadth-first spanning tree
    from the identity of the Cayley graph of <elems>, in the order they
    are found: each reached x tries the in-range indices ``elems`` in the
    order given, and each element of <elems> but the identity ends
    exactly one edge."""
    reached, seen, tree = [g.identity], {g.identity}, []
    for x in reached:  # grows while it is read
        row = g.table[x]
        for s, e in enumerate(elems):
            y = row[e]
            if y not in seen:
                seen.add(y)
                reached.append(y)
                tree.append((x, s, y))
    return tree


def _closure(g: FiniteGroup, gens: list[int]) -> set[int]:
    # the elements generated by in-range indices
    return {g.identity, *(y for _, _, y in spanning_tree(g, gens))}


def subgroup_from_generators(g: FiniteGroup, gens) -> Subgroup:
    gens = [int(x) for x in gens]
    for x in gens:
        if not 0 <= x < g.order:
            raise NotASubgroup(f"generator index {x} out of range")
    return Subgroup(g, tuple(sorted(_closure(g, gens))))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def check_subgroup_of(g: FiniteGroup, s: Subgroup) -> None:
    """Refuse ``s`` unless it is a subgroup of ``g``, the same object or an
    equal group."""
    if s.parent is not g and s.parent != g:
        raise NotASubgroup("subgroup belongs to a different group")


def normal_closure(g: FiniteGroup, s: Subgroup) -> Subgroup:
    """Smallest normal subgroup of g containing s."""
    check_subgroup_of(g, s)
    return subgroup_from_generators(g, set(_conjugates(g, s.elements).ravel().tolist()))


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """Small deterministic generating set; ``g.generators`` keeps it.

    For small groups each step picks the element whose addition grows the
    closure the most; larger groups fall back to a cheaper greedy pass
    preferring high-order elements.  With H the closure so far, every
    element of a coset xH gives the same closure <H, x>, so each step
    builds one closure per coset, for the member with the least
    centralizer (then the least index).
    """
    if g.order == 1:
        return ()
    gens: list[int] = []
    closure = {g.identity}
    if g.order <= 128:
        # prefer elements with small centralizers among equal closure
        # growth; central picks tend to force an extra generator
        cent = (g.array == g.array.T).sum(axis=1).tolist()
        while len(closure) < g.order:
            least = g.array[:, list(closure)].min(axis=1).tolist()  # x -> min xH
            pick: dict[int, int] = {}  # a coset's least element -> its pick
            for x in sorted(set(range(g.order)) - closure, key=lambda x: (cent[x], x)):
                pick.setdefault(least[x], x)
            grown = {x: _closure(g, gens + [x]) for x in pick.values()}
            best = min(grown, key=lambda x: (-len(grown[x]), cent[x], x))
            gens.append(best)
            closure = grown[best]
        return tuple(gens)
    order = {x: g.element_order(x) for x in range(g.order)}
    candidates = sorted(range(g.order), key=lambda x: (-order[x], x))
    for x in candidates:
        if x in closure:
            continue
        gens.append(x)
        closure = _closure(g, gens)
        if len(closure) == g.order:
            break
    return tuple(gens)


# ---------------------------------------------------------------------------
# homomorphisms and quotients
# ---------------------------------------------------------------------------


@record(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(int(x) for x in self.images))
        s, t, im = self.source, self.target, self.images
        if len(im) != s.order:
            raise InvariantViolation("image list has wrong length")
        if any(not 0 <= x < t.order for x in im):
            raise InvariantViolation("image index out of range")
        if im[s.identity] != t.identity:
            raise InvariantViolation("identity is not mapped to the identity")
        # f(xs) = f(x)f(s) for every x and generator s implies f(xy) = f(x)f(y)
        f, gens = np.array(im, dtype=np.int64), list(s.generators)
        if not np.array_equal(f[s.array[:, gens]], t.array[f[:, None], f[gens]]):
            bad = np.argwhere(f[s.array] != t.array[f[:, None], f])
            a, b = bad[0].tolist()  # the first pair in row-major order
            raise InvariantViolation(f"not a homomorphism at pair ({a},{b})")

    def apply(self, g: int) -> int:
        return self.images[g]

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        return GroupHom(
            other.source, self.target, tuple(self.images[x] for x in other.images)
        )

    def preimage(self, subset) -> tuple[int, ...]:
        """The source elements that map into ``subset``, in increasing order."""
        target = set(subset)
        return tuple(x for x in range(self.source.order) if self.images[x] in target)

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, self.preimage((self.target.identity,)))

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(range(g.order)))


@lru_cache(maxsize=MEMO_SIZE)
def quotient_group(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """G/N with minimal-index coset representatives, plus the projection,
    built once per (G, N).  Coset i is the one whose least element is the
    i-th smallest.  Labels are not part of group equality, so a memo hit
    may carry an equal group's label."""
    check_subgroup_of(g, n)
    if not n.is_normal():
        raise NotNormal("quotient requires a normal subgroup")
    least = g.array[list(n.elements)].min(axis=0)  # x -> the least element of Nx
    reps, images = np.unique(least, return_inverse=True)
    q = FiniteGroup(images[g.array[np.ix_(reps, reps)]].tolist(), 0, f"{g.label}/N")
    return q, GroupHom(g, q, images.tolist())


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    inv = np.array(g.inv, dtype=np.int64)
    # [a, b] = (a b a^-1) b^-1 at [a, b]
    comm = g.array[g.array[g.array, inv[:, None]], inv[None, :]]
    return subgroup_from_generators(g, set(comm.ravel().tolist()))


@record(frozen=True)
class AbelianizationMap:
    """Projection of a finite group onto its abelianization.

    Plays the role of a homomorphism whose target is a
    :class:`FiniteAbelianGroup`; images are coordinate vectors.
    """

    group: FiniteGroup
    target: FiniteAbelianGroup
    images: tuple[tuple[int, ...], ...]

    def apply(self, g: int) -> tuple[int, ...]:
        return self.images[g]


def abelianization(g: FiniteGroup) -> tuple[FiniteAbelianGroup, AbelianizationMap]:
    """G/[G,G] in invariant-factor form with the projection on elements,
    computed once per group: this is ``g.abelianization``."""
    return g.abelianization


# ---------------------------------------------------------------------------
# structure of an enumerated abelian group
# ---------------------------------------------------------------------------


@record(frozen=True)
class EnumeratedAbelianStructure:
    """Invariant factors of an abelian group given by enumeration.

    ``coordinates`` sends an element to its vector in prod Z/factors, and
    ``element`` is its inverse.
    """

    factors: tuple[int, ...]
    _coords: dict

    def coordinates(self, element):
        return self._coords[element]

    @cached_property
    def _elements(self) -> dict:
        return {c: x for x, c in self._coords.items()}

    def element(self, coords):
        """The element with these coordinates, each read mod its factor."""
        return self._elements[tuple(int(c) % d for c, d in zip(coords, self.factors))]


def abelian_structure_from_elements(elements, add, zero) -> EnumeratedAbelianStructure:
    """Digit decomposition of a finite abelian group given by a full
    element list and an addition callable.

    Works by building a polycyclic generating sequence: each new
    generator gets a relative order over the span so far, the resulting
    triangular relation matrix goes through the Smith normal form.
    """
    from . import lattice

    span = {zero: ()}
    gens = []
    rel_orders = []
    rel_tails = []
    for x in elements:
        if x in span:
            continue
        k = len(gens)
        gens.append(x)
        powers = [zero]
        cur = x
        while cur not in span:
            powers.append(cur)
            cur = add(cur, x)
        m = len(powers)
        rel_orders.append(m)
        rel_tails.append(span[cur])
        new_span = dict(span)
        for e in range(1, m):
            ge = powers[e]
            for h, hc in span.items():
                vec = hc + (0,) * (k - len(hc)) + (e,)
                new_span[add(ge, h)] = vec
        span = new_span
    k = len(gens)
    coords = {x: c + (0,) * (k - len(c)) for x, c in span.items()}
    rel = [
        tuple(
            (rel_orders[i] if j == i else -(rel_tails[i][j] if j < len(rel_tails[i]) else 0))
            for j in range(k)
        )
        for i in range(k)
    ]
    diag, _, v, _ = lattice.snf_transforms(rel) if k else ((), (), (), ())
    kept = [i for i in range(k) if diag[i] != 1]
    factors = tuple(diag[i] for i in kept)
    classified = {
        x: tuple(lattice.vec_mat(c, v)[i] % diag[i] for i in kept) if k else ()
        for x, c in coords.items()
    }
    return EnumeratedAbelianStructure(factors, classified)
