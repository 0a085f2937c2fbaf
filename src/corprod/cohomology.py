"""Cohomology of finite groups with finite abelian coefficients.

Degree 0 is the fixed submodule.  Degree 1 is crossed homomorphisms
modulo principal ones; a crossed homomorphism is determined by its
values on a generating set, so the cocycle space is the solution group
of a small congruence system indexed by the Schreier basis of the
relation module.  Degree 2 uses the classical correspondence between
normalized factor sets and G-equivariant homomorphisms from the
abelianized relation module: the class group is

    Hom_G(N^ab, A) / (restrictions of derivations of the free group),

and each class is materialized as an explicit normalized 2-cocycle
f(g, h) = phi(w_g w_h w_{gh}^{-1}), so all returned representatives
satisfy the inhomogeneous cocycle identities exactly.

A cochain is an int64 array reduced mod the coefficient factors, of
shape (|G|, r) in degree 1 and (|G|, |G|, r) in degree 2, and the
representatives of a class group are one read-only stack of them.  The H^2
representatives are one scatter-add of phi over the edges each pair of
transversal words crosses; ``classify_many`` reads phi back by a gather
along the edge words.  Coordinates are batched: ``classify_many`` takes a
stack of cochains, any integer array-like with a leading axis, such as
the crossed-hom oracle's nested tuples, and answers it with one
subquotient call; ``classify`` is ``classify_many`` of one cochain.
Inflation, restriction and the connecting map classify all their columns
in one call.  The unramified part H^i_nr(G, A) is the image of inflation
from G/closure(U), an ``AbSubgroup`` of H^i(G, A): 0 when the closure is G,
all of H^i when it is 1, and inflation runs only for a proper, nontrivial
closure.  The first two need the group H^i only (``cohomology_value``):
when the exponent of A is a prime p, it is read off the F_p-ranks of the
systems the engine would solve, with no representatives.

Degrees >= 3 come from a free (Z/p^k)[G]-resolution, one prime at a time
(``resolution_cohomology``), as groups without cochains; at q = p its
steps are F_p-linear algebra.  Iterated
dimension shifting through coinduced modules (``shifted_cohomology``)
is kept as its oracle, and fixes the cap: the engine refuses exactly
the inputs shifting refuses, with the same message.  The coinduced
module Maps(G, A) acts by a permutation of coordinates.
Evaluation at 1 is a left inverse of A -> Maps(G, A), so the shifted
module A' = Maps(G, A)/A is the maps vanishing at 1: f projects to
f - emb(f(1)), and the action on A' is a gather of projection columns.
The connecting map scatters each cocycle of A' into Maps(G, A), reads the
preimage of its coboundary at the identity coordinates and verifies it by
re-embedding.

A module stores its action once, as a read-only int64 array with every
row reduced mod its coefficient factor.  Bulk assembly reads the array,
and its int64 products are refused with ``SizeCapExceeded`` before they
could wrap; ``act`` reads it with Python integers and is always exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from . import lattice, modular
from .abelian import AbHom, AbSubgroup, FiniteAbelianGroup, full_subgroup
from .errors import (
    MEMO_SIZE,
    InvariantViolation,
    PreconditionError,
    SizeCapExceeded,
    VerificationFailure,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    check_subgroup_of,
    normal_closure,
    quotient_group,
    spanning_tree,
)
from .lattice import Matrix, Vector
from .presentation import FreePresentation, free_presentation
from .records import field, record

DEFAULT_COH_CAP = 20_000
# the most bytes one array of derivation sums may take: the largest that
# the tests, the golden file and corpus seeds 0-8 build is 5.6 MB
DERIVATION_BYTE_BUDGET = 64 * 2**20


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@record(frozen=True, eq=False)
class GModule:
    """A finite abelian group with an action of a finite group by
    automorphism matrices (column convention, one matrix per element).

    ``action`` is the only stored form of the action: a read-only int64
    array of shape (|G|, r, r), row i of every matrix reduced mod factor
    i.  Any integer array-like of that shape is accepted, entries of any
    size; it is reduced before anything is multiplied.  Bulk assembly
    reads the array; ``act`` reads it with Python integers, so a single
    action stays exact.
    """

    group: FiniteGroup
    coeff: FiniteAbelianGroup
    action: np.ndarray

    def __post_init__(self):
        g, a = self.group, self.coeff
        n, r = g.order, a.rank
        modular.check_moduli(a.factors[-1:], "coefficient factor")  # the largest of the chain
        try:
            raw = np.asarray(self.action)
        except ValueError as exc:  # ragged nesting
            raise InvariantViolation(f"malformed action matrices: {exc}") from exc
        if r == 0 and raw.size == 0 and len(raw) == n:  # n empty matrices
            raw = raw.reshape(n, 0, 0).astype(np.int64)
        if raw.shape != (n, r, r) or raw.dtype.kind not in "biO":
            raise InvariantViolation(
                f"action must be integer matrices of shape ({n}, {r}, {r}), "
                f"not {raw.dtype} of shape {raw.shape}"
            )
        fac = np.array(a.factors, dtype=np.int64)[:, None]
        reduced = np.mod(raw, fac)  # exact on an object array of large ints
        bound = int(reduced.max()) if reduced.size else 0
        modular.check_int64_products(bound, r, "module action matrices")
        arr = reduced.astype(np.int64, copy=False)
        arr.flags.writeable = False
        object.__setattr__(self, "action", arr)
        if not np.array_equal(arr[g.identity], np.eye(r, dtype=np.int64)):
            raise InvariantViolation("identity must act as the identity matrix")
        # multiplicativity against a generating set implies it everywhere.
        # When every row has at most one nonzero entry (a monomial action,
        # such as the permutation of a coinduced module), row i of arr[x]
        # is val[x, i] at column col[x, i], and so is each product's row.
        # This fork pays on the corpus, whose cold call is 2.7% slower without it
        monomial = r > 0 and bool((np.count_nonzero(arr, axis=2) <= 1).all())
        if monomial:
            col, val = arr.argmax(axis=2), arr.max(axis=2)  # entries are >= 0
        for s in g.generators:
            xs = g.array[:, s]
            if monomial:
                # row i of arr[x] @ arr[s] is row col[x, i] of arr[s] times val[x, i]
                prod_val = val * val[s][col] % fac[:, 0]
                ok = np.array_equal(prod_val, val[xs]) and bool(
                    ((prod_val == 0) | (col[s][col] == col[xs])).all()
                )
            else:
                ok = np.array_equal(np.mod(arr @ arr[s], fac), arr[xs])
            if not ok:
                raise InvariantViolation(f"action is not a homomorphism against generator {s}")
        object.__setattr__(self, "_hash", hash((g, a, arr.tobytes())))

    def __eq__(self, other):
        if not isinstance(other, GModule):
            return NotImplemented
        return (
            self.group == other.group
            and self.coeff == other.coeff
            and np.array_equal(self.action, other.action)
        )

    def __hash__(self):
        return self._hash

    def act(self, g: int, vec) -> Vector:
        # Python ints: an int64 mat-vec could wrap on unreduced vectors
        return self.coeff.reduce(lattice.mat_vec(self.action[g].tolist(), vec))

    def is_trivial_action(self) -> bool:
        return bool((self.action == np.eye(self.coeff.rank, dtype=np.int64)).all())


@lru_cache(maxsize=MEMO_SIZE)
def trivial_module(group: FiniteGroup, coeff: FiniteAbelianGroup) -> GModule:
    """The trivial action of ``group`` on ``coeff``, built once per pair."""
    r = coeff.rank
    return GModule(group, coeff, np.broadcast_to(np.eye(r, dtype=np.int64), (group.order, r, r)))


def module_from_generator_matrices(
    group: FiniteGroup, coeff: FiniteAbelianGroup, gen_matrices: dict[int, Matrix]
) -> GModule:
    """Extend matrices given on a generating set to the whole group.

    The listed elements must generate the group; the extension is by
    multiplicativity of the reduced matrices and the result is validated
    as a homomorphism.
    """
    n, r = group.order, coeff.rank
    modular.check_int64_products(coeff.exponent - 1, r, "module action extension")
    fac = np.array(coeff.factors, dtype=np.int64)[:, None]
    gens = {}
    for g, m in gen_matrices.items():
        g = int(g)
        if not 0 <= g < n:
            raise PreconditionError(f"action element {g} out of range")
        if len(m) != r or any(len(row) != r for row in m):
            raise PreconditionError(
                f"action matrix for element {g} must be {r}x{r}"
            )
        reduced = [[int(x) % d for x in row] for row, d in zip(m, coeff.factors)]
        gens[g] = np.array(reduced, dtype=np.int64).reshape(r, r)
    acts = np.zeros((n, r, r), dtype=np.int64)
    acts[group.identity] = np.eye(r, dtype=np.int64)
    mats = list(gens.values())
    tree = spanning_tree(group, list(gens))
    for x, s, y in tree:
        acts[y] = np.mod(acts[x] @ mats[s], fac)
    if len(tree) + 1 < n:
        raise PreconditionError(
            "the provided action elements do not generate the group"
        )
    module = GModule(group, coeff, acts)
    # redundantly listed elements must agree with the extension
    for g, mg in gens.items():
        if not np.array_equal(mg, module.action[g]):
            raise PreconditionError(
                f"matrix given for element {g} contradicts the multiplicative extension"
            )
    return module


# ---------------------------------------------------------------------------
# fixed submodules
# ---------------------------------------------------------------------------


def fixed_submodule(m: GModule, h: Subgroup) -> AbSubgroup:
    """{a : x.a = a for all x in h} as a subgroup of the coefficients."""
    check_subgroup_of(m.group, h)
    a = m.coeff
    r = a.rank
    gens = [x for x in h.elements if x != m.group.identity]
    rows = (m.action[gens] - np.eye(r, dtype=np.int64)).reshape(len(gens) * r, r)
    return AbSubgroup(a, tuple(modular.congruence_kernel(rows, a.factors * len(gens), a.factors)))


@lru_cache(maxsize=MEMO_SIZE)
def induced_quotient_action(m: GModule, n: Subgroup) -> tuple[GModule, "object", AbSubgroup]:
    """The G/N-module structure on A^N, for normal N, built once per (module, N).

    Returns (module over G/N, projection G -> G/N, the fixed submodule A^N).
    """
    q, proj = quotient_group(m.group, n)
    fixed = fixed_submodule(m, n)
    a, k = m.coeff, fixed.structure.rank
    inc = np.array(fixed.inclusion.matrix, dtype=np.int64).reshape(a.rank, k)
    # the first element of each coset acts on the generators of A^N:
    # row (x, j) is x applied to generator j, and its coordinates are column j
    _, section = np.unique(np.array(proj.images, dtype=np.int64), return_index=True)
    moved = _act(m, section[:, None], inc.T[None])
    coords = fixed.presentation.classify_many(moved.reshape(q.order * k, a.rank))
    acts = np.array(coords, dtype=np.int64).reshape(q.order, k, k).transpose(0, 2, 1)
    return GModule(q, fixed.structure, acts), proj, fixed


# ---------------------------------------------------------------------------
# cohomology groups
# ---------------------------------------------------------------------------


@record(frozen=True, eq=False)
class CohomologyGroup:
    """H^degree with explicit representatives.

    ``representatives`` is one read-only int64 stack of shape (count,) +
    (|G|,)*degree + (r,), one cocycle per generator of ``value``, reduced
    mod the coefficient factors: a value per group element in degree 1,
    a normalized factor set in degree 2.  ``classify_many`` sends a stack
    of cocycles, an integer array-like of that shape with a leading axis,
    nested tuples included, to a tuple of coordinate vectors in
    ``value``; ``classify`` is ``classify_many`` of one cocycle.  One
    instance is shared by every caller, so it is frozen, and equal only
    to itself.
    """

    degree: int
    value: FiniteAbelianGroup
    representatives: np.ndarray
    _classify_many: object = field(repr=False)

    def classify_many(self, cocycles) -> tuple[Vector, ...]:
        return self._classify_many(cocycles)

    def classify(self, cocycle) -> Vector:
        return self.classify_many([cocycle])[0]

    @property
    def order(self) -> int:
        return self.value.order


def _check_cap(m: GModule, degree: int, cap: int) -> None:
    _check_weight(m.group.order, m.coeff.rank, degree, cap)


def _check_weight(order: int, rank: int, degree: int, cap: int) -> None:
    weight = order**degree * max(rank, 1)
    if weight > cap:
        raise SizeCapExceeded(
            f"|G|^{degree} * rank = {weight} exceeds the cohomology cap {cap}"
        )


def _cochains(m: GModule, degree: int, stack) -> np.ndarray:
    """Any integer array-like of shape (count,) + (|G|,)*degree + (r,) as
    a stack of reduced int64 cochains."""
    shape = (len(stack),) + (m.group.order,) * degree + (m.coeff.rank,)
    return np.mod(np.asarray(stack, dtype=np.int64).reshape(shape), m.coeff.factors)


def _act(m: GModule, xs, vecs: np.ndarray) -> np.ndarray:
    """x.v for reduced int64 vectors, broadcast over the leading axes of
    ``xs`` and ``vecs``, reduced."""
    a = m.coeff
    bound = int(m.action.max(initial=0))
    modular.check_int64_products(a.exponent - 1, a.rank, "cochain action", other=bound)
    return np.mod((m.action[xs] @ vecs[..., None])[..., 0], a.factors)


def _derivation_sums(m: GModule, pres: FreePresentation) -> np.ndarray:
    """D[e, s] = sum of sign * action[prefix] over the terms of d(n_e) in
    generator s, shape (edges, generators, r, r), row i reduced mod factor
    i: a free derivation d restricts to n_e as sum_s D[e, s] . d(s)."""
    r = m.coeff.rank
    edge, sign, prefix, gen = pres.derivation_table
    for what, count in (("term", edge.size), ("sum", pres.rank * len(pres.gens))):
        size = count * r * r * 8
        if size > DERIVATION_BYTE_BUDGET:
            raise SizeCapExceeded(
                f"derivation sums: the {what} array of {size} bytes exceeds "
                f"the byte budget {DERIVATION_BYTE_BUDGET}"
            )
    out = np.zeros((pres.rank, len(pres.gens), r, r), dtype=np.int64)
    if edge.size:
        modular.check_int64_products(
            m.coeff.exponent - 1, int(np.bincount(edge).max()), "derivation sums", other=1
        )
        np.add.at(out, (edge, gen), sign[:, None, None] * m.action[prefix])
    return np.mod(out, np.array(m.coeff.factors, dtype=np.int64)[:, None])


def cohomology(m: GModule, degree: int, cap: int = DEFAULT_COH_CAP) -> CohomologyGroup:
    """H^1 (crossed homomorphisms) or H^2 (normalized factor sets), with
    representatives and coordinates; a caller that needs only the group
    reads ``cohomology_value``."""
    if degree not in (1, 2):
        raise PreconditionError("direct computation only in degrees 1 and 2")
    return _cohomology_cached(m, degree, cap)


@lru_cache(maxsize=MEMO_SIZE)
def _cohomology_cached(m: GModule, degree: int, cap: int) -> CohomologyGroup:
    _check_cap(m, degree, cap)
    # |G| kills H^d and so does exp(A): the group is 0 when they are
    # coprime, which A = 0 (exponent 1) and G = 1 are too
    if gcd(m.group.order, m.coeff.exponent) == 1:
        reps = np.zeros((0,) + (m.group.order,) * degree + (m.coeff.rank,), dtype=np.int64)
        reps.flags.writeable = False
        zero = FiniteAbelianGroup(())
        return CohomologyGroup(degree, zero, reps, lambda cocycles: ((),) * len(cocycles))
    if degree == 1:
        return _h1(m)
    return _h2(m)


@lru_cache(maxsize=MEMO_SIZE)
def cohomology_value(m: GModule, degree: int, cap: int = DEFAULT_COH_CAP) -> FiniteAbelianGroup:
    """The group H^1 or H^2 only, with no representatives, once per
    (module, degree, cap), refused as ``cohomology`` refuses.  When the
    exponent of A is a prime p dividing |G|, the cocycles are the kernel
    of the system ``_h1`` or ``_h2`` solves and the coboundaries the span
    of its boundary rows, both F_p-vector spaces, so H^degree is
    (Z/p)^(width - rank system - rank boundary).  Any other exponent,
    the coprime zero included, is ``cohomology(m, degree, cap).value``."""
    if degree not in (1, 2):
        raise PreconditionError("direct computation only in degrees 1 and 2")
    _check_cap(m, degree, cap)
    p = m.coeff.exponent
    if m.group.order % p or modular._factor(p) != ((p, 1),):
        return cohomology(m, degree, cap).value
    pres = free_presentation(m.group)
    system, boundary = (_h1_system if degree == 1 else _h2_system)(m, pres)
    ranks = modular.rank_mod_p(system, p) + modular.rank_mod_p(boundary, p)
    return FiniteAbelianGroup((p,) * (system.shape[1] - ranks))


def _h1_system(m: GModule, pres: FreePresentation) -> tuple[np.ndarray, np.ndarray]:
    """H^1 on the values at the generators: the cocycle condition's rows
    and the principal crossed homomorphisms' rows, column (s, j)."""
    r, k = m.coeff.rank, len(pres.gens)
    # row (e, i): the cocycle condition on the edge n_e
    rows = _derivation_sums(m, pres).transpose(0, 2, 1, 3).reshape(pres.rank * r, k * r)
    # row i, the principal crossed homomorphism of e_i: s.e_i - e_i
    fac = np.array(m.coeff.factors, dtype=np.int64)[:, None]
    b1 = np.mod(m.action[list(pres.gens)] - np.eye(r, dtype=np.int64), fac)
    return rows, b1.transpose(2, 0, 1).reshape(r, k * r)


def _h2_system(m: GModule, pres: FreePresentation) -> tuple[np.ndarray, np.ndarray]:
    """H^2 on the values at the edges: the equivariance rows of the homs
    from the relation module and the free derivations' rows, column (e, j)."""
    r, rho = m.coeff.rank, pres.rank
    # row (s, e, i): conj_s[e][e2] [i == j] - [e == e2] action[s][i][j]
    ident_r, ident_rho = np.eye(r, dtype=np.int64), np.eye(rho, dtype=np.int64)
    rows = np.concatenate([
        np.kron(conj, ident_r) - np.kron(ident_rho, m.action[gelt])
        for conj, gelt in zip(pres.conjugation_table, pres.gens)
    ])
    # row (s0, i): the restriction of the derivation with d(s0) = e_i
    den = _derivation_sums(m, pres).transpose(1, 3, 0, 2).reshape(len(pres.gens) * r, rho * r)
    return rows, den


def _h1(m: GModule) -> CohomologyGroup:
    g, a = m.group, m.coeff
    pres = free_presentation(g)
    r = a.rank
    k = len(pres.gens)
    col_moduli = a.factors * k
    rows, b1 = _h1_system(m, pres)
    z1 = modular.congruence_kernel(rows, a.factors * pres.rank, col_moduli)
    sq = modular.subquotient(col_moduli, z1, b1)
    value = FiniteAbelianGroup(sq.factors)
    # f(1) = 0 and f(ws) = f(w) + w.f(s): f(b) sums prefix . f(letter) along w_b
    gen_vals = np.array(sq.reps, dtype=np.int64).reshape(len(sq.reps), k, r)
    prefix, letter = pres.coset_walks
    modular.check_int64_products(a.exponent - 1, prefix.shape[1], "degree-1 cochains", other=1)
    tables = np.zeros((len(sq.reps), g.order, r), dtype=np.int64)
    for t in range(prefix.shape[1]):
        ys = np.flatnonzero(letter[:, t] >= 0)
        tables[:, ys] += _act(m, prefix[ys, t], gen_vals[:, letter[ys, t]])
    np.mod(tables, a.factors, out=tables)
    tables.flags.writeable = False

    gen_rows = list(pres.gens)

    def classify_many(cocycles) -> tuple[Vector, ...]:
        c = _cochains(m, 1, cocycles)
        return sq.classify_many(c[:, gen_rows].reshape(len(c), k * r))

    return CohomologyGroup(1, value, tables, classify_many)


def _h2(m: GModule) -> CohomologyGroup:
    g, a = m.group, m.coeff
    pres = free_presentation(g)
    r = a.rank
    rho = pres.rank
    col_moduli = a.factors * rho
    # G-equivariant homs from the relation module to A, modulo the
    # restrictions of free-group derivations
    rows, den = _h2_system(m, pres)
    hom_gens = modular.congruence_kernel(rows, a.factors * (len(pres.gens) * rho), col_moduli)
    sq = modular.subquotient(col_moduli, hom_gens, den)
    value = FiniteAbelianGroup(sq.factors)

    n = g.order
    pair, pair_edge = pres.pair_edges
    edge, sign, prefix, gen = pres.derivation_table
    longest = max(pres.coset_walks[0].shape[1], int(np.bincount(edge).max()))
    modular.check_int64_products(a.exponent - 1, longest, "degree-2 cochains", other=1)

    # f(x, y) = phi(w_x w_y w_xy^-1): the sum of phi over the edges the pair crosses
    phis = np.array(sq.reps, dtype=np.int64).reshape(len(sq.reps), rho, r)
    tables = np.zeros((len(sq.reps), n, n, r), dtype=np.int64)
    np.add.at(tables.reshape(len(sq.reps), n * n, r), (slice(None), pair), phis[:, pair_edge])
    np.mod(tables, a.factors, out=tables)
    tables.flags.writeable = False

    # phi(n_e) read off a factor set along the edge word: a letter s read at
    # x adds f(x, s); an inverse letter read at x = p.s adds f(x, s^-1) - p.f(s, s^-1)
    letters = np.array(pres.gens, dtype=np.int64)[gen]
    neg = sign < 0
    x = np.where(neg, g.array[prefix, letters], prefix)
    y = np.where(neg, np.array(g.inv, dtype=np.int64)[letters], letters)

    def classify_many(cocycles) -> tuple[Vector, ...]:
        c = _cochains(m, 2, cocycles)
        terms = c[:, x, y]
        terms[:, neg] -= _act(m, prefix[neg], c[:, letters[neg], y[neg]])
        phi = np.zeros((len(c), rho, r), dtype=np.int64)
        np.add.at(phi, (slice(None), edge), terms)
        return sq.classify_many(np.mod(phi, a.factors).reshape(len(c), rho * r))

    return CohomologyGroup(2, value, tables, classify_many)


def is_cocycle(m: GModule, degree: int, cocycle) -> bool:
    """The degree-1 or degree-2 cocycle identity, on every pair or triple
    at once, and f(1) = 0 or f(1, -) = 0, which with the identity gives
    f(-, 1) = 0."""
    if degree not in (1, 2):
        raise PreconditionError("cocycle check only for degrees 1 and 2")
    g, fac = m.group, m.coeff.factors
    n, e = g.order, g.identity
    modular.check_int64_products(m.coeff.exponent - 1, 2, "cocycle identity", other=1)
    table = g.array
    c = _cochains(m, degree, [cocycle])[0]
    # x.f(y) or x.f(y, z), at every x
    moved = _act(m, np.arange(n).reshape((n,) + (1,) * degree), c[None])
    if degree == 1:  # f(xy) = f(x) + x.f(y)
        lhs, rhs = c[table], c[:, None] + moved
    else:  # x.f(y, z) + f(x, yz) = f(xy, z) + f(x, y)
        lhs, rhs = moved + c[:, table], c[table] + c[:, :, None]
    return not c[e].any() and np.array_equal(np.mod(lhs, fac), np.mod(rhs, fac))


# ---------------------------------------------------------------------------
# inflation, restriction, unramified parts
# ---------------------------------------------------------------------------


def inflation(m: GModule, n: Subgroup, degree: int, cap: int = DEFAULT_COH_CAP) -> AbHom:
    """H^degree(G/N, A^N) -> H^degree(G, A) by cocycle pullback."""
    if not n.is_normal():
        raise PreconditionError("inflation requires a normal subgroup")
    mq, proj, fixed = induced_quotient_action(m, n)
    h_q = cohomology(mq, degree, cap)
    h_g = cohomology(m, degree, cap)
    a, an = m.coeff, fixed.structure
    if len(h_q.representatives):
        modular.check_int64_products(an.exponent - 1, an.rank, "inflation", other=a.exponent - 1)
    inc = np.array(fixed.inclusion.matrix, dtype=np.int64).reshape(a.rank, an.rank)
    idx = (slice(None),) + np.ix_(*(np.array(proj.images, dtype=np.int64),) * degree)
    cols = h_g.classify_many(np.mod(h_q.representatives[idx] @ inc.T, a.factors))
    return AbHom.from_columns(h_q.value, h_g.value, cols)


def restricted_module(m: GModule, h: Subgroup) -> tuple[GModule, tuple[int, ...]]:
    """``m`` restricted to ``h`` as a group of its own, and the elements of
    ``h`` in the new group's order: the identity first, then increasing."""
    g = m.group
    check_subgroup_of(g, h)
    ordered = [g.identity] + [x for x in h.elements if x != g.identity]
    index = np.zeros(g.order, dtype=np.int64)
    index[ordered] = np.arange(len(ordered))
    sub = FiniteGroup(index[g.array[np.ix_(ordered, ordered)]].tolist(), 0, f"{g.label}|sub")
    return GModule(sub, m.coeff, m.action[ordered]), tuple(ordered)


def restriction(m: GModule, h: Subgroup, degree: int, cap: int = DEFAULT_COH_CAP) -> AbHom:
    """Restriction of cocycle classes to a subgroup."""
    mh, ordered = restricted_module(m, h)
    h_g = cohomology(m, degree, cap)
    h_h = cohomology(mh, degree, cap)
    idx = (slice(None),) + np.ix_(*(np.array(ordered, dtype=np.int64),) * degree)
    cols = h_h.classify_many(h_g.representatives[idx])
    return AbHom.from_columns(h_g.value, h_h.value, cols)


def unramified_subgroup(
    m: GModule, u: Subgroup, degree: int, cap: int = DEFAULT_COH_CAP
) -> AbSubgroup:
    """H^i_nr(G, A) in H^i(G, A): the inflation image from the quotient by
    the normal closure N of ``u``.  Replacing u by its closure changes
    nothing.  The quotient is trivial when N = G, so H^i_nr is 0, and
    inflation along G -> G/1 is the identity, so N = 1 gives all of H^i;
    these two need only the group H^i, read by ``cohomology_value`` (off
    two ranks at a prime exponent).  Inflation, and with it the full
    engine, runs only for a proper, nontrivial N."""
    n = normal_closure(m.group, u)
    if n.order in (1, m.group.order):
        value = cohomology_value(m, degree, cap)
        return full_subgroup(value) if n.order == 1 else AbSubgroup(value, ())
    return inflation(m, n, degree, cap).image()


# ---------------------------------------------------------------------------
# coinduced modules and dimension shifting
# ---------------------------------------------------------------------------


@record(frozen=True)
class CoinducedModule:
    """Maps(G, A) with the translation action, with A embedded
    equivariantly and the quotient module A' = Maps(G, A)/A.

    Component (i, y) of Maps(G, A), the i-th coordinate of the value at y,
    sits at position i*n + y.  Translation by x only relabels coordinates:
    coordinate p of x.f is coordinate ``perm[x, p]`` of f.  Evaluation at 1
    is a left inverse of the embedding, so A' is the maps vanishing at 1:
    its coordinates are the components (i, y) with y != 1, in order, and
    f projects to f - emb(f(1)).
    """

    base: GModule
    module: GModule
    embedding: AbHom
    quotient: GModule
    perm: np.ndarray = field(repr=False, compare=False)


def coinduced_module(m: GModule) -> CoinducedModule:
    """The coinduced module Maps(G, A) of ``m``; plain coefficients are
    passed as ``trivial_module(G, A)``."""
    g, a = m.group, m.coeff
    n, r = g.order, a.rank
    # component (i, x) at position i*n + x keeps the invariant chain valid
    factors = tuple(d for d in a.factors for _ in range(n))
    coind_ab = FiniteAbelianGroup(factors)
    # (x.f)(y) = f(yx)
    perm = (np.arange(r)[None, :, None] * n + g.array.T[:, None, :]).reshape(n, n * r)
    coind = GModule(g, coind_ab, np.eye(n * r, dtype=np.int64)[perm])

    # a in A goes to y -> y.a; column i is the image of e_i
    emb = m.action.transpose(1, 0, 2).reshape(n * r, r)
    embedding = AbHom(a, coind_ab, emb.tolist())
    keep = np.arange(n * r) % n != g.identity  # the components (i, y), y != 1
    quotient_ab = FiniteAbelianGroup(tuple(d for d in a.factors for _ in range(n - 1)))
    # f -> f - emb(f(1)) on the kept coordinates; GModule reduces the rows
    proj = np.eye(n * r, dtype=np.int64)[keep]
    proj[:, np.arange(r) * n + g.identity] -= emb[keep]
    # x acts on A' as the projection of x.f, a gather of projection columns
    q_acts = proj[:, np.argsort(perm, axis=1)[:, keep]].transpose(1, 0, 2)
    return CoinducedModule(m, coind, embedding, GModule(g, quotient_ab, q_acts), perm)


@record(frozen=True)
class DimensionShiftReport:
    h2_factors: tuple[int, ...]
    shifted_h1_factors: tuple[int, ...]
    coind_h1_factors: tuple[int, ...]
    connecting_bijective: bool

    @property
    def passed(self) -> bool:
        return (
            self.h2_factors == self.shifted_h1_factors
            and self.coind_h1_factors == ()
            and self.connecting_bijective
        )


def connecting_map(coind: CoinducedModule, cap: int = DEFAULT_COH_CAP) -> AbHom:
    """The shift isomorphism H^1(G, A') -> H^2(G, A) on representatives.

    A cocycle f of A' is a map into the maps vanishing at 1; scattered into
    Maps(G, A), its coboundary v(x, y) = f(x) + x.f(y) - f(xy) lies in the
    embedded A, and evaluation at the identity, a left inverse of the
    embedding, reads off the preimage.  Re-embedding every preimage
    verifies it exactly.
    """
    m = coind.base
    g, a = m.group, m.coeff
    n, r = g.order, a.rank
    h1q = cohomology(coind.quotient, 1, cap)
    h2 = cohomology(m, 2, cap)
    fac = np.array(coind.module.coeff.factors, dtype=np.int64)
    emb = np.array(coind.embedding.matrix, dtype=np.int64).reshape(n * r, r)
    at_identity = np.arange(r) * n + g.identity
    keep = np.arange(n * r) % n != g.identity  # the coordinates of A'
    modular.check_int64_products(a.exponent - 1, r, "connecting map re-embedding")
    preimages = []
    for rep in h1q.representatives:
        lifted = np.zeros((n, n * r), dtype=np.int64)
        lifted[:, keep] = rep
        # x.lifted[y] is lifted[y] read through perm[x]
        moved = lifted[np.arange(n)[None, :, None], coind.perm[:, None, :]]
        v = np.mod(lifted[:, None, :] + moved - lifted[g.array], fac)
        pre = v[:, :, at_identity]
        if not np.array_equal(np.mod(pre @ emb.T, fac), v):
            raise VerificationFailure(
                "shift cocycle does not lie in the embedded coefficients"
            )
        preimages.append(pre)
    return AbHom.from_columns(h1q.value, h2.value, h2.classify_many(preimages))


@lru_cache(maxsize=MEMO_SIZE)
def dimension_shift_check(m: GModule, cap: int = DEFAULT_COH_CAP) -> DimensionShiftReport:
    """Verify H^1(G, A') = H^2(G, A) and the acyclicity of Maps(G, A),
    once per module and cap.  H^2(G, A) weighs at least as much as H^1 of
    Maps(G, A) and of A', so its cap check refuses before Maps(G, A) is
    built."""
    _check_cap(m, 2, cap)
    coind = coinduced_module(m)
    h2 = cohomology(m, 2, cap)
    h1q = cohomology(coind.quotient, 1, cap)
    h1c = cohomology(coind.module, 1, cap)
    delta = connecting_map(coind, cap)
    bijective = delta.is_injective() and delta.is_surjective()
    return DimensionShiftReport(
        h2.value.factors, h1q.value.factors, h1c.value.factors, bijective
    )


def shifted_cohomology(m: GModule, degree: int, cap: int = DEFAULT_COH_CAP) -> CohomologyGroup:
    """H^i for i >= 3 via iterated dimension shifting; H^i(G, A) is
    computed as H^2(G, A^(i-2)) with A^(k+1) = Maps(G, A^(k)) / A^(k).

    The oracle of ``resolution_cohomology``: the rank grows by |G|-1 per
    degree, so only small cases are in reach, and its cap checks set the
    inputs both refuse."""
    if degree < 3:
        return cohomology(m, degree, cap)
    current = m
    for _ in range(degree - 2):
        _check_cap(current, 2, cap)
        current = coinduced_module(current).quotient
    return cohomology(current, 2, cap)


# ---------------------------------------------------------------------------
# free resolutions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def resolution_cohomology(m: GModule, degree: int, cap: int = DEFAULT_COH_CAP) -> FiniteAbelianGroup:
    """H^degree(G, A) for degree >= 1, as a group, from a free resolution.

    H^n(G, A) is the sum of H^n(G, A_p) over the primes p dividing both
    |G| and the exponent of A, A_p being the p-part, of exponent q = p^k.
    A free Z[G]-resolution of Z reduced mod q is a free (Z/q)[G]-resolution
    of Z/q, so H^n(G, A_p) = Ext^n over (Z/q)[G] of (Z/q, A_p): one small
    resolution per prime, whose ranks do not grow with |G| as the shifted
    modules' do.  At q = p each step is linear algebra over F_p: a
    p-group's covers are echelon passes (``_cover``), and for every G the
    answer is read off two ranks (``_primary_cohomology``).  The inputs
    refused are those ``shifted_cohomology`` refuses at the cap, with its
    message, and nothing is built before.
    """
    if degree < 1:
        raise PreconditionError("the resolution engine computes degrees >= 1")
    n, r = m.group.order, m.coeff.rank
    if degree < 3:  # as ``cohomology`` weighs it
        _check_cap(m, degree, cap)
    else:  # as shifting weighs H^2 of the j-th shifted module, of rank r.(|G|-1)^j
        for j in range(degree - 1):
            _check_weight(n, r * (n - 1) ** j, 2, cap)
    factors = []
    for p in sorted(lattice.factorint(gcd(n, m.coeff.exponent))):
        factors.extend(_primary_cohomology(m, p, degree))
    return FiniteAbelianGroup(lattice.invariant_factors_of_diagonal(factors))


def _primary_cohomology(m: GModule, p: int, degree: int) -> tuple[int, ...]:
    """The invariant factors of H^degree(G, A_p).

    Hom_G(P_i, A_p) is A_p^(rank P_i), a homomorphism given by its values
    on the free generators.  A cocycle on P_n vanishes on ker d_n, and
    since it is G-linear, on the Z/q generators of ker d_n; the
    coboundaries are the images of the unit cochains on P_(n-1).  So the
    cocycles Z are the kernel of C_1, the values on the kernel generators,
    and the coboundaries B are spanned by the columns of C_2, the values
    on the rows of d_n.  At q = p, for every G, both are F_p-vector
    spaces, and H^n is (Z/p)^(r.rank P_n - rank C_1 - rank C_2), r the
    rank of A_p, each rank read by ``modular.rank_mod_p``, as
    ``cohomology_value`` reads H^1 and H^2.  For q = p^k with k >= 2, Z/B
    is presented by ``congruence_kernel`` and ``subquotient``, which give
    the same answer at k = 1 but make the shift-h3 benchmark's cold call
    11% slower.
    """
    g, a = m.group, m.coeff
    comps = [i for i, d in enumerate(a.factors) if d % p == 0]
    # the p-part of Z/d is Z/p^v, v the valuation of d
    moduli = tuple(gcd(a.factors[i], p ** a.factors[i].bit_length()) for i in comps)
    q = moduli[-1]
    ((_, k),) = modular._factor(q)
    rho = np.mod(m.action[np.ix_(range(g.order), comps, comps)], q)
    last, kernel = _free_resolution(g, p, k, degree)
    top = moduli * len(last)  # the coordinates of Hom_G(P_n, A_p)
    z_map, b_map = _coboundary(kernel, rho, q), _coboundary(last, rho, q)
    if k == 1:
        return (p,) * (len(top) - modular.rank_mod_p(z_map, p) - modular.rank_mod_p(b_map, p))
    cocycles = modular.congruence_kernel(z_map, moduli * len(kernel), top)
    return modular.subquotient(top, cocycles, b_map.T).factors


def _coboundary(coeffs: np.ndarray, rho: np.ndarray, q: int) -> np.ndarray:
    """The matrix with block (l, j) sum_h coeffs[l, j, h] . rho[h], mod q:
    the map A_p^cols -> A_p^rows that sends phi to its values on the
    elements sum_j coeffs[l, j] e_j."""
    rows, cols, n = coeffs.shape
    s = rho.shape[1]
    modular.check_int64_products(q - 1, n, "resolution coboundaries")
    blocks = np.tensordot(coeffs, rho, axes=(2, 0)).transpose(0, 2, 1, 3)
    return np.mod(blocks.reshape(rows * s, cols * s), q)


def _translates(vecs: np.ndarray, left: np.ndarray) -> np.ndarray:
    """x.v for every row x of ``left`` and every v in a stack of elements
    of (Z/q)[G]^rank, shape (count, rank, |G|), coefficient b of component
    j at [j, b]: shape (count, len(left), rank, |G|).  ``left[x, b]`` is
    x^-1 b, and coefficient b of x.v is coefficient x^-1 b of v."""
    return vecs[:, :, left].transpose(0, 2, 1, 3)


def _free_resolution(g: FiniteGroup, p: int, k: int, length: int):
    """The last differential d_length of a free (Z/q)[G]-resolution of
    Z/q, q = p^k, and the Z/q generators of ker d_length.

    A differential d_i is an int64 array of shape (rank P_i, rank P_(i-1),
    |G|), row l being the image of free generator l; a kernel is a stack
    of shape (count, rank, |G|).  d_1 sends e_s to s - 1 for the
    generators s of G, and each later d_(i+1) is the cover of ker d_i
    (``_cover``).  The kernel step diagonalizes the matrix whose rows are
    the translates x.d_i(e_l), which also gives |im d_i| = p^sum(k - a_j)
    from its pivot valuations a_j.  Exactness at P_(i-1) is then
    |im d_i| = |ker d_(i-1)|, which is q^(rank P_(i-1).|G|) / |im d_(i-1)|,
    or q^(|G| - 1) for the augmentation ideal.  While the order falls
    short, a representative of ker d_(i-1) / im d_i joins the cover and
    the step is redone; a larger order, or any row of d_i that d_(i-1)
    does not send to 0, raises ``VerificationFailure``.  A p-group's
    cover always passes the count, so only other groups reach that
    ``subquotient`` call.
    """
    n, q = g.order, p**k
    left = g.array[np.array(g.inv)]
    gens = list(g.generators)
    # ker d_0 is the augmentation ideal, spanned by the x - 1, and d_0 has
    # the translate matrix of ones
    kernel = np.eye(n, dtype=np.int64).reshape(n, 1, n)
    kernel[:, 0, g.identity] -= 1
    kernel = np.mod(kernel, q)
    d, above = kernel[gens], np.ones((n, 1), dtype=np.int64)
    want = k * (n - 1)  # |ker d_0|, as every order here, as an exponent of p
    for i in range(1, length + 1):
        while True:
            rank, below = d.shape[:2]
            # the previous step's refusal covers this product of entries below q
            if (d.reshape(rank, below * n) @ above % q).any():
                raise VerificationFailure(f"d_{i - 1} o d_{i} is not 0 in the free resolution")
            cols = _translates(d, left).reshape(rank * n, below * n)
            found, a = modular._kernel_gens_mod(cols.T, p, k)
            image = sum(k - x for x in a)
            if image >= want:
                break
            span = modular.subquotient((q,) * (below * n), kernel.reshape(len(kernel), -1), cols)
            d = np.concatenate([d, np.array(span.reps[-1:], dtype=np.int64).reshape(1, below, n)])
        if image > want:
            raise VerificationFailure(f"im d_{i} is larger than ker d_{i - 1}")
        kernel = found[found.any(axis=1)].reshape(-1, rank, n)
        if i == length:
            return d, kernel
        above, want = cols, k * rank * n - image
        d = _cover(kernel, p, k, left, gens)


def _cover(kernel: np.ndarray, p: int, k: int, left: np.ndarray, gens) -> np.ndarray:
    """Free generators of the radical quotient of the (Z/q)[G]-module K
    spanned by a kernel stack, q = p^k, given the generators of G.

    J.K, J being the augmentation ideal, is spanned by (s - 1).K over the
    generators s.  When G is a p-group and q = p, the radical of K is J.K,
    so the rows of the stack that are independent modulo J.K generate K
    by Nakayama's lemma, and no fewer can: they are picked in row order by
    one echelon pass over F_p (``modular.independent_rows``).  Otherwise
    the cover is one representative per invariant factor of K/J.K, from
    ``subquotient``; for a p-group the radical is pK + J.K and they
    generate K as well, but for any other group they may span less, and
    ``_free_resolution`` completes them.
    """
    count, rank, n = kernel.shape
    q = p**k
    flat = kernel.reshape(count, rank * n)
    moved = np.mod(_translates(kernel, left[gens]) - kernel[:, None], q).reshape(-1, rank * n)
    if k == 1 and len(modular._factor(n)) == 1:  # p divides |G|, so G is a p-group
        return kernel[modular.independent_rows(moved, flat, p)]
    reps = modular.subquotient((q,) * (rank * n), flat, moved).reps
    return np.array(reps, dtype=np.int64).reshape(-1, rank, n)
