"""Invariants of corestricted free products over T0 + {*}.

Everything here computes the right-hand sides of the structure formulas
on finite truncations plus symbolic tail summaries; the infinite free
product itself is never materialized.  The centerpiece is the four-term
exact sequence

    0 -> A/A^G -> sum_t A/A^{G_t} -> H^1(G, A) -> sum_t H^1(G_t, A) -> 0

for finite families, where H^1(G, A) of the free product is supplied by
an independent oracle: crossed homomorphisms of a free product are
exactly tuples of crossed homomorphisms of the factors, each factor
space enumerated by brute force.  Checking exactness therefore
cross-validates the oracle against the per-fiber engine.  A truncation
(``families.truncate``) is such a family: a ``FamilySpec`` without a
tail, whose copies of the tail fiber act by the module's ``tail`` action.

A direct sum over the fibers is a plain ``modular.Subquotient`` of the
concatenated block moduli (``direct_sum``), and ``split_blocks`` cuts its
vectors back into fiber blocks.

Three builders are memoized by ``lru_cache`` of ``MEMO_SIZE`` entries:
each fiber's crossed-hom enumeration (``_fiber_z1``), the oracle
(``oracle_h1``) and the sequence (``four_term_sequence``).  The last two
key on the truncation, the module and the caps, with defaults filled
in, so the degree-1 colimit, the corpus checks and the CLI share one
frozen object per input.
Refusals are not cached and raise again on every call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import modular
from .abelian import (
    AbHom,
    AbSubgroup,
    FiniteAbelianGroup,
    annihilator,
    sub_and_quotient,
)
from .cohomology import (
    DEFAULT_COH_CAP,
    GModule,
    _act,
    cohomology,
    resolution_cohomology,
    trivial_module,
    unramified_subgroup,
)
from .errors import (
    MEMO_SIZE,
    InvariantViolation,
    PreconditionError,
    SizeCapExceeded,
    VerificationFailure,
)
from .families import (
    TAIL,
    FamilySpec,
    FiberSpec,
    RestrictedAbFamily,
    _is_tail_name,
    abelianize_family,
    normal_closure,
    truncate,
)
from .groups import EnumeratedAbelianStructure, abelian_structure_from_elements, spanning_tree
from .lattice import Vector, identity_matrix, vec_mat, vec_mod
from .records import field, record

DEFAULT_ENUM_CAP = 200_000


# ---------------------------------------------------------------------------
# family modules
# ---------------------------------------------------------------------------


@record(frozen=True)
class FamilyModule:
    """Coefficients for a whole family: one abelian group acted on
    fiberwise, with finitely many nontrivial actions, keyed by fiber
    name, the tail's under ``tail``.  Each action is a ``GModule`` over
    ``coeff``, validated once where it was made and handed to the engines
    as is; a fiber without one acts trivially."""

    coeff: FiniteAbelianGroup
    actions: tuple[tuple[str, GModule], ...] = ()

    @staticmethod
    def build(coeff, actions: dict | None = None) -> "FamilyModule":
        """``actions`` maps fiber names to modules over ``coeff``."""
        acts = tuple(sorted((actions or {}).items()))
        for name, m in acts:
            if not isinstance(m, GModule) or m.coeff != coeff:
                raise InvariantViolation(f"the action for {name!r} is not a GModule over {coeff.factors}")
        return FamilyModule(coeff, acts)

    def action_for(self, name: str) -> GModule | None:
        """The action stored for ``name``; a truncation's tail copy
        without one of its own acts by the ``tail`` action."""
        acts = dict(self.actions)
        return acts.get(name, acts.get(TAIL) if _is_tail_name(name) else None)

    def gmodule(self, fiber: FiberSpec) -> GModule:
        m = self.action_for(fiber.name)
        if m is None:
            return trivial_module(fiber.group, self.coeff)
        if m.group != fiber.group:
            raise PreconditionError(f"the action for fiber {fiber.name!r} is over another group")
        return m


# ---------------------------------------------------------------------------
# direct sums over the fibers
# ---------------------------------------------------------------------------


def direct_sum(blocks) -> modular.Subquotient:
    """The direct sum of the groups prod Z/b, one per block b of moduli, on
    the concatenated coordinates: its invariant ``factors``, one
    representative per factor in ``reps``, and ``classify_many``."""
    return modular.quotient_presentation(tuple(x for b in blocks for x in b), [])


def split_blocks(vec, lengths) -> list[tuple]:
    """``vec`` cut into consecutive blocks of the given lengths."""
    ends = list(accumulate(lengths, initial=0))
    return [tuple(vec[i:j]) for i, j in zip(ends, ends[1:])]


# ---------------------------------------------------------------------------
# the crossed homomorphism oracle
# ---------------------------------------------------------------------------


# bytes of one chunk's (c, |G|, r) int64 tables in the crossed-hom oracle
_Z1_CHUNK_BYTES = 1 << 20


@record(frozen=True)
class FiberZ1:
    """Z^1 of one fiber.  A cocycle is fixed by its generator values
    (f(s))_s, so ``structure`` is built on them and ``tables`` maps them
    to the tables, which ``cocycles`` lists in generator-assignment order;
    a table is looked up by its generator values, then compared whole."""

    cocycles: list
    structure: EnumeratedAbelianStructure
    tables: dict
    gens: tuple

    def coordinates(self, table):
        """The coordinates of a cocycle table; ``VerificationFailure`` for any other table."""
        values = tuple(map(table.__getitem__, self.gens))
        if self.tables.get(values) != table:
            raise VerificationFailure("table is not a crossed homomorphism of this fiber")
        return self.structure.coordinates(values)

    def table(self, coords) -> tuple:
        return self.tables[self.structure.element(coords)]


@lru_cache(maxsize=MEMO_SIZE)
def _fiber_z1(m: GModule, cap: int = DEFAULT_ENUM_CAP) -> FiberZ1:
    """All crossed homomorphisms f: G -> A by exhaustive search on
    generator values, independent of the engines.  The assignments are
    taken in ``itertools.product`` order, in chunks of ``_Z1_CHUNK_BYTES``
    of tables; a chunk fills its tables along ``spanning_tree(G,
    G.generators)`` by f(xs) = f(x) + x.f(s) and keeps the rows where every
    edge of the Cayley graph satisfies that identity.

    The tree is group data, like ``G.generators``, which the engines'
    Schreier presentation reads too; the search shares nothing else with
    them.  A wrong tree could not yield a false cocycle, since the kept
    rows are checked on every edge, tree or not."""
    g, a, gens = m.group, m.coeff, m.group.generators
    k, n, r = len(gens), g.order, a.rank
    # with no generators the search is one assignment, but A is still listed
    n_candidates = a.order ** max(k, 1)
    if n_candidates > cap:
        raise SizeCapExceeded(
            f"{n_candidates} generator assignments exceed the enumeration cap"
        )
    tree = spanning_tree(g, gens)
    radix, mods = a.factors * k, np.array(a.factors, dtype=np.int64)
    total, step = a.order**k, max(1, _Z1_CHUNK_BYTES // (8 * n * max(r, 1)))
    cocycles, values = [], []
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        flat, rest = np.empty((len(idx), k * r), dtype=np.int64), idx
        for j in reversed(range(k * r)):
            rest, flat[:, j] = np.divmod(rest, radix[j])
        vals = flat.reshape(len(idx), k, r)
        tables = np.zeros((len(idx), n, r), dtype=np.int64)
        for x, s, y in tree:
            tables[:, y] = (tables[:, x] + vals[:, s] @ m.action[x].T) % mods
        keep = _edges_hold(m, tables, vals)
        cocycles.extend(tuple(map(tuple, t)) for t in tables[keep].tolist())
        values.extend(tuple(map(tuple, v)) for v in vals[keep].tolist())

    def add(u, v):
        return tuple(map(a.add, u, v))

    structure = abelian_structure_from_elements(values, add, (a.zero,) * k)
    return FiberZ1(cocycles, structure, dict(zip(values, cocycles)), gens)


def _edges_hold(m: GModule, tables: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The rows of a (c, |G|, r) stack of tables that hold on every edge."""
    ok = np.ones(len(tables), dtype=bool)
    for s, gelt in enumerate(m.group.generators):
        moved = np.einsum("xij,cj->cxi", m.action, vals[:, s])
        ok &= (tables[:, m.group.array[:, gelt]] == (tables + moved) % m.coeff.factors).all(axis=(1, 2))
    return ok


@record(frozen=True)
class OracleH1:
    """H^1 of a finite free product from the independent oracle.

    A family cocycle is a tuple of crossed-hom tables, one per fiber, each
    a tuple of value tuples.  ``classify_many`` finds every table in its
    fiber's enumeration by its generator values, compares it whole,
    raising ``VerificationFailure`` for one that is not there, and sends
    the whole stack through one quotient call;
    ``classify`` is ``classify_many`` of one family cocycle.
    """

    value: FiniteAbelianGroup
    representatives: tuple
    fixed_elements: tuple          # A^G as enumerated element vectors
    _fiber_data: tuple = field(repr=False)
    _quotient: modular.Subquotient = field(repr=False)

    def classify_many(self, family_cocycles) -> tuple[Vector, ...]:
        rows = [
            [c for table, z1 in zip(family_cocycle, self._fiber_data) for c in z1.coordinates(table)]
            for family_cocycle in family_cocycles
        ]
        return self._quotient.classify_many(rows)

    def classify(self, family_cocycle) -> Vector:
        return self.classify_many([family_cocycle])[0]

    @property
    def order(self) -> int:
        return self.value.order


def _fiber_modules(trunc: FamilySpec, module: FamilyModule):
    return tuple(module.gmodule(f) for f in trunc.fibers)


def _principal_tables(m: GModule, vecs) -> tuple:
    """The principal crossed homomorphisms x |-> x.a - a of ``m``, one
    table per vector a of the stack ``vecs``, as the tuple tables the
    oracle's lookup takes."""
    a, n = m.coeff, m.group.order
    vecs = np.mod(np.asarray(vecs, dtype=np.int64).reshape(len(vecs), a.rank), a.factors)
    tables = np.mod(_act(m, np.arange(n)[None, :], vecs[:, None, :]) - vecs[:, None, :], a.factors)
    return tuple(tuple(map(tuple, t)) for t in tables.tolist())


def _require_finite(trunc: FamilySpec) -> None:
    if trunc.tail is not None:
        raise PreconditionError("formulas need a finite family: truncate the tail first")


def fixed_elements(coeff: FiniteAbelianGroup, mods) -> tuple:
    """The elements of A fixed by every module in ``mods``, by enumeration:
    A as one int64 array, kept by one (|A|, r) product per generator of
    each module's group, in the order of ``coeff.elements()``."""
    elems = np.indices(coeff.factors).reshape(coeff.rank, coeff.order).T.astype(np.int64)
    for m in mods:
        for x in m.group.generators:
            elems = elems[(_act(m, x, elems) == elems).all(axis=1)]
    return tuple(map(tuple, elems.tolist()))


def common_fixed_elements(trunc: FamilySpec, module: FamilyModule):
    """A^G = intersection of the fiber fixed sets."""
    return fixed_elements(module.coeff, _fiber_modules(trunc, module))


def oracle_h1(
    trunc: FamilySpec, module: FamilyModule, cap: int = DEFAULT_ENUM_CAP
) -> OracleH1:
    """H^1 of the free product of the truncation fibers, built once per
    (truncation, module, cap); a refusal is raised again on every call.

    Z^1 of a free product is the product of the fiber Z^1 spaces (a
    crossed homomorphism is freely determined by its restrictions);
    principal cocycles are divided out with |B^1| = |A|/|A^G|.
    """
    return _oracle_h1(trunc, module, cap)


@lru_cache(maxsize=MEMO_SIZE)
def _oracle_h1(trunc: FamilySpec, module: FamilyModule, cap: int) -> OracleH1:
    _require_finite(trunc)
    a = module.coeff
    mods = _fiber_modules(trunc, module)
    fiber_data = tuple(_fiber_z1(m, cap) for m in mods)
    # every fiber's search weighs at least |A|; with no fiber A is still listed
    if a.order > cap:
        raise SizeCapExceeded(f"{a.order} elements of A exceed the enumeration cap")
    moduli = tuple(x for z1 in fiber_data for x in z1.structure.factors)

    # the principal crossed homomorphism of e_i, in every fiber
    basis = np.eye(a.rank, dtype=np.int64)
    per_fiber = [_principal_tables(m, basis) for m in mods]
    b1 = [
        tuple(c for tables, z1 in zip(per_fiber, fiber_data) for c in z1.coordinates(tables[i]))
        for i in range(a.rank)
    ]
    quotient = modular.quotient_presentation(moduli, b1)
    value = FiniteAbelianGroup(quotient.factors)
    lengths = [len(z1.structure.factors) for z1 in fiber_data]
    reps = tuple(
        tuple(z1.table(c) for z1, c in zip(fiber_data, split_blocks(rep, lengths)))
        for rep in quotient.reps
    )
    fixed = common_fixed_elements(trunc, module)
    # cardinality bookkeeping: |Z1| = |B1| * |H1| with |B1| = |A| / |A^G|
    z1_order = math.prod(len(z1.cocycles) for z1 in fiber_data)
    if z1_order * len(fixed) != value.order * a.order:
        raise VerificationFailure("oracle cardinality bookkeeping failed")
    return OracleH1(value, reps, fixed, fiber_data, quotient)


# ---------------------------------------------------------------------------
# the four-term sequence
# ---------------------------------------------------------------------------


@record(frozen=True)
class FourTermSequence:
    """0 -> A/A^G -> sum A/A^{G_t} -> H^1(G, A) -> sum H^1(G_t, A) -> 0.

    ``oracle`` is the crossed-hom oracle the sequence was built from: its
    value is ``terms[2]``, and its representatives and ``classify`` serve
    anything else that needs H^1 of the free product.
    """

    terms: tuple[FiniteAbelianGroup, FiniteAbelianGroup, FiniteAbelianGroup, FiniteAbelianGroup]
    maps: tuple[AbHom, AbHom, AbHom]
    oracle: OracleH1 = field(repr=False)


def four_term_sequence(
    trunc: FamilySpec,
    module: FamilyModule,
    cap: int = DEFAULT_COH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> FourTermSequence:
    """The sequence of one truncation, built once per (truncation, module,
    cap, enum_cap); its oracle is built first, so the enumeration cap
    refuses before the cohomology cap."""
    return _four_term_sequence(trunc, module, cap, enum_cap)


@lru_cache(maxsize=MEMO_SIZE)
def _four_term_sequence(
    trunc: FamilySpec, module: FamilyModule, cap: int, enum_cap: int
) -> FourTermSequence:
    oracle = oracle_h1(trunc, module, enum_cap)
    a = module.coeff
    mods = _fiber_modules(trunc, module)

    # term 1: A / A^G
    t1_pres = modular.quotient_presentation(a.factors, list(oracle.fixed_elements))
    t1 = FiniteAbelianGroup(t1_pres.factors)

    # term 2: sum over fibers of A / A^{G_t}, presented once per distinct module
    by_module = {
        m: modular.quotient_presentation(a.factors, fixed_elements(a, (m,)))
        for m in dict.fromkeys(mods)
    }
    fiber_quotients = [by_module[m] for m in mods]
    sum2 = direct_sum(q.factors for q in fiber_quotients)
    t2 = FiniteAbelianGroup(sum2.factors)

    # term 4: sum over fibers of H^1(G_t, A) from the engine
    fiber_h1 = [cohomology(m, 1, cap) for m in mods]
    sum4 = direct_sum(h.value.factors for h in fiber_h1)
    t4 = FiniteAbelianGroup(sum4.factors)

    # map 1: a |-> (a mod A^{G_t})_t
    per_fiber = [q.classify_many(t1_pres.reps) for q in fiber_quotients]
    m1 = AbHom.from_columns(t1, t2, sum2.classify_many(_concat_rows(per_fiber, t1.rank)))

    # map 2: (a_t)_t |-> class of the cocycle that is principal-from-a_t on G_t
    lengths = [len(q.factors) for q in fiber_quotients]
    splits = [split_blocks(rep, lengths) for rep in sum2.reps]
    # a fiber with A/A^{G_t} = 0 has no reps, over which vec_mat gives ()
    per_fiber = [
        _principal_tables(m, [vec_mod(vec_mat(b[f], q.reps), a.factors) or a.zero for b in splits])
        for f, (m, q) in enumerate(zip(mods, fiber_quotients))
    ]
    m2 = AbHom.from_columns(t2, oracle.value, oracle.classify_many(list(zip(*per_fiber))))

    # map 3: restriction to the factors
    reps = oracle.representatives
    per_fiber = [h.classify_many([rep[f] for rep in reps]) for f, h in enumerate(fiber_h1)]
    m3 = AbHom.from_columns(oracle.value, t4, sum4.classify_many(_concat_rows(per_fiber, len(reps))))

    return FourTermSequence((t1, t2, oracle.value, t4), (m1, m2, m3), oracle)


def _concat_rows(per_fiber, count: int) -> list[list[int]]:
    """Row i of a direct sum: row i of every fiber's coordinates, in order."""
    return [[x for rows in per_fiber for x in rows[i]] for i in range(count)]


@record(frozen=True)
class PositionReport:
    position: str
    holds: bool
    obstruction_order: int
    witness: tuple | None


@record(frozen=True)
class ExactnessReport:
    positions: tuple[PositionReport, ...]

    @property
    def passed(self) -> bool:
        return all(p.holds for p in self.positions)

    def failures(self):
        return [p for p in self.positions if not p.holds]


def check_exactness(seq: FourTermSequence) -> ExactnessReport:
    """Element-level verification of injectivity, two kernel = image
    identities and surjectivity, with witnesses on failure."""
    m1, m2, m3 = seq.maps
    reports = []

    ker1 = m1.kernel()
    reports.append(
        PositionReport(
            "left-injective",
            ker1.order == 1,
            ker1.order,
            None if ker1.order == 1 else ker1.gens[:1],
        )
    )

    for name, incoming, outgoing in (
        ("exact-at-fixed-sum", m1, m2),
        ("exact-at-h1", m2, m3),
    ):
        image = incoming.image()
        kernel = outgoing.kernel()
        inside = kernel.contains_many(image.gens)
        escaping = [g for g, ok in zip(image.gens, inside) if not ok]
        im_in_ker = not escaping
        # the image lies in the kernel, so equal orders make them equal
        same = im_in_ker and image.order == kernel.order
        if same:
            obstruction = 1
            witness = None
        else:
            obstruction = (
                kernel.order // image.order if im_in_ker and image.order else 0
            )
            inside = image.contains_many(kernel.gens)
            missing = [g for g, ok in zip(kernel.gens, inside) if not ok]
            if missing:
                witness = (name, missing[0])
            elif escaping:
                witness = (name + ":image-escapes-kernel", escaping[0])
            else:
                witness = None
        reports.append(PositionReport(name, same, obstruction, witness))

    image3 = m3.image()
    surj = image3.order == seq.terms[3].order
    reports.append(
        PositionReport(
            "right-surjective",
            surj,
            seq.terms[3].order // image3.order if image3.order else 0,
            None,
        )
    )
    return ExactnessReport(tuple(reports))


# ---------------------------------------------------------------------------
# formula families (right-hand sides of the structure theorems)
# ---------------------------------------------------------------------------


@record(frozen=True)
class RestrictedSummary:
    """Shape of a restricted product of pairs over the family index."""

    has_tail: bool
    exceptional_order: int
    tail_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    is_direct_sum: bool
    finite_order: int | None

    @property
    def description(self) -> str:
        if not self.has_tail:
            return f"finite direct sum of order {self.finite_order}"
        amb, sub = self.tail_pair
        if self.is_direct_sum and amb == ():
            return f"finite of order {self.finite_order} (trivial tail contribution)"
        if self.is_direct_sum:
            return f"direct sum over T0, tail summand {amb or '0'}"
        return f"restricted product over T0 with tail pair ({amb}, {sub})"


def summarize_family(fam: RestrictedAbFamily) -> RestrictedSummary:
    pairs = dict(fam.pairs)
    tail = pairs.pop(TAIL, None)
    exc_order = math.prod(pair.ambient.order for pair in pairs.values())
    if tail is None:
        return RestrictedSummary(False, exc_order, None, True, exc_order)
    tail_pair = (tail.ambient.factors, tail.structure.factors)
    finite = exc_order if tail.ambient.order == 1 else None
    return RestrictedSummary(True, exc_order, tail_pair, tail.order == 1, finite)


def h_formula(
    spec: FamilySpec, module: FamilyModule, degree: int, cap: int = DEFAULT_COH_CAP
) -> RestrictedAbFamily:
    """Per-fiber pairs (H^deg(G_t, A), H^deg_nr(G_t, A)) in ``fibers``
    order, the tail's under ``tail``: the right-hand side of the structure
    theorem, flavored as a discretized product."""
    if degree not in (1, 2):
        raise PreconditionError("the pair formula is stated for degrees 1 and 2")
    pairs = tuple(
        (f.name, unramified_subgroup(module.gmodule(f), f.subgroup, degree, cap))
        for f in spec.fibers
    )
    return RestrictedAbFamily(pairs, "discretized")


def high_degree_formula(
    spec: FamilySpec, module: FamilyModule, degree: int, cap: int = DEFAULT_COH_CAP
) -> tuple[tuple[str, FiniteAbelianGroup], ...]:
    """H^i for i >= 3 decomposes as the direct sum of the fiber groups,
    provided every tail quotient G_t/closure(U_t) is trivial: one (name,
    H^i(G_t, A)) summand per fiber in ``fibers`` order, the tail's under
    ``tail`` standing for one summand per tail index.

    A nontrivial finite quotient has cohomology in arbitrarily high
    degrees, so requiring cohomological dimension <= 1 of the quotients
    forces them to be trivial; anything else is refused.
    """
    if degree < 3:
        raise PreconditionError("high-degree formula applies for degree >= 3")
    offenders = [
        f.name
        for f in spec.fibers
        if normal_closure(f.group, f.subgroup).order != f.group.order
    ]
    if offenders:
        raise PreconditionError(
            "fibers "
            + ", ".join(offenders)
            + " have nontrivial quotient by the closure of U; a nontrivial "
            "finite quotient cannot have cohomological dimension <= 1, so "
            "the direct-sum formula does not apply"
        )
    return tuple((f.name, resolution_cohomology(module.gmodule(f), degree, cap)) for f in spec.fibers)


def abelianization_formula(spec: FamilySpec) -> RestrictedAbFamily:
    """(G_t^ab, image of U_t), carried as a compactified product: the
    abelianized free product is the compactification of the restricted
    product of these pairs."""
    return abelianize_family(spec)


def dualize_family(fam: RestrictedAbFamily) -> RestrictedAbFamily:
    """Fiberwise Pontryagin duality: (A, B) becomes (A^, ann B), and the
    compactified/discretized flavors swap."""
    flip = {"plain": "plain", "compactified": "discretized", "discretized": "compactified"}
    pairs = tuple((name, annihilator(b.ambient, b.gens)) for name, b in fam.pairs)
    return RestrictedAbFamily(pairs, flip[fam.flavor])


# ---------------------------------------------------------------------------
# cross-check of the two pipelines
# ---------------------------------------------------------------------------


@record(frozen=True)
class FiberCrossCheck:
    name: str
    h1_factors: tuple[int, ...]
    ab_dual_factors: tuple[int, ...]
    nr_factors: tuple[int, ...]
    ab_nr_dual_factors: tuple[int, ...]
    explicit_iso: bool
    nr_subgroups_match: bool

    @property
    def passed(self) -> bool:
        return (
            self.h1_factors == self.ab_dual_factors
            and self.nr_factors == self.ab_nr_dual_factors
            and self.explicit_iso
            and self.nr_subgroups_match
        )


@record(frozen=True)
class CrossCheckReport:
    prime: int
    fibers: tuple[FiberCrossCheck, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.fibers)


def _mod_p_dual_factors(a: FiniteAbelianGroup, p: int) -> tuple[int, ...]:
    return tuple(p for d in a.factors if d % p == 0)


def cross_check_h1_vs_ab(spec: FamilySpec, p: int, cap: int = DEFAULT_COH_CAP) -> CrossCheckReport:
    """Fiberwise: H^1(G_t, Z/p) must be the dual of G_t^ab/p, and the
    unramified part must be the dual of (G_t^ab / image-of-U)/p, via the
    explicit character isomorphisms.

    A mismatch means an implementation bug; the identity is forced.
    """
    if p not in spec.prime_set:
        raise PreconditionError(f"{p} is not in the prime set of the family")
    zp = FiniteAbelianGroup((p,))
    checks = []
    for f in spec.fibers:
        group = f.group
        m = trivial_module(group, zp)
        h1 = cohomology(m, 1, cap)
        nr = unramified_subgroup(m, f.subgroup, 1, cap)
        ab, proj = group.abelianization
        expected_h1 = _mod_p_dual_factors(ab, p)

        # characters of G^ab of order dividing p, as explicit cocycles
        images = [proj.apply(x) for x in range(group.order)]
        char_cols = h1.classify_many([
            [(img[i] % p,) for img in images] for i, d in enumerate(ab.factors) if d % p == 0
        ])
        k = len(char_cols)
        iso_ok = h1.value.factors == expected_h1
        if iso_ok and k:
            source = FiniteAbelianGroup((p,) * k)
            hom = AbHom.from_columns(source, h1.value, char_cols)
            iso_ok = hom.is_injective() and hom.is_surjective()
        elif iso_ok:
            iso_ok = h1.value.order == 1

        # unramified side: characters killing the image of U
        u_image = tuple(sorted(set(proj.apply(x) for x in f.subgroup.elements)))
        sq = sub_and_quotient(ab, u_image)
        expected_nr = _mod_p_dual_factors(sq.quotient, p)
        nr_cols = h1.classify_many([
            [(sq.projection.apply(img)[i] % p,) for img in images]
            for i, d in enumerate(sq.quotient.factors)
            if d % p == 0
        ])
        nr_match = nr.structure.factors == expected_nr
        if nr_match:
            generated = AbSubgroup(h1.value, tuple(nr_cols))
            nr_match = generated.same_subgroup(nr)
        checks.append(
            FiberCrossCheck(
                f.name,
                h1.value.factors,
                expected_h1,
                nr.structure.factors,
                expected_nr,
                iso_ok,
                nr_match,
            )
        )
    return CrossCheckReport(p, tuple(checks))


# ---------------------------------------------------------------------------
# truncation colimits
# ---------------------------------------------------------------------------


@record()
class ColimitSystem:
    degree: int
    levels: tuple[FiniteAbelianGroup, ...]
    transitions: tuple[AbHom, ...]
    stabilization: int | None
    tail_contribution: int
    level_formula_ok: tuple[bool, ...]
    growth_ok: bool

    @property
    def passed(self) -> bool:
        return (
            all(self.level_formula_ok)
            and self.growth_ok
            and all(t.is_injective() for t in self.transitions)
        )


def truncation_colimit(
    spec: FamilySpec,
    module: FamilyModule,
    degree: int,
    n_max: int,
    cap: int = DEFAULT_COH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> ColimitSystem:
    """Levels H^deg at truncations 0..n_max with extend-by-zero
    transitions.

    Requires closure(U_tail) = G_tail, so every truncation is a plain
    finite free product, and a trivial tail action, so that pulling a
    cocycle back along the projection killing the new factor is exactly
    extension by zero.  A negative n_max is refused.

    In degree 1 each level is the H^1 term of that truncation's four-term
    sequence: one oracle per level serves the level, both transitions at
    it and the exactness check.  In degree 2 a level is the sum of its
    fibers' H^2, each checked against ``resolution_cohomology``.
    """
    if degree not in (1, 2):
        raise PreconditionError("colimits are computed in degrees 1 and 2")
    if n_max < 0:
        raise PreconditionError("truncation level must be >= 0")
    tail_module = None
    if spec.tail is not None:
        if normal_closure(spec.tail.group, spec.tail.subgroup).order != spec.tail.group.order:
            raise PreconditionError(
                "tail quotient must be trivial (closure(U) = G) for truncations "
                "to be plain finite free products"
            )
        tail_module = module.gmodule(spec.tail)
        if not tail_module.is_trivial_action():
            raise PreconditionError(
                "extend-by-zero transitions require a trivial tail action"
            )

    # every level is a prefix of the deepest truncation, so truncate checks the tail once
    deepest, base = truncate(spec, n_max), len(spec.exceptional)
    truncs = [
        FamilySpec(deepest.exceptional[: base + n], None, spec.prime_set) for n in range(n_max + 1)
    ]
    if degree == 1:
        # every oracle before any sequence, so the enumeration cap refuses
        # first; each sequence then finds its level's oracle in the memo
        for t in truncs:
            oracle_h1(t, module, enum_cap)
        seqs = [four_term_sequence(t, module, cap, enum_cap) for t in truncs]
        levels = tuple(seq.oracle.value for seq in seqs)
        # a level's cocycle tuple extends by the zero table on the new tail factor
        pad = () if spec.tail is None else ((module.coeff.zero,) * spec.tail.group.order,)
        transitions = [
            AbHom.from_columns(levels[n], levels[n + 1], seqs[n + 1].oracle.classify_many(
                [rep + pad for rep in seqs[n].oracle.representatives]
            ))
            for n in range(n_max)
        ]
        # per level: exactness of the four-term sequence is the formula
        level_ok = [check_exactness(seq).passed for seq in seqs]
    else:
        fiber_h2 = [[cohomology(m, 2, cap) for m in _fiber_modules(t, module)] for t in truncs]
        sums = [direct_sum(h.value.factors for h in hs) for hs in fiber_h2]
        levels = tuple(FiniteAbelianGroup(s.factors) for s in sums)
        transitions = []
        for n in range(n_max):
            # zero on the block of the new tail fiber, if there is one
            pad = (0,) * (len(sums[n + 1].ambient) - len(sums[n].ambient))
            cols = sums[n + 1].classify_many([rep + pad for rep in sums[n].reps])
            transitions.append(AbHom.from_columns(levels[n], levels[n + 1], cols))
        # per level: each fiber's block against the resolution engine
        level_ok = [
            [h.value.factors for h in hs]
            == [resolution_cohomology(m, 2, cap).factors for m in _fiber_modules(t, module)]
            for t, hs in zip(truncs, fiber_h2)
        ]

    contribution = 1
    if tail_module is not None:
        contribution = cohomology(tail_module, degree, cap).value.order
    growth_ok = all(levels[n + 1].order == levels[n].order * contribution for n in range(n_max))
    return ColimitSystem(
        degree,
        levels,
        tuple(transitions),
        0 if contribution == 1 else None,
        contribution,
        tuple(level_ok),
        growth_ok,
    )


# ---------------------------------------------------------------------------
# splittings and corestrictions
# ---------------------------------------------------------------------------


@record(frozen=True)
class SplittingReport:
    subset: tuple[str, ...]
    h1_full: tuple[int, ...]
    h1_sub: tuple[int, ...]
    retraction_surjective: bool
    section_found: bool
    ab_split: bool

    @property
    def passed(self) -> bool:
        return self.retraction_surjective and self.section_found and self.ab_split


def restrict_truncation(trunc: FamilySpec, names) -> FamilySpec:
    keep = set(names)
    return FamilySpec(tuple(f for f in trunc.fibers if f.name in keep), None, trunc.prime_set)


def section_for(retraction: AbHom) -> AbHom | None:
    """A right inverse of a surjection of finite abelian groups, when
    one exists (equivalently the surjection splits)."""
    # one system for all the images x_j of the generators e_j, block j
    # reading x_j: retraction(x_j) = e_j, and f_j . x_j = 0 in the source
    src, tgt = retraction.source, retraction.target
    s, t = src.rank, tgt.rank
    rows, row_moduli, rhs = [], [], []
    for j, f_j in enumerate(tgt.factors):
        block = list(retraction.matrix) + [
            tuple(f_j if c == i else 0 for c in range(s)) for i in range(s)
        ]
        rows.extend((0,) * (s * j) + r + (0,) * (s * (t - j - 1)) for r in block)
        row_moduli.extend(tgt.factors + src.factors)
        rhs.extend([int(i == j) for i in range(t)] + [0] * s)
    sol = modular.CongruenceSolver(rows, row_moduli, src.factors * t).solve(rhs)
    if sol is None:
        return None
    cols = [sol[s * j:s * (j + 1)] for j in range(t)]
    section = AbHom.from_columns(tgt, src, cols)
    check = retraction.compose(section)
    if check.matrix != identity_matrix(tgt.rank):
        raise VerificationFailure("section does not invert the retraction")
    return section


def splitting_check(
    trunc: FamilySpec,
    subset,
    module: FamilyModule,
    cap: int = DEFAULT_COH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SplittingReport:
    """The subfamily invariant is a direct summand of the full one.

    At the H^1 level the retraction is restriction of cocycle tuples to
    the chosen fibers; a section is found by linear algebra.  At the
    abelianization level the block projection must undo the block
    inclusion (:func:`blocks_split`).
    """
    _require_finite(trunc)
    subset = tuple(n for n in trunc.names if n in set(subset))
    sub_trunc = restrict_truncation(trunc, subset)
    full = oracle_h1(trunc, module, enum_cap)
    sub = oracle_h1(sub_trunc, module, enum_cap)
    keep_idx = [i for i, f in enumerate(trunc.fibers) if f.name in set(subset)]
    cols = sub.classify_many([tuple(rep[i] for i in keep_idx) for rep in full.representatives])
    retraction = AbHom.from_columns(full.value, sub.value, cols)
    surj = retraction.is_surjective()
    section = section_for(retraction) if surj else None

    ab_blocks = [f.group.abelianization[0].factors for f in trunc.fibers]
    sub_blocks = [ab_blocks[i] for i in keep_idx]
    return SplittingReport(
        subset,
        full.value.factors,
        sub.value.factors,
        surj,
        section is not None,
        blocks_split(ab_blocks, sub_blocks, keep_idx, keep_idx),
    )


def blocks_split(full_blocks, sub_blocks, inclusion, projection) -> bool:
    """Whether projecting the direct sum of ``full_blocks`` onto its blocks
    ``projection`` undoes including the direct sum of ``sub_blocks`` as its
    blocks ``inclusion``, on every generator.  A block is a tuple of
    moduli; block j of ``sub_blocks`` goes to block ``inclusion[j]``, which
    must have the same moduli."""
    if len(inclusion) != len(sub_blocks) or any(
        full_blocks[i] != b for i, b in zip(inclusion, sub_blocks)
    ):
        return False
    full, sub = direct_sum(full_blocks), direct_sum(sub_blocks)
    lengths = [len(b) for b in full_blocks]
    for i, rep in enumerate(sub.reps):
        included = [(0,) * n for n in lengths]
        for j, part in zip(inclusion, split_blocks(rep, map(len, sub_blocks))):
            included[j] = part
        coords = full.classify([x for b in included for x in b])
        back = split_blocks(vec_mod(vec_mat(coords, full.reps), full.ambient), lengths)
        projected = [x for j in projection for x in back[j]]
        if sub.classify(projected) != tuple(int(k == i) for k in range(len(sub.factors))):
            return False
    return True


@record(frozen=True)
class FiberCorestriction:
    name: str
    contained: bool
    sub_small: tuple[int, ...]
    sub_big: tuple[int, ...]
    ann_reversed: bool


@record(frozen=True)
class CorestrictionReport:
    fibers: tuple[FiberCorestriction, ...]

    @property
    def passed(self) -> bool:
        return all(f.contained and f.ann_reversed for f in self.fibers)


def corestriction_compare(spec: FamilySpec, smaller: FamilySpec) -> CorestrictionReport:
    """Compare (G_t, U_t) against (G_t, U'_t) with U'_t <= U_t.

    On abelianizations the images satisfy im U' <= im U, and dually the
    annihilators reverse: ann(im U) <= ann(im U'), which is the dual
    avatar of the canonical surjection from the smaller corestriction.
    """
    if spec.names != smaller.names:
        raise PreconditionError("the two families have different index sets")
    if (spec.tail is None) != (smaller.tail is None):
        raise PreconditionError("tail presence differs")
    out = []
    big_pairs = dict(abelianize_family(spec).pairs)
    small_pairs = dict(abelianize_family(smaller).pairs)
    for f_big, f_small in zip(spec.fibers, smaller.fibers):
        name = f_big.name
        if f_big.group != f_small.group:
            raise PreconditionError(f"fiber {name}: groups differ")
        if not set(f_small.subgroup.elements) <= set(f_big.subgroup.elements):
            raise PreconditionError(f"fiber {name}: U' is not contained in U")
        pb, ps = big_pairs[name], small_pairs[name]
        contained = all(pb.contains_many(ps.gens))
        ann_big = annihilator(pb.ambient, pb.gens)
        ann_small = annihilator(ps.ambient, ps.gens)
        reversed_ok = all(ann_small.contains_many(ann_big.gens))
        out.append(
            FiberCorestriction(
                name,
                contained,
                ps.structure.factors,
                pb.structure.factors,
                reversed_ok,
            )
        )
    return CorestrictionReport(tuple(out))
