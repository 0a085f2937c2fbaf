"""Finite abelian groups in invariant-factor form.

A group is a chain Z/d1 + ... + Z/dr with d1 | d2 | ... | dr, elements
are integer vectors reduced componentwise, and homomorphisms are integer
matrices acting on column vectors.  Values in Q/Z are reduced fractions,
never floats.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from . import lattice, modular
from .errors import InvariantViolation, VerificationFailure
from .lattice import Matrix, Vector
from .records import record


@record(frozen=True)
class FiniteAbelianGroup:
    """Z/d1 + ... + Z/dr with d1 | d2 | ... | dr, each di >= 2.

    The empty factor list is the trivial group.
    """

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        fs = tuple(int(d) for d in self.factors)
        object.__setattr__(self, "factors", fs)
        for d in fs:
            if d < 2:
                raise InvariantViolation(f"invariant factor {d} < 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise InvariantViolation(f"broken divisibility chain {fs}")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    @property
    def zero(self) -> Vector:
        return (0,) * self.rank

    def reduce(self, vec) -> Vector:
        return tuple(int(x) % d for x, d in zip(vec, self.factors))

    def add(self, u, v) -> Vector:
        return tuple((x + y) % d for x, y, d in zip(u, v, self.factors))

    def elements(self):
        """Every element, in ``itertools.product`` order (last coordinate
        fastest), decoded one at a time from its index, so nothing is
        listed before the first element."""
        # construction accepts a factor of 2^63 or more (``modular`` refuses
        # it when a subgroup is computed); enumeration refuses it here
        modular.check_moduli(self.factors, "invariant factor")
        return map(self._element, range(self.order))

    def _element(self, index: int) -> Vector:
        digits = []
        for d in reversed(self.factors):
            index, x = divmod(index, d)
            digits.append(x)
        return tuple(reversed(digits))

    def element_order(self, v) -> int:
        n = 1
        for x, d in zip(v, self.factors):
            n = n * (d // gcd(x, d)) // gcd(n, d // gcd(x, d))
        return n


TRIVIAL = FiniteAbelianGroup(())


def group_from_moduli(moduli) -> FiniteAbelianGroup:
    """Invariant-factor form of prod Z/moduli (entries may be unordered)."""
    return FiniteAbelianGroup(lattice.invariant_factors_of_diagonal(moduli))


@record(frozen=True)
class AbHom:
    """Homomorphism between finite abelian groups as an integer matrix
    acting on column vectors; shape is (target.rank, source.rank)."""

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    matrix: Matrix

    def __post_init__(self):
        rows, cols = self.target.rank, self.source.rank
        if len(self.matrix) != rows or any(len(row) != cols for row in self.matrix):
            raise InvariantViolation(f"matrix is not {rows} x {cols} (target rank x source rank)")
        mat = lattice.freeze(
            tuple(
                tuple(x % d for x in row) for row, d in zip(self.matrix, self.target.factors)
            )
        )
        object.__setattr__(self, "matrix", mat)
        for j, d in enumerate(self.source.factors):
            for i, e in enumerate(self.target.factors):
                if (mat[i][j] * d) % e != 0:
                    raise InvariantViolation(
                        f"matrix entry ({i},{j}) does not respect the source relation {d}"
                    )

    @classmethod
    def from_columns(cls, source, target, cols) -> "AbHom":
        """The homomorphism sending generator j of ``source`` to ``cols[j]``."""
        return cls(source, target, tuple(tuple(c[i] for c in cols) for i in range(target.rank)))

    def apply(self, vec) -> Vector:
        return self.target.reduce(lattice.mat_vec(self.matrix, vec))

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.target.factors != self.source.factors:
            raise InvariantViolation("composition type mismatch")
        # from the ranks: through the trivial group both factors are empty
        a, b, mid = self.matrix, other.matrix, self.source.rank
        product = tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(mid)) for j in range(other.source.rank))
            for i in range(self.target.rank)
        )
        return AbHom(other.source, self.target, product)

    def kernel(self) -> "AbSubgroup":
        gens = modular.congruence_kernel(
            self.matrix, self.target.factors, self.source.factors
        )
        return AbSubgroup(self.source, tuple(gens))

    def image(self) -> "AbSubgroup":
        cols = tuple(
            tuple(self.matrix[i][j] for i in range(self.target.rank))
            for j in range(self.source.rank)
        )
        return AbSubgroup(self.target, cols)

    def is_injective(self) -> bool:
        # the kernel's generators are nonzero, so none means a trivial kernel
        return not modular.congruence_kernel(
            self.matrix, self.target.factors, self.source.factors
        )

    def is_surjective(self) -> bool:
        return self.image().order == self.target.order


@record(frozen=True)
class AbSubgroup:
    """Subgroup of a finite abelian group, given by generating vectors.

    Every answer comes from ``modular``: the structure, the order and the
    inclusion from the presentation of the subgroup, and membership from
    the presentation of the ambient group modulo the subgroup, in which
    the members are exactly the vectors of class zero.
    """

    ambient: FiniteAbelianGroup
    gens: tuple[Vector, ...]

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.ambient.rank:
                raise InvariantViolation(
                    f"generator {tuple(g)} has length {len(g)}, "
                    f"not the ambient rank {self.ambient.rank}"
                )

    @cached_property
    def presentation(self) -> modular.Subquotient:
        return modular.subgroup_presentation(self.ambient.factors, self.gens)

    @cached_property
    def structure(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(self.presentation.factors)

    @property
    def order(self) -> int:
        return self.presentation.order

    def contains_many(self, vecs) -> tuple[bool, ...]:
        """Membership of each vector of the ambient group, in one batch."""
        quotient = modular.quotient_presentation(self.ambient.factors, self.gens)
        return tuple(not any(c) for c in quotient.classify_many(vecs))

    def contains(self, vec) -> bool:
        return self.contains_many([vec])[0]

    def same_subgroup(self, other: "AbSubgroup") -> bool:
        return (
            self.ambient.factors == other.ambient.factors
            and self.order == other.order
            and all(self.contains_many(other.gens))
        )

    @cached_property
    def inclusion(self) -> AbHom:
        """Inclusion of the canonical generators into the ambient group."""
        return AbHom.from_columns(self.structure, self.ambient, self.presentation.reps)


def full_subgroup(a: FiniteAbelianGroup) -> AbSubgroup:
    n = a.rank
    basis = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return AbSubgroup(a, basis)


# ---------------------------------------------------------------------------
# Smith normal form (public operation)
# ---------------------------------------------------------------------------


def smith_normal_form(mat):
    """U . M . V = diag(s1, ...) with s1 | s2 | ... and unimodular U, V."""
    return lattice.smith_normal_form(lattice.freeze(mat))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


@record(frozen=True)
class DualPairing:
    """Evaluation pairing A x A^ into Q/Z, exact fractions in [0, 1)."""

    left: FiniteAbelianGroup
    right: FiniteAbelianGroup

    def value(self, x, chi) -> Fraction:
        from fractions import Fraction  # at module level, it slows every start-up

        m = self.left.exponent
        total = 0
        for xi, ci, d in zip(x, chi, self.left.factors):
            total += xi * ci * (m // d)
        return Fraction(total % m, m)


def dual_group(a: FiniteAbelianGroup) -> tuple[FiniteAbelianGroup, DualPairing]:
    """Pontryagin dual; for finite groups the invariant factors repeat.

    A character vector chi acts by x -> sum x_i chi_i / d_i in Q/Z.
    """
    dual = FiniteAbelianGroup(a.factors)
    return dual, DualPairing(a, dual)


def annihilator(a: FiniteAbelianGroup, gens) -> AbSubgroup:
    """{chi in A^ : chi(B) = 0} for the subgroup B generated by ``gens``."""
    dual, _ = dual_group(a)
    m = a.exponent
    rows = [
        tuple((g[i] * (m // d)) % m for i, d in enumerate(a.factors))
        for g in gens
    ]
    chars = modular.congruence_kernel(rows, [m] * len(rows), a.factors)
    return AbSubgroup(dual, tuple(chars))


# ---------------------------------------------------------------------------
# hom groups, subgroups and quotients
# ---------------------------------------------------------------------------


def hom_group(a: FiniteAbelianGroup, b: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """Hom(A, B) = sum over factor pairs of Z/gcd(di, ej)."""
    return group_from_moduli(
        [gcd(d, e) for d in a.factors for e in b.factors] or [1]
    )


@record(frozen=True)
class SubQuotient:
    """A subgroup B of A with the quotient A/B and the annihilator of B."""

    ambient: FiniteAbelianGroup
    sub: AbSubgroup
    sub_group: FiniteAbelianGroup
    quotient: FiniteAbelianGroup
    projection: AbHom
    ann: AbSubgroup


def sub_and_quotient(a: FiniteAbelianGroup, gens) -> SubQuotient:
    """Split A along the subgroup generated by ``gens``.

    The annihilator is certified against (A/B)^: they must have the
    same invariant factors, and |B| * |ann(B)| = |A|.
    """
    gens = tuple(a.reduce(g) for g in gens)
    sub = AbSubgroup(a, gens)
    qpres = modular.quotient_presentation(a.factors, gens)
    quotient = FiniteAbelianGroup(qpres.factors)
    n = a.rank
    cols = [qpres.classify(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    proj = AbHom.from_columns(a, quotient, cols)
    ann = annihilator(a, gens)
    if ann.structure.factors != quotient.factors:
        raise VerificationFailure(
            "annihilator is not isomorphic to the dual of the quotient"
        )
    if sub.order * ann.order != a.order:
        raise VerificationFailure("annihilator order law |B|*|ann B| = |A| failed")
    return SubQuotient(a, sub, sub.structure, quotient, proj, ann)
