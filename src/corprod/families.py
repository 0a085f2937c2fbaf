"""Finitely described families (G_t, U_t) over T = T0 + {*}.

A family has finitely many named exceptional fibers plus an optional
uniform tail pattern standing for countably many identical fibers
tau_1, tau_2, ...; the point at infinity always carries the trivial
group.  Morphisms map exceptional names to exceptional names or to the
star, and tail to tail; towers are chains of such morphisms.

The tail pattern is one more fiber, named ``tail``: ``FamilySpec.fibers``
lists the exceptional fibers and then it, a per-fiber computation is
one loop over that list, and every per-fiber result is one name-keyed
tuple in that order, the tail's entry under ``tail``.  A morphism keys
the tail's map by ``tail`` too, and the tail maps to the tail.  A
truncation is an ordinary finite ``FamilySpec``: the exceptional fibers
and copies of the tail fiber named ``tail1``, ``tail2``, ...  The name
``tail`` is reserved for the tail pattern, and ``summary`` for the
summary record that reports add after the per-fiber ones.
"""

from __future__ import annotations

import operator

from .abelian import AbSubgroup
from .errors import InvariantViolation, PreconditionError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    normal_closure,
    quotient_group,
    subgroup_from_generators,
)
from .lattice import factorint, is_prime
from .records import field, record

STAR = "*"
TAIL = "tail"
# exceptional fiber names that name something else: the tail fiber, and
# the closing record of the cohomology report
RESERVED = {TAIL: "the tail pattern", "summary": "the summary record"}


@record(frozen=True)
class FiberSpec:
    name: str
    group: FiniteGroup
    subgroup: Subgroup

    def __post_init__(self):
        if self.name == STAR:
            raise InvariantViolation("'*' is reserved for the point at infinity")
        if self.subgroup.parent != self.group:
            raise InvariantViolation(f"subgroup of fiber {self.name} has wrong parent")


def _is_tail_name(name: str) -> bool:
    """The tail pattern or one of its truncation copies."""
    return name.startswith(TAIL) and (name == TAIL or name[4:].isdigit())


@record(frozen=True)
class FamilySpec:
    exceptional: tuple[FiberSpec, ...]
    tail: FiberSpec | None = None
    prime_set: frozenset[int] = frozenset()

    def __post_init__(self):
        try:
            given = tuple(self.prime_set)
            if any(isinstance(p, bool) for p in given):  # operator.index reads True as 1
                raise TypeError
            primes = frozenset(map(operator.index, given))
        except TypeError:
            raise InvariantViolation("the prime set must be a list of integers") from None
        for p in sorted(primes):
            if p >= 2**63 or not is_prime(p):
                raise InvariantViolation(f"prime set entry {p} is not a prime below 2^63")
        object.__setattr__(self, "prime_set", primes)
        if self.tail is not None and self.tail.name != TAIL:
            raise InvariantViolation(f"the tail fiber must be named {TAIL!r}, not {self.tail.name!r}")
        names = [f.name for f in self.exceptional]
        if len(set(names)) != len(names):
            raise InvariantViolation("duplicate fiber names")
        for f in self.exceptional:
            if f.name in RESERVED:
                raise InvariantViolation(
                    f"fiber name {f.name!r} is reserved for {RESERVED[f.name]}"
                )
            if self.tail is not None and _is_tail_name(f.name):
                raise InvariantViolation(
                    f"fiber name {f.name!r} collides with the tail copy names"
                )
        # each distinct group once, named by its first fiber: a truncation
        # repeats the tail group
        first = {}
        for f in self.fibers:
            first.setdefault(f.group, f.name)
        for g, name in first.items():
            for p in factorint(g.order):
                if p not in primes:
                    raise InvariantViolation(
                        f"fiber {name} has order divisible by {p}, outside the prime set"
                    )

    @property
    def fibers(self) -> tuple[FiberSpec, ...]:
        """The exceptional fibers, then the tail fiber."""
        return self.exceptional if self.tail is None else self.exceptional + (self.tail,)

    def with_fibers(self, fibers) -> "FamilySpec":
        """The family on new fibers listed in ``fibers`` order."""
        fibers, n = tuple(fibers), len(self.exceptional)
        return FamilySpec(fibers[:n], fibers[n] if self.tail is not None else None, self.prime_set)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.exceptional)

    def fiber(self, name: str) -> FiberSpec:
        for f in self.exceptional:
            if f.name == name:
                return f
        raise KeyError(name)


def family(exceptional, tail=None, prime_set=None) -> FamilySpec:
    """Convenience constructor; infers the prime set when not given."""
    fibers = tuple(
        FiberSpec(name, g, u) if not isinstance(name, FiberSpec) else name
        for (name, g, u) in exceptional
    )
    tl = FiberSpec(TAIL, *tail) if isinstance(tail, tuple) else tail
    if prime_set is None:
        primes: set[int] = set()
        for f in fibers if tl is None else fibers + (tl,):
            primes.update(factorint(f.group.order))
        prime_set = primes or {2}
    return FamilySpec(fibers, tl, prime_set)


# ---------------------------------------------------------------------------
# validation and closure
# ---------------------------------------------------------------------------


@record(frozen=True)
class FiberClosureInfo:
    name: str
    already_normal: bool
    closure_order: int


def validate_family(spec: FamilySpec) -> tuple[FiberClosureInfo, ...]:
    """Check the family invariants and report the normal closures, one
    entry per fiber in ``fibers`` order.

    Structural violations raise at construction time; this reports the
    derived data (which U_t are already normal, their closures).
    """
    infos = []
    for f in spec.fibers:
        cl = normal_closure(f.group, f.subgroup)
        infos.append(FiberClosureInfo(f.name, f.subgroup.is_normal(), cl.order))
    return tuple(infos)


def normal_closure_family(spec: FamilySpec) -> FamilySpec:
    """Replace every U_t by its normal closure; the free product does
    not change, so all formula operations treat this as canonical."""
    return spec.with_fibers(
        FiberSpec(f.name, f.group, normal_closure(f.group, f.subgroup))
        for f in spec.fibers
    )


# ---------------------------------------------------------------------------
# abelianized families
# ---------------------------------------------------------------------------


FLAVORS = ("plain", "discretized", "compactified")


@record(frozen=True)
class RestrictedAbFamily:
    """Family (A_t, B_t) of subgroups B_t <= A_t with a topological flavor
    tag: one (name, B_t) pair per fiber in ``fibers`` order, the tail's
    under ``tail``."""

    pairs: tuple[tuple[str, AbSubgroup], ...]
    flavor: str

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise InvariantViolation(f"unknown flavor {self.flavor}")

    def same_as(self, other: "RestrictedAbFamily") -> bool:
        """Same flavor and fiber names, the tail's included, and fiber by
        fiber the same subgroup of the same group."""
        return (
            self.flavor == other.flavor
            and [n for n, _ in self.pairs] == [n for n, _ in other.pairs]
            and all(a.same_subgroup(b) for (_, a), (_, b) in zip(self.pairs, other.pairs))
        )


def abelianize_family(spec: FamilySpec) -> RestrictedAbFamily:
    """Fiberwise (G_t^ab, image of U_t); tagged compactified because the
    abelianized free product is the compactified restricted product."""

    def pair(f: FiberSpec) -> AbSubgroup:
        a, proj = f.group.abelianization
        return AbSubgroup(a, tuple(sorted(set(proj.apply(x) for x in f.subgroup.elements))))

    return RestrictedAbFamily(tuple((f.name, pair(f)) for f in spec.fibers), "compactified")


# ---------------------------------------------------------------------------
# quotient families
# ---------------------------------------------------------------------------


def quotient_family(
    spec: FamilySpec, choices: dict[str, Subgroup], tail_choice: Subgroup | None = None
) -> FamilySpec:
    """Fiberwise quotients G_t/V_t with the images of U_t."""
    new_spec, _ = quotient_family_morphism(spec, choices, tail_choice)
    return new_spec


def quotient_family_morphism(
    spec: FamilySpec, choices: dict[str, Subgroup], tail_choice: Subgroup | None = None
) -> tuple[FamilySpec, "FamilyMorphism"]:
    picks = {**choices, TAIL: tail_choice}
    fibers = []
    maps = {}
    for f in spec.fibers:
        v = picks.get(f.name)
        if v is None:
            v = Subgroup(f.group, (f.group.identity,))
        q, proj = quotient_group(f.group, v)
        u_image = subgroup_from_generators(
            q, [proj.apply(x) for x in f.subgroup.elements]
        )
        fibers.append(FiberSpec(f.name, q, u_image))
        maps[f.name] = proj
    target = spec.with_fibers(fibers)
    return target, FamilyMorphism(spec, target, {n: n for n in spec.names}, maps)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


@record(frozen=True)
class FamilyMorphism:
    """Morphism of families: exceptional names map to names or to the
    star; the tail maps to the tail uniformly; the star maps to the star.
    ``fiber_maps`` is keyed by source fiber name, the tail's by ``tail``."""

    source: FamilySpec
    target: FamilySpec
    index_map: dict[str, str] = field(hash=False)
    fiber_maps: dict[str, GroupHom] = field(hash=False)

    def __post_init__(self):
        if set(self.index_map) != set(self.source.names):
            raise InvariantViolation("index map must cover the exceptional names")
        sources = _by_name(self.source)
        targets = _by_name(self.target)
        for name, tgt in self.target_of.items():
            hom = self.fiber_maps.get(name)
            if tgt == STAR:
                if hom is not None and hom.target.order != 1:
                    raise InvariantViolation(
                        f"{name} maps to the star but its fiber map is not trivial"
                    )
                continue
            # exceptional fibers map to exceptional fibers, the tail to the tail
            if tgt not in targets or (tgt == TAIL) != (name == TAIL):
                raise InvariantViolation(f"unknown target fiber {tgt}")
            if hom is None:
                raise InvariantViolation(f"missing fiber map for {name}")
            if hom.source != sources[name].group or hom.target != targets[tgt].group:
                raise InvariantViolation(f"fiber map for {name} has wrong type")

    @property
    def target_of(self) -> dict[str, str]:
        """The target of every source fiber, in index-map order and then
        the tail, which maps to the tail."""
        tail = {TAIL: TAIL} if self.source.tail is not None else {}
        return {**self.index_map, **tail}


def _by_name(spec: FamilySpec) -> dict[str, FiberSpec]:
    return {f.name: f for f in spec.fibers}


def identity_morphism(spec: FamilySpec) -> FamilyMorphism:
    from .groups import identity_hom

    return FamilyMorphism(
        spec,
        spec,
        {n: n for n in spec.names},
        {f.name: identity_hom(f.group) for f in spec.fibers},
    )


@record(frozen=True)
class MorphismPredicates:
    strict: bool
    fibrewise_surjective: bool
    star_unique_preimage: bool
    index_map_open: bool

    def failures(self) -> list[str]:
        """The failed hypotheses, in a fixed order."""
        checks = (
            (self.fibrewise_surjective, "not fibrewise surjective"),
            (self.strict, "not strict"),
            (self.index_map_open, "index map is not open"),
            (self.star_unique_preimage, "star preimage is not unique"),
        )
        return [message for holds, message in checks if not holds]


def morphism_predicates(m: FamilyMorphism) -> MorphismPredicates:
    """Decide strictness, fibrewise surjectivity, unique star preimage
    and openness of the index map for one-point-compactified shapes."""
    strict = True
    surjective = True
    sources = _by_name(m.source)
    targets = _by_name(m.target)
    for name, tgt in m.target_of.items():
        f = sources[name]
        if tgt == STAR:
            # the star fiber is trivial with U_* = {*}
            if set(f.subgroup.elements) != set(range(f.group.order)):
                strict = False
            continue
        hom = m.fiber_maps[name]
        pre = hom.preimage(targets[tgt].subgroup.elements)
        if set(pre) != set(f.subgroup.elements):
            strict = False
        if not hom.is_surjective():
            surjective = False
    # total-space surjectivity: every target fiber, the tail's included,
    # must be reached
    if set(targets) - set(m.target_of.values()):
        surjective = False

    star_unique = all(t != STAR for t in m.index_map.values())

    src_infinite = m.source.tail is not None
    tgt_infinite = m.target.tail is not None
    if not src_infinite and not tgt_infinite:
        index_open = True
    elif src_infinite and tgt_infinite:
        index_open = star_unique
    else:
        # finite source into an infinite target: {*} is open upstairs but
        # its image is not open downstairs
        index_open = False
    return MorphismPredicates(strict, surjective, star_unique, index_open)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


@record(frozen=True)
class Tower:
    """Projective system: transitions[i] maps levels[i+1] -> levels[i]."""

    levels: tuple[FamilySpec, ...]
    transitions: tuple[FamilyMorphism, ...]

    def __post_init__(self):
        if len(self.transitions) != max(len(self.levels) - 1, 0):
            raise InvariantViolation("need one transition per adjacent pair")
        for i, t in enumerate(self.transitions):
            if t.source != self.levels[i + 1] or t.target != self.levels[i]:
                raise InvariantViolation(f"transition {i} connects wrong levels")


@record(frozen=True)
class TowerCertificate:
    """Certified hypotheses for the limit theorem: every transition must
    be fibrewise surjective and strict, with a unique star preimage.
    ``step_failures[i]`` lists the hypotheses transition i fails."""

    steps: tuple[MorphismPredicates, ...]
    step_failures: tuple[tuple[str, ...], ...]

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(
            f"transition {i}: {message}"
            for i, messages in enumerate(self.step_failures)
            for message in messages
        )

    @property
    def passed(self) -> bool:
        return not any(self.step_failures)


def check_tower(t: Tower) -> TowerCertificate:
    steps = tuple(morphism_predicates(tr) for tr in t.transitions)
    step_failures = tuple(
        # the limit theorem does not ask for an open index map
        tuple(message for message in preds.failures() if message != "index map is not open")
        for preds in steps
    )
    return TowerCertificate(steps, step_failures)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def truncate(spec: FamilySpec, level: int) -> FamilySpec:
    """The finite family on the exceptional fibers and ``level`` copies of
    the tail fiber, named ``tail1``, ..., ``tail<level>``; a family without
    a tail is its own truncation.  A tail whose quotient G/closure(U) is
    nontrivial is refused: past the cut such a family is not a plain
    finite free product."""
    if level < 0:
        raise PreconditionError("truncation level must be >= 0")
    tail = spec.tail
    if tail is None:
        return spec
    if normal_closure(tail.group, tail.subgroup).order != tail.group.order:
        raise PreconditionError(
            "the truncation has a nontrivial pattern beyond the cut; "
            "formulas require a plain finite free product"
        )
    copies = tuple(FiberSpec(f"{TAIL}{i}", tail.group, tail.subgroup) for i in range(1, level + 1))
    return FamilySpec(spec.exceptional + copies, None, spec.prime_set)
