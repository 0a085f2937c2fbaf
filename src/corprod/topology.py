"""Symbolic topology of a corestricted family over T0 + {*}.

Fibers are finite, hence discrete, so a subset V of the total space is
open iff: whenever V contains the star, it contains U_t for almost all
tail indices.  With a uniform tail pattern and finitely many tail
exceptions this is decidable by inspecting the default tail part.
"""

from __future__ import annotations

import operator

from .errors import InvariantViolation
from .families import TAIL, FamilyMorphism, FamilySpec, MorphismPredicates, STAR, morphism_predicates
from .records import field, record


@record(frozen=True)
class OpenSetSpec:
    """A subset of the total space of a family.

    ``exceptional_parts[name]`` is the slice inside fiber name (missing
    names mean the empty slice); ``tail_default`` is the slice of every
    tail fiber except the finitely many listed ``tail_exceptions``.
    """

    family: FamilySpec
    exceptional_parts: dict = field(default_factory=dict, hash=False)
    tail_default: frozenset = frozenset()
    tail_exceptions: dict = field(default_factory=dict, hash=False)
    contains_star: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "exceptional_parts",
            {k: frozenset(v) for k, v in self.exceptional_parts.items()},
        )
        object.__setattr__(self, "tail_default", frozenset(self.tail_default))
        object.__setattr__(
            self,
            "tail_exceptions",
            {int(k): frozenset(v) for k, v in self.tail_exceptions.items()},
        )
        for name, part in self.exceptional_parts.items():
            g = self.family.fiber(name).group
            if any(not 0 <= x < g.order for x in part):
                raise InvariantViolation(f"part of fiber {name} out of range")
        if self.family.tail is None:
            if self.tail_default or self.tail_exceptions:
                raise InvariantViolation("tail parts given for a family without tail")
        else:
            n = self.family.tail.group.order
            for idx, part in list(self.tail_exceptions.items()) + [(0, self.tail_default)]:
                if any(not 0 <= x < n for x in part):
                    raise InvariantViolation("tail part out of range")
            if any(i < 1 for i in self.tail_exceptions):
                raise InvariantViolation("tail exception indices start at 1")

    def tail_part(self, i: int) -> frozenset:
        return self.tail_exceptions.get(i, self.tail_default)

    def part(self, name: str) -> frozenset:
        return self.exceptional_parts.get(name, frozenset())


@record(frozen=True)
class OpenCheck:
    is_open: bool
    witness: str | None


def is_open(v: OpenSetSpec) -> OpenCheck:
    """Openness per the one-point-compactification characterization.

    Fiber slices are always open (finite fibers are discrete); the only
    constraint is that a set containing the star must contain the tail
    subgroup pattern at almost all tail indices.
    """
    if not v.contains_star or v.family.tail is None:
        return OpenCheck(True, None)
    u = set(v.family.tail.subgroup.elements)
    if u <= v.tail_default:
        return OpenCheck(True, None)
    i = 1
    while i in v.tail_exceptions:
        i += 1
    return OpenCheck(False, f"tail{i}")


def _combine(a: OpenSetSpec, b: OpenSetSpec, op) -> OpenSetSpec:
    if a.family != b.family:
        raise InvariantViolation("open sets live over different families")
    names = set(a.exceptional_parts) | set(b.exceptional_parts)
    parts = {n: op(a.part(n), b.part(n)) for n in names}
    indices = set(a.tail_exceptions) | set(b.tail_exceptions)
    exceptions = {i: op(a.tail_part(i), b.tail_part(i)) for i in indices}
    return OpenSetSpec(
        a.family,
        parts,
        op(a.tail_default, b.tail_default),
        exceptions,
        op(a.contains_star, b.contains_star),
    )


def intersect_specs(a: OpenSetSpec, b: OpenSetSpec) -> OpenSetSpec:
    return _combine(a, b, operator.and_)


def union_specs(a: OpenSetSpec, b: OpenSetSpec) -> OpenSetSpec:
    return _combine(a, b, operator.or_)


def preimage_spec(m: FamilyMorphism, v: OpenSetSpec) -> OpenSetSpec:
    """Preimage of a target open-set spec under a family morphism."""
    if v.family != m.target:
        raise InvariantViolation("open set is not over the morphism target")
    parts = {}
    for name, tgt in m.index_map.items():
        src_group = m.source.fiber(name).group
        if tgt == STAR:
            parts[name] = (
                frozenset(range(src_group.order)) if v.contains_star else frozenset()
            )
        else:
            parts[name] = frozenset(m.fiber_maps[name].preimage(v.part(tgt)))
    if m.source.tail is None:
        # a finite source has no tail slices, whatever the target's are
        return OpenSetSpec(m.source, parts, contains_star=v.contains_star)
    tail = m.fiber_maps[TAIL]
    tail_exceptions = {i: frozenset(tail.preimage(p)) for i, p in v.tail_exceptions.items()}
    return OpenSetSpec(
        m.source, parts, frozenset(tail.preimage(v.tail_default)), tail_exceptions, v.contains_star
    )


@record(frozen=True)
class OpenMapCertificate:
    """Hypothesis certification for the open-mapping statement.

    When all four hypotheses hold the morphism is certified open; when
    they fail, nothing is claimed either way.
    """

    predicates: MorphismPredicates
    certified_open: bool
    failures: tuple[str, ...]


def open_map_certificate(m: FamilyMorphism) -> OpenMapCertificate:
    preds = morphism_predicates(m)
    failures = preds.failures()
    return OpenMapCertificate(preds, not failures, tuple(failures))
