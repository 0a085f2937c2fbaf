"""Parsing of spec files (JSON) into domain objects.

Groups:    {"kind": "cyclic", "n": k}
           {"kind": "perm", "degree": d, "generators": [[...], ...]}
           {"kind": "table", "table": [[...], ...]}
Abelian:   {"kind": "ab", "factors": [d1, ...]}
Family:    {"prime_set": [...],
            "exceptional": {name: {"group": ..., "subgroup_generators": [...]}},
            "tail": {"group": ..., "subgroup_generators": [...]} | null}
           a fiber may give "subgroup_elements" in place of its generators;
           the name "tail" is reserved for the tail pattern, which the
           family holds as one more fiber of that name
Module:    {"coeff": {"kind": "ab", ...},
            "actions": {name | "tail": [{"element": g, "matrix": [[...]]}]}}
           an action is kept under its fiber's name, the tail's under
           "tail", which also acts on a truncation's copies tail1, tail2, ...

Element indices are zero-based everywhere.  Module actions list matrices
on a generating set and extend multiplicatively; an empty or missing
list is the trivial action.  Every integer is a JSON integer: a float, a
string or a boolean in its place is malformed, and an integer object key
(a tail exception index) is a string of digits.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

from . import groups
from .abelian import FiniteAbelianGroup
from .cohomology import module_from_generator_matrices
from .errors import CorprodError, SpecFileError
from .families import TAIL, FamilyMorphism, FamilySpec, Tower, family
from .formulas import FamilyModule
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    cyclic_group,
    group_from_generators,
    group_from_table,
    subgroup_from_generators,
)
from .topology import OpenSetSpec


def canonical_digest(obj) -> str:
    """Stable content digest of a JSON-serializable input."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@contextmanager
def _refused_as(invalid: str, malformed: str):
    """Refuse a bad input as ``SpecFileError``: a library error is the
    input's fault (``invalid``), a lookup or conversion error means the
    document has the wrong shape (``malformed``).  An inner parser's
    refusal passes through with its own label."""
    try:
        yield
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"{invalid}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecFileError(f"{malformed}: {exc}") from exc


def _int(x) -> int:
    """An integer value of a document, neither truncated nor parsed."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _ints(xs) -> tuple[int, ...]:
    return tuple(_int(x) for x in xs)


def _index_key(key: str) -> int:
    """An integer object key, which JSON writes as a string of digits."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise ValueError(f"expected a string of digits, got {key!r}")
    return int(key)


def parse_group(data) -> FiniteGroup:
    """A group of at most ``groups.DEFAULT_ORDER_CAP`` elements."""
    cap = groups.DEFAULT_ORDER_CAP
    with _refused_as("invalid group", "malformed group spec"):
        kind = data["kind"]
        if kind == "cyclic":
            n = _int(data["n"])
            if n < 1:
                raise SpecFileError("cyclic order must be >= 1")
            if n > cap:
                raise SpecFileError(f"cyclic order {n} exceeds the cap {cap}")
            return cyclic_group(n)
        if kind == "perm":
            return group_from_generators(_int(data["degree"]), [_ints(g) for g in data["generators"]])
        if kind == "table":
            table = data["table"]
            if len(table) > cap:
                raise SpecFileError(f"table order {len(table)} exceeds the cap {cap}")
            return group_from_table([_ints(row) for row in table], _int(data.get("identity", 0)))
        raise SpecFileError(f"unknown group kind {kind!r}")


def parse_abelian(data) -> FiniteAbelianGroup:
    with _refused_as("invalid abelian group", "malformed abelian spec"):
        if data.get("kind") != "ab":
            raise SpecFileError("abelian coefficient must have kind 'ab'")
        return FiniteAbelianGroup(_ints(data["factors"]))


def parse_subgroup(group: FiniteGroup, generators) -> Subgroup:
    with _refused_as("invalid subgroup", "malformed subgroup generators"):
        return subgroup_from_generators(group, _ints(generators))


def _parse_fiber(data) -> tuple[FiniteGroup, Subgroup]:
    """A fiber's group and subgroup, exceptional or tail alike."""
    g = parse_group(data["group"])
    if "subgroup_elements" in data:
        return g, Subgroup(g, _ints(data["subgroup_elements"]))
    return g, parse_subgroup(g, data.get("subgroup_generators", []))


def parse_family(data) -> FamilySpec:
    with _refused_as("invalid family", "malformed family spec"):
        exceptional = [
            (str(name), *_parse_fiber(fiber))
            for name, fiber in sorted(data.get("exceptional", {}).items())
        ]
        tail = _parse_fiber(data["tail"]) if data.get("tail") else None
        return family(exceptional, tail, data.get("prime_set"))


def _parse_action(group: FiniteGroup, coeff: FiniteAbelianGroup, entries):
    if not entries:
        return None
    with _refused_as("invalid module action", "malformed module action"):
        mats = {}
        for e in entries:
            g = _int(e["element"])
            if g in mats:
                raise ValueError(f"element {g} is listed twice")
            mats[g] = tuple(_ints(row) for row in e["matrix"])
        module = module_from_generator_matrices(group, coeff, mats)
    return None if module.is_trivial_action() else module


def parse_module(data, spec: FamilySpec) -> FamilyModule:
    with _refused_as("invalid module file", "malformed module file"):
        coeff = parse_abelian(data["coeff"])
        fibers = {f.name: f for f in spec.fibers}
        actions = {}
        for name, entries in sorted(data.get("actions", {}).items()):
            fiber = fibers.get(str(name))
            if fiber is None and name == TAIL:
                raise SpecFileError("tail action given for a family without tail")
            if fiber is None:
                raise SpecFileError(f"action for unknown fiber {name!r}")
            act = _parse_action(fiber.group, coeff, entries)
            if act is not None:
                actions[fiber.name] = act
        return FamilyModule.build(coeff, actions)


def parse_open_sets(data, spec: FamilySpec) -> list[OpenSetSpec]:
    with _refused_as("invalid open set", "malformed open set file"):
        return [
            OpenSetSpec(
                spec,
                {str(k): frozenset(_ints(v)) for k, v in entry.get("exceptional_parts", {}).items()},
                frozenset(_ints(entry.get("tail_default", []))),
                {_index_key(k): frozenset(_ints(v)) for k, v in entry.get("tail_exceptions", {}).items()},
                bool(entry.get("contains_star", False)),
            )
            for entry in data["open_sets"]
        ]


def parse_topology(data) -> tuple[FamilySpec, list[OpenSetSpec]]:
    """A topo-check file: a family and open sets of its index space."""
    with _refused_as("invalid topology file", "malformed topology file"):
        if "family" not in data:
            raise SpecFileError("topo-check file must contain a 'family' entry")
        spec = parse_family(data["family"])
        return spec, parse_open_sets(data, spec)


def parse_morphism(data, source: FamilySpec, target: FamilySpec) -> FamilyMorphism:
    with _refused_as("invalid morphism", "malformed morphism"):
        index_map = {str(k): str(v) for k, v in data["index_map"].items()}
        fiber_maps = {}
        for name, images in data.get("fiber_maps", {}).items():
            src = source.fiber(str(name)).group
            tgt_name = index_map[str(name)]
            if tgt_name == "*":
                _ints(images)  # a fiber sent to * keeps no map, but its entry is read
                continue
            tgt = target.fiber(tgt_name).group
            fiber_maps[str(name)] = GroupHom(src, tgt, _ints(images))
        if data.get("tail_map") is not None:
            for side, level in (("source", source), ("target", target)):
                if level.tail is None:
                    raise SpecFileError(f"tail map given, but the {side} family has no tail")
            fiber_maps[TAIL] = GroupHom(source.tail.group, target.tail.group, _ints(data["tail_map"]))
        return FamilyMorphism(source, target, index_map, fiber_maps)


def parse_tower(data) -> Tower:
    with _refused_as("invalid tower", "malformed tower file"):
        levels = tuple(parse_family(entry) for entry in data["levels"])
        transitions = tuple(
            parse_morphism(entry, levels[i + 1], levels[i])
            for i, entry in enumerate(data.get("transitions", []))
        )
        return Tower(levels, transitions)
