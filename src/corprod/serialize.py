"""Parsing of spec files (JSON) into domain objects.

Groups:    {"kind": "cyclic", "n": k}
           {"kind": "perm", "degree": d, "generators": [[...], ...]}
           {"kind": "table", "table": [[...], ...]}
Abelian:   {"kind": "ab", "factors": [d1, ...]}
Family:    {"prime_set": [...],
            "exceptional": {name: {"group": ..., "subgroup_generators": [...]}},
            "tail": {"group": ..., "subgroup_generators": [...]} | null}
Module:    {"coeff": {"kind": "ab", ...},
            "actions": {name | "tail": [{"element": g, "matrix": [[...]]}]}}

Element indices are zero-based everywhere.  Module actions list matrices
on a generating set and extend multiplicatively; an empty or missing
list is the trivial action.
"""

from __future__ import annotations

import hashlib
import json

from .abelian import FiniteAbelianGroup
from .cohomology import module_from_generator_matrices
from .errors import CorprodError, SpecFileError
from .families import FamilyMorphism, FamilySpec, TailSpec, Tower, family
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


def parse_group(data, cap: int = 2000) -> FiniteGroup:
    try:
        kind = data["kind"]
        if kind == "cyclic":
            n = int(data["n"])
            if n < 1:
                raise SpecFileError("cyclic order must be >= 1")
            if n > cap:
                raise SpecFileError(f"cyclic order {n} exceeds the cap {cap}")
            return cyclic_group(n)
        if kind == "perm":
            return group_from_generators(
                int(data["degree"]),
                [tuple(g) for g in data["generators"]],
                cap=cap,
            )
        if kind == "table":
            table = data["table"]
            if len(table) > cap:
                raise SpecFileError(f"table order {len(table)} exceeds the cap {cap}")
            return group_from_table(table, int(data.get("identity", 0)))
        raise SpecFileError(f"unknown group kind {kind!r}")
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid group: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed group spec: {exc}") from exc


def parse_abelian(data) -> FiniteAbelianGroup:
    try:
        if data.get("kind") != "ab":
            raise SpecFileError("abelian coefficient must have kind 'ab'")
        return FiniteAbelianGroup(tuple(int(d) for d in data["factors"]))
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid abelian group: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed abelian spec: {exc}") from exc


def parse_subgroup(group: FiniteGroup, generators) -> Subgroup:
    try:
        return subgroup_from_generators(group, [int(x) for x in generators])
    except CorprodError as exc:
        raise SpecFileError(f"invalid subgroup: {exc}") from exc
    except (TypeError, IndexError, ValueError) as exc:
        raise SpecFileError(f"malformed subgroup generators: {exc}") from exc


def parse_family(data, cap: int = 2000) -> FamilySpec:
    try:
        exceptional = []
        for name, fiber in sorted(data.get("exceptional", {}).items()):
            g = parse_group(fiber["group"], cap)
            if "subgroup_elements" in fiber:
                u = Subgroup(g, tuple(int(x) for x in fiber["subgroup_elements"]))
            else:
                u = parse_subgroup(g, fiber.get("subgroup_generators", []))
            exceptional.append((str(name), g, u))
        tail = None
        if data.get("tail"):
            g = parse_group(data["tail"]["group"], cap)
            if "subgroup_elements" in data["tail"]:
                u = Subgroup(g, tuple(int(x) for x in data["tail"]["subgroup_elements"]))
            else:
                u = parse_subgroup(g, data["tail"].get("subgroup_generators", []))
            tail = TailSpec(g, u)
        prime_set = data.get("prime_set")
        return family(exceptional, tail, prime_set)
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid family: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecFileError(f"malformed family spec: {exc}") from exc


def _parse_action(group: FiniteGroup, coeff: FiniteAbelianGroup, entries):
    if not entries:
        return None
    try:
        mats = {
            int(e["element"]): tuple(tuple(int(x) for x in row) for row in e["matrix"])
            for e in entries
        }
        module = module_from_generator_matrices(group, coeff, mats)
    except CorprodError as exc:
        raise SpecFileError(f"invalid module action: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed module action: {exc}") from exc
    if module.is_trivial_action():
        return None
    return module.action


def parse_module(data, spec: FamilySpec) -> FamilyModule:
    try:
        coeff = parse_abelian(data["coeff"])
        actions = {}
        tail_action = None
        for name, entries in sorted(data.get("actions", {}).items()):
            if name == "tail":
                if spec.tail is None:
                    raise SpecFileError("tail action given for a family without tail")
                tail_action = _parse_action(spec.tail.group, coeff, entries)
            else:
                try:
                    fiber = spec.fiber(str(name))
                except KeyError as exc:
                    raise SpecFileError(f"action for unknown fiber {name!r}") from exc
                act = _parse_action(fiber.group, coeff, entries)
                if act is not None:
                    actions[str(name)] = act
        return FamilyModule.build(coeff, actions, tail_action)
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid module file: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecFileError(f"malformed module file: {exc}") from exc


def parse_open_sets(data, spec: FamilySpec) -> list[OpenSetSpec]:
    out = []
    try:
        for entry in data["open_sets"]:
            out.append(
                OpenSetSpec(
                    spec,
                    {str(k): frozenset(int(x) for x in v) for k, v in entry.get("exceptional_parts", {}).items()},
                    frozenset(int(x) for x in entry.get("tail_default", [])),
                    {int(k): frozenset(int(x) for x in v) for k, v in entry.get("tail_exceptions", {}).items()},
                    bool(entry.get("contains_star", False)),
                )
            )
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid open set: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecFileError(f"malformed open set file: {exc}") from exc
    return out


def parse_morphism(data, source: FamilySpec, target: FamilySpec) -> FamilyMorphism:
    try:
        index_map = {str(k): str(v) for k, v in data["index_map"].items()}
        fiber_maps = {}
        for name, images in data.get("fiber_maps", {}).items():
            src = source.fiber(str(name)).group
            tgt_name = index_map[str(name)]
            if tgt_name == "*":
                continue
            tgt = target.fiber(tgt_name).group
            fiber_maps[str(name)] = GroupHom(src, tgt, tuple(int(x) for x in images))
        tail_map = None
        if data.get("tail_map") is not None:
            tail_map = GroupHom(
                source.tail.group, target.tail.group, tuple(int(x) for x in data["tail_map"])
            )
        return FamilyMorphism(source, target, index_map, fiber_maps, tail_map)
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid morphism: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecFileError(f"malformed morphism: {exc}") from exc


def parse_tower(data, cap: int = 2000) -> Tower:
    try:
        levels = tuple(parse_family(entry, cap) for entry in data["levels"])
        transitions = tuple(
            parse_morphism(entry, levels[i + 1], levels[i])
            for i, entry in enumerate(data.get("transitions", []))
        )
        return Tower(levels, transitions)
    except SpecFileError:
        raise
    except CorprodError as exc:
        raise SpecFileError(f"invalid tower: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed tower file: {exc}") from exc
