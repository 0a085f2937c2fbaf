"""Spec-file parsing: roundtrips and corruption fuzzing.

Every corrupted document must either parse or fail with SpecFileError;
nothing else may leak out of the parsers.
"""

import copy
import random
import zlib

import pytest

from corprod import groups, serialize
from corprod.errors import SpecFileError

VALID_FAMILY = {
    "prime_set": [2, 3],
    "exceptional": {
        "a": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": [2]},
        "b": {
            "group": {"kind": "perm", "degree": 3, "generators": [[1, 2, 0]]},
            "subgroup_generators": [],
        },
    },
    "tail": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": [1]},
}

VALID_MODULE = {
    "coeff": {"kind": "ab", "factors": [6]},
    "actions": {"a": [{"element": 1, "matrix": [[-1]]}]},
}

VALID_TOWER = {
    "levels": [
        {
            "prime_set": [2],
            "exceptional": {
                "a": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]}
            },
        },
        {
            "prime_set": [2],
            "exceptional": {
                "a": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]}
            },
        },
    ],
    "transitions": [{"index_map": {"a": "a"}, "fiber_maps": {"a": [0, 1]}}],
}

VALID_TOPO = {
    "open_sets": [
        {
            "exceptional_parts": {"a": [0, 1]},
            "tail_default": [0, 1, 2],
            "contains_star": True,
        }
    ]
}

JUNK = [None, -1, 0, 3.5, "x", [], {}, [[]], {"kind": "?"}, 10**9, [0, 0], True, [7], [[7, 0], [0, 7]], {"a": 1}]


def corrupt(doc, rng):
    doc = copy.deepcopy(doc)
    node = doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
        key = rng.choice(sorted(node)) if isinstance(node, dict) else rng.randrange(len(node))
        if rng.random() < 0.4:
            node[key] = rng.choice(JUNK)
            return doc
        node = node[key]
    if isinstance(node, dict):
        node[rng.choice(["kind", "n", "zzz"])] = rng.choice(JUNK)
    return doc


def test_valid_documents_parse():
    spec = serialize.parse_family(VALID_FAMILY)
    assert spec.names == ("a", "b") and spec.tail is not None
    module = serialize.parse_module(VALID_MODULE, spec)
    assert module.coeff.factors == (6,)
    assert module.action_for("a") is not None
    assert module.action_for("b") is None
    tower = serialize.parse_tower(VALID_TOWER)
    assert len(tower.levels) == 2
    sets = serialize.parse_open_sets(VALID_TOPO, spec)
    assert len(sets) == 1 and sets[0].contains_star


def test_trivial_action_listing_collapses_to_none():
    spec = serialize.parse_family(VALID_FAMILY)
    doc = {
        "coeff": {"kind": "ab", "factors": [6]},
        "actions": {"a": [{"element": 1, "matrix": [[1]]}]},
    }
    module = serialize.parse_module(doc, spec)
    assert module.action_for("a") is None


CORRUPTION_SEEDS = (0, 1, 2, 3)


@pytest.mark.parametrize(
    "name,doc",
    [
        ("family", VALID_FAMILY),
        ("module", VALID_MODULE),
        ("tower", VALID_TOWER),
        ("topo", VALID_TOPO),
    ],
)
def test_corrupted_documents_never_crash(name, doc):
    spec = serialize.parse_family(VALID_FAMILY)
    parse = {
        "family": serialize.parse_family,
        "module": lambda d: serialize.parse_module(d, spec),
        "tower": serialize.parse_tower,
        "topo": lambda d: serialize.parse_open_sets(d, spec),
    }[name]
    for seed in CORRUPTION_SEEDS:
        # crc32, unlike hash(), does not change with PYTHONHASHSEED, so a
        # failure replays from its seed and document number
        rng = random.Random(zlib.crc32(name.encode()) + seed)
        for i in range(400):
            bad = corrupt(doc, rng)
            try:
                parse(bad)
            except SpecFileError:
                pass
            except Exception as exc:
                pytest.fail(f"seed {seed}, document {i}: {exc!r} on {bad!r}")


def test_digest_stability():
    d1 = serialize.canonical_digest(VALID_FAMILY)
    d2 = serialize.canonical_digest(copy.deepcopy(VALID_FAMILY))
    assert d1 == d2 and len(d1) == 12


def test_action_powers_beyond_int64_are_refused():
    # the unreduced powers of [[10^9]] on C4 reach 10^27; the action is
    # reduced mod 6 first, to [[4]], which is not an automorphism
    spec = serialize.parse_family(VALID_FAMILY)
    doc = {
        "coeff": {"kind": "ab", "factors": [6]},
        "actions": {"a": [{"element": 1, "matrix": [[10**9]]}]},
    }
    with pytest.raises(SpecFileError, match="not a homomorphism"):
        serialize.parse_module(doc, spec)


def test_large_action_representatives_are_reduced():
    # 6 * 10^30 - 1 is -1 mod 6: the same negation action as [[-1]]
    spec = serialize.parse_family(VALID_FAMILY)
    doc = {
        "coeff": {"kind": "ab", "factors": [6]},
        "actions": {"a": [{"element": 1, "matrix": [[6 * 10**30 - 1]]}]},
    }
    big = serialize.parse_module(doc, spec)
    assert big == serialize.parse_module(VALID_MODULE, spec)
    assert big.action_for("a").action.tolist() == [[[1]], [[5]], [[1]], [[5]]]


def test_a_parsed_action_is_validated_once(monkeypatch):
    # the engines read the module the parser validated, not a copy
    from corprod.cohomology import GModule

    spec = serialize.parse_family(VALID_FAMILY)
    # C4 on Z/13 by 5, an element of order 4 mod 13
    doc = {"coeff": {"kind": "ab", "factors": [13]}, "actions": {"a": [{"element": 1, "matrix": [[5]]}]}}
    validated = []
    original = GModule.__post_init__

    def counted(self):
        validated.append(self.coeff.factors)
        original(self)

    monkeypatch.setattr(GModule, "__post_init__", counted)
    module = serialize.parse_module(doc, spec)
    m = module.gmodule(spec.fiber("a"))
    assert validated == [(13,)]
    assert m is module.action_for("a") and m.action[:, 0, 0].tolist() == [1, 5, 12, 8]


def test_table_groups_obey_the_order_cap(monkeypatch):
    # past the cap the table is refused before it is read, so one shared
    # row stands for all of them
    row = list(range(2001))
    with pytest.raises(SpecFileError, match="exceeds the cap 2000"):
        serialize.parse_group({"kind": "table", "table": [row] * 2001})
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 4)
    c4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    assert serialize.parse_group({"kind": "table", "table": c4}).order == 4
    row = list(range(5))
    with pytest.raises(SpecFileError, match="exceeds the cap 4"):
        serialize.parse_group({"kind": "table", "table": [row] * 5})
    # the same cap bounds the other group kinds
    with pytest.raises(SpecFileError, match="cyclic order 5 exceeds the cap 4"):
        serialize.parse_group({"kind": "cyclic", "n": 5})
    with pytest.raises(SpecFileError, match="closure exceeds the order cap 4"):
        serialize.parse_group({"kind": "perm", "degree": 5, "generators": [[1, 2, 3, 4, 0]]})


def test_out_of_range_subgroup_element_is_an_invalid_family():
    doc = copy.deepcopy(VALID_FAMILY)
    doc["exceptional"]["a"]["subgroup_elements"] = [0, 100]
    with pytest.raises(SpecFileError, match="^invalid family: element 100 out of range$"):
        serialize.parse_family(doc)


@pytest.mark.parametrize("junk", [5, None, "family", [1]])
def test_non_object_coefficients_are_malformed(junk):
    # every parser refuses the five shape errors under its own label
    with pytest.raises(SpecFileError, match="^malformed abelian spec: "):
        serialize.parse_abelian(junk)
    spec = serialize.parse_family(VALID_FAMILY)
    with pytest.raises(SpecFileError, match="^malformed abelian spec: "):
        serialize.parse_module({"coeff": junk}, spec)


def test_tail_entry_takes_subgroup_elements_like_an_exceptional_fiber():
    doc = copy.deepcopy(VALID_FAMILY)
    doc["tail"] = {"group": {"kind": "cyclic", "n": 3}, "subgroup_elements": [0, 1, 2]}
    spec = serialize.parse_family(doc)
    assert spec.tail.subgroup.elements == (0, 1, 2)
    assert spec.fibers[-1].name == "tail"


def test_module_action_keys_name_fibers_and_tail_names_the_pattern():
    spec = serialize.parse_family(VALID_FAMILY)
    # the tail group is C3; its generator acts on Z/7 as multiplication by 2
    doc = {"coeff": {"kind": "ab", "factors": [7]}, "actions": {"tail": [{"element": 1, "matrix": [[2]]}]}}
    module = serialize.parse_module(doc, spec)
    assert [name for name, _ in module.actions] == ["tail"]
    assert module.gmodule(spec.fibers[-1]).action.tolist() == [[[1]], [[2]], [[4]]]
    no_tail = serialize.parse_family(dict(VALID_FAMILY, tail=None))
    with pytest.raises(SpecFileError, match="tail action given for a family without tail"):
        serialize.parse_module(doc, no_tail)
    with pytest.raises(SpecFileError, match="action for unknown fiber 'c'"):
        serialize.parse_module(dict(doc, actions={"c": doc["actions"]["tail"]}), spec)
