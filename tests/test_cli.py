"""CLI behavior: exit codes, determinism, file formats."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from corprod import cli
from corprod import formulas as fp
from corprod.abelian import FiniteAbelianGroup
from corprod.families import check_tower
from corprod.serialize import parse_tower
from test_golden import TAIL_TOWER
from test_serialize import VALID_TOWER


FAMILY = {
    "prime_set": [2, 3],
    "exceptional": {
        "a": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": []},
        "b": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": []},
    },
    "tail": None,
}

MODULE = {
    "coeff": {"kind": "ab", "factors": [3]},
    "actions": {
        "a": [{"element": 1, "matrix": [[-1]]}],
        "b": [{"element": 1, "matrix": [[-1]]}],
    },
}


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY))
    return str(path)


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(MODULE))
    return str(path)


def run_cli(args):
    """Status and report of one CLI call, configured as ``cli.main`` does."""
    return cli.run(cli.RunConfig(**vars(cli.build_parser().parse_args(args))))


def test_exact_check_worked_instance(family_file, module_file):
    status, text = run_cli(
        ["exact-check", "--spec", family_file, "--module", module_file]
    )
    assert status == 0
    assert "term2=[3]" in text  # H^1 of the product is Z/3


def test_validate_ok_and_corrupted(tmp_path, family_file):
    status, _ = run_cli(["validate", "--spec", family_file])
    assert status == 0
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "prime_set": [2],
                "exceptional": {
                    "a": {
                        "group": {"kind": "cyclic", "n": 4},
                        "subgroup_elements": [0, 1],
                    }
                },
                "tail": None,
            }
        )
    )
    status, text = run_cli(["validate", "--spec", str(bad)])
    assert status == 2
    assert "error" in text.lower()

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    status, _ = run_cli(["validate", "--spec", str(broken)])
    assert status == 2


def test_corrupted_cayley_table_rejected(tmp_path):
    # a valid C3 table with one corrupted entry
    bad = tmp_path / "badtable.json"
    bad.write_text(
        json.dumps(
            {
                "prime_set": [3],
                "exceptional": {
                    "a": {
                        "group": {
                            "kind": "table",
                            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                        },
                        "subgroup_generators": [],
                    }
                },
            }
        )
    )
    status, _ = run_cli(["validate", "--spec", str(bad)])
    assert status == 0
    bad.write_text(
        json.dumps(
            {
                "prime_set": [3],
                "exceptional": {
                    "a": {
                        "group": {
                            "kind": "table",
                            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
                        },
                        "subgroup_generators": [],
                    }
                },
            }
        )
    )
    status, _ = run_cli(["validate", "--spec", str(bad)])
    assert status == 2


def test_structured_output_is_json_lines(family_file):
    status, text = run_cli(
        ["cross-check", "--spec", family_file, "--format", "structured"]
    )
    assert status == 0
    for line in text.strip().splitlines():
        rec = json.loads(line)
        assert rec["result"] == "pass"


def test_reports_are_deterministic(family_file, module_file):
    first = run_cli(["exact-check", "--spec", family_file, "--module", module_file])
    second = run_cli(["exact-check", "--spec", family_file, "--module", module_file])
    assert first == second


def test_out_file_appends(tmp_path, family_file, capsys):
    out = tmp_path / "report.txt"
    cli.main(["validate", "--spec", family_file, "--out", str(out)])
    once = out.read_text()
    cli.main(["validate", "--spec", family_file, "--out", str(out)])
    capsys.readouterr()
    assert out.read_text() == once + once


def test_duality_and_abelianize_commands(family_file):
    status, _ = run_cli(["duality-check", "--spec", family_file])
    assert status == 0
    status, text = run_cli(["abelianize", "--spec", family_file])
    assert status == 0
    assert "ambient=[2]" in text


def test_cohomology_command_high_degree(tmp_path, module_file):
    spec = tmp_path / "tail.json"
    spec.write_text(
        json.dumps(
            {
                "prime_set": [2],
                "exceptional": {},
                "tail": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]},
            }
        )
    )
    mod = tmp_path / "m2.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}))
    status, text = run_cli(
        ["cohomology", "--spec", str(spec), "--module", str(mod), "--degree", "3"]
    )
    assert status == 0 and "h3-tail" in text
    # refusal when the tail quotient is nontrivial
    spec.write_text(
        json.dumps(
            {
                "prime_set": [2],
                "exceptional": {},
                "tail": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": [2]},
            }
        )
    )
    status, _ = run_cli(
        ["cohomology", "--spec", str(spec), "--module", str(mod), "--degree", "3"]
    )
    assert status == 2


def test_colimit_command(tmp_path):
    spec = tmp_path / "tail.json"
    spec.write_text(
        json.dumps(
            {
                "prime_set": [2, 3],
                "exceptional": {
                    "a": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": []}
                },
                "tail": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": [1]},
            }
        )
    )
    mod = tmp_path / "m6.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [6]}, "actions": {}}))
    status, text = run_cli(
        ["colimit", "--spec", str(spec), "--module", str(mod), "--degree", "1", "--truncate", "3"]
    )
    assert status == 0
    assert "colimit-level-03" in text
    status, _ = run_cli(
        ["colimit", "--spec", str(spec), "--module", str(mod), "--degree", "1", "--truncate", "-1"]
    )
    assert status == 2


@pytest.mark.parametrize("command, message", [
    (
        ["exact-check", "--truncate", "2"],
        "the truncation has a nontrivial pattern beyond the cut; "
        "formulas require a plain finite free product",
    ),
    (
        ["colimit", "--degree", "1", "--truncate", "2"],
        "tail quotient must be trivial (closure(U) = G) for truncations "
        "to be plain finite free products",
    ),
])
def test_a_tail_with_a_nontrivial_quotient_is_refused(tmp_path, command, message):
    # C4 with U = <2>: the tail quotient G/closure(U) is C2
    spec = tmp_path / "tail.json"
    spec.write_text(json.dumps({
        "prime_set": [2],
        "exceptional": {},
        "tail": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": [2]},
    }))
    mod = tmp_path / "m2.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}))
    args = command + ["--spec", str(spec), "--module", str(mod), "--format", "structured"]
    status, text = run_cli(args)
    assert status == 2
    assert json.loads(text) == {
        "check": command[0],
        "detail": "",
        "input_digest": "-",
        "invariant_factors": {},
        "result": "error",
        "witnesses": [message],
    }


def test_a_degree_2_colimit_level_fails_when_the_resolution_engine_disagrees(tmp_path, monkeypatch):
    spec = tmp_path / "tail.json"
    spec.write_text(json.dumps({
        "prime_set": [2, 3],
        "exceptional": {"a": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": []}},
        "tail": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]},
    }))
    mod = tmp_path / "m2.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}))
    args = ["colimit", "--spec", str(spec), "--module", str(mod), "--degree", "2", "--truncate", "2"]
    status, text = run_cli(args)
    assert status == 0 and "[FAIL]" not in text
    # a planted disagreement on the C4 fiber, which every level holds
    real = fp.resolution_cohomology
    monkeypatch.setattr(fp, "resolution_cohomology", lambda m, degree, cap: (
        FiniteAbelianGroup((4,)) if m.group.order == 4 else real(m, degree, cap)
    ))
    status, text = run_cli(args)
    assert status == 1
    for n in range(3):
        assert f"[FAIL] colimit-level-{n:02d}" in text
    assert "[PASS] colimit-growth" in text


def test_the_cli_imports_neither_fractions_nor_decimal():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, corprod.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tower_check_command(tmp_path):
    c2 = {"kind": "cyclic", "n": 2}
    level = {
        "prime_set": [2],
        "exceptional": {"a": {"group": c2, "subgroup_generators": [1]}},
        "tail": None,
    }
    tower = {
        "levels": [level, level],
        "transitions": [{"index_map": {"a": "a"}, "fiber_maps": {"a": [0, 1]}}],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    status, text = run_cli(["tower-check", "--spec", str(path)])
    assert status == 0 and "tower-certificate" in text


# the tower fixtures of the tests, with one transition that is not
# fibrewise surjective added: C2 -> C2 by the zero map
TOWER_FIXTURES = {
    "golden-tail": TAIL_TOWER,
    "serialize-valid": VALID_TOWER,
    "zero-map": {
        **VALID_TOWER,
        "transitions": VALID_TOWER["transitions"] + [{"index_map": {"a": "a"}, "fiber_maps": {"a": [0, 0]}}],
        "levels": VALID_TOWER["levels"] + VALID_TOWER["levels"][:1],
    },
}


@pytest.mark.parametrize("name", sorted(TOWER_FIXTURES))
def test_tower_transition_verdicts_are_the_certificates(tmp_path, name):
    # tower-transition-{i} passes exactly when the certificate lists no
    # failure for transition i
    doc = TOWER_FIXTURES[name]
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    _, text = run_cli(["tower-check", "--spec", str(path), "--format", "structured"])
    verdicts = {r["check"]: r["result"] for r in map(json.loads, text.splitlines())}
    cert = check_tower(parse_tower(doc))
    assert len(cert.steps) == len(doc["transitions"])
    for i in range(len(cert.steps)):
        listed = any(f.startswith(f"transition {i}: ") for f in cert.failures)
        assert verdicts[f"tower-transition-{i}"] == ("fail" if listed else "pass")
    assert verdicts["tower-certificate"] == ("fail" if cert.failures else "pass")


C2_TAIL = {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]}


def _c2_tower_check(tmp_path, upper_tail, lower_tail, transition):
    """tower-check on a 2-level C2 tower, the upper level mapping to the lower."""
    def level(tail):
        return {
            "prime_set": [2],
            "exceptional": {"a": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]}},
            "tail": tail,
        }
    path = tmp_path / "tower.json"
    tower = {"levels": [level(lower_tail), level(upper_tail)], "transitions": [transition]}
    path.write_text(json.dumps(tower))
    return run_cli(["tower-check", "--spec", str(path), "--format", "structured"])


IDENTITY_A = {"index_map": {"a": "a"}, "fiber_maps": {"a": [0, 1]}}


@pytest.mark.parametrize("upper_tail, lower_tail, message", [
    (None, None, "tail map given, but the source family has no tail"),
    (C2_TAIL, None, "tail map given, but the target family has no tail"),
    (None, C2_TAIL, "tail map given, but the source family has no tail"),
])
def test_a_tail_map_for_a_family_without_tail_is_refused(tmp_path, upper_tail, lower_tail, message):
    status, text = _c2_tower_check(tmp_path, upper_tail, lower_tail, {**IDENTITY_A, "tail_map": [0, 1]})
    assert status == 2
    assert json.loads(text)["witnesses"] == [message]


@pytest.mark.parametrize("upper_tail, lower_tail, message", [
    # the tail's map is checked in the loop over the fibers, under the name tail
    (C2_TAIL, None, "invalid morphism: unknown target fiber tail"),
    (C2_TAIL, C2_TAIL, "invalid morphism: missing fiber map for tail"),
])
def test_a_tail_without_its_map_is_refused(tmp_path, upper_tail, lower_tail, message):
    status, text = _c2_tower_check(tmp_path, upper_tail, lower_tail, IDENTITY_A)
    assert status == 2
    assert json.loads(text)["witnesses"] == [message]


def test_a_star_mapped_fiber_map_is_read_before_it_is_skipped(tmp_path):
    # a fiber sent to * has no map in the morphism, but its entry must still be integers
    transition = {"index_map": {"a": "*"}, "fiber_maps": {"a": ["x", 7.5, True]}}
    status, text = _c2_tower_check(tmp_path, None, None, transition)
    assert status == 2
    assert json.loads(text)["witnesses"] == ["malformed morphism: expected an integer, got 'x'"]


@pytest.mark.parametrize("first, second", [([[1]], [[-1]]), ([[-1]], [[1]]), ([[-1]], [[-1]])])
def test_an_action_listing_an_element_twice_is_refused(tmp_path, family_file, first, second):
    mod = tmp_path / "twice.json"
    entries = [{"element": 1, "matrix": first}, {"element": 1, "matrix": second}]
    mod.write_text(json.dumps({**MODULE, "actions": {**MODULE["actions"], "a": entries}}))
    status, text = run_cli(
        ["exact-check", "--spec", family_file, "--module", str(mod), "--format", "structured"]
    )
    assert status == 2
    assert json.loads(text)["witnesses"] == ["malformed module action: element 1 is listed twice"]


def test_topo_check_command(tmp_path):
    data = {
        "family": {
            "prime_set": [2, 3],
            "exceptional": {
                "a": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": [2]}
            },
            "tail": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": [1]},
        },
        "open_sets": [
            {"exceptional_parts": {"a": [0, 1]}, "tail_default": [0, 1, 2], "contains_star": True},
            {"exceptional_parts": {"a": [3]}, "contains_star": False, "tail_default": []},
        ],
    }
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(data))
    status, text = run_cli(["topo-check", "--spec", str(path)])
    assert status == 0
    assert "topo-closure-meets-joins" in text
    # a non-open set makes the run fail
    data["open_sets"].append(
        {"exceptional_parts": {}, "tail_default": [], "contains_star": True}
    )
    path.write_text(json.dumps(data))
    status, text = run_cli(["topo-check", "--spec", str(path)])
    assert status == 1
    assert "tail1" in text


def test_perm_group_parsing(tmp_path):
    spec = tmp_path / "perm.json"
    spec.write_text(
        json.dumps(
            {
                "prime_set": [2],
                "exceptional": {
                    "d4": {
                        "group": {
                            "kind": "perm",
                            "degree": 4,
                            "generators": [[1, 2, 3, 0], [2, 1, 0, 3]],
                        },
                        "subgroup_generators": [],
                    }
                },
            }
        )
    )
    status, text = run_cli(["validate", "--spec", str(spec)])
    assert status == 0
    status, text = run_cli(["abelianize", "--spec", str(spec)])
    assert status == 0 and "ambient=[2, 2]" in text


def test_corpus_command_thirty_pass_records(capsys):
    status = cli.main(["corpus", "--seed", "0", "--format", "structured"])
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert status == 0
    assert len(lines) == 30
    assert all(rec["result"] == "pass" for rec in lines)


def test_corpus_seeds_differ(capsys):
    cli.main(["corpus", "--seed", "0", "--format", "structured"])
    out0 = capsys.readouterr().out
    cli.main(["corpus", "--seed", "1", "--format", "structured"])
    out1 = capsys.readouterr().out
    assert out0 != out1
    assert len(out0.strip().splitlines()) == len(out1.strip().splitlines()) == 30


def test_cohomology_refuses_moduli_beyond_int64(tmp_path, family_file):
    mod = tmp_path / "big.json"
    coeff = {"kind": "ab", "factors": [2**31] * 3}
    mod.write_text(json.dumps({"coeff": coeff, "actions": {}}))
    status, text = run_cli(["cohomology", "--spec", family_file, "--module", str(mod)])
    assert status == 2
    assert "q=2147483648" in text and "2^63" in text


def test_wide_derivation_sums_are_refused_before_they_are_allocated(tmp_path):
    # C2^7 as seven disjoint transpositions on (Z/2)^128: the weight 16384
    # passes the cap, but the derivation sums would take 784 MiB
    gens = [[j ^ 1 if j // 2 == i else j for j in range(14)] for i in range(7)]
    spec = tmp_path / "c2e7.json"
    spec.write_text(json.dumps({
        "prime_set": [2],
        "exceptional": {"e": {"group": {"kind": "perm", "degree": 14, "generators": gens},
                              "subgroup_generators": []}},
        "tail": None,
    }))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [2] * 128}, "actions": {}}))
    tracemalloc.start()
    try:
        status, text = run_cli(["cohomology", "--degree", "1", "--spec", str(spec), "--module", str(mod)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2, text
    assert "derivation sums: the term array of 822083584 bytes exceeds the byte budget 67108864" in text
    assert peak < 48 * 2**20


C2_FAMILY = {
    "prime_set": [2],
    "exceptional": {"a": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": []}},
    "tail": None,
}


@pytest.mark.parametrize("factor", [2**63 - 1, 2**63, 2**64])
def test_cohomology_refuses_factors_from_2_63(tmp_path, factor):
    spec = tmp_path / "c2.json"
    spec.write_text(json.dumps(C2_FAMILY))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [factor]}, "actions": {}}))
    status, text = run_cli(
        ["cohomology", "--spec", str(spec), "--module", str(mod), "--degree", "1"]
    )
    if factor < 2**63:
        # odd, so coprime to |C2|: nothing is computed and nothing overflows
        assert status == 0 and "value=[]" in text
    else:
        assert status == 2
        assert str(factor) in text and "2^63" in text


def test_a_large_prime_coefficient_factor_is_refused_without_hanging(tmp_path):
    # 2^61 - 1 is prime: factoring it once took trial division to 2^30.5
    spec = tmp_path / "c2.json"
    spec.write_text(json.dumps(C2_FAMILY))
    mod = tmp_path / "m.json"

    def run(factor, degree):
        mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [factor]}, "actions": {}}))
        return run_cli(["cohomology", "--spec", str(spec), "--module", str(mod), "--degree", str(degree),
                        "--format", "structured"])

    for degree in (1, 2):
        # odd, so coprime to |C2|: H^i and H^i_nr are 0
        status, text = run(2**61 - 1, degree)
        assert status == 0
        first = json.loads(text.splitlines()[0])
        assert first["check"] == f"h{degree}-a" and first["invariant_factors"] == {"nr": [], "value": []}
        # the factor 2 makes H^i nonzero, and the engine works mod 2^61 - 1
        status, text = run(2 * (2**61 - 1), degree)
        assert_one_error(status, text)
        assert f"modulus q={2**61 - 1}: " in text and ">= 2^63" in text


S3 = {"kind": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}


@pytest.mark.parametrize("degree", [1, 2])
def test_the_unramified_part_of_a_nonabelian_fiber_at_closure_g_and_1(tmp_path, degree):
    # element 1 of S3 is the transposition, element 2 the 3-cycle; the
    # transposition normally generates S3, and S3 acts on Z/3 by the sign
    spec = tmp_path / "s3.json"
    spec.write_text(json.dumps({
        "prime_set": [2, 3],
        "exceptional": {
            "closed": {"group": S3, "subgroup_generators": [1]},
            "open": {"group": S3, "subgroup_generators": []},
        },
        "tail": None,
    }))
    sign = [{"element": 1, "matrix": [[-1]]}, {"element": 2, "matrix": [[1]]}]
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [3]}, "actions": {"closed": sign, "open": sign}}))
    status, text = run_cli(["cohomology", "--spec", str(spec), "--module", str(mod), "--degree", str(degree),
                            "--format", "structured"])
    assert status == 0, text
    found = {r["check"]: r["invariant_factors"] for r in map(json.loads, text.splitlines())}
    assert found[f"h{degree}-closed"] == {"nr": [], "value": [3]}
    assert found[f"h{degree}-open"] == {"nr": [3], "value": [3]}


TRIVIAL_FIBER_FAMILY = {
    "prime_set": [2, 3],
    "exceptional": {"a": {"group": {"kind": "table", "table": [[0]]}, "subgroup_generators": []}},
    "tail": None,
}


@pytest.mark.parametrize("factor", [2**40, 3_000_000, 3])
def test_trivial_fiber_is_weighed_against_the_enumeration_cap(tmp_path, factor):
    # the oracle lists A even for a group with no generators, so |A| alone
    # must stay under the enumeration cap of 200000
    spec = tmp_path / "trivial.json"
    spec.write_text(json.dumps(TRIVIAL_FIBER_FAMILY))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [factor]}, "actions": {}}))
    status, text = run_cli(
        ["exact-check", "--spec", str(spec), "--module", str(mod), "--truncate", "0"]
    )
    if factor == 3:
        assert status == 0 and "term2=[]" in text
    else:
        assert status == 2
        assert f"{factor} generator assignments exceed the enumeration cap" in text


def test_empty_truncation_is_weighed_against_the_enumeration_cap(tmp_path):
    # no fiber at all: the oracle still lists A for its fixed elements
    spec = tmp_path / "tail-only.json"
    spec.write_text(json.dumps({
        "prime_set": [2],
        "exceptional": {},
        "tail": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]},
    }))
    mod = tmp_path / "m.json"
    for factor, want in ((2**40, 2), (3, 0)):
        mod.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [factor]}, "actions": {}}))
        status, text = run_cli(
            ["exact-check", "--spec", str(spec), "--module", str(mod), "--truncate", "0"]
        )
        assert status == want, text
        if want == 2:
            assert f"{factor} elements of A exceed the enumeration cap" in text


# an exceptional fiber named like the tail pattern, next to a tail pattern
TAIL_COLLISION = {
    "prime_set": [2, 3],
    "exceptional": {"tail": {"group": {"kind": "cyclic", "n": 4}, "subgroup_generators": []}},
    "tail": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": [1]},
}

MODULE_COMMANDS = ("cohomology", "exact-check", "colimit")
# every command that reads --spec; corpus reads no file
SPEC_COMMANDS = sorted(set(cli.COMMANDS) - {"corpus"})


def assert_one_error(status, text):
    assert status == 2, text
    assert [json.loads(line)["result"] for line in text.splitlines()] == ["error"], text


def spec_document(command, family):
    """``family`` in the file shape ``command`` reads."""
    if command == "tower-check":
        return {"levels": [family]}
    if command == "topo-check":
        return {"family": family, "open_sets": []}
    return family


@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_tail_is_a_reserved_fiber_name(tmp_path, module_file, command):
    spec = tmp_path / "collide.json"
    spec.write_text(json.dumps(spec_document(command, TAIL_COLLISION)))
    args = [command, "--spec", str(spec), "--format", "structured"]
    if command in MODULE_COMMANDS:
        args += ["--module", module_file]
    status, text = run_cli(args)
    assert_one_error(status, text)
    assert "fiber name 'tail' is reserved for the tail pattern" in text


@pytest.mark.parametrize("degree", [1, 3])
def test_summary_is_a_reserved_fiber_name(tmp_path, degree):
    # the cohomology report names its fiber records h{d}-<name> next to h{d}-summary
    family = {"prime_set": [2], "exceptional": {"summary": C2_FAMILY["exceptional"]["a"]}}
    spec, module = tmp_path / "summary.json", tmp_path / "module.json"
    spec.write_text(json.dumps(family))
    module.write_text(json.dumps({"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}))
    args = ["cohomology", "--spec", str(spec), "--module", str(module), "--degree", str(degree)]
    status, text = run_cli(args + ["--format", "structured"])
    assert_one_error(status, text)
    assert "fiber name 'summary' is reserved for the summary record" in text


def test_an_unbacked_perm_degree_is_refused(tmp_path):
    family = {
        "prime_set": [2],
        "exceptional": {"a": {"group": {"kind": "perm", "degree": 10**9, "generators": [[1, 0]]}}},
    }
    spec = tmp_path / "perm.json"
    spec.write_text(json.dumps(family))
    status, text = run_cli(["validate", "--spec", str(spec), "--format", "structured"])
    assert_one_error(status, text)
    assert "degree 1000000000 is not the length of every generator" in text


@pytest.mark.parametrize("prime_set", ["family", "23", [2, 2.5], 5, [True, 2]])
def test_a_non_integer_prime_set_is_refused_alike_under_any_hash_seed(tmp_path, prime_set):
    # a string was once read as a set of characters, named in an order set by the hash seed
    spec = tmp_path / "primes.json"
    spec.write_text(json.dumps({**C2_FAMILY, "prime_set": prime_set}))
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "corprod.cli", "validate", "--spec", str(spec), "--format", "structured"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        outputs.add(proc.stdout)
    (text,) = outputs
    assert "the prime set must be a list of integers" in text


@pytest.mark.parametrize("command", ["validate", "cross-check"])
@pytest.mark.parametrize("prime_set,entry", [([4, 1, 2], 1), ([2, 9], 9), ([2, 2**63 + 29], 2**63 + 29)])
def test_a_prime_set_entry_that_is_not_a_prime_is_refused(tmp_path, command, prime_set, entry):
    # [4, 1, 2] once passed validation and failed cross-check on the factor 1
    spec = tmp_path / "primes.json"
    spec.write_text(json.dumps({**C2_FAMILY, "prime_set": prime_set}))
    status, text = run_cli([command, "--spec", str(spec), "--format", "structured"])
    assert_one_error(status, text)
    assert f"prime set entry {entry} is not a prime below 2^63" in text


@pytest.mark.parametrize("junk", ["5", "null", '"family"', "[1]"])
@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_non_object_json_is_refused(tmp_path, family_file, module_file, command, junk):
    path = tmp_path / "junk.json"
    path.write_text(junk)
    args = [command, "--spec", str(path), "--format", "structured"]
    if command in MODULE_COMMANDS:
        args += ["--module", module_file]
    assert_one_error(*run_cli(args))
    if command in MODULE_COMMANDS:
        args = [command, "--spec", family_file, "--module", str(path), "--format", "structured"]
        assert_one_error(*run_cli(args))


def set_order(value):
    return lambda family, module: family["exceptional"]["a"]["group"].update(n=value)


def set_action(element, entry):
    return lambda family, module: module.update(
        actions={"a": [{"element": element, "matrix": [[entry]]}]}
    )


def set_group(group):
    return lambda family, module: family["exceptional"]["a"].update(group=group)


STRICT_INTEGER_CASES = {
    "float-order": set_order(2.7),
    "string-order": set_order("2"),
    "boolean-order": set_order(True),
    "float-generator": lambda family, module: family["exceptional"]["a"].update(subgroup_generators=[1.9]),
    "string-element": lambda family, module: family["exceptional"]["a"].update(subgroup_elements=[0, "1"]),
    "float-factor": lambda family, module: module["coeff"].update(factors=[2.9]),
    "boolean-factor": lambda family, module: module["coeff"].update(factors=[2, True]),
    "float-action-element": set_action(1.0, 1),
    "float-matrix-entry": set_action(1, -1.0),
    "float-perm-degree": set_group({"kind": "perm", "degree": 2.0, "generators": [[1, 0]]}),
    "boolean-perm-image": set_group({"kind": "perm", "degree": 2, "generators": [[True, False]]}),
    "float-table-entry": set_group({"kind": "table", "table": [[0, 1], [1, 0.0]]}),
    "string-identity": set_group({"kind": "table", "table": [[0, 1], [1, 0]], "identity": "0"}),
    # int() would read this one as H^1(C2, Z/2) and exit 0
    "truncated-together": lambda family, module: (
        set_order(2.7)(family, module),
        family["exceptional"]["a"].update(subgroup_generators=[1.9]),
        module["coeff"].update(factors=[2.9]),
    ),
}


@pytest.mark.parametrize("case", sorted(STRICT_INTEGER_CASES))
def test_spec_integers_are_read_strictly(tmp_path, case):
    family, module = json.loads(json.dumps(C2_FAMILY)), {"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}
    spec, mod = tmp_path / "family.json", tmp_path / "module.json"
    args = ["cohomology", "--spec", str(spec), "--module", str(mod), "--degree", "1", "--format", "structured"]
    spec.write_text(json.dumps(family))
    mod.write_text(json.dumps(module))
    assert run_cli(args)[0] == 0
    STRICT_INTEGER_CASES[case](family, module)
    spec.write_text(json.dumps(family))
    mod.write_text(json.dumps(module))
    status, text = run_cli(args)
    assert_one_error(status, text)
    assert "expected an integer" in text


@pytest.mark.parametrize("key", ["1.0", " 1", "-1", "+1", "١", "1e0", ""])
def test_tail_exception_indices_are_digit_strings(tmp_path, key):
    family = {
        "prime_set": [3],
        "exceptional": {},
        "tail": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": []},
    }
    open_set = {"tail_default": [0, 1, 2], "tail_exceptions": {"1": [0]}, "contains_star": True}
    path = tmp_path / "topo.json"
    args = ["topo-check", "--spec", str(path), "--format", "structured"]
    path.write_text(json.dumps({"family": family, "open_sets": [open_set]}))
    assert run_cli(args)[0] != 2
    open_set["tail_exceptions"] = {key: [0]}
    path.write_text(json.dumps({"family": family, "open_sets": [open_set]}))
    status, text = run_cli(args)
    assert_one_error(status, text)
    assert "expected a string of digits" in text
