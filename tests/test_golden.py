"""Every record of the seed-0 corpus, and the CLI benchmark workloads'
reports, byte for byte; for seeds 1-8, a digest of the records of the
first four instances; and digests of the maps the reports do not print,
the four-term maps of the seed-0 corpus and the colimit transitions.

The CLI's ``corpus`` command prints one summary record per instance, with
no invariant factors.  This report keeps all of them: every check of every
instance with the factors it computed, such as the H^2 and shifted H^1
factors of each dimension-shift record.  A change that alters any computed
group shows up here even when every check still passes.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import negation_action
from corprod import cli, corpus
from corprod import formulas as fp
from corprod import groups as gr
from corprod.abelian import FiniteAbelianGroup
from corprod.cohomology import DEFAULT_COH_CAP
from corprod.families import family, truncate
from corprod.formulas import DEFAULT_ENUM_CAP
from corprod.reports import Report

GOLDEN = Path(__file__).parent / "data" / "corpus-seed0-records.jsonl"


def test_seed0_records_match_the_golden_report():
    report = Report()
    for inst in corpus.generate_corpus(0, 30):
        report.extend(corpus.run_instance(inst, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP))
    assert report.render("structured").encode() == GOLDEN.read_bytes()


# sha256 of the structured records of the first 4 instances of each seed
SEED_DIGESTS = {
    1: "16447401a316cec9320cc9faec68c75a1a1614d3a94560e20eaa4d1b6d013754",
    2: "2354fb99fa188b0260bc8a329cb530774f40bf13a48a0fc42dbb86b7a2210d78",
    3: "b51036e9a9829c9a5aa1ffd7edafcbd3afad5092afb25cb90eb09afae46dc5ff",
    4: "21bbd9770f50d84ae325c808b2ffa74c8e4c61c1750f76930948379c4ccb47f7",
    5: "94a47b90925eae1c7178a9fcba67c96fc419e710ee0f03532bb5490c8097fce1",
    6: "c4c89df45ef572669543ff7bf2043e960d5e53e685f0ece3acb55cd1914fb97c",
    7: "6ce22e014deb225b5303c9b6443e718efe7a2c25fdc690f76f652688cbaea8b1",
    8: "a4ef2c5cd344c75c422fb166a8ba30af9f552927e41cb8844339211095b5b6a1",
}


@pytest.mark.parametrize("seed", sorted(SEED_DIGESTS))
def test_other_seeds_match_their_digests(seed):
    report = Report()
    for inst in corpus.generate_corpus(seed, 4):
        report.extend(corpus.run_instance(inst, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP))
    assert hashlib.sha256(report.render("structured").encode()).hexdigest() == SEED_DIGESTS[seed]


ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"


def _workloads():
    """The benchmark's workload module, read from its directory."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["shift-h3", "h2-direct", "colimit-tail"])
def test_cli_workloads_match_the_benchmark_reference(name, tmp_path, capsys):
    call = _workloads().prepare(name, 0, str(tmp_path))
    status = cli.main(call["cli"])
    assert status == 0
    assert capsys.readouterr().out.encode() == (REFERENCE / f"{name}.txt").read_bytes()


def _hom_digest(homs) -> str:
    """sha256 of the source and target factors and the matrix of each map."""
    text = "\n".join(f"{h.source.factors} {h.target.factors} {h.matrix}" for h in homs)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each of the three four-term maps over the 30 seed-0 instances;
# the reports print the terms and the verdicts but not the maps
MAP_DIGESTS = (
    "11c58d14a578e3d2c942a81c2f841ac724e5114d9d7694a367e11e7ae47b2bd5",
    "3ada548a79fbf15cc9ce55364929f1f02cf020fc3a7e82c39bba1b69c6655cd3",
    "539fedeb3846d19ae8d4865cbd7fb8ee9a638de884aed01c15f40a51ea7cdcf4",
)


def test_four_term_maps_match_their_digests():
    seqs = [
        fp.four_term_sequence(truncate(inst.spec, 0), inst.module, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP)
        for inst in corpus.generate_corpus(0, 30)
    ]
    assert tuple(_hom_digest(seq.maps[i] for seq in seqs) for i in range(3)) == MAP_DIGESTS


# sha256 of the transitions of levels 0..3 of a family over Z/2 + Z/4 with
# a C4 fiber acting by negation, a trivially acted C2 fiber and a trivially
# acted C2 x C4 tail, in degrees 1 and 2; the reports print the levels but
# not the maps, and the Z/4 summands interleave the level blocks
TRANSITION_DIGESTS = {
    1: "79fb5625827fc3101c994aa03b1d74246ae22e6fb1b3f5fcdeea70737f72361d",
    2: "af975cdfeac5b03830f3a1963b04805088863ec318bef50d9ee63046d05e9df7",
}


@pytest.mark.parametrize("degree", sorted(TRANSITION_DIGESTS))
def test_colimit_transitions_match_their_digests(degree):
    c4, c2, tail = gr.cyclic_group(4), gr.cyclic_group(2), gr.abelian_group_from_factors((2, 4))
    spec = family(
        [("a", c4, gr.trivial_subgroup(c4)), ("b", c2, gr.trivial_subgroup(c2))],
        tail=(tail, gr.full_subgroup(tail)),
    )
    coeff = FiniteAbelianGroup((2, 4))
    module = fp.FamilyModule.build(coeff, {"a": negation_action(c4, coeff, 1)})
    system = fp.truncation_colimit(spec, module, degree, 3)
    assert system.passed
    assert _hom_digest(system.transitions) == TRANSITION_DIGESTS[degree]


# A family with a tail: S3 with the non-normal U = <(0 1)> acting on Z/6 by
# the sign, a trivially acted C3 with U = C3, and a C2 tail with U = C2.
# Every per-fiber report lists the tail last, as the fiber named tail.
S3 = {"kind": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
TAIL_FAMILY = {
    "prime_set": [2, 3],
    "exceptional": {
        "a": {"group": S3, "subgroup_generators": [1]},
        "b": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": [1]},
    },
    "tail": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": [1]},
}
TAIL_MODULE = {
    "coeff": {"kind": "ab", "factors": [6]},
    "actions": {"a": [{"element": 1, "matrix": [[-1]]}, {"element": 2, "matrix": [[1]]}]},
}
# the same fibers with U_b = 1 and U_tail = 1: nontrivial unramified parts,
# a tail pair that is not a direct sum, and a degree-3 refusal
SMALL_U_FAMILY = {
    **TAIL_FAMILY,
    "exceptional": {
        "a": TAIL_FAMILY["exceptional"]["a"],
        "b": {"group": {"kind": "cyclic", "n": 3}, "subgroup_generators": []},
    },
    "tail": {"group": {"kind": "cyclic", "n": 2}, "subgroup_generators": []},
}
# level 0 holds U_tail = 1, so the tail breaks strictness of transition 0
TAIL_TOWER = {
    "levels": [
        {**TAIL_FAMILY, "tail": SMALL_U_FAMILY["tail"]},
        TAIL_FAMILY,
        TAIL_FAMILY,
    ],
    "transitions": [
        {
            "index_map": {"a": "a", "b": "b"},
            "fiber_maps": {"a": list(range(6)), "b": [0, 1, 2]},
            "tail_map": [0, 1],
        }
    ] * 2,
}
TAIL_TOPOLOGY = {
    "family": TAIL_FAMILY,
    "open_sets": [
        {"exceptional_parts": {"a": [0, 1]}, "tail_default": [0, 1], "contains_star": True},
        {"exceptional_parts": {"b": [2]}, "tail_default": [1], "tail_exceptions": {"1": [0, 1]}},
        {"tail_default": [0], "tail_exceptions": {"2": [0, 1]}, "contains_star": True},
    ],
}

# sha256 of the text and the structured report of each command on the
# families above: (command arguments, exit status, text digest, structured digest)
TAIL_REPORT_DIGESTS = [
    (["validate", "--spec", "@family"], 0, "b531ec27ffcc8676dded533f34ff3e5482a36c7be2cd1462d7bfaecc8edcc76c", "c62a18ef7eb2fbea8d9276d83c208cea9f158e00615fe171f989f5d7e33c1165"),
    (["abelianize", "--spec", "@family"], 0, "13eacf3271ef803933a0e0ca1f65268b3991cbcf1bd431682e4df71d5102c743", "681f47b7718b9f3553cd25a9499e09a94c2262df34e6c3599dc641157774c9ae"),
    (["duality-check", "--spec", "@family"], 0, "d2c696cff5402dbe298a6cea7df854e3c402095564d1253f6390c803f22fb0cd", "78b0b445975d822d0d7c29e695925246cf4d4c82397196fd70332b4cfda4e297"),
    (["cross-check", "--spec", "@family"], 0, "9c194afd4bef0e9cd982b6b8dda6d7da8c33c8716e3c3ee449444650e7c347a1", "21f55c0572d7872f779923f61d2ee3fac33932ec72480bb1ae3ac2b90d45282a"),
    (["cohomology", "--spec", "@family", "--module", "@module", "--degree", "1"], 0, "754fed235d0123dd6b54e9a997e1bb0fa2137e809695b0593d7165c78147db17", "4e97d0c82f8739d00fc0e0e0b76441683527aadf289bcbda407269aae284f788"),
    (["cohomology", "--spec", "@family", "--module", "@module", "--degree", "2"], 0, "782d5a1fc4bbea4c770daf7c2a5b51a730a201a388d433c0521ab44deacfad46", "598154b248d1f9b7c9cc80f5dce4ea99c1dc3945c94b6a962b7c0e857cf5e1d5"),
    (["cohomology", "--spec", "@family", "--module", "@module", "--degree", "3"], 0, "055a94df9a43ec305aeafe76d05dc9f0b6a948c9e8996a50190770628b75bfd0", "8f7d9afbfd71f0e97353801b27088b5c0e0074637611a7e849d98438731f5bf5"),
    (["tower-check", "--spec", "@tower"], 1, "de4f5466817c2157a39be2ad47f67f11233b93fbe20f0ea87bfc0ba34ee40cda", "317836c1fe3ed46e96be503a3cf31ac8c9475d28e53da1f9b6ad332da6174ab0"),
    (["topo-check", "--spec", "@topo"], 1, "964bcd157d7670a1fadcc99903e0d02c17587a85ac2f1034fa2a70cf95efc432", "e2126aa8784a3b3433fe3ae3ab96428934ebab5f5c9879dbceedb12b4ead7230"),
    (["validate", "--spec", "@small"], 0, "1d263a60f99cc521082885d2c1612d4b5dd3278aaa91c299f1d609ee6f3ca0c4", "0a5ae9accce9f9f453d99cddb91a08866876b097030febabe2ce166284a5cda2"),
    (["abelianize", "--spec", "@small"], 0, "831b7b677d79b1a58a20f73e859913e6dafd6bdf6c0dccfd732be03f338c6c1a", "3b0f691d0ba1e518440210016dc70bc78707e7dac5355711bf2c60baea0fc87a"),
    (["duality-check", "--spec", "@small"], 0, "c96f6e085610ccd9cf4e2d34250e9618b9a0f81545d811d0f366d2d02a312399", "91074a68fc2f30f90f381fb3429e02338bab660c9b974adc47bf76560be0118a"),
    (["cross-check", "--spec", "@small"], 0, "a49905bf2bd0c53fef0063cd647e566bfe30cc59ba8df051737350c4b253b8af", "57c06dd82674ae09d8b91953d2056f9a7525ef335f1bbf4502af0317795cfe31"),
    (["cohomology", "--spec", "@small", "--module", "@module", "--degree", "1"], 0, "1645db003a9c99f19573107e1a2df18522a9cceb572fc437fd2b48ade05ec3e0", "1055ff5bf0e237bc22813667233b0699e609e101e9ecfc551aed7ef762ce8722"),
    (["cohomology", "--spec", "@small", "--module", "@module", "--degree", "2"], 0, "483ec2bd9322e89470869cfa0e601e4e2e922542560aa3a2a01b0ff8c20c2537", "67ecbd2976679190fb099af91e6ef05578133bf52878efce998e1985332c8e79"),
    (["cohomology", "--spec", "@small", "--module", "@module", "--degree", "3"], 2, "635deca9b41d2e91bea2eff6b9dbe0370bc77e7c9ebab3e1b3d1ed2a84dec1cf", "0ac1193f34c345355b89d54f9d6595ad4cfb935b7c1ca8371a6e0f482c1284c7"),
]


TAIL_INPUTS = {
    "family": TAIL_FAMILY, "small": SMALL_U_FAMILY, "module": TAIL_MODULE,
    "tower": TAIL_TOWER, "topo": TAIL_TOPOLOGY,
}


def _tail_argv(args, tmp_path):
    """``args`` with each ``@name`` replaced by a file holding ``TAIL_INPUTS[name]``."""
    argv = []
    for arg in args:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(TAIL_INPUTS[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return argv


@pytest.mark.parametrize(
    "args, status, text_digest, structured_digest",
    TAIL_REPORT_DIGESTS,
    ids=["-".join(a.lstrip("@") for a in row[0] if not a.startswith("--")) for row in TAIL_REPORT_DIGESTS],
)
def test_family_with_a_tail_reports_match_their_digests(args, status, text_digest, structured_digest, tmp_path):
    argv = _tail_argv(args, tmp_path)
    digests = []
    for fmt in ("text", "structured"):
        got_status, rendered = cli.run(cli.RunConfig(**vars(cli.build_parser().parse_args(argv + ["--format", fmt]))))
        assert got_status == status
        digests.append(hashlib.sha256(rendered.encode()).hexdigest())
    assert digests == [text_digest, structured_digest]
