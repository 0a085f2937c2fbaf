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
