"""Every record of the seed-0 corpus, and the CLI benchmark workloads'
reports, byte for byte; for seeds 1-8, a digest of the records of the
first four instances.

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

from corprod import cli, corpus
from corprod.cohomology import DEFAULT_COH_CAP
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
