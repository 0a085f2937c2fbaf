"""Every record of the seed-0 corpus, and the CLI benchmark workloads'
reports, byte for byte.

The CLI's ``corpus`` command prints one summary record per instance, with
no invariant factors.  This report keeps all of them: every check of every
instance with the factors it computed, such as the H^2 and shifted H^1
factors of each dimension-shift record.  A change that alters any computed
group shows up here even when every check still passes.
"""

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
