"""Every record of the seed-0 corpus, byte for byte.

The CLI's ``corpus`` command prints one summary record per instance, with
no invariant factors.  This report keeps all of them: every check of every
instance with the factors it computed, such as the H^2 and shifted H^1
factors of each dimension-shift record.  A change that alters any computed
group shows up here even when every check still passes.
"""

from pathlib import Path

from corprod import corpus
from corprod.cohomology import DEFAULT_COH_CAP
from corprod.formulas import DEFAULT_ENUM_CAP
from corprod.reports import Report

GOLDEN = Path(__file__).parent / "data" / "corpus-seed0-records.jsonl"


def test_seed0_records_match_the_golden_report():
    report = Report()
    shift_cache: dict = {}
    for inst in corpus.generate_corpus(0, 30):
        report.extend(corpus.run_instance(inst, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP, shift_cache))
    assert report.render("structured").encode() == GOLDEN.read_bytes()
