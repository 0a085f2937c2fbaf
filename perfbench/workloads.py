"""Workload inputs for the corprod benchmark, made with the standard library.

Each workload is one fixed call, sized so that one cold call takes well
under a second: a run then holds many samples, and a short burst of load on
the host moves few of them. Three are CLI invocations; their spec and module
files are written as JSON and handed to the CLI, so they go through the
CLI's own parsers like any user input. The corpus is the CLI's ``corpus``
command made smaller: the CLI fixes it at 30 instances, a few seconds a
call, so the benchmark calls the library function the command calls,
``corpus.corpus_summary_records``, with fewer instances; its report is the
first lines of the command's. Known answers for the correctness gate live
here too, next to the inputs they belong to.

Why each workload exists (each one exercises a layer another bypasses):

- corpus:       the full invariant suite of ``corprod corpus`` on the first
                4 of its 30 seeded instances; module assembly (coinduced
                modules, connecting maps) and many tiny modular solves, with
                negation actions and moduli up to 9.
- shift-h3:     H^3 of A4, D4 and (Z/2)^3 over F2, each by one dimension
                shift and then F2 diagonalizations of the shifted module.
- h2-direct:    H^2((Z/2)^5, F2) straight from the Schreier presentation;
                no shifting, so module assembly is bypassed.
- colimit-tail: 9 truncation levels of a family with a V4 tail; wide
                direct sums, integer Hermite forms and subquotients on long
                vectors, and the same tail module at every level.
"""

from __future__ import annotations

import json
import os
import re

NAMES = ("corpus", "shift-h3", "h2-direct", "colimit-tail")

CORPUS_COUNT = 4
COLIMIT_LEVELS = 8
H2_DIRECT_RANK = 5

_F2 = {"coeff": {"kind": "ab", "factors": [2]}, "actions": {}}


def _elementary_abelian_table(k: int) -> list[list[int]]:
    """Cayley table of (Z/2)^k, element i being the bit vector of i."""
    n = 1 << k
    return [[x ^ y for y in range(n)] for x in range(n)]


def _shift_h3_files():
    groups = {
        "a4": ({"kind": "perm", "degree": 4, "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}, 12),
        "d4": ({"kind": "perm", "degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}, 8),
        "e8": ({"kind": "table", "table": _elementary_abelian_table(3)}, 8),
    }
    spec = {
        "prime_set": [2, 3],
        "exceptional": {
            name: {"group": group, "subgroup_elements": list(range(order))}
            for name, (group, order) in groups.items()
        },
        "tail": None,
    }
    return spec, _F2


def _h2_direct_files():
    table = {"kind": "table", "table": _elementary_abelian_table(H2_DIRECT_RANK)}
    spec = {
        "prime_set": [2],
        "exceptional": {"e32": {"group": table, "subgroup_generators": []}},
        "tail": None,
    }
    return spec, _F2


def _colimit_tail_files():
    a4 = {"kind": "perm", "degree": 4, "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}
    d4 = {"kind": "perm", "degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}
    v4 = {"kind": "table", "table": _elementary_abelian_table(2)}
    spec = {
        "prime_set": [2, 3],
        "exceptional": {
            "a4": {"group": a4, "subgroup_generators": []},
            "d4": {"group": d4, "subgroup_generators": []},
        },
        "tail": {"group": v4, "subgroup_elements": [0, 1, 2, 3]},
    }
    module = {"coeff": {"kind": "ab", "factors": [2, 2]}, "actions": {}}
    return spec, module


_FILES = {
    "shift-h3": (_shift_h3_files, ["cohomology", "--degree", "3"]),
    "h2-direct": (_h2_direct_files, ["cohomology", "--degree", "2"]),
    "colimit-tail": (
        _colimit_tail_files,
        ["colimit", "--degree", "1", "--truncate", str(COLIMIT_LEVELS)],
    ),
}


def prepare(name: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files under ``workdir`` and return its
    call: ``{"cli": argv}``, or ``{"corpus": [seed, count]}`` for the corpus
    suite. Only ``corpus`` depends on the seed; the other inputs are fixed
    so that their known answers and references hold for every run."""
    if name == "corpus":
        return {"corpus": [seed, CORPUS_COUNT]}
    make, argv = _FILES[name]
    spec, module = make()
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, f"{name}.family.json")
    module_path = os.path.join(workdir, f"{name}.module.json")
    for path, data in ((spec_path, spec), (module_path, module)):
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True)
    return {"cli": argv + ["--spec", spec_path, "--module", module_path]}


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

_LINE = re.compile(r"^\[(PASS|FAIL|ERROR)\] (\S+) \(\w+\)(.*)$")


def _records(report: str) -> dict[str, tuple[str, str]]:
    out = {}
    for line in report.splitlines():
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"unparsable report line: {line!r}")
        out[m.group(2)] = (m.group(1), m.group(3).strip())
    return out


def _twos(k: int) -> str:
    return str([2] * k)


def check_known_answer(name: str, status: int, report: str) -> str | None:
    """None when the report states the known answer, else the reason."""
    if status != 0:
        return f"exit status {status}"
    try:
        recs = _records(report)
    except ValueError as exc:
        return str(exc)
    if any(result != "PASS" for result, _ in recs.values()):
        return "a record did not pass"
    if name == "corpus":
        want = {f"corpus-instance-{i:03d}" for i in range(CORPUS_COUNT)}
        return None if set(recs) == want else f"expected {CORPUS_COUNT} corpus instance records"
    if name == "shift-h3":
        # Poincare series over F2: A4 (1 + t^3)/((1 - t^2)(1 - t^3)), D4
        # 1/(1 - t)^2, (Z/2)^3 1/(1 - t)^3; degree 3 has dimension 2, 4, 10
        want = {
            "h3-a4": f"value={_twos(2)}",
            "h3-d4": f"value={_twos(4)}",
            "h3-e8": f"value={_twos(10)}",
        }
    elif name == "h2-direct":
        # H^2((Z/2)^5, F2) has dimension C(6, 4) = 15; U = 1 so nr is everything
        h2 = _twos(15)
        want = {"h2-e32": f"value={h2}; nr={h2}", "h2-summary": None}
    else:
        # H^1 of A4 * D4 * V4^n with trivial (Z/2)^2 is (Z/2)^(4n+4)
        want = {
            f"colimit-level-{n:02d}": f"value={_twos(4 * n + 4)}"
            for n in range(COLIMIT_LEVELS + 1)
        }
        want["colimit-transitions-injective"] = ""
        want["colimit-growth"] = "tail contribution 16 per level"
    if set(recs) != set(want):
        return f"records {sorted(recs)} differ from {sorted(want)}"
    for check, body in want.items():
        if body is not None and recs[check][1] != body:
            return f"{check}: {recs[check][1]!r} is not {body!r}"
    return None
