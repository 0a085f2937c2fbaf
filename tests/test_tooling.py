"""The benchmark's tracer names library functions by module and attribute;
each must still exist, or a traced run would fail on a renamed or deleted
function.  A traced call must also open only spans the tracer summarizes,
whatever the signature of the function it wraps.  And every function,
method and class of the library is reached from the library, a
module-level name through its own module: code that only the tests use
belongs in ``tests/``."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corprod

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted(tracing.TARGETS)


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda x: x)
def test_every_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"corprod.{module}")
    if "." in attr:
        # the tracer wraps methods through the class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth))
    else:
        assert callable(getattr(owner, attr, None))


TRACED_CALL = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import corprod.cli
import tracing, workloads

tracer = tracing.Tracer()
problems = tracer.install()
call = workloads.prepare(sys.argv[3], 0, sys.argv[2])
report = io.StringIO()
with contextlib.redirect_stdout(report):
    status = corprod.cli.main(call["cli"])
summary = tracer.summary(1.0)
wrong = workloads.check_known_answer(sys.argv[3], status, report.getvalue())
print(json.dumps({"problems": problems, "status": status, "wrong": wrong, "summary": summary}))
"""


def traced_call(workload, tmp_path):
    """The tracer's summary of one CLI workload, run in a fresh process."""
    src = str(Path(corprod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CALL, str(TRACING.parent), str(tmp_path), workload],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["problems"] == [] and out["status"] == 0 and out["wrong"] is None
    return out["summary"]


def test_a_traced_degree_3_call_summarizes(tmp_path):
    # every span a degree-3 call opens must be one the summary knows
    assert traced_call("shift-h3", tmp_path)["formulas.high_degree_formula.calls"] == 1


def test_a_traced_colimit_call_summarizes(tmp_path):
    # the memoized oracle and sequence are wrapped like any other target:
    # each level asks for its oracle twice, and for its sequence once
    summary = traced_call("colimit-tail", tmp_path)
    levels = 9  # the workload's --truncate 8
    assert summary["formulas.truncation_colimit.calls"] == 1
    assert summary["formulas.oracle_h1.calls"] == 2 * levels
    assert summary["formulas.four_term_sequence.calls"] == levels


TRACED_CORPUS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import corprod.cli
import tracing
from corprod import corpus
from corprod.cohomology import DEFAULT_COH_CAP
from corprod.formulas import DEFAULT_ENUM_CAP

tracer = tracing.Tracer()
problems = tracer.install()
recs = corpus.corpus_summary_records(0, 4, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP)
print(json.dumps({"problems": problems, "passed": [r.passed for r in recs], "summary": tracer.summary(1.0)}))
"""


def test_a_traced_corpus_call_summarizes():
    # the corpus workload's call, the one that reaches the dimension shift:
    # one coinduced module, connecting map and shift check per fiber
    src = str(Path(corprod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CORPUS, str(TRACING.parent)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["problems"] == [] and out["passed"] == [True] * 4
    for span in ("coinduced_module", "connecting_map", "dimension_shift_check"):
        assert out["summary"][f"cohomology.{span}.calls"] == 10, span


# Definitions that nothing in src/ reaches, each kept on purpose, by
# qualified name: module.function, module.Class or module.Class.method
UNNAMED_BY_DESIGN = {
    "modular.subquotient_int": "independent oracle of modular.subquotient",
    "modular.congruence_kernel_int": "independent oracle of modular.congruence_kernel",
    "cohomology.is_cocycle": "the documented cocycle checker, and the tests' cocycle reference",
    "abelian.AbSubgroup.contains": "API convenience: one element of an AbSubgroup",
    "groups.Subgroup.contains": "API convenience: one element of a Subgroup",
    "groups.trivial_group": "API convenience",
    "groups.trivial_subgroup": "API convenience",
    "groups.full_subgroup": "API convenience, the counterpart of trivial_subgroup",
    "cohomology.GModule.act": "the documented exact single action, on Python ints",
}


def library_definitions():
    """Every function and class of ``src/corprod`` by qualified name, and
    whether something in the library reaches it.

    A module-level definition (or one nested in a function) is reached by
    a use inside its own module, by ``from .mod import name``, by
    ``mod.name`` with ``mod`` a module imported as such, or by an export
    from ``corprod/__init__.py``, which is an import too.  A method is
    reached by an attribute access of its name anywhere: types are not
    resolved, so any ``x.name`` counts.  Dunder methods are called by
    Python itself."""
    package = Path(corprod.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    defined = {}        # qualified name -> (module, name, is a method)
    reached = set()     # (module, name)
    attributes = set()  # every attribute name read anywhere

    def collect(mod, prefix, body, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{node.name}"
                defined[qual] = (mod, node.name, in_class)
                collect(mod, qual, node.body, isinstance(node, ast.ClassDef))
            else:
                # definitions nested in if/try/with blocks
                for field in ("body", "orelse", "finalbody", "handlers"):
                    collect(mod, prefix, getattr(node, field, []) or [], in_class)

    for mod, tree in trees.items():
        collect(mod, mod, tree.body, False)
        aliases = {}    # local name -> library module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("corprod.")):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if source:  # from .mod import name
                        reached.add((source, alias.name))
                    elif alias.name in trees:  # from . import mod
                        aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("corprod.") and alias.asname:
                        aliases[alias.asname] = alias.name.rpartition(".")[2]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add((mod, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    reached.add((aliases[node.value.id], node.attr))
    return {
        qual: (name in attributes if is_method else (mod, name) in reached)
        for qual, (mod, name, is_method) in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_every_library_definition_is_named_in_the_library():
    unreached = sorted(qual for qual, hit in library_definitions().items() if not hit)
    assert [q for q in unreached if q not in UNNAMED_BY_DESIGN] == []
    assert set(UNNAMED_BY_DESIGN) <= set(unreached), "an allow-list entry is reached or gone"
