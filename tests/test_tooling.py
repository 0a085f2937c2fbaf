"""The benchmark's tracer names library functions by module and attribute;
each must still exist, or a traced run would fail on a renamed or deleted
function."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
