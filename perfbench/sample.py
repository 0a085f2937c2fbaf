"""One benchmark sample in a fresh interpreter; run by run.py, not by hand.

    python3 sample.py MODE SPAWN_TIME CALL_JSON [TRACE_PATH]

MODE is ``setup`` (import only), ``plain`` (cold call then warm calls) or
``traced`` (the same with spans around the layers). SPAWN_TIME is the
parent's ``time.perf_counter()`` just before it started this process; on
Linux that clock is system-wide, so set-up time runs from the spawn to the
return of ``import corprod.cli``. CALL_JSON is the workload's call, from
``workloads.prepare``. One JSON object goes to stdout.

A short fixed reference kernel (stdlib plus numpy, no corprod code) runs
before the cold call and after every call, so that run.py can scale each
call by the host's speed just before and just after it.
"""

import sys
import time

import corprod.cli

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
from corprod import corpus  # noqa: E402
from corprod.cohomology import DEFAULT_COH_CAP  # noqa: E402
from corprod.formulas import DEFAULT_ENUM_CAP  # noqa: E402
from corprod.reports import Report  # noqa: E402

import tracing  # noqa: E402

# warm calls repeat until they have taken this long, or WARM_MAX calls
WARM_BUDGET_S = 0.5
WARM_MAX = 30
# reference kernel calls just before and just after the cold call; one call
# varies by about 10%, so the cold call's host speed is taken from several
COLD_KERNELS = 3


def _reference_kernel():
    """Interpreter work like lattice/groups code (small tuples, dicts, int
    arithmetic) and numpy work like modular.local_diagonalize (row
    elimination on a small int64 matrix). Independent of corprod."""
    acc = 0
    table = {}
    vec = list(range(32))
    for i in range(3000):
        row = [(x * i + 3) % 7 for x in vec]
        key = tuple(row)
        table[key] = table.get(key, 0) + 1
        acc += sum(row)
    a = numpy.arange(96 * 96, dtype=numpy.int64).reshape(96, 96) % 5
    for t in range(96):
        a[t:, t:] -= numpy.outer(a[t:, t], a[t, t:])
        numpy.mod(a[t:, t:], 2, out=a[t:, t:])
    return acc + int(a.sum())


def _kernel_s():
    """Time of one reference kernel call, with the collector off so that
    the program's own gc settings cannot move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _runner(call):
    """A no-argument function that runs the workload's call, prints its
    report and returns the exit status."""
    if "cli" in call:
        return functools.partial(corprod.cli.main, call["cli"])
    seed, count = call["corpus"]

    def corpus_suite():
        # cli.cmd_corpus and cli.run, with ``count`` instances for 30
        rep = Report()
        rep.extend(corpus.corpus_summary_records(seed, count, DEFAULT_COH_CAP, DEFAULT_ENUM_CAP))
        sys.stdout.write(rep.render("text"))
        return 0 if rep.passed else 1

    return corpus_suite


def _call(run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        status = run()
        elapsed = time.perf_counter() - start
    return elapsed, status, out.getvalue()


def _sample(run, tracer=None, trace_path=None):
    """Cold call between COLD_KERNELS reference kernel calls on each side,
    then warm calls, each followed by one kernel call."""
    result = {}
    if tracer is not None:
        result["trace_problems"] = tracer.install()
    pre = [_kernel_s() for _ in range(COLD_KERNELS)]
    cold_s, status, report = _call(run)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    post = [_kernel_s() for _ in range(COLD_KERNELS)]
    if tracer is not None:
        layers = result["layers"] = tracer.summary(cold_s)
        layers["cache.hits"], layers["cache.misses"] = tracer.cache_totals()
        # the trace file holds the cold call only
        tracer.write_jsonl(trace_path)
        tracer.spans.clear()
    warm, warm_kernels, warm_same = [], [], True
    while len(warm) < WARM_MAX and sum(warm) < WARM_BUDGET_S:
        elapsed, warm_status, warm_report = _call(run)
        warm_kernels.append(_kernel_s())
        warm.append(elapsed)
        warm_same = warm_same and (warm_status, warm_report) == (status, report)
    if tracer is not None:
        hits, misses = tracer.cache_totals()
        layers["cache.warm_hits"] = hits - layers["cache.hits"]
        layers["cache.warm_misses"] = misses - layers["cache.misses"]
    result.update(
        cold_s=cold_s,
        warm_s=warm,
        kernel_pre_s=pre,
        kernel_post_s=post,
        kernel_warm_s=warm_kernels,
        peak_rss_mb=rss_mb,
        status=status,
        report=report,
        warm_same=warm_same,
    )
    return result


def main():
    mode, spawn_time, call = sys.argv[1], float(sys.argv[2]), json.loads(sys.argv[3])
    result = {
        "setup_s": IMPORTED - spawn_time,
        "corprod_file": corprod.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if mode == "setup":
        result["kernel_pre_s"] = [_kernel_s() for _ in range(COLD_KERNELS)]
    else:
        tracer = tracing.Tracer() if mode == "traced" else None
        result.update(_sample(_runner(call), tracer, sys.argv[4] if len(sys.argv) > 4 else None))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
