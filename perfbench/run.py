"""End-to-end and per-layer benchmark of the corprod CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--corpus-seed N]

Run it from the root of a corprod checkout; it benchmarks ``src/corprod``
there and writes its scratch files to ``.bench_work/``. Every sample is a
fresh single-threaded interpreter (BLAS pools pinned to one thread), and
samples run one after another.

With ``--trace 0`` each sample times the workload's call in-process, which
is ``corprod.cli.main(argv)`` except on the corpus (see workloads.py):

- setup_s:     spawn of the interpreter until ``import corprod.cli`` returns;
               measured on every sample and on a few import-only probes;
- cold_s:      the first call, with every cache empty (what a CLI user pays);
- warm_s:      the same call again in the same process;
- peak_rss_mb: ``ru_maxrss`` right after the cold call.

The host is a share of a busy machine. Its speed switches between two
states about 1.8 times apart, each lasting from under a second to many
seconds, so raw medians of runs of the same code spread by 20-50%, far more
than any regression bound. So a short fixed reference kernel (sample.py;
stdlib and numpy, no corprod code) runs next to every timed call, and each
time is scaled by ``REFERENCE_NOMINAL_S`` over the kernel's time next to
it: for a warm call the mean of the two kernel calls that bracket it, for
the cold call the median of the three before and three after it, for
set-up time the median of the three after import. Times then read as
seconds on a host where the kernel takes ``REFERENCE_NOMINAL_S``. A change
to corprod moves a scaled time exactly as it moves the raw one; a change of
host speed moves the call and the kernel next to it alike, and cancels.
Raw times and kernel times are in every printed sample line.

Each metric is the median over the run's samples, warm_s over all their
warm calls. With ``--trace 1`` plain and traced samples alternate; a traced
sample wraps the layer functions (see
tracing.py), writes the cold call's spans to
``.bench_work/trace-<workload>.jsonl``, and the per-layer table comes from
the median traced sample, plus ``trace.overhead_s``, traced minus untraced
cold time. The result line carries the metrics BENCHMARK.json names: call
counts of every span, shapes, cache counters and the busy time of each
layer that every workload enters. Per-span times, which are exactly zero on
workloads that never enter the span, are in the table printed before it.

Every report is checked against the known answer (workloads.py) and byte
for byte against ``reference/<name>.txt``, the report of these inputs at
the commit that added the benchmark. A sample fails on a wrong exit status,
an exception, or a report that differs. The last line of stdout is the
result; the lines before it give the environment, every sample, and with
``--trace 1`` every span metric with its unit.

``--seed`` names the run but changes no input: the CLI corpus's cold time
ranges from 1.8 s to 6.3 s across corpus seeds 0-11, far more than any
regression bound, so the corpus seed is ``--corpus-seed`` (default 0; keep
3 for checking a claim), and the other workloads are fixed inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_SAMPLES = 3
# the reference kernel's time in the fast state of the host the benchmark
# was defined on (2 vCPUs of a shared x86-64 host, Python 3.11.7, numpy 2.4.6)
REFERENCE_NOMINAL_S = 0.0145
# no sample may start or run past this many seconds into the run
HARD_LIMIT_S = 160
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class SampleError(Exception):
    pass


def _spawn(root, mode, call, trace_path, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREAD)
    extra = [trace_path] if trace_path else []
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), mode]
    proc = subprocess.run(
        cmd + [repr(time.perf_counter()), json.dumps(call)] + extra,
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        lines = proc.stderr.strip().splitlines()
        raise SampleError(lines[-1] if lines else f"exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _problems(sample, name, src_dir, reference):
    if "error" in sample:
        return [f"sample raised: {sample['error']}"]
    out = []
    if not os.path.abspath(sample["corprod_file"]).startswith(src_dir + os.sep):
        out.append(f"imported corprod from {sample['corprod_file']}")
    answer = workloads.check_known_answer(name, sample["status"], sample["report"])
    if answer is not None:
        out.append(f"known answer: {answer}")
    if reference is not None and sample["report"] != reference:
        out.append("report differs from the reference")
    if not sample["warm_same"]:
        out.append("a warm report differs from the cold one")
    out.extend(sample.get("trace_problems", []))
    return out


def _environment(root):
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = os.path.join(root, "src", "corprod")
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def _unit(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def _scaled(seconds, kernel_s):
    """``seconds`` at the nominal host speed, where the kernel took
    ``kernel_s`` next to it."""
    return seconds * REFERENCE_NOMINAL_S / kernel_s


def _scaled_calls(sample):
    """The sample's cold time scaled by the median of the kernel calls
    around it, then its warm times, each scaled by the mean of the two
    kernel calls that bracket it."""
    pre, post, after = sample["kernel_pre_s"], sample["kernel_post_s"], sample["kernel_warm_s"]
    out = [_scaled(sample["cold_s"], statistics.median(pre + post))]
    for before, after_call, t in zip(post[-1:] + after, after, sample["warm_s"]):
        out.append(_scaled(t, (before + after_call) / 2))
    return out


def _median_sample(samples):
    """The traced sample whose scaled cold time is the median one."""
    ordered = sorted(samples, key=lambda s: _scaled_calls(s)[0])
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src", "corprod")
    if not os.path.isfile(os.path.join(src_dir, "cli.py")):
        sys.exit(f"no corprod sources under {src_dir}; run from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    deadline = start + args.seconds
    workdir = os.path.join(root, ".bench_work")
    call = workloads.prepare(args.workload, args.corpus_seed, workdir)
    ref_name = f"corpus-seed{args.corpus_seed}" if args.workload == "corpus" else args.workload
    ref_path = os.path.join(HERE, "reference", f"{ref_name}.txt")
    reference = None
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = fh.read()

    def sample(mode):
        path = os.path.join(workdir, f"trace-{args.workload}.jsonl") if mode == "traced" else None
        t0 = time.perf_counter()
        try:
            s = _spawn(root, mode, call, path, start + HARD_LIMIT_S - t0)
        except (SampleError, subprocess.TimeoutExpired, ValueError) as exc:
            s = {"error": str(exc)}
        s["mode"], s["wall_s"] = mode, time.perf_counter() - t0
        return s

    # first import compiles bytecode and fills the page cache: not timed
    env_info = sample("setup")
    setups = [sample("setup") for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    samples = []
    while True:
        mode = modes[len(samples) % len(modes)]
        samples.append(sample(mode))
        done = {m: sum(s["mode"] == m for s in samples) for m in modes}
        enough = min(done.values()) >= (1 if args.trace else MIN_SAMPLES)
        if enough and time.perf_counter() + samples[-1]["wall_s"] > deadline:
            break

    failed = 0
    for s in samples:
        if reference is None and "report" in s and workloads.check_known_answer(
            args.workload, s["status"], s["report"]
        ) is None:
            reference = s["report"]
        s["problems"] = _problems(s, args.workload, src_dir, reference)
        failed += bool(s["problems"])
    errors = [s["error"] for s in setups if "error" in s]
    good = [s for s in samples if not s["problems"]]
    plain = [s for s in good if s["mode"] == "plain"]

    info = {
        "workload": args.workload,
        "call": call,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "python": env_info.get("python"),
        "numpy": env_info.get("numpy"),
        **_environment(root),
    }
    print(json.dumps({"environment": info}))
    for s in samples:
        s.pop("report", None)
        print(json.dumps({"sample": {k: v for k, v in s.items() if k != "layers"}}))

    table = {}
    if plain:
        table["setup_s"] = statistics.median(
            _scaled(s["setup_s"], statistics.median(s["kernel_pre_s"]))
            for s in setups + plain
            if "setup_s" in s
        )
        table["cold_s"] = statistics.median(_scaled_calls(s)[0] for s in plain)
        table["warm_s"] = statistics.median(w for s in plain for w in _scaled_calls(s)[1:])
        table["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in plain)
    traced = [s for s in good if s["mode"] == "traced"]
    if args.trace and traced and plain:
        mid = _median_sample(traced)
        table = dict(mid["layers"])
        table["trace.overhead_s"] = _scaled_calls(mid)[0] - statistics.median(
            _scaled_calls(s)[0] for s in plain
        )
        print(json.dumps({"layers": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(table.items())}}))

    attempted = len(samples) + len(setups)
    failed += len(errors)
    correct = failed == 0 and all(m["name"] in table for m in wanted)
    for s in samples:
        for p in s["problems"]:
            print(f"{args.workload}: {s['mode']} sample: {p}", file=sys.stderr)
    for e in errors:
        print(f"{args.workload}: setup probe: {e}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in table
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
