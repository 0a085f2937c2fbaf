"""Spans around corprod's layer functions, installed from outside the library.

The tracer replaces each target function by a wrapper under every name a
``corprod`` module binds it to (``cohomology`` imports ``free_presentation``,
``formulas`` imports ``cohomology``, the package re-exports most of them),
and methods on their class; ``cohomology.cohomology`` is split by degree
into ``cohomology.h1`` and ``cohomology.h2``. After patching, any other live
reference to an original function is reported as a problem, because calls
through it would bypass the span. Spans are kept in memory with their
parent and written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import time
import types

# (module, attribute) -> span name; a method is "Class.method"
TARGETS = {
    ("groups", "generating_set"): "groups.generating_set",
    ("groups", "subgroup_from_generators"): "groups.subgroup_from_generators",
    ("presentation", "free_presentation"): "presentation.free_presentation",
    ("cohomology", "coinduced_module"): "cohomology.coinduced_module",
    ("cohomology", "connecting_map"): "cohomology.connecting_map",
    ("cohomology", "cohomology"): None,  # cohomology.h1 / cohomology.h2 by degree
    ("cohomology", "shifted_cohomology"): "cohomology.shifted_cohomology",
    ("cohomology", "dimension_shift_check"): "cohomology.dimension_shift_check",
    ("cohomology", "inflation"): "cohomology.inflation",
    ("cohomology", "unramified_subgroup"): "cohomology.unramified_subgroup",
    ("modular", "local_diagonalize"): "modular.local_diagonalize",
    ("modular", "congruence_kernel"): "modular.congruence_kernel",
    ("modular", "subquotient"): "modular.subquotient",
    ("modular", "CongruenceSolver.solve"): "modular.CongruenceSolver.solve",
    ("lattice", "mat_vec"): "lattice.mat_vec",
    ("lattice", "hnf"): "lattice.hnf",
    ("abelian", "AbHom.apply"): "abelian.AbHom.apply",
    ("formulas", "oracle_h1"): "formulas.oracle_h1",
    ("formulas", "four_term_sequence"): "formulas.four_term_sequence",
    ("formulas", "check_exactness"): "formulas.check_exactness",
    ("formulas", "h_formula"): "formulas.h_formula",
    ("formulas", "high_degree_formula"): "formulas.high_degree_formula",
    ("formulas", "truncation_colimit"): "formulas.truncation_colimit",
    ("formulas", "cross_check_h1_vs_ab"): "formulas.cross_check_h1_vs_ab",
    ("corpus", "run_instance"): "corpus.run_instance",
    ("serialize", "parse_family"): "serialize.parse",
    ("serialize", "parse_module"): "serialize.parse",
    ("reports", "Report.render"): "reports.render",
}

SPAN_NAMES = sorted({n for n in TARGETS.values() if n} | {"cohomology.h1", "cohomology.h2"})

# a layer's busy time is the self time of its spans; "other" is the traced
# call's time outside every span (argument parsing, corpus generation, ...)
LAYERS = {
    "groups": ("groups.generating_set", "groups.subgroup_from_generators"),
    "presentation": ("presentation.free_presentation",),
    "assembly": ("cohomology.coinduced_module", "cohomology.connecting_map", "lattice.mat_vec"),
    "engines": (
        "cohomology.h1",
        "cohomology.h2",
        "cohomology.shifted_cohomology",
        "cohomology.dimension_shift_check",
        "cohomology.inflation",
        "cohomology.unramified_subgroup",
    ),
    "modular": (
        "modular.local_diagonalize",
        "modular.congruence_kernel",
        "modular.subquotient",
        "modular.CongruenceSolver.solve",
    ),
    "lattice": ("lattice.hnf", "abelian.AbHom.apply"),
    "formulas": (
        "formulas.oracle_h1",
        "formulas.four_term_sequence",
        "formulas.check_exactness",
        "formulas.h_formula",
        "formulas.high_degree_formula",
        "formulas.truncation_colimit",
        "formulas.cross_check_h1_vs_ab",
    ),
    "corpus": ("corpus.run_instance",),
    "io": ("serialize.parse", "reports.render"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cohomology_degree(args, kwargs):
    return _arg(args, kwargs, 1, "degree")


# span name -> f(args, kwargs, result) -> {stat: value}; "max_*" stats are
# maximised over calls, the others summed
def _ld_shape(args, kwargs, result):
    m, n = _arg(args, kwargs, 0, "mat").shape
    q = _arg(args, kwargs, 1, "p") ** _arg(args, kwargs, 2, "k")
    return {"cells": m * n, "max_cells": m * n, "max_q": q}


def _cap_weight(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"max_cap_weight": m.group.order ** _cohomology_degree(args, kwargs) * m.coeff.rank}


SHAPES = {
    "modular.local_diagonalize": _ld_shape,
    "presentation.free_presentation": lambda a, k, r: {"max_rank": r.rank},
    "cohomology.coinduced_module": lambda a, k, r: {"max_rank": r.module.coeff.rank},
    "cohomology.h1": _cap_weight,
    "cohomology.h2": _cap_weight,
}

SHAPE_STATS = (
    "modular.local_diagonalize.cells",
    "modular.local_diagonalize.max_cells",
    "modular.local_diagonalize.max_q",
    "presentation.free_presentation.max_rank",
    "cohomology.coinduced_module.max_rank",
    "cohomology.h1.max_cap_weight",
    "cohomology.h2.max_cap_weight",
)

# spans whose argument tuples are counted for repeat_frac
REPEATS = ("cohomology.h1", "cohomology.h2")


def corprod_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "corprod" or n.startswith("corprod.")]


def lru_caches():
    """Every functools.lru_cache wrapper bound by a corprod module."""
    found = {}
    for mod in corprod_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())


class Tracer:
    def __init__(self):
        # span: [name, parent index, start, end, time covered by children]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stats: dict[str, dict[str, float]] = {}
        self._keys: dict[str, set] = {name: set() for name in REPEATS}
        self.repeats: dict[str, int] = {name: 0 for name in REPEATS}
        self._wrappers = []
        self.caches = []

    def _wrap(self, fn, name):
        spans, stack, stats, keys = self.spans, self._stack, self.stats, self._keys
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name or f"cohomology.h{_cohomology_degree(args, kwargs)}"
            idx = len(spans)
            span = [span_name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = end = clock()
                stack.pop()
                if span[1] >= 0:
                    spans[span[1]][4] += end - span[2]
            shape = SHAPES.get(span_name)
            if shape is not None:
                acc = stats.setdefault(span_name, {})
                for key, value in shape(args, kwargs, result).items():
                    acc[key] = max(acc.get(key, value), value) if key.startswith("max_") else acc.get(key, 0) + value
            seen = keys.get(span_name)
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[span_name] += 1
                else:
                    seen.add(key)
            return result

        self._wrappers.append(wrapper)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns problems found (empty when every
        reference to a target now goes through its wrapper)."""
        self.caches = lru_caches()
        modules = corprod_modules()
        by_name = {m.__name__.removeprefix("corprod."): m for m in modules}
        for (mod_name, attr), name in TARGETS.items():
            owner = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(vars(cls)[meth], name))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        return self._stray_references()

    def _stray_references(self) -> list[str]:
        """Any live reference to an original target other than the wrapper's
        own is a path by which calls could bypass the span."""
        gc.collect()
        problems = []
        for wrapper in self._wrappers:
            own = {id(c) for c in wrapper.__closure__ or ()}
            own.update((id(wrapper.__dict__), id(self.caches)))
            orig = wrapper.__wrapped__
            for ref in gc.get_referrers(orig):
                if id(ref) in own or isinstance(ref, types.FrameType):
                    continue
                problems.append(f"{wrapper.__qualname__} is also held by a {type(ref).__name__}")
        return problems

    def summary(self, total_s: float) -> dict[str, float]:
        """Per-span calls, inclusive s and self_s, shape statistics and
        per-layer self time, for a traced call that took ``total_s``."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        out.update(dict.fromkeys(SHAPE_STATS, 0))
        instance_s = []
        for name, parent, start, end, child in self.spans:
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child
            # a recursive call's time is already inside its caller's span
            if not self._has_ancestor(parent, name):
                out[f"{name}.s"] += dur
            if name == "corpus.run_instance":
                instance_s.append(dur)
        for name, acc in self.stats.items():
            for key, value in acc.items():
                out[f"{name}.{key}"] = value
        for name in REPEATS:
            calls = out[f"{name}.calls"]
            out[f"{name}.repeat_frac"] = self.repeats[name] / calls if calls else 0.0
        out["corpus.run_instance.p50_s"] = statistics.median(instance_s) if instance_s else 0.0
        out["corpus.run_instance.max_s"] = max(instance_s, default=0.0)
        covered = 0.0
        for layer, names in LAYERS.items():
            busy = sum(out[f"{name}.self_s"] for name in names)
            out[f"layer.{layer}.self_s"] = busy
            covered += busy
        out["layer.other.self_s"] = total_s - covered
        out["trace.spans"] = len(self.spans)
        return out

    def cache_totals(self) -> tuple[int, int]:
        """Hits and misses summed over every corprod lru_cache."""
        hits = misses = 0
        for c in self.caches:
            info = c.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][1]
        return False

    def write_jsonl(self, path: str) -> None:
        """One span per line: [id, parent id or -1, name, start, end, self_s]."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, end - start - child]) + "\n")
