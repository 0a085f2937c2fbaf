"""Randomized desk-scale corpus: families of 2-4 small fibers with mixed
module actions, plus the invariant suite that every instance must pass.

Generation is deterministic in the seed, and instances are described by
plain JSON-able descriptors so reports carry stable input digests.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from . import formulas as fp
from . import records
from .abelian import FiniteAbelianGroup
from .cohomology import GModule, dimension_shift_check, trivial_module
from .errors import CorprodError
from .families import FamilySpec, family, normal_closure_family, truncate
from .formulas import FamilyModule
from .groups import (
    FiniteGroup,
    abelian_group_from_factors,
    cyclic_group,
    dihedral_group,
    group_from_generators,
    heisenberg_group,
    quaternion_group,
    subgroup_from_generators,
    symmetric_group,
)
from .reports import CheckRecord, record
from .serialize import canonical_digest


@lru_cache(maxsize=None)
def _zoo() -> dict[str, FiniteGroup]:
    a4 = group_from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], label="A4")
    return {
        "C2": cyclic_group(2),
        "C3": cyclic_group(3),
        "C4": cyclic_group(4),
        "C6": cyclic_group(6),
        "C8": cyclic_group(8),
        "C9": cyclic_group(9),
        "C2xC2": abelian_group_from_factors((2, 2)),
        "C2xC4": abelian_group_from_factors((2, 4)),
        "C3xC3": abelian_group_from_factors((3, 3)),
        "S3": symmetric_group(3),
        "D4": dihedral_group(4),
        "Q8": quaternion_group(),
        "D6": dihedral_group(6),
        "A4": a4,
        "Heis27": heisenberg_group(3),
    }


# weights keep the big fibers rare so the whole suite stays fast
_GROUP_WEIGHTS = {
    "C2": 4, "C3": 4, "C4": 4, "C6": 3, "C8": 2, "C9": 2,
    "C2xC2": 3, "C2xC4": 2, "C3xC3": 2, "S3": 3, "D4": 3,
    "Q8": 2, "D6": 1, "A4": 1, "Heis27": 1,
}

_MODULES = [(2,), (3,), (4,), (5,), (6,), (8,), (9,), (2, 2), (3, 3), (2, 4)]


def _subgroup_choices(g: FiniteGroup):
    """A few deterministic subgroup generator choices per group."""
    choices = [(), tuple(range(g.order))]
    orders = sorted({g.element_order(x) for x in range(g.order)} - {1})
    for o in orders:
        first = min(x for x in range(g.order) if g.element_order(x) == o)
        choices.append((first,))
    return choices


def _character(g: FiniteGroup, p: int):
    """A character of G into Z/p, from the first abelianization factor d
    that p divides, or None: x |-> (d/p) * x_d mod p, the coordinate x_d
    of x in Z/d.  It is onto Z/p when p^2 does not divide d, and the zero
    character when it does."""
    ab, proj = g.abelianization
    for i, d in enumerate(ab.factors):
        if d % p == 0:
            return lambda x, i=i, d=d: (proj.apply(x)[i] * (d // p)) % p
    return None


def _action_options(g: FiniteGroup, a: FiniteAbelianGroup):
    """Named automorphism actions available for this fiber and module."""
    options = {"trivial": None}
    r = a.rank
    chi2 = _character(g, 2)
    if chi2 is not None and a.exponent > 2:
        neg = tuple(tuple(-1 if i == j else 0 for j in range(r)) for i in range(r))
        options["negation"] = (chi2, 2, neg)
    if chi2 is not None and r == 2 and a.factors[0] == a.factors[1]:
        swap = ((0, 1), (1, 0))
        options["swap"] = (chi2, 2, swap)
    chi3 = _character(g, 3)
    if chi3 is not None and r == 1:
        m = a.factors[0]
        for u in range(2, m):
            if (u**3) % m == 1 and u % m != 1:
                options["scalar3"] = (chi3, 3, ((u,),))
                break
    return options


def _action_module(g: FiniteGroup, a: FiniteAbelianGroup, option) -> GModule:
    """The module of an ``_action_options`` entry: x acts by the power
    chi(x) of the option's matrix, and ``None`` is the trivial action."""
    if option is None:
        return trivial_module(g, a)
    chi, order, mat = option
    powers = np.stack([np.linalg.matrix_power(np.array(mat, dtype=np.int64), k) for k in range(order)])
    return GModule(g, a, powers[[chi(x) % order for x in range(g.order)]])


@records.record(frozen=True)
class CorpusInstance:
    index: int
    spec: FamilySpec
    module: FamilyModule
    descriptor: tuple

    @property
    def digest(self) -> str:
        return canonical_digest(list(self.descriptor))


def generate_corpus(seed: int, count: int = 30) -> list[CorpusInstance]:
    """Deterministic corpus: 2-4 fibers of order <= 27, |A| <= 9, with a
    mix of trivial and nontrivial actions."""
    rng = random.Random(seed)
    zoo = _zoo()
    names = sorted(_GROUP_WEIGHTS)
    weights = [_GROUP_WEIGHTS[n] for n in names]
    out = []
    for idx in range(count):
        nfibers = rng.randint(2, 4)
        coeff = FiniteAbelianGroup(rng.choice(_MODULES))
        fibers = []
        actions = {}
        descriptor = [("coeff", coeff.factors)]
        for k in range(nfibers):
            gname = rng.choices(names, weights)[0]
            g = zoo[gname]
            u_gens = rng.choice(_subgroup_choices(g))
            u = subgroup_from_generators(g, u_gens)
            fiber_name = f"f{k}"
            fibers.append((fiber_name, g, u))
            opts = _action_options(g, coeff)
            # lean toward trivial so coprime shortcuts stay common
            opt_names = sorted(opts)
            pick = rng.choice(opt_names + ["trivial"])
            if pick != "trivial":
                actions[fiber_name] = _action_module(g, coeff, opts[pick])
            descriptor.append((fiber_name, gname, tuple(u_gens), pick))
        spec = family(fibers)
        module = FamilyModule.build(coeff, actions)
        out.append(CorpusInstance(idx, spec, module, tuple(descriptor)))
    return out


# ---------------------------------------------------------------------------
# the invariant suite
# ---------------------------------------------------------------------------


def exactness_record(inst: CorpusInstance, cap, enum_cap) -> CheckRecord:
    trunc = truncate(inst.spec, 0)
    seq = fp.four_term_sequence(trunc, inst.module, cap, enum_cap)
    rep = fp.check_exactness(seq)
    return record(
        "four-term-exactness",
        inst.digest,
        rep.passed,
        witnesses=[f"{p.position}:{p.witness}" for p in rep.failures()],
        factors=[(f"term{i}", t.factors) for i, t in enumerate(seq.terms)],
    )


def cross_check_records(inst: CorpusInstance, cap) -> list[CheckRecord]:
    out = []
    for p in sorted(inst.spec.prime_set):
        rep = fp.cross_check_h1_vs_ab(inst.spec, p, cap)
        out.append(
            record(
                f"cross-check-p{p}",
                inst.digest,
                rep.passed,
                witnesses=[f.name for f in rep.fibers if not f.passed],
                factors=[(f"{f.name}-h1", f.h1_factors) for f in rep.fibers],
            )
        )
    return out


def closure_invariance_record(inst: CorpusInstance, cap) -> CheckRecord:
    """The invariants of ``spec`` and of its normal closure, compared.

    Only the abelianization comparison can fail: ``h_formula`` reads U
    through ``normal_closure``, which is idempotent, so the degree 1 and
    2 comparisons compare a computation with itself.  The crossed-hom
    oracle and the four-term sequence never read U and are not compared.
    """
    spec, module = inst.spec, inst.module
    closed = normal_closure_family(spec)
    problems = []
    if not fp.abelianization_formula(spec).same_as(fp.abelianization_formula(closed)):
        problems.append("abelianization-formula")
    for deg in (1, 2):
        if not fp.h_formula(spec, module, deg, cap).same_as(fp.h_formula(closed, module, deg, cap)):
            problems.append(f"h-formula-deg{deg}")
    return record(
        "normal-closure-invariance", inst.digest, not problems, witnesses=problems
    )


def dimension_shift_records(inst: CorpusInstance, cap) -> list[CheckRecord]:
    out = []
    trunc = truncate(inst.spec, 0)
    for f in trunc.fibers:
        rep = dimension_shift_check(inst.module.gmodule(f), cap)
        out.append(
            record(
                f"dimension-shift-{f.name}",
                inst.digest,
                rep.passed,
                factors=[("h2", rep.h2_factors), ("shifted-h1", rep.shifted_h1_factors)],
                detail=f.group.label,
            )
        )
    return out


def duality_record(inst: CorpusInstance) -> CheckRecord:
    abf = fp.abelianization_formula(inst.spec)
    dual = fp.dualize_family(abf)
    double = fp.dualize_family(dual)
    ok = double.same_as(abf) and dual.flavor == "discretized"
    law = all(
        pair.order * dpair.order == pair.ambient.order
        for (_, pair), (_, dpair) in zip(abf.pairs, dual.pairs)
    )
    return record(
        "duality-involution",
        inst.digest,
        ok and law,
        factors=[(name, p.ambient.factors) for name, p in abf.pairs],
    )


def run_instance(inst: CorpusInstance, cap: int, enum_cap: int) -> list[CheckRecord]:
    recs = [exactness_record(inst, cap, enum_cap)]
    recs.extend(cross_check_records(inst, cap))
    recs.append(closure_invariance_record(inst, cap))
    recs.extend(dimension_shift_records(inst, cap))
    recs.append(duality_record(inst))
    return recs


def corpus_summary_records(seed: int, count: int, cap: int, enum_cap: int) -> list[CheckRecord]:
    """One aggregated record per corpus instance."""
    out = []
    for inst in generate_corpus(seed, count):
        try:
            recs = run_instance(inst, cap, enum_cap)
            ok = all(r.passed for r in recs)
            failing = [r.check for r in recs if not r.passed]
            out.append(
                record(
                    f"corpus-instance-{inst.index:03d}",
                    inst.digest,
                    ok,
                    witnesses=failing,
                    detail=",".join(
                        f"{d[1]}" for d in inst.descriptor if d[0].startswith("f")
                    ),
                )
            )
        except CorprodError as exc:
            out.append(
                CheckRecord(
                    f"corpus-instance-{inst.index:03d}",
                    inst.digest,
                    "error",
                    (str(exc),),
                )
            )
    return out
