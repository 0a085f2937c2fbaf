"""Command-line front end.

Commands operate on JSON spec files and emit one structured record per
check, in a deterministic canonical order; identical inputs produce
byte-identical reports.  Exit status 0 means every record passed, 1
means some check failed, 2 means the input could not be parsed or
violates an invariant.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from . import formulas as fp
from . import records
from .cohomology import DEFAULT_COH_CAP
from .errors import CorprodError, SpecFileError
from .families import TAIL, check_tower, truncate, validate_family
from .formulas import DEFAULT_ENUM_CAP
from .reports import CheckRecord, Report, record
from .serialize import (
    canonical_digest,
    parse_family,
    parse_module,
    parse_topology,
    parse_tower,
)
from .topology import intersect_specs, is_open, union_specs


@records.record()
class RunConfig:
    command: str
    spec_path: str | None = None
    module_path: str | None = None
    degree: int = 1
    truncate: int = 0
    seed: int = 0
    cap: int = DEFAULT_COH_CAP
    out: str | None = None
    fmt: str = "text"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc


def _family_and_digest(cfg: RunConfig):
    if not cfg.spec_path:
        raise SpecFileError("this command requires --spec")
    data = _load_json(cfg.spec_path)
    return parse_family(data), canonical_digest(data)


def _family_module_and_digest(cfg: RunConfig):
    """The family, its module, and the digest of both files."""
    spec, digest = _family_and_digest(cfg)
    if not cfg.module_path:
        raise SpecFileError("this command requires --module")
    data = _load_json(cfg.module_path)
    return spec, parse_module(data, spec), canonical_digest([digest, data])


def cmd_validate(cfg: RunConfig) -> Report:
    spec, digest = _family_and_digest(cfg)
    rep = Report()
    for info in validate_family(spec):
        rep.add(
            record(
                f"validate-{info.name}",
                digest,
                True,
                factors=[("closure-order", (info.closure_order,))],
                detail="already normal" if info.already_normal else "closure taken",
            )
        )
    return rep


def cmd_abelianize(cfg: RunConfig) -> Report:
    spec, digest = _family_and_digest(cfg)
    fam = fp.abelianization_formula(spec)
    rep = Report()
    for name, pair in fam.pairs:
        rep.add(
            record(
                f"abelianize-{name}",
                digest,
                True,
                factors=[
                    ("ambient", pair.ambient.factors),
                    ("u-image", pair.structure.factors),
                ],
                detail=f"flavor {fam.flavor}",
            )
        )
    return rep


def cmd_cohomology(cfg: RunConfig) -> Report:
    spec, module, digest = _family_module_and_digest(cfg)
    rep = Report()
    if cfg.degree >= 3:
        for name, g in fp.high_degree_formula(spec, module, cfg.degree, cfg.cap):
            rep.add(
                record(
                    f"h{cfg.degree}-{name}",
                    digest,
                    True,
                    factors=[("value", g.factors)],
                    detail="one summand per tail index" if name == TAIL else "",
                )
            )
        return rep
    fam = fp.h_formula(spec, module, cfg.degree, cfg.cap)
    for name, pair in fam.pairs:
        rep.add(
            record(
                f"h{cfg.degree}-{name}",
                digest,
                True,
                factors=[
                    ("value", pair.ambient.factors),
                    ("nr", pair.structure.factors),
                ],
            )
        )
    summary = fp.summarize_family(fam)
    rep.add(record(f"h{cfg.degree}-summary", digest, True, detail=summary.description))
    return rep


def cmd_exact_check(cfg: RunConfig) -> Report:
    spec, module, digest = _family_module_and_digest(cfg)
    trunc = truncate(spec, cfg.truncate)
    seq = fp.four_term_sequence(trunc, module, cfg.cap)
    result = fp.check_exactness(seq)
    rep = Report()
    for pos in result.positions:
        rep.add(
            record(
                f"exactness-{pos.position}",
                digest,
                pos.holds,
                witnesses=[] if pos.witness is None else [str(pos.witness)],
                detail=f"obstruction order {pos.obstruction_order}",
            )
        )
    rep.add(
        record(
            "exactness-terms",
            digest,
            result.passed,
            factors=[(f"term{i}", t.factors) for i, t in enumerate(seq.terms)],
        )
    )
    return rep


def cmd_duality_check(cfg: RunConfig) -> Report:
    spec, digest = _family_and_digest(cfg)
    fam = fp.abelianization_formula(spec)
    dual = fp.dualize_family(fam)
    double = fp.dualize_family(dual)
    rep = Report()
    rep.add(
        record(
            "duality-involution",
            digest,
            double.same_as(fam),
            detail=f"flavors {fam.flavor} -> {dual.flavor} -> {double.flavor}",
        )
    )
    for (name, pair), (_, dpair) in zip(fam.pairs, dual.pairs):
        rep.add(
            record(
                f"duality-annihilator-{name}",
                digest,
                pair.order * dpair.order == pair.ambient.order,
                factors=[
                    ("ambient", pair.ambient.factors),
                    ("sub", pair.structure.factors),
                    ("annihilator", dpair.structure.factors),
                ],
            )
        )
    return rep


def cmd_cross_check(cfg: RunConfig) -> Report:
    spec, digest = _family_and_digest(cfg)
    rep = Report()
    for p in sorted(spec.prime_set):
        result = fp.cross_check_h1_vs_ab(spec, p, cfg.cap)
        for fiber in result.fibers:
            rep.add(
                record(
                    f"cross-check-p{p}-{fiber.name}",
                    digest,
                    fiber.passed,
                    factors=[
                        ("h1", fiber.h1_factors),
                        ("ab-dual", fiber.ab_dual_factors),
                        ("nr", fiber.nr_factors),
                        ("ab-nr-dual", fiber.ab_nr_dual_factors),
                    ],
                )
            )
    return rep


def cmd_colimit(cfg: RunConfig) -> Report:
    spec, module, digest = _family_module_and_digest(cfg)
    system = fp.truncation_colimit(spec, module, cfg.degree, cfg.truncate, cfg.cap)
    rep = Report()
    for n, level in enumerate(system.levels):
        rep.add(
            record(
                f"colimit-level-{n:02d}",
                digest,
                system.level_formula_ok[n],
                factors=[("value", level.factors)],
            )
        )
    rep.add(
        record(
            "colimit-transitions-injective",
            digest,
            all(t.is_injective() for t in system.transitions),
        )
    )
    rep.add(
        record(
            "colimit-growth",
            digest,
            system.growth_ok,
            detail=f"tail contribution {system.tail_contribution} per level",
        )
    )
    return rep


def cmd_tower_check(cfg: RunConfig) -> Report:
    if not cfg.spec_path:
        raise SpecFileError("tower-check requires --spec")
    data = _load_json(cfg.spec_path)
    digest = canonical_digest(data)
    tower = parse_tower(data)
    cert = check_tower(tower)
    rep = Report()
    for i, (preds, failures) in enumerate(zip(cert.steps, cert.step_failures)):
        rep.add(
            record(
                f"tower-transition-{i}",
                digest,
                not failures,
                detail=(
                    f"strict={preds.strict} fibrewise_surjective="
                    f"{preds.fibrewise_surjective} star_unique={preds.star_unique_preimage}"
                ),
            )
        )
    rep.add(record("tower-certificate", digest, cert.passed, witnesses=cert.failures))
    return rep


def cmd_topo_check(cfg: RunConfig) -> Report:
    if not cfg.spec_path:
        raise SpecFileError("topo-check requires --spec")
    data = _load_json(cfg.spec_path)
    digest = canonical_digest(data)
    _, sets = parse_topology(data)
    rep = Report()
    for i, v in enumerate(sets):
        chk = is_open(v)
        rep.add(
            record(
                f"topo-open-{i:02d}",
                digest,
                chk.is_open,
                witnesses=[] if chk.witness is None else [chk.witness],
            )
        )
    # closure of the open ones under pairwise meets and joins
    opens = [v for v in sets if is_open(v).is_open]
    closure_ok = True
    for i, a in enumerate(opens):
        for b in opens[i:]:
            if not is_open(intersect_specs(a, b)).is_open:
                closure_ok = False
            if not is_open(union_specs(a, b)).is_open:
                closure_ok = False
    rep.add(record("topo-closure-meets-joins", digest, closure_ok))
    return rep


def cmd_corpus(cfg: RunConfig) -> Report:
    rep = Report()
    rep.extend(
        corpus_mod.corpus_summary_records(cfg.seed, 30, cfg.cap, DEFAULT_ENUM_CAP)
    )
    return rep


COMMANDS = {
    "validate": cmd_validate,
    "abelianize": cmd_abelianize,
    "cohomology": cmd_cohomology,
    "exact-check": cmd_exact_check,
    "duality-check": cmd_duality_check,
    "cross-check": cmd_cross_check,
    "colimit": cmd_colimit,
    "tower-check": cmd_tower_check,
    "topo-check": cmd_topo_check,
    "corpus": cmd_corpus,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corprod",
        description="Desk-scale checks for corestricted free products of profinite groups",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", dest="spec_path", help="family / tower / topo spec file")
    parser.add_argument("--module", dest="module_path", help="module coefficients file")
    parser.add_argument("--degree", type=int, default=1)
    parser.add_argument("--truncate", type=int, default=0, help="truncation level / N_max")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=int, default=DEFAULT_COH_CAP, help="cohomology size cap")
    parser.add_argument("--out", help="append the report to this file")
    parser.add_argument("--format", dest="fmt", choices=["text", "structured"], default="text")
    return parser


def run(cfg: RunConfig) -> tuple[int, str]:
    try:
        report = COMMANDS[cfg.command](cfg)
    except CorprodError as exc:
        diag = CheckRecord(cfg.command, "-", "error", (str(exc),))
        rep = Report([diag])
        return 2, rep.render(cfg.fmt)
    return (0 if report.passed else 1), report.render(cfg.fmt)


def main(argv=None) -> int:
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    status, rendered = run(cfg)
    if cfg.out:
        with open(cfg.out, "a") as fh:
            fh.write(rendered)
    sys.stdout.write(rendered)
    return status


if __name__ == "__main__":
    sys.exit(main())
