"""Structured check records and report serialization.

One record per check with a stable input digest; reports are emitted in
a deterministic canonical order so identical inputs give byte-identical
output, which makes runs diffable.
"""

from __future__ import annotations

import json

from . import records


@records.record(frozen=True)
class CheckRecord:
    check: str
    input_digest: str
    result: str  # "pass" | "fail" | "error"
    witnesses: tuple[str, ...] = ()
    invariant_factors: tuple[tuple[str, tuple[int, ...]], ...] = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "input_digest": self.input_digest,
                "result": self.result,
                "witnesses": list(self.witnesses),
                "invariant_factors": {k: list(v) for k, v in self.invariant_factors},
                "detail": self.detail,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_text(self) -> str:
        status = self.result.upper()
        facts = "; ".join(f"{k}={list(v)}" for k, v in self.invariant_factors)
        parts = [f"[{status}] {self.check} ({self.input_digest})"]
        if facts:
            parts.append(facts)
        if self.detail:
            parts.append(self.detail)
        if self.witnesses:
            parts.append("witnesses: " + ", ".join(self.witnesses))
        return "  ".join(parts)


def record(check, digest, ok, witnesses=(), factors=(), detail="") -> CheckRecord:
    return CheckRecord(
        check,
        digest,
        "pass" if ok else "fail",
        tuple(str(w) for w in witnesses),
        tuple((str(k), tuple(int(x) for x in v)) for k, v in factors),
        detail,
    )


@records.record()
class Report:
    records: list = records.field(default_factory=list)

    def add(self, rec: CheckRecord) -> None:
        self.records.append(rec)

    def extend(self, recs) -> None:
        self.records.extend(recs)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: (r.check, r.input_digest, r.detail))

    def render(self, fmt: str) -> str:
        recs = self.sorted_records()
        if fmt == "structured":
            return "\n".join(r.to_json() for r in recs) + ("\n" if recs else "")
        return "\n".join(r.to_text() for r in recs) + ("\n" if recs else "")
