"""The benchmark's workloads: stream construction and output checks.

Every workload streams p(s^(2k)(0)) for k < stages, the even numbers the
paper's examples use, and differs only in learner and arrival order.
Streams are built through the public hornlearn API only, so a refactor of
hornlearn's internals does not change what the benchmark feeds it.

Each folded stream is checked twice: its per-stage trace must hash to the
digest recorded in expected.json, and it must show the paper property named
in `check`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import hornlearn as hl

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The limit golem reaches on the ascending stream; pgolem must end on a
# variant of it whatever the arrival order.
EVEN_LIMIT_TEXT = "p(0).\np(s(s(X0))) :- p(X0)."


@dataclass(frozen=True)
class Workload:
    name: str
    system: hl.System
    stages: int
    # Streams in the unit every worker process folds. pgolem-shuffled folds
    # one shuffle from each of this many difficulty strata of its pool.
    streams: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("golem-ascending", hl.System.GOLEM, 32, 1),
        Workload("golem-descending", hl.System.GOLEM, 16, 1),
        Workload("pgolem-shuffled", hl.System.PRIORITIZED_GOLEM, 10, 32),
    )
}


def even_atom(k: int) -> hl.Literal:
    t: hl.Term = hl.const("0")
    for _ in range(2 * k):
        t = hl.Fn("s", (t,))
    return hl.atom("p", t)


def unit_orders(w: Workload, expected: dict, seed: int) -> list[list[int]]:
    """Arrival orders (as k values) of the streams every worker folds.

    golem workloads have one fixed stream, so the seed does not change them.
    Learning time on one shuffle varies about 3x between shuffles, so
    pgolem-shuffled draws one shuffle from each stratum of its pool, which
    expected.json keeps in stratum order (see record.py). The unit's mean
    then moves little from seed to seed.
    """
    if w.name == "golem-ascending":
        return [list(range(w.stages))]
    if w.name == "golem-descending":
        return [list(reversed(range(w.stages)))]
    pool = expected[w.name]["pool"]
    size = len(pool) // w.streams
    rng = random.Random(seed)
    picks = [pool[s * size + rng.randrange(size)][0] for s in range(w.streams)]
    return [[int(k) for k in perm.split()] for perm in picks]


def build_stream(order: list[int]) -> hl.ExampleStream:
    return hl.ExampleStream(even_atom(k) for k in order)


def trace_digest(records: list[hl.StageRecord]) -> str:
    """sha256 of the trace file `hornlearn learn --trace` writes."""
    lines = [
        json.dumps(
            {
                "stage": rec.stage,
                "example": hl.render_literal(rec.example),
                "action": rec.action_text(),
                "program": hl.render_program(rec.program),
                "simple": rec.simple,
            }
        )
        for rec in records
    ]
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def check_property(
    w: Workload,
    stream: hl.ExampleStream,
    records: list[hl.StageRecord],
    report: hl.LimitReport,
    depth_bound: int,
) -> str | None:
    """The paper property each workload must show; None when it holds."""
    final = records[-1].program
    if w.name == "golem-ascending":
        if report.verdict is not hl.Verdict.STABLE:
            return f"verdict {report.verdict.value}, expected stable"
        if hl.render_program(report.candidate_limit) != EVEN_LIMIT_TEXT:
            return "limit differs from p(0). p(s(s(X0))) :- p(X0)."
        if not report.limit_correct:
            return "limit does not cover every streamed example"
    elif w.name == "golem-descending":
        coverage = hl.covers(final, frozenset(stream), depth_bound)
        if not all(coverage.values()):
            return "final snapshot misses a streamed example"
    else:
        # The window verdict is not checked: a finite prefix's stable tail
        # can be shorter than the default window.
        if not all(rec.simple and hl.is_simple_program(rec.program) for rec in records):
            return "a snapshot is not simple"
        if not hl.program_variant_equal(final, hl.parse_program(EVEN_LIMIT_TEXT)):
            return "final snapshot is not a variant of the even-number limit"
    return None


def recorded_digest(w: Workload, expected: dict, order: list[int]) -> str | None:
    entry = expected.get(w.name, {})
    if entry.get("stages") != w.stages:
        return None
    if "digest" in entry:
        return entry["digest"]
    key = " ".join(map(str, order))
    return next((digest for perm, digest, *_ in entry["pool"] if perm == key), None)


def check(
    w: Workload,
    expected: dict,
    order: list[int],
    stream: hl.ExampleStream,
    records: list[hl.StageRecord],
    report: hl.LimitReport,
    depth_bound: int,
) -> str | None:
    """Why the folded stream is wrong, or None when it is right."""
    want = recorded_digest(w, expected, order)
    if want is None:
        return f"no digest recorded for {w.name} at {w.stages} stages"
    got = trace_digest(records)
    if got != want:
        return f"trace digest {got[:12]} differs from the recorded {want[:12]}"
    return check_property(w, stream, records, report, depth_bound)
