"""
Set-theoretic limit analysis of finite program-sequence prefixes.

True limits are not decidable from a finite prefix, so everything is
finitized over a window of the last w snapshots: liminf holds the clauses
present in all of them, limsup those present in at least one. The verdict is
three-way on purpose: a sequence can have a set-theoretic limit while never
repeating a snapshot (a rotating transient fact enters and leaves exactly
once), and a binary stable/divergent split would misreport that case.

Clause identity throughout is variant equality (canonical rendering), never
syntactic equality: generalization regenerates fresh variable names at every
stage, and membership in a limit must not be sensitive to that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .learner import StageRecord
from .logic import Clause, HornProgram, Literal
from .semantics import BoundedModel, least_model_bounded
from .syntax import render_clause, render_literal, render_program

SCHEMA_VERSION = 1


class Verdict(Enum):
    STABLE = "stable"
    CONVERGENT_MODULO_TRANSIENTS = "convergent-modulo-transients"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class LimitReport:
    window_size: int
    per_clause_occurrences: dict[str, list[tuple[int, int]]]
    verdict: Verdict
    candidate_limit: HornProgram
    correctness: dict[Literal, bool]
    candidate_model: BoundedModel

    @property
    def limit_correct(self) -> bool:
        return all(self.correctness.values())

    def to_json_dict(self) -> dict:
        return {
            "schemaVersion": SCHEMA_VERSION,
            "windowSize": self.window_size,
            "liminfWindow": sorted(render_clause(c) for c in self.candidate_limit),
            # The occurrence keys are exactly the limsup clauses' texts.
            "limsupWindow": sorted(self.per_clause_occurrences),
            "perClauseOccurrences": {
                key: [list(iv) for iv in ivs]
                for key, ivs in sorted(self.per_clause_occurrences.items())
            },
            "verdict": self.verdict.value,
            "candidateLimit": render_program(self.candidate_limit),
            "correctness": {
                render_literal(e): ok
                for e, ok in sorted(
                    self.correctness.items(), key=lambda kv: render_literal(kv[0])
                )
            },
            "limitCorrect": self.limit_correct,
            "candidateModel": self.candidate_model.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def default_window(stages: int) -> int:
    """max(4, stages/3), never more than the stages there are."""
    return min(stages, max(4, -(-stages // 3)))


def _keyed_window(
    snapshots: list[HornProgram], w: int
) -> tuple[list[set[str]], dict[str, Clause]]:
    """Each windowed snapshot's set of canonical clause texts, and one clause
    per text; every windowed clause is rendered once."""
    if w < 1 or w > len(snapshots):
        raise ValueError(f"window {w} does not fit a prefix of {len(snapshots)} snapshots")
    by_key: dict[str, Clause] = {}
    key_sets: list[set[str]] = []
    for prog in snapshots[-w:]:
        keys = set()
        for c in prog:
            k = render_clause(c)
            keys.add(k)
            by_key.setdefault(k, c)
        key_sets.append(keys)
    return key_sets, by_key


def _occurrence_intervals(present: list[bool], first_stage: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive stages, as inclusive (start, end) pairs."""
    intervals = []
    start = None
    for offset, here in enumerate(present):
        if here and start is None:
            start = first_stage + offset
        if not here and start is not None:
            intervals.append((start, first_stage + offset - 1))
            start = None
    if start is not None:
        intervals.append((start, first_stage + len(present) - 1))
    return intervals


def convergence_report(
    trace: list[StageRecord],
    streamed_examples: frozenset[Literal] | set[Literal],
    w: int,
    depth_bound: int,
) -> LimitReport:
    """Verdict, candidate limit and limit-correctness for a learner trace.

    Stable: the last w snapshots are identical programs. Convergent modulo
    transients: liminf and limsup differ, but every transient clause occupies
    a single run of consecutive stages inside the window, consistent with a
    true set-theoretic limit equal to liminf. Divergent: some clause leaves
    and re-enters. The candidate limit is the window liminf; its coverage is
    checked against everything streamed (examples deeper than the bound count
    as uncovered) in the one model the report carries.
    """
    if not trace:
        raise ValueError("empty trace")
    window_keysets, by_key = _keyed_window([rec.program for rec in trace], w)
    first_stage = trace[-w].stage
    occurrences = {
        key: _occurrence_intervals([key in ks for ks in window_keysets], first_stage)
        for key in by_key
    }
    liminf_keys = set.intersection(*window_keysets)

    if all(ks == window_keysets[0] for ks in window_keysets):
        verdict = Verdict.STABLE
    elif all(len(ivs) <= 1 for k, ivs in occurrences.items() if k not in liminf_keys):
        verdict = Verdict.CONVERGENT_MODULO_TRANSIENTS
    else:
        verdict = Verdict.DIVERGENT

    candidate = HornProgram(by_key[k] for k in liminf_keys)
    model = least_model_bounded(candidate, depth_bound, frozenset(streamed_examples))
    correctness = {e: e in model.atoms for e in streamed_examples}
    return LimitReport(
        window_size=w,
        per_clause_occurrences=occurrences,
        verdict=verdict,
        candidate_limit=candidate,
        correctness=correctness,
        candidate_model=model,
    )
