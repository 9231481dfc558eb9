"""
Incremental learners over ground-atom streams.

Two drivers share the same machinery:

* golem_step: saturate an uncovered arrival against the current program; if
  the program already holds non-unit clauses, generalize them against the
  saturation (relative least general generalization), otherwise adopt the
  saturation clause itself; keep the arrival as a fact whenever the learned
  clauses do not cover it; reduce. A covered arrival normally leaves the
  program untouched, with one forgetful exception: it replaces a retained
  ground unit fact that it is strictly priority-below (all of the arrival's
  subterms occur in the fact). That fact rotation is exactly what the
  reordered-stream reference trace exhibits, and it is what makes this
  learner order-sensitive.

* pgolem_step: the prioritized variant. A covered arrival never changes the
  program. An arrival that strictly precedes some earlier arrival (its
  subterms a proper subset of that arrival's) restarts learning from the
  snapshot before that stage, replaying the pending arrivals in ascending
  priority order. Extensions restrict saturation bodies to higher-priority
  atoms and drop generalized body literals whose subterms do not occur in
  the head, so every snapshot is a simple program by construction.

Learned clauses are kept only if definite and range-restricted (head
variables all occur in the body); degenerate generalizations such as
p(X) :- p(Y) would otherwise either swallow the whole program under
reduction or make bounded evaluation enumerate the universe.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

from .generalize import (
    SaturationPolicy,
    lgg_clause_sets,
    reduce_program,
    saturate,
)
from .logic import (
    Clause,
    ExampleStream,
    HornProgram,
    Literal,
    fact,
    is_ground_literal,
    literal_depth,
    literal_subterms,
)
from .metric import is_simple_program, priority_precedes
from .semantics import default_depth_bound, is_covered
from .syntax import parse_atom, parse_program, render_literal, render_program

DEFAULT_MAX_STAGES = 200


class System(Enum):
    GOLEM = "golem"
    PRIORITIZED_GOLEM = "pgolem"


@dataclass(frozen=True)
class LearnerConfig:
    system: System = System.GOLEM
    policy: SaturationPolicy = SaturationPolicy.PAPER_TRACE
    depth_bound: int = 16
    max_stages: int = DEFAULT_MAX_STAGES


class Action(Enum):
    COVERED = "covered"
    EXTENDED = "extended"
    RESTARTED = "restarted"


@dataclass(frozen=True)
class StageRecord:
    stage: int
    example: Literal
    action: Action
    restarted_from: int | None
    program: HornProgram
    simple: bool

    def action_text(self) -> str:
        if self.action is Action.RESTARTED:
            return f"restarted({self.restarted_from})"
        return self.action.value

    def to_json_dict(self) -> dict:
        """One trace line; the program is its canonical text."""
        return {
            "stage": self.stage,
            "example": render_literal(self.example),
            "action": self.action_text(),
            "program": render_program(self.program),
            "simple": self.simple,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StageRecord":
        """Inverse of to_json_dict; `simple` is recomputed when absent. A
        record that to_json_dict cannot have written is a ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("trace record is not a JSON object")
        for key, kind in (("stage", int), ("example", str), ("action", str), ("program", str)):
            if not isinstance(obj.get(key), kind):
                raise ValueError(f"trace field {key!r} is missing or not a {kind.__name__}")
        if isinstance(obj["stage"], bool) or obj["stage"] < 0:
            raise ValueError(f"trace field 'stage' is not a stage number: {obj['stage']!r}")
        if not isinstance(obj.get("simple", False), bool):
            raise ValueError(f"trace field 'simple' is not a bool: {obj['simple']!r}")
        action = re.fullmatch(r"(covered|extended)|restarted\((\d+)\)", obj["action"])
        if action is None:
            raise ValueError(f"unknown trace action {obj['action']!r}")
        restarted_from = int(action[2]) if action[2] else None
        if restarted_from is not None and restarted_from >= obj["stage"]:
            raise ValueError(
                f"trace action {obj['action']!r} does not restart at an earlier stage "
                f"than {obj['stage']}"
            )
        example = parse_atom(obj["example"])
        if not is_ground_literal(example):
            raise ValueError(f"example is not ground: {render_literal(example)}")
        program = parse_program(obj["program"])
        return cls(
            stage=obj["stage"],
            example=example,
            action=Action(action[1] or "restarted"),
            restarted_from=restarted_from,
            program=program,
            simple=obj["simple"] if "simple" in obj else is_simple_program(program),
        )


class StageBudgetExceeded(Exception):
    """More arrivals than the stage budget; carries the partial trace."""

    def __init__(self, records: list[StageRecord], remaining: int):
        super().__init__(
            f"stage budget exhausted with {remaining} arrival(s) unprocessed"
        )
        self.records = records
        self.remaining = remaining


def _keep_learned(clauses: frozenset[Clause]) -> set[Clause]:
    return {c for c in clauses if c.is_definite and c.range_restricted}


def _extend(
    current: HornProgram,
    e: Literal,
    cfg: LearnerConfig,
    restrict_to_priority: bool,
) -> HornProgram:
    """The shared uncovered-arrival step: saturate, generalize, retain the
    arrival as a fact if still needed, reduce. Every caller has already
    found e uncovered by `current`, so saturation does not ask again."""
    sigma = saturate(current, e, cfg.policy, cfg.depth_bound)
    if restrict_to_priority:
        sigma = frozenset(_restrict_clause(c, e) for c in sigma)

    hypothesis_clauses = frozenset(current.rules)
    if hypothesis_clauses:
        new = lgg_clause_sets(hypothesis_clauses, sigma)
        if restrict_to_priority:
            new = frozenset(_enforce_simplicity(c) for c in new)
    else:
        new = sigma
    kept = _keep_learned(new)

    candidate = current.with_clauses(kept)
    if not is_covered(candidate, e, cfg.depth_bound):
        candidate = candidate.with_clauses((fact(e),))
    return reduce_program(candidate, cfg.depth_bound)


def _restrict_clause(c: Clause, e: Literal) -> Clause:
    """Keep e itself plus literals whose atoms have priority over e."""
    return Clause(
        l for l in c.literals if (l.positive and l == e) or priority_precedes(l.atom(), e)
    )


def _enforce_simplicity(c: Clause) -> Clause:
    """Drop body literals whose subterms do not all occur in the head."""
    if not c.is_definite:
        return c
    head_terms = literal_subterms(c.head)
    dropped = [l for l in c.negatives if not literal_subterms(l) <= head_terms]
    return Clause(c.literals - set(dropped)) if dropped else c


def golem_step(
    current: HornProgram, e: Literal, cfg: LearnerConfig
) -> tuple[HornProgram, Action]:
    if is_covered(current, e, cfg.depth_bound):
        swap_out = [
            f
            for f in current.facts
            if f.head != e and priority_precedes(e, f.head)
        ]
        if swap_out:
            # Forgetful fact rotation: a covered arrival that is strictly
            # priority-below a retained fact replaces it.
            program = reduce_program(
                current.without_clauses(swap_out).with_clauses((fact(e),)),
                cfg.depth_bound,
            )
            return program, Action.COVERED
        return current, Action.COVERED
    return _extend(current, e, cfg, restrict_to_priority=False), Action.EXTENDED


def pgolem_step(
    history: list[StageRecord],
    e: Literal,
    cfg: LearnerConfig,
    background: HornProgram = HornProgram(),
) -> tuple[HornProgram, Action, int | None]:
    """One prioritized stage against the trace so far. `background` is the
    stage -1 program (what a restart to stage 0 rebuilds on)."""
    current = history[-1].program if history else background
    if is_covered(current, e, cfg.depth_bound):
        return current, Action.COVERED, None

    arrivals = [rec.example for rec in history]
    j = _restart_stage(arrivals, e)
    if j is not None:
        base = history[j - 1].program if j > 0 else background
        pending = arrivals[j:] + [e]
        program = _replay(base, pending, cfg)
        return program, Action.RESTARTED, j

    return _extend(current, e, cfg, restrict_to_priority=True), Action.EXTENDED, None


def _strictly_precedes(a: Literal, b: Literal) -> bool:
    """a ≺ b but not b ≺ a: a's subterms are a proper subset of b's. Arrivals
    of equal priority (p(a, b) and p(b, a), or p(a) and q(a)) are unordered.
    A deeper a is rejected before either subterm set is built."""
    return literal_depth(a) <= literal_depth(b) and literal_subterms(a) < literal_subterms(b)


def _restart_stage(arrivals: list[Literal], e: Literal) -> int | None:
    """Least stage whose arrival the replay must reprocess.

    The trigger is e strictly preceding some earlier arrival; the stage is
    then closed transitively, because the replay set may itself precede
    arrivals retained before the trigger stage (a restart must never freeze
    background content that something pending has priority over, or the
    result depends on arrival order). One backward scan finds the closure,
    because the pending set arrivals[j:] + [e] only grows as j falls.
    """
    j = None
    pending = [e]
    for i in range(len(arrivals) - 1, -1, -1):
        if any(_strictly_precedes(q, arrivals[i]) for q in pending):
            j = i
            pending = arrivals[i:] + [e]
    return j


def _priority_sorted(pending: list[Literal]) -> list[Literal]:
    """Ascending priority (topological over the pre-order), ties broken by
    arrival order. Duplicates keep their first arrival only. Kahn's sort on
    the strict-precedence graph, with the ready arrivals in a min-heap on
    arrival index, so each step takes the earliest arrival that nothing
    remaining strictly precedes."""
    distinct = list(dict.fromkeys(pending))
    later = [[j for j, b in enumerate(distinct) if _strictly_precedes(a, b)] for a in distinct]
    blockers = [0] * len(distinct)
    for js in later:
        for j in js:
            blockers[j] += 1
    ready = [j for j, n in enumerate(blockers) if not n]
    ordered = []
    while ready:
        i = heappop(ready)
        ordered.append(distinct[i])
        for j in later[i]:
            blockers[j] -= 1
            if not blockers[j]:
                heappush(ready, j)
    return ordered


def _replay(base: HornProgram, pending: list[Literal], cfg: LearnerConfig) -> HornProgram:
    """Rerun prioritized learning over the pending arrivals in ascending
    priority order; sorted input never restarts again."""
    program = base
    for a in _priority_sorted(pending):
        if is_covered(program, a, cfg.depth_bound):
            continue
        program = _extend(program, a, cfg, restrict_to_priority=True)
    return program


def run_stream(
    stream: ExampleStream,
    cfg: LearnerConfig,
    background: HornProgram = HornProgram(),
) -> list[StageRecord]:
    """Fold the configured learner over the arrivals, one record per stage."""
    if not len(stream):
        raise ValueError("example stream is empty")
    deepest = stream.max_depth()
    if cfg.depth_bound < deepest:
        raise ValueError(
            f"depth bound {cfg.depth_bound} is below the deepest stream example ({deepest})"
        )
    records: list[StageRecord] = []
    for stage, e in enumerate(stream):
        if stage >= cfg.max_stages:
            raise StageBudgetExceeded(records, len(stream) - stage)
        if cfg.system is System.GOLEM:
            current = records[-1].program if records else background
            program, action = golem_step(current, e, cfg)
            restarted_from = None
        else:
            program, action, restarted_from = pgolem_step(records, e, cfg, background)
        records.append(
            StageRecord(
                stage=stage,
                example=e,
                action=action,
                restarted_from=restarted_from,
                program=program,
                simple=is_simple_program(program),
            )
        )
    return records


def config_for_stream(
    stream: ExampleStream,
    system: System,
    policy: SaturationPolicy = SaturationPolicy.PAPER_TRACE,
    depth_bound: int | None = None,
    max_stages: int = DEFAULT_MAX_STAGES,
    background: Iterable[Clause] = (),
) -> LearnerConfig:
    """The default depth bound counts the background that run_stream will
    start from, so no background clause falls outside the bounded base."""
    if depth_bound is None:
        depth_bound = default_depth_bound(stream.max_depth(), background)
    return LearnerConfig(
        system=system, policy=policy, depth_bound=depth_bound, max_stages=max_stages
    )
