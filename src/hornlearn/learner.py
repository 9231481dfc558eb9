"""
Incremental learners over ground-atom streams.

Two drivers share the same machinery:

* golem_step: saturate an uncovered arrival against the current program; if
  the program already holds non-unit clauses, generalize them against the
  saturation (relative least general generalization), otherwise adopt the
  saturation clause itself; keep the arrival as a fact whenever the learned
  clauses do not cover it; reduce. A covered arrival normally leaves the
  program untouched, with one forgetful exception: it replaces every other
  retained ground unit fact that it is priority-below (all of the arrival's
  subterms occur in the fact), so an arrival of equal priority, such as
  p(a, b) against p(b, a), rotates the fact too. That fact rotation is
  exactly what the reordered-stream reference trace exhibits, and it is
  what makes this learner order-sensitive.

* pgolem_step: the prioritized variant. A covered arrival never changes the
  program. An arrival that strictly precedes some earlier arrival (its
  subterms a proper subset of that arrival's) restarts learning from the
  snapshot before that stage, replaying the pending arrivals in ascending
  priority order. Extensions restrict saturation bodies to higher-priority
  atoms and drop generalized body literals whose subterms do not occur in
  the head, so every snapshot is a simple program by construction.

Both learners step one run state, built by run_stream from the config alone
(which holds the background) and dead when it returns. Its stage records
are the run's only history: the snapshot before stage j is record j - 1's
program, or the config's background at stage 0. For pgolem it also holds
the strictly_precedes relation over arrival indices, each ordered pair
tested once, from which the restart stage and the replay order are read;
and a table from (program, arrival) to the program after that replay step,
so a replay that reaches a step again does not ask coverage or extend
again.

Learned clauses are kept only if definite and range-restricted (head
variables all occur in the body); degenerate generalizations such as
p(X) :- p(Y) would otherwise either swallow the whole program under
reduction or make bounded evaluation enumerate the universe.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

from .generalize import (
    SaturationPolicy,
    lgg_clause_sets,
    saturate,
)
from .logic import (
    Clause,
    ExampleStream,
    HornProgram,
    Literal,
    fact,
)
from .metric import is_simple_program, priority_precedes, strictly_precedes
from .semantics import default_depth_bound, is_covered, reduce_program
from .syntax import ParseError, parse_atom, parse_program, render_literal, render_program


class System(Enum):
    GOLEM = "golem"
    PRIORITIZED_GOLEM = "pgolem"


@dataclass(frozen=True)
class LearnerConfig:
    """The one record of how a run is configured: its learner, saturation
    policy, depth bound and the background the run starts from (stage 0's
    snapshot), which the relative lgg works against."""

    depth_bound: int
    system: System = System.GOLEM
    policy: SaturationPolicy = SaturationPolicy.PAPER_TRACE
    background: HornProgram = HornProgram()


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

    @property
    def simple(self) -> bool:
        return is_simple_program(self.program)

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
        """Inverse of to_json_dict; `simple` may be absent. A record that
        to_json_dict cannot have written is a ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("trace record is not a JSON object")
        for key, kind in (("stage", int), ("example", str), ("action", str), ("program", str)):
            if not isinstance(obj.get(key), kind):
                raise ValueError(f"trace field {key!r} is missing or not a {kind.__name__}")
        if isinstance(obj["stage"], bool) or obj["stage"] < 0:
            raise ValueError(f"trace field 'stage' is not a stage number: {obj['stage']!r}")
        if not isinstance(obj.get("simple", False), bool):
            raise ValueError(f"trace field 'simple' is not a bool: {obj['simple']!r}")
        action = re.fullmatch(r"(covered|extended)|restarted\((0|[1-9][0-9]*)\)", obj["action"])
        if action is None:
            raise ValueError(f"unknown trace action {obj['action']!r}")
        restarted_from = int(action[2]) if action[2] else None
        if restarted_from is not None and restarted_from >= obj["stage"]:
            raise ValueError(
                f"trace action {obj['action']!r} does not restart at an earlier stage "
                f"than {obj['stage']}"
            )
        example = parse_atom(obj["example"])
        if not example.term.ground:
            raise ValueError(f"example is not ground: {render_literal(example)}")
        record = cls(
            stage=obj["stage"],
            example=example,
            action=Action(action[1] or "restarted"),
            restarted_from=restarted_from,
            program=parse_program(obj["program"]),
        )
        if "simple" in obj and obj["simple"] is not record.simple:
            raise ValueError(f"trace field 'simple' contradicts its program: {obj['simple']!r}")
        return record


def trace_text(records: list[StageRecord]) -> str:
    """The trace file `learn --trace` writes: one JSON line per record."""
    return "\n".join(json.dumps(r.to_json_dict()) for r in records) + "\n"


def read_trace(text: str) -> list[StageRecord]:
    """Rebuild stage records from a trace file (canonical program text); a
    malformed line, or a stage that does not follow the one before it, is a
    ParseError naming its line number. Blank lines are skipped. The first
    stage may be above 0, as in a trace's tail."""
    records = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = StageRecord.from_json_dict(json.loads(line))
            if records and record.stage != records[-1].stage + 1:
                raise ValueError(f"stage {record.stage} does not follow stage {records[-1].stage}")
            records.append(record)
        except json.JSONDecodeError as exc:
            raise ParseError(f"trace line is not JSON: {exc.msg}", n, exc.colno) from exc
        except ValueError as exc:
            raise ParseError(str(exc), n, 1) from exc
    return records


def _keep_learned(clauses: frozenset[Clause]) -> set[Clause]:
    return {c for c in clauses if c.is_definite and c.range_restricted}


def _extend(current: HornProgram, e: Literal, cfg: LearnerConfig) -> HornProgram:
    """The shared uncovered-arrival step: saturate, generalize, retain the
    arrival as a fact if still needed, reduce. Every caller has already
    found e uncovered by `current`, so saturation does not ask again. The
    prioritized learner keeps each clause simple with one filter, _below:
    a saturation clause keeps e and the literals below e, and a definite
    lgg keeps its head and the literals below its head."""
    prioritized = cfg.system is System.PRIORITIZED_GOLEM
    sigma = saturate(current, e, cfg.policy, cfg.depth_bound)
    if prioritized:
        sigma = frozenset(_below(c, e) for c in sigma)
    rules = current.rules
    new = lgg_clause_sets(rules, sigma) if rules else sigma
    if rules and prioritized:
        new = frozenset(_below(c, c.head) if c.is_definite else c for c in new)
    kept = _keep_learned(new)

    candidate = current.with_clauses(kept)
    if not is_covered(candidate, e, cfg.depth_bound):
        candidate = candidate.with_clauses((fact(e),))
    return reduce_program(candidate, cfg.depth_bound)


def _below(c: Clause, h: Literal) -> Clause:
    """h and the literals of c that precede it (metric.priority_precedes),
    of either sign: the restriction that keeps a pgolem clause simple."""
    return Clause(l for l in c.literals if l is h or priority_precedes(l, h))


def golem_step(run: _Run, e: Literal) -> tuple[HornProgram, Action, None]:
    """One golem stage: e, the run's last arrival, against the program before it."""
    current, cfg = run.snapshot(len(run.records)), run.cfg
    if not is_covered(current, e, cfg.depth_bound):
        return _extend(current, e, cfg), Action.EXTENDED, None
    # Forgetful fact rotation: a covered arrival replaces every other
    # retained fact it is priority-below, equal priority included.
    swap_out = [f for f in current.facts if f.head != e and priority_precedes(e, f.head)]
    if swap_out:
        rotated = current.without_clauses(swap_out).with_clauses((fact(e),))
        current = reduce_program(rotated, cfg.depth_bound)
    return current, Action.COVERED, None


def pgolem_step(run: _Run, e: Literal) -> tuple[HornProgram, Action, int | None]:
    """The prioritized stage, with golem_step's arguments."""
    current = run.snapshot(len(run.records))
    if is_covered(current, e, run.cfg.depth_bound):
        return current, Action.COVERED, None
    run.relate()
    j = run.restart_stage()
    if j is None:
        return _extend(current, e, run.cfg), Action.EXTENDED, None
    return run.replay(j), Action.RESTARTED, j


class _Run:
    """One run of either learner under one config: its arrivals and its
    stage records, and everything a pgolem stage reads, each piece computed
    once.

    `records[i]` is stage i's record, so the program before stage j is
    `snapshot(j)`, the config's background for j = 0. `later[i]` lists the
    arrivals that arrival i strictly precedes, and `latest[i]` is the latest
    arrival that strictly precedes arrival i (-1 if none), both as arrival
    indices. They cover the arrivals up to the last uncovered one: each
    ordered pair is tested once, when an uncovered arrival first needs it.
    `steps` maps (program, arrival) to the program after that replay step,
    covered or extended; both are deterministic, so a replay that reaches a
    step again reads it instead. golem reads none of the three.
    """

    def __init__(self, cfg: LearnerConfig) -> None:
        self.cfg = cfg
        self.arrivals: list[Literal] = []
        self.records: list[StageRecord] = []
        self.later: list[list[int]] = []
        self.latest: list[int] = []
        self.steps: dict[tuple[HornProgram, Literal], HornProgram] = {}

    def snapshot(self, j: int) -> HornProgram:
        """The program before stage j."""
        return self.records[j - 1].program if j else self.cfg.background

    def step(self, e: Literal) -> StageRecord:
        """Fold one arrival; its record is the run's next."""
        self.arrivals.append(e)
        stage = golem_step if self.cfg.system is System.GOLEM else pgolem_step
        program, action, restarted_from = stage(self, e)
        record = StageRecord(len(self.records), e, action, restarted_from, program)
        self.records.append(record)
        return record

    def relate(self) -> None:
        """Extend the relation to every arrival so far."""
        arrivals, later, latest = self.arrivals, self.later, self.latest
        for k in range(len(later), len(arrivals)):
            b = arrivals[k]
            later.append([])
            latest.append(-1)
            for i in range(k):
                a = arrivals[i]
                if strictly_precedes(a, b):
                    later[i].append(k)
                    latest[k] = i
                elif strictly_precedes(b, a):
                    later[k].append(i)
                    latest[i] = k

    def restart_stage(self) -> int | None:
        """Least stage whose arrival the replay must reprocess for the last
        arrival e.

        The trigger is e strictly preceding some earlier arrival; the stage is
        then closed transitively, because the replay set may itself precede
        arrivals retained before the trigger stage (a restart must never
        freeze background content that something pending has priority over,
        or the result depends on arrival order). One backward scan finds the
        closure, because the pending set arrivals[j:] only grows as j falls:
        arrival i joins it when its latest predecessor is already pending.
        """
        n = j = len(self.arrivals) - 1
        for i in range(n - 1, -1, -1):
            if self.latest[i] >= j:
                j = i
        return j if j < n else None

    def priority_sorted(self, j: int) -> list[Literal]:
        """arrivals[j:] in ascending priority (topological over the
        pre-order), ties broken by arrival order; a duplicate keeps its
        first arrival only. Kahn's sort on the stored strict-precedence
        edges, with the ready arrivals in a min-heap on arrival index, so
        each step takes the earliest arrival that nothing remaining strictly
        precedes."""
        arrivals, later = self.arrivals, self.later
        first: dict[Literal, int] = {}
        for k in range(j, len(arrivals)):
            first.setdefault(arrivals[k], k)
        blockers = dict.fromkeys(first.values(), 0)
        for i in blockers:
            for k in later[i]:
                if k in blockers:
                    blockers[k] += 1
        ready = [k for k, n in blockers.items() if not n]
        ordered = []
        while ready:
            i = heappop(ready)
            ordered.append(arrivals[i])
            for k in later[i]:
                if k in blockers:
                    blockers[k] -= 1
                    if not blockers[k]:
                        heappush(ready, k)
        return ordered

    def replay(self, j: int) -> HornProgram:
        """Rerun prioritized learning from the snapshot before stage j over
        arrivals[j:] in ascending priority order; sorted input never
        restarts again."""
        program, cfg = self.snapshot(j), self.cfg
        for a in self.priority_sorted(j):
            key = (program, a)
            after = self.steps.get(key)
            if after is None:
                covered = is_covered(program, a, cfg.depth_bound)
                after = self.steps[key] = program if covered else _extend(program, a, cfg)
            program = after
        return program


def run_stream(stream: ExampleStream, cfg: LearnerConfig) -> list[StageRecord]:
    """Fold the configured learner over the arrivals, starting from the
    config's background, one record per stage."""
    if not len(stream):
        raise ValueError("example stream is empty")
    deepest = stream.max_depth()
    if cfg.depth_bound < deepest:
        raise ValueError(
            f"depth bound {cfg.depth_bound} is below the deepest stream example ({deepest})"
        )
    run = _Run(cfg)
    for e in stream:
        run.step(e)
    return run.records


def config_for_stream(
    stream: ExampleStream,
    system: System,
    policy: SaturationPolicy = SaturationPolicy.PAPER_TRACE,
    depth_bound: int | None = None,
    background: Iterable[Clause] = (),
) -> LearnerConfig:
    """The config that runs the stream from the background. The default
    depth bound counts that background, which the config holds, so the
    bound and the program the run starts from always agree and no
    background clause falls outside the bounded base."""
    background = HornProgram(background)
    if depth_bound is None:
        depth_bound = default_depth_bound(stream.max_depth(), background)
    return LearnerConfig(depth_bound, system, policy, background)
