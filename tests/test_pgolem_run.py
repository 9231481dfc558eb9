"""The run state of both learners against references that call none of
it: golem's, stage by stage from its definition on its own snapshot list,
and pgolem's, which re-tests precedence through the oracles on every
restart and replays every step; plus the work, lifetime and thread-safety
of the state itself."""

from __future__ import annotations

import gc
import json
import random
import sys
import threading
import weakref
from collections import Counter

import pytest

from hornlearn import (
    Action,
    ExampleStream,
    HornProgram,
    SaturationPolicy,
    StageRecord,
    System,
    config_for_stream,
    learner,
    run_stream,
    trace_text,
)
from hornlearn.cases import even_atom
from hornlearn.logic import Fn, fact

from conftest import SIG_BINARY, SIG_UNARY, random_atom, random_simple_clause, random_stream
from test_one_pass import oracle_priority_sorted, oracle_restart_stage


def subterm_set(atom) -> set:
    """Every subterm of the atom's arguments, collected by a plain walk."""
    out, todo = set(), list(atom.args)
    while todo:
        t = todo.pop()
        out.add(t)
        if isinstance(t, Fn):
            todo.extend(t.args)
    return out


def reference_golem(stream: ExampleStream, cfg) -> list[StageRecord]:
    """golem from its definition, on its own snapshot list: a covered arrival
    replaces every other retained ground fact whose subterms include all of
    its own (the forgetful rotation), and an uncovered one extends."""
    snapshots = [cfg.background]
    records: list[StageRecord] = []
    for stage, e in enumerate(stream):
        program = snapshots[-1]
        if learner.is_covered(program, e, cfg.depth_bound):
            action = Action.COVERED
            rotated = [
                c
                for c in program.clauses
                if c.is_fact and c.head != e and subterm_set(e) <= subterm_set(c.head)
            ]
            if rotated:
                program = learner.reduce_program(
                    program.without_clauses(rotated).with_clauses((fact(e),)), cfg.depth_bound
                )
        else:
            program, action = learner._extend(program, e, cfg), Action.EXTENDED
        snapshots.append(program)
        records.append(StageRecord(stage, e, action, None, program))
    return records


def reference_pgolem(stream: ExampleStream, cfg) -> list[StageRecord]:
    """pgolem with no stored relation and no step table: every restart asks
    the oracles for its stage and order, and the replay asks coverage and
    extends at every step."""
    records: list[StageRecord] = []
    for stage, e in enumerate(stream):
        current = records[-1].program if records else cfg.background
        restarted_from = None
        if learner.is_covered(current, e, cfg.depth_bound):
            program, action = current, Action.COVERED
        else:
            arrivals = [rec.example for rec in records]
            j = oracle_restart_stage(arrivals, e)
            if j is None:
                program, action = learner._extend(current, e, cfg), Action.EXTENDED
            else:
                program = records[j - 1].program if j else cfg.background
                for a in oracle_priority_sorted(arrivals[j:] + [e]):
                    if not learner.is_covered(program, a, cfg.depth_bound):
                        program = learner._extend(program, a, cfg)
                action, restarted_from = Action.RESTARTED, j
        records.append(StageRecord(stage, e, action, restarted_from, program))
    return records


def hand_stepped(stream: ExampleStream, cfg) -> list[StageRecord]:
    """One run state stepped by hand, one returned record per stage."""
    run = learner._Run(cfg)
    return [run.step(e) for e in stream]


def trace_bytes(fold, stream, cfg) -> bytes | tuple[type, str]:
    """The trace as `learn --trace` writes it, or the refusal it ends with."""
    try:
        records = fold(stream, cfg)
    except ValueError as exc:
        return type(exc), str(exc)
    return trace_text(records).encode("utf-8")


def random_background(rng: random.Random, sig, max_depth: int) -> HornProgram:
    """One or two ground facts, sometimes with a range-restricted simple rule."""
    clauses = [fact(random_atom(rng, sig, max_depth)) for _ in range(rng.randint(1, 2))]
    while rng.random() < 0.5:
        rule = random_simple_clause(rng, sig, max_depth, max_body=2)
        if not rule.is_unit and rule.range_restricted:
            clauses.append(rule)
            break
    return HornProgram(clauses)


def stream_pool(rng: random.Random):
    """Seeded streams, each once without and once with a background: random
    atoms, half of them with an earlier arrival sent again, and shuffled even
    numbers with one random atom, which restart, cover and restart again."""
    streams = []
    for sig, depth in ((SIG_UNARY, 5), (SIG_BINARY, 3)):
        for _ in range(40):
            arrivals = list(random_stream(rng, sig, depth, max_arrivals=9))
            if rng.random() < 0.5:
                arrivals.insert(rng.randint(1, len(arrivals)), rng.choice(arrivals))
            streams.append((arrivals, sig, depth))
    for _ in range(40):
        arrivals = [even_atom(2 * k) for k in range(rng.randint(4, 7))]
        arrivals.append(random_atom(rng, SIG_UNARY, 5))
        rng.shuffle(arrivals)
        streams.append((arrivals, SIG_UNARY, 5))
    for arrivals, sig, depth in streams:
        yield ExampleStream(arrivals), HornProgram()
        yield ExampleStream(arrivals), random_background(rng, sig, depth)


def test_golem_traces_equal_the_reference_learner(rng):
    rotated = 0
    for stream, background in stream_pool(rng):
        for policy in SaturationPolicy:
            cfg = config_for_stream(stream, System.GOLEM, policy, background=background.clauses)
            want = reference_golem(stream, cfg)
            got = trace_bytes(run_stream, stream, cfg)
            assert got == trace_text(want).encode("utf-8"), (list(stream), background, policy)
            before = [background] + [rec.program for rec in want]
            rotated += sum(
                rec.action is Action.COVERED and rec.program != program
                for rec, program in zip(want, before)
            )
    # Covered stages whose fact rotation changed the program (356 when
    # the floor was set).
    assert rotated > 300, rotated


def test_pgolem_traces_equal_the_reference_learner(rng, monkeypatch):
    work = Counter()

    def counted(name, fn):
        def call(*args):
            work[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(learner, "is_covered", counted("asked", learner.is_covered))
    monkeypatch.setattr(learner, "_extend", counted("asked", learner._extend))
    duplicates = covered_between_restarts = refused = 0
    for stream, background in stream_pool(rng):
        for policy in SaturationPolicy:
            cfg = config_for_stream(
                stream, System.PRIORITIZED_GOLEM, policy, background=background.clauses
            )
            before = work["asked"]
            want = trace_bytes(reference_pgolem, stream, cfg)
            reference_work, before = work["asked"] - before, work["asked"]
            got = trace_bytes(run_stream, stream, cfg)
            assert got == want, (list(stream), background, policy)
            work["saved"] += reference_work - (work["asked"] - before)
            refused += not isinstance(got, bytes)
            if isinstance(got, bytes):
                actions = [json.loads(line)["action"] for line in got.splitlines()]
                restarts = [i for i, a in enumerate(actions) if a.startswith("restarted")]
                if restarts:
                    covered_between_restarts += "covered" in actions[restarts[0] : restarts[-1]]
        duplicates += len(set(stream)) < len(stream)
    # The pool holds the cases the run state treats apart, and the step
    # table answers some replay steps that the reference computes again.
    assert duplicates > 60 and covered_between_restarts > 30, (duplicates, covered_between_restarts)
    assert not refused and work["saved"] > 200, (refused, work)


def test_strictly_precedes_is_asked_once_per_ordered_pair_of_arrivals(rng, monkeypatch):
    asked = Counter()
    original = learner.strictly_precedes

    def counted(a, b):
        asked[a, b] += 1
        return original(a, b)

    monkeypatch.setattr(learner, "strictly_precedes", counted)
    streams = [stream for stream, background in stream_pool(rng) if not background]
    streams.append(ExampleStream(even_atom(2 * k) for k in reversed(range(48))))
    # By hand as by run_stream: each stage reads the one run's relation.
    for fold in (run_stream, hand_stepped):
        restarted = 0
        for stream in streams:
            asked.clear()
            cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM)
            records = fold(stream, cfg)
            restarted += any(r.action is Action.RESTARTED for r in records)
            n = len(stream)
            occurrences = Counter(stream)
            assert sum(asked.values()) <= n * (n - 1), (fold, list(stream))
            pairs = {
                (a, b): occurrences[a] * (occurrences[b] - (a == b)) for a in stream for b in stream
            }
            assert all(count <= pairs[ab] for ab, count in asked.items()), (fold, list(stream))
        assert restarted > 20
        # Every pair of the descending stream is ordered, and each is tested once.
        assert sum(asked.values()) == 48 * 47


def test_stepping_pgolem_by_hand_gives_the_records_of_run_stream(rng):
    for stream, background in stream_pool(rng):
        cfg = config_for_stream(stream, System.PRIORITIZED_GOLEM, background=background.clauses)
        got = hand_stepped(stream, cfg)
        assert got == run_stream(stream, cfg), (list(stream), background)
        assert trace_bytes(hand_stepped, stream, cfg) == trace_bytes(run_stream, stream, cfg)


def test_each_run_stream_call_builds_one_run_that_dies_with_it(monkeypatch):
    built = []
    run_type = learner._Run

    def build(*args):
        run = run_type(*args)
        built.append((args, weakref.ref(run)))
        return run

    monkeypatch.setattr(learner, "_Run", build)
    stream = ExampleStream(even_atom(2 * k) for k in reversed(range(6)))
    background = HornProgram([fact(even_atom(20))])
    for system in System:
        built.clear()
        cfg = config_for_stream(stream, system, background=background.clauses)
        records = run_stream(stream, cfg)
        gc.collect()
        assert [args for args, _ in built] == [(cfg,)] and cfg.background is background, system
        assert built[0][1]() is None, system
        assert len(records) == len(stream)


def test_programs_built_in_a_replay_die_with_the_run(monkeypatch):
    built = []
    extend = learner._extend

    def remembered(*args):
        program = extend(*args)
        built.append(weakref.ref(program))
        return program

    monkeypatch.setattr(learner, "_extend", remembered)
    stream = ExampleStream(even_atom(2 * k) for k in reversed(range(8)))
    records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
    kept = {id(rec.program) for rec in records}
    gc.collect()
    replay_only = [ref for ref in built if ref() is None or id(ref()) not in kept]
    assert len(replay_only) > 10
    assert all(ref() is None for ref in replay_only)


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
def test_threads_folding_streams_get_their_single_thread_traces(system):
    rng = random.Random(2026)
    descending = ExampleStream(even_atom(2 * k) for k in reversed(range(8)))
    shuffled = [even_atom(2 * k) for k in range(8)]
    rng.shuffle(shuffled)
    streams = [descending, ExampleStream(shuffled)]
    streams += [random_stream(rng, SIG_UNARY, 5, max_arrivals=9) for _ in range(6)]

    def fold(stream):
        cfg = config_for_stream(stream, system)
        return trace_bytes(run_stream, stream, cfg)

    want = [fold(stream) for stream in streams]
    wrong = []

    def fold_all(seed: int) -> None:
        order = list(range(len(streams)))
        random.Random(seed).shuffle(order)
        for i in order:
            if fold(streams[i]) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fold_all, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
