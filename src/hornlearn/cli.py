"""
Command-line surface for batch runs.

Subcommands: distance, lgg, rlgg, model, learn, analyze, reproduce.
Each reproduce case is a list of named checks, run in order; the first
failing one is reported as "FAIL <case>: <label>".
Exit codes: 0 success, 1 assertion/golden failure, 2 usage error (also an
output file or directory that cannot be written), 3 input parse error (also
a malformed trace line or too deep nesting).
Identical invocations produce bit-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .cases import even_ascending_stream, even_reordered_stream
from .generalize import SaturationPolicy, lgg_clauses, saturate
from .learner import (
    StageRecord,
    System,
    config_for_stream,
    read_trace,
    run_stream,
    trace_text,
)
from .limits import LimitReport, Verdict, convergence_report, default_window
from .logic import ExampleStream, HornProgram, literal_depth
from .metric import priority_precedes, term_distance
from .semantics import default_depth_bound, is_covered, least_model_bounded
from .subsumption import program_variant_equal
from .syntax import (
    ParseError,
    parse_atom,
    parse_clauses,
    parse_example_stream,
    parse_program,
    parse_term,
    render_clause,
    render_literal,
    render_program,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

DEFAULT_MAX_STAGES = 200


class UnreadableInput(Exception):
    """An input file that cannot be read as UTF-8 text; the message names
    the path."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def _emit(args: argparse.Namespace, json_text: str, *lines: str) -> int:
    """The one printer of the --format subcommands: the JSON text under
    --format json, each text line otherwise."""
    for line in (json_text,) if args.format == "json" else lines:
        print(line)
    return EXIT_OK


def cmd_distance(args: argparse.Namespace) -> int:
    d = str(term_distance(parse_term(args.term1), parse_term(args.term2)))
    return _emit(args, json.dumps({"distance": d}), d)


def cmd_lgg(args: argparse.Namespace) -> int:
    clauses = parse_clauses(_read(args.file))
    if len(clauses) != 2:
        raise ValueError(f"expected exactly two clauses, found {len(clauses)}")
    g = lgg_clauses(clauses[0], clauses[1])
    out = render_clause(g) if g.literals else "% empty (no common literals)"
    return _emit(args, json.dumps({"lgg": out}), out)


def cmd_rlgg(args: argparse.Namespace) -> int:
    background = parse_program(_read(args.background)) if args.background else HornProgram()
    example = parse_atom(args.example)
    depth = args.depth
    if depth is None:
        depth = default_depth_bound(literal_depth(example), background)
    if is_covered(background, example, depth):
        return _emit(
            args, json.dumps({"clauses": [], "covered": True, "depthBound": depth}),
            f"% example {render_literal(example)} is already covered at depth {depth}",
        )
    clauses = saturate(background, example, SaturationPolicy(args.policy), depth)
    lines = sorted(render_clause(c) for c in clauses)
    return _emit(args, json.dumps({"clauses": lines, "depthBound": depth}), *lines)


def cmd_model(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    model = least_model_bounded(program, args.depth).to_json_dict()
    atoms = model["atoms"]
    return _emit(
        args, json.dumps(model, indent=2), *(f"{a}." for a in atoms),
        f"% {len(atoms)} atom(s), depth bound {model['depthBound']}, "
        f"truncated: {model['truncated']}",
    )


def cmd_learn(args: argparse.Namespace) -> int:
    if args.stages < 1:
        raise ValueError(f"stage budget must be at least 1, got {args.stages}")
    stream = parse_example_stream(_read(args.examples))
    background = parse_program(_read(args.background)) if args.background else HornProgram()
    # The bound comes from the whole file, so the budget changes no stage it admits.
    cfg = config_for_stream(
        stream, System(args.system), SaturationPolicy(args.policy), args.depth,
        background=background,
    )
    records = run_stream(ExampleStream(stream.arrivals[: args.stages]), cfg)
    if args.trace:
        Path(args.trace).write_text(trace_text(records), encoding="utf-8")
    remaining = len(stream) - len(records)
    if remaining:
        print(f"error: stage budget exhausted with {remaining} arrival(s) unprocessed",
              file=sys.stderr)
        return EXIT_ASSERTION
    final = records[-1]
    print(f"% {len(records)} stage(s), depth bound {cfg.depth_bound}")
    print(render_program(final.program))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    records = read_trace(_read(args.trace))
    if not records:
        raise ValueError("trace file holds no stages")
    text = _analyze(records, args.window, args.depth).to_json()
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def _analyze(records: list[StageRecord], window: int | None, depth: int | None) -> LimitReport:
    """The limit report over every streamed example. The window defaults
    to default_window; the bound to learn's rule, with the last program
    standing in for the background (the trace does not record it): the two
    bounds agree unless reduction dropped the deepest background clause."""
    streamed = frozenset(rec.example for rec in records)
    if window is None:
        window = default_window(len(records))
    if depth is None:
        depth = default_depth_bound(
            max(literal_depth(e) for e in streamed), records[-1].program
        )
    return convergence_report(records, streamed, window, depth)


# ---------------------------------------------------------------------------
# Reproduce: built-in cases checked against committed golden fixtures


def _golden_text(name: str) -> str:
    return resources.files("hornlearn").joinpath("golden", name).read_text(encoding="utf-8")


def _golden_check(text: str, golden_name: str) -> tuple[str, bool]:
    """(label, ok) for the trace text against the committed fixture, line by line."""
    golden_lines, actual_lines = _golden_text(golden_name).splitlines(), text.splitlines()
    if len(golden_lines) != len(actual_lines):
        return f"stage count differs: expected {len(golden_lines)}, got {len(actual_lines)}", False
    for i, (want, got) in enumerate(zip(golden_lines, actual_lines)):
        if want != got:
            return f"first difference at stage {i}:\n  expected: {want}\n  actual:   {got}", False
    return "trace matches the golden fixture", True


def _fold(outdir: Path, name: str, stream: ExampleStream, system: System,
          depth: int | None = None):
    """Run the learner over the stream and write <name>.trace.jsonl and
    <name>.report.json; returns the trace text, the records and the report."""
    cfg = config_for_stream(stream, system)
    records = run_stream(stream, cfg)
    text = trace_text(records)
    (outdir / f"{name}.trace.jsonl").write_text(text, encoding="utf-8")
    report = _analyze(records, None, depth or cfg.depth_bound)
    (outdir / f"{name}.report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return text, records, report


def _example_31(outdir: Path):
    text, _, report = _fold(outdir, "example-3.1", even_ascending_stream(11), System.GOLEM)
    yield _golden_check(text, "example-3.1.trace.jsonl")
    yield "verdict is stable", report.verdict is Verdict.STABLE
    yield "limit is the ascending chain program", render_program(
        report.candidate_limit
    ) == "p(0).\np(s(s(X0))) :- p(X0)."
    yield "limit covers every streamed example", report.limit_correct
    # Point values of the machinery this trace runs on.
    zero, s_zero = parse_term("0"), parse_term("s(0)")
    yield "distance of a term to itself is 0", term_distance(zero, zero) == 0
    yield "distance across root symbols is 1", str(term_distance(s_zero, zero)) == "1"
    e = parse_atom("p(0)")
    yield "priority pre-order is reflexive", priority_precedes(e, e)


def _example_32(outdir: Path):
    text, _, report = _fold(
        outdir, "example-3.2", even_reordered_stream(12), System.GOLEM, depth=14
    )
    yield _golden_check(text, "example-3.2.trace.jsonl")
    yield "verdict is convergent-modulo-transients", (
        report.verdict is Verdict.CONVERGENT_MODULO_TRANSIENTS
    )
    yield "limit is the bare descending rule", render_program(
        report.candidate_limit
    ) == "p(X0) :- p(s(s(X0)))."
    yield "candidate model is empty", not report.candidate_model.atoms
    # Limit-incorrectness is the expected golden outcome here.
    yield "no streamed example is covered", not any(report.correctness.values())


def _case_1(outdir: Path):
    model = least_model_bounded(parse_program("p(0).\np(s(s(X))) :- p(X)."), 7)
    atoms = sorted(render_literal(a) for a in model.atoms)
    expected = ["p(0)", "p(s(s(0)))", "p(s(s(s(s(0)))))", "p(s(s(s(s(s(s(0)))))))"]
    (outdir / "case-1.model.txt").write_text("\n".join(atoms) + "\n", encoding="utf-8")
    yield f"model mismatch: {atoms}", atoms == sorted(expected)


def _case_2(outdir: Path):
    program = parse_program("p(X) :- p(s(s(X))).")
    for depth in (4, 8, 12):
        yield f"model not empty at depth {depth}", not least_model_bounded(program, depth).atoms
    (outdir / "case-2.model.txt").write_text("% empty model at depths 4, 8, 12\n", encoding="utf-8")


def _pgolem_fix(outdir: Path):
    limits = []
    for order, stream in (
        ("ascending", even_ascending_stream(11)),
        ("reordered", even_reordered_stream(12)),
    ):
        _, records, report = _fold(
            outdir, f"pgolem-fix.{order}", stream, System.PRIORITIZED_GOLEM
        )
        yield f"non-simple snapshot on {order} order", all(rec.simple for rec in records)
        yield f"{order} order verdict {report.verdict.value}", report.verdict is Verdict.STABLE
        yield f"{order} order limit not correct", report.limit_correct
        limits.append(report.candidate_limit)
    yield "limits differ across orderings", program_variant_equal(*limits)


# Each case yields (label, ok) checks; the first failing one is reported.
REPRODUCE_CASES = {
    "example-3.1": _example_31,
    "example-3.2": _example_32,
    "case-1": _case_1,
    "case-2": _case_2,
    "pgolem-fix": _pgolem_fix,
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for label, ok in REPRODUCE_CASES[args.case](outdir):
        if not ok:
            print(f"FAIL {args.case}: {label}", file=sys.stderr)
            return EXIT_ASSERTION
    print(f"PASS {args.case}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornlearn",
        description="Incremental Horn-program learners with bounded-model "
        "semantics and limit analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="exact distance between two terms")
    p.add_argument("term1")
    p.add_argument("term2")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("lgg", help="least general generalization of the two clauses in a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_lgg)

    p = sub.add_parser("rlgg", help="saturate an example against background knowledge")
    p.add_argument("--background", help="program file (omit for an empty background)")
    p.add_argument("--example", required=True, help="ground atom, e.g. 'p(s(0))'")
    p.add_argument("--policy", choices=("paper", "ground"), default="paper")
    p.add_argument("--depth", type=int, default=None, help="depth bound (default: auto)")
    p.set_defaults(func=cmd_rlgg)

    p = sub.add_parser("model", help="bounded least model of a program")
    p.add_argument("--program", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("learn", help="run a learner over an example stream")
    p.add_argument("--system", choices=("golem", "pgolem"), required=True)
    p.add_argument("--examples", required=True, help="stream file, one ground atom per line")
    p.add_argument("--background", help="initial program file")
    p.add_argument("--stages", type=int, default=DEFAULT_MAX_STAGES)
    p.add_argument("--depth", type=int, default=None, help="depth bound (default: auto)")
    p.add_argument("--policy", choices=("paper", "ground"), default="paper")
    p.add_argument("--trace", help="write the per-stage trace as JSON lines")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("analyze", help="limit analysis of a learner trace")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--window", type=int, default=None, help="window size (default: max(4, stages/3), at most stages)"
    )
    p.add_argument("--depth", type=int, default=None, help="depth bound (default: auto)")
    p.add_argument("--report", help="write the report JSON to this file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="run a built-in case against its golden fixture")
    p.add_argument("case", choices=tuple(REPRODUCE_CASES))
    p.add_argument("--outdir", default="out", help="directory for trace and report files")
    p.set_defaults(func=cmd_reproduce)

    # Declared last, so each --help lists it after the other options.
    for name in ("distance", "lgg", "rlgg", "model"):
        sub.choices[name].add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnreadableInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:  # the term walks recurse once per nesting level
        print("parse error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # input reads are UnreadableInput already (_read)
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
