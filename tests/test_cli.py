import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hornlearn import (
    StageRecord,
    System,
    config_for_stream,
    parse_example_stream,
    parse_program,
    read_trace,
    render_literal,
    render_program,
    run_stream,
    trace_text,
)
from hornlearn.cases import even_ascending_stream, even_reordered_stream
from hornlearn.cli import main

CHAIN_UP = "p(0).\np(s(s(X))) :- p(X).\n"
CHAIN_DOWN = "p(X) :- p(s(s(X))).\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_prints_exact_rational(capsys):
    code, out, _ = run(capsys, "distance", "s(0)", "s(s(0))")
    assert code == 0
    assert out.strip() == "1/2"


def test_distance_json_format(capsys):
    code, out, _ = run(capsys, "distance", "--format", "json", "s(s(0))", "s(s(s(0)))")
    assert code == 0
    assert json.loads(out) == {"distance": "1/3"}


def test_distance_zero_and_one(capsys):
    assert run(capsys, "distance", "0", "0")[1].strip() == "0"
    assert run(capsys, "distance", "s(0)", "0")[1].strip() == "1"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "hornlearn", "distance", "0", "0"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_lgg_subcommand(tmp_path, capsys):
    f = tmp_path / "pair.pl"
    f.write_text("p(s(s(0))) :- p(0).\np(s(s(s(s(0))))) :- p(s(s(0))).\n")
    code, out, _ = run(capsys, "lgg", str(f))
    assert code == 0
    assert out.strip() == "p(s(s(X0))) :- p(X0)."


@pytest.mark.parametrize("twins", [3, 9])
def test_lgg_of_a_clause_with_twin_body_literals_ends_in_seconds(tmp_path, twins):
    # The lgg of a clause with itself is the clause. Reducing it asks
    # theta-subsumption, whose search must match the one p literal before
    # it tries every assignment of the interchangeable q literals; in a
    # subprocess, so a search that does not end fails on the timeout.
    xs = [f"X{i}" for i in range(1, twins + 1)]
    clause = f"p({', '.join(xs)}) :- {', '.join(f'q({x})' for x in xs)}."
    f = tmp_path / "twins.pl"
    f.write_text(f"{clause}\n{clause}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "hornlearn", "lgg", str(f)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == render_program(parse_program(clause)) + "\n"


CYCLE_4 = "p(a) :- e(X1, X2), e(X2, X3), e(X3, X4), e(X4, X1)."
CYCLE_5 = "p(a) :- e(X1, X2), e(X2, X3), e(X3, X4), e(X4, X5), e(X5, X1)."
GRID = "p(a) :- e(X1, X2), e(X2, X3), e(X1, X4), e(X4, X3), e(X3, X5), e(X4, X6), e(X6, X5)."


@pytest.mark.parametrize(
    "first,second,want",
    [
        (CYCLE_5, CYCLE_5, render_program(parse_program(CYCLE_5))),
        (GRID, GRID, "p(a) :- e(X0, X1), e(X1, X2), e(X2, X3)."),
        (CYCLE_4, CYCLE_5, None),
    ],
    ids=["5-cycle", "grid", "4-with-5-cycle"],
)
def test_lgg_of_cyclic_bodies_ends_in_seconds(tmp_path, first, second, want):
    # Reducing these lggs asks theta-subsumption to match a cyclic body
    # onto itself; a search that places a literal sharing no variable with
    # those already matched backtracks through independent assignments for
    # minutes. In a subprocess, so a search that does not end fails on the
    # timeout.
    f = tmp_path / "cycles.pl"
    f.write_text(f"{first}\n{second}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "hornlearn", "lgg", str(f)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 0, done.stderr
    if want is not None:
        assert done.stdout == want + "\n"


def test_lgg_requires_exactly_two_clauses(tmp_path, capsys):
    f = tmp_path / "one.pl"
    f.write_text("p(0).\n")
    code, _, err = run(capsys, "lgg", str(f))
    assert code == 2
    assert err == "error: expected exactly two clauses, found 1\n"


def test_lgg_json_format(tmp_path, capsys):
    f = tmp_path / "pair.pl"
    f.write_text("p(s(s(0))) :- p(0).\np(s(s(s(s(0))))) :- p(s(s(0))).\n")
    code, out, _ = run(capsys, "lgg", "--format", "json", str(f))
    assert code == 0
    assert out == '{"lgg": "p(s(s(X0))) :- p(X0)."}\n'


def test_rlgg_fact_background(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("p(0).\n")
    code, out, _ = run(capsys, "rlgg", "--background", str(bg), "--example", "p(s(s(0)))")
    assert code == 0
    assert out.strip() == "p(s(s(0))) :- p(0)."


def test_rlgg_rule_background_two_clauses(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("p(0).\np(s(s(0))) :- p(0).\n")
    code, out, _ = run(capsys, "rlgg", "--background", str(bg), "--example", "p(s(s(s(s(0)))))")
    assert code == 0
    assert out.splitlines() == [
        "p(0) ; p(s(s(s(s(0))))).",
        "p(s(s(s(s(0))))) :- p(s(s(0))).",
    ]


def test_rlgg_covered_example_is_reported_not_failed(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("p(0).\n")
    code, out, _ = run(capsys, "rlgg", "--background", str(bg), "--example", "p(0)")
    assert code == 0
    assert "already covered" in out


def test_rlgg_covered_example_json_is_json(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("p(0).\n")
    code, out, _ = run(
        capsys, "rlgg", "--background", str(bg), "--example", "p(0)", "--depth", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"clauses": [], "covered": True, "depthBound": 5}


def test_rlgg_ground_policy_grounds_the_background_over_the_example(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("r(Y).\nq(X) :- r(X).\n")
    code, out, err = run(
        capsys, "rlgg", "--background", str(bg), "--example", "p(a)", "--policy", "ground"
    )
    assert code == 0 and not err
    assert out.strip() == "p(a) :- q(a), r(a)."


def test_model_case_1(tmp_path, capsys):
    f = tmp_path / "chain.pl"
    f.write_text(CHAIN_UP)
    code, out, _ = run(capsys, "model", "--program", str(f), "--depth", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("%")]
    assert lines == ["p(0).", "p(s(s(0))).", "p(s(s(s(s(0))))).", "p(s(s(s(s(s(s(0)))))))."]


def test_model_case_2_empty(tmp_path, capsys):
    f = tmp_path / "down.pl"
    f.write_text(CHAIN_DOWN)
    code, out, _ = run(capsys, "model", "--program", str(f), "--depth", "8")
    assert code == 0
    assert "0 atom(s)" in out


def test_model_json_format(tmp_path, capsys):
    f = tmp_path / "up.pl"
    f.write_text(CHAIN_UP)
    code, out, _ = run(capsys, "model", "--program", str(f), "--depth", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "depthBound": 7,
        "truncated": 1,
        "atoms": ["p(0)", "p(s(s(0)))", "p(s(s(s(s(0)))))", "p(s(s(s(s(s(s(0)))))))"],
    }


# The argv of each case of the --format subcommands, and the text of the
# file that "{file}" names in it.
FORMAT_CASES = {
    "distance": (["distance", "s(s(0))", "f(s(0), a)"], None),
    "lgg": (["lgg", "{file}"], "p(s(s(0))) :- p(0).\np(s(s(s(s(0))))) :- p(s(s(0))).\n"),
    "lgg-empty": (["lgg", "{file}"], "p(a).\nq(b).\n"),
    "rlgg-covered": (["rlgg", "--background", "{file}", "--example", "p(0)"], "p(0).\n"),
    "rlgg-saturation": (
        ["rlgg", "--background", "{file}", "--example", "p(s(s(s(s(0)))))"],
        "p(0).\np(s(s(0))) :- p(0).\n",
    ),
    "model": (["model", "--program", "{file}", "--depth", "7"], CHAIN_UP),
    "model-empty": (["model", "--program", "{file}", "--depth", "8"], CHAIN_DOWN),
}


def text_lines_of(argv: list[str], doc: dict) -> list[str]:
    """The lines the text format prints, rebuilt from the JSON document (and,
    for a covered example, the example on the command line). Each key read
    is popped, so a key left over is one the text does not print."""
    command = argv[0]
    if command in ("distance", "lgg"):
        return [doc.pop(command)]
    if command == "rlgg":
        depth, clauses = doc.pop("depthBound"), doc.pop("clauses")
        if not doc.pop("covered", False):
            return clauses
        assert clauses == []
        example = argv[argv.index("--example") + 1]
        return [f"% example {example} is already covered at depth {depth}"]
    atoms = doc.pop("atoms")
    return [f"{a}." for a in atoms] + [
        f"% {len(atoms)} atom(s), depth bound {doc.pop('depthBound')}, "
        f"truncated: {doc.pop('truncated')}"
    ]


@pytest.mark.parametrize("case", list(FORMAT_CASES))
def test_json_format_carries_exactly_what_the_text_format_prints(tmp_path, capsys, case):
    argv, text = FORMAT_CASES[case]
    if text is not None:
        (tmp_path / "input.pl").write_text(text)
    argv = [a.format(file=tmp_path / "input.pl") for a in argv]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and not err and plain
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and not err
    doc = json.loads(out)
    assert plain == "".join(f"{line}\n" for line in text_lines_of(argv, doc))
    assert doc == {}


@pytest.mark.parametrize(
    "command", ["distance", "lgg", "rlgg", "model", "learn", "analyze", "reproduce"]
)
def test_every_subcommand_help_exits_0_and_lists_format_where_it_applies(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    assert out.startswith(f"usage: hornlearn {command} ")
    assert ("--format" in out) == (command in ("distance", "lgg", "rlgg", "model"))


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.pl"
    f.write_text("p(X) ; q(X).\n")
    code, _, err = run(capsys, "model", "--program", str(f), "--depth", "3")
    assert code == 3
    assert "disjunctive heads" in err


def assert_unreadable(capsys, path):
    # Every unreadable input ends alike: exit 3 and one line naming the path,
    # with no parse position.
    code, out, err = run(capsys, "model", "--program", str(path), "--depth", "3")
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err
    assert "line 0" not in err


def test_missing_file_exit_code(tmp_path, capsys):
    assert_unreadable(capsys, tmp_path / "none.pl")


def test_directory_and_non_utf8_input_exit_code(tmp_path, capsys):
    assert_unreadable(capsys, tmp_path)
    binary = tmp_path / "latin1.pl"
    binary.write_bytes(b"p(0).\n\xff\xfe.\n")
    assert_unreadable(capsys, binary)


def test_learn_then_analyze_pipeline(tmp_path, capsys):
    stream = tmp_path / "stream.pl"
    stream.write_text("p(0).\np(s(s(0))).\np(s(s(s(s(0))))).\np(s(s(s(s(s(s(0))))))).\n")
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"

    code, out, _ = run(
        capsys, "learn", "--system", "golem", "--examples", str(stream), "--trace", str(trace)
    )
    assert code == 0
    assert "p(s(s(X0))) :- p(X0)." in out
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert set(first) == {"stage", "example", "action", "program", "simple"}

    code, out, _ = run(
        capsys, "analyze", "--trace", str(trace), "--window", "2", "--report", str(report)
    )
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["verdict"] == "stable"
    assert obj["limitCorrect"] is True


def test_learn_with_background(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text(CHAIN_UP)
    stream = tmp_path / "stream.pl"
    stream.write_text("p(s(s(s(s(0))))).\n")
    code, out, _ = run(
        capsys, "learn", "--system", "pgolem", "--examples", str(stream), "--background", str(bg)
    )
    assert code == 0
    assert "p(s(s(X0))) :- p(X0)." in out


def test_learn_stage_budget_exceeded(tmp_path, capsys):
    stream = tmp_path / "stream.pl"
    stream.write_text("p(0).\np(s(s(0))).\np(s(s(s(s(0))))).\n")
    trace = tmp_path / "trace.jsonl"
    code, _, err = run(
        capsys,
        "learn", "--system", "golem", "--examples", str(stream),
        "--stages", "2", "--trace", str(trace),
    )
    assert code == 1
    assert err == "error: stage budget exhausted with 1 arrival(s) unprocessed\n"
    assert len(trace.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("stages", ["0", "-1"])
def test_learn_rejects_a_stage_budget_below_1(tmp_path, capsys, stages):
    stream = tmp_path / "stream.pl"
    stream.write_text("p(0).\np(s(s(0))).\np(s(s(s(s(0))))).\n")
    trace = tmp_path / "trace.jsonl"
    code, out, err = run(
        capsys,
        "learn", "--system", "golem", "--examples", str(stream),
        "--stages", stages, "--trace", str(trace),
    )
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not trace.exists()


def test_learn_budget_leaves_unread_an_arrival_deeper_than_the_depth(tmp_path, capsys):
    # p(s^6(0)) has depth 7: past --depth 5, but past the budget too.
    stream = tmp_path / "stream.pl"
    stream.write_text("p(0).\np(s(s(0))).\np(s(s(s(s(s(s(0))))))).\n")
    trace = tmp_path / "trace.jsonl"
    argv = ["learn", "--system", "golem", "--examples", str(stream), "--depth", "5"]
    code, _, err = run(capsys, *argv, "--stages", "2", "--trace", str(trace))
    assert code == 1
    assert err == "error: stage budget exhausted with 1 arrival(s) unprocessed\n"
    assert len(trace.read_text().strip().splitlines()) == 2
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "below the deepest stream example (7)" in err


def test_reproduce_all_cases(tmp_path, capsys):
    for case in ("example-3.1", "example-3.2", "case-1", "case-2", "pgolem-fix"):
        code, out, err = run(capsys, "reproduce", case, "--outdir", str(tmp_path / case))
        assert code == 0, f"{case}: {err}"
        assert out.strip() == f"PASS {case}"


def test_reproduce_writes_trace_and_report(tmp_path, capsys):
    outdir = tmp_path / "out"
    run(capsys, "reproduce", "example-3.2", "--outdir", str(outdir))
    assert (outdir / "example-3.2.trace.jsonl").exists()
    report = json.loads((outdir / "example-3.2.report.json").read_text())
    assert report["verdict"] == "convergent-modulo-transients"
    assert report["limitCorrect"] is False
    assert report["candidateLimit"] == "p(X0) :- p(s(s(X0)))."
    assert report["candidateModel"]["atoms"] == []


def test_analyze_clamps_default_window_to_short_traces(tmp_path, capsys):
    stream = tmp_path / "one.pl"
    stream.write_text("p(0).\n")
    trace = tmp_path / "one.jsonl"
    run(capsys, "learn", "--system", "golem", "--examples", str(stream), "--trace", str(trace))
    code, out, _ = run(capsys, "analyze", "--trace", str(trace))
    assert code == 0
    assert json.loads(out)["verdict"] == "stable"


def test_analyze_rejects_empty_trace(tmp_path, capsys):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    code, _, err = run(capsys, "analyze", "--trace", str(trace))
    assert code == 2
    assert err == "error: trace file holds no stages\n"


def test_identical_invocations_are_bit_identical(tmp_path, capsys):
    stream = tmp_path / "stream.pl"
    stream.write_text("p(s(s(s(s(0))))).\np(s(s(0))).\np(0).\n")
    outs = []
    for i in range(2):
        trace = tmp_path / f"t{i}.jsonl"
        run(capsys, "learn", "--system", "pgolem", "--examples", str(stream), "--trace", str(trace))
        outs.append(trace.read_bytes())
    assert outs[0] == outs[1]


def test_trace_codec_round_trips_and_matches_benchmark_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import trace_digest

    stream = even_reordered_stream(12)
    records = run_stream(stream, config_for_stream(stream, System.PRIORITIZED_GOLEM))
    assert "restarted(0)" in [rec.action_text() for rec in records]
    for rec in records:
        obj = rec.to_json_dict()
        assert StageRecord.from_json_dict(obj) == rec
        assert StageRecord.from_json_dict(json.loads(json.dumps(obj))).to_json_dict() == obj
    assert read_trace(trace_text(records)) == records
    # The benchmark hashes traces with its own writer; it must agree with the library's.
    assert hashlib.sha256(trace_text(records).encode("utf-8")).hexdigest() == trace_digest(records)

    examples = tmp_path / "stream.pl"
    examples.write_text("".join(f"{render_literal(a)}.\n" for a in stream))
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(
        capsys, "learn", "--system", "pgolem", "--examples", str(examples), "--trace", str(trace)
    )
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest(records)


def test_analyze_reports_the_model_coverage_was_read_from(tmp_path, capsys):
    # A limit with a variable-headed fact needs the examples' constants to
    # ground; its own signature has none.
    bg = tmp_path / "bg.pl"
    bg.write_text("r(Y).\n")
    stream = tmp_path / "stream.pl"
    stream.write_text("r(a).\nr(b).\n")
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(
        capsys, "learn", "--system", "golem", "--background", str(bg),
        "--examples", str(stream), "--trace", str(trace),
    )
    assert code == 0
    code, out, err = run(capsys, "analyze", "--trace", str(trace))
    assert code == 0, err
    obj = json.loads(out)
    assert obj["correctness"] == {"r(a)": True, "r(b)": True}
    assert obj["candidateModel"]["atoms"] == ["r(a)", "r(b)"]


def assert_one_line_parse_error(code, err, needle):
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("parse error: ")
    assert needle in err


@pytest.mark.parametrize(
    "line,needle",
    [
        ("not json", "not JSON: Expecting value (line 2, column 1)"),
        ("[1]", "trace record is not a JSON object (line 2, column 1)"),
        ('{"stage": 1, "example": "p(0)", "program": ""}',
         "'action' is missing or not a str (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "jumped", "program": ""}',
         "unknown trace action 'jumped' (line 2"),
        ('{"stage": 1, "example": "p(X)", "action": "covered", "program": ""}',
         "example is not ground: p(X) (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "covered", "program": "", "simple": "no"}',
         "trace field 'simple' is not a bool: 'no' (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "covered", "program": "", "simple": 3}',
         "trace field 'simple' is not a bool: 3 (line 2"),
        ('{"stage": true, "example": "p(0)", "action": "covered", "program": ""}',
         "trace field 'stage' is not a stage number: True (line 2"),
        ('{"stage": -1, "example": "p(0)", "action": "covered", "program": ""}',
         "trace field 'stage' is not a stage number: -1 (line 2"),
        ('{"stage": 7, "example": "p(0)", "action": "covered", "program": ""}',
         "stage 7 does not follow stage 0 (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "restarted(9)", "program": "p(0)."}',
         "trace action 'restarted(9)' does not restart at an earlier stage than 1 (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "restarted(01)", "program": "p(0)."}',
         "unknown trace action 'restarted(01)' (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "restarted(\\u0663)", "program": "p(0)."}',
         "unknown trace action 'restarted(\u0663)' (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "covered", '
         '"program": "p(X) :- p(s(s(X))).", "simple": true}',
         "trace field 'simple' contradicts its program: True (line 2"),
        ('{"stage": 1, "example": "p(0)", "action": "covered", "program": "p(0).", "simple": false}',
         "trace field 'simple' contradicts its program: False (line 2"),
    ],
    ids=[
        "not-json", "not-an-object", "missing-key", "unknown-action", "non-ground-example",
        "simple-not-bool", "simple-int", "stage-bool", "stage-negative", "stage-gap",
        "restart-not-earlier", "restart-leading-zero", "restart-non-ascii-digit",
        "simple-true-contradicts", "simple-false-contradicts",
    ],
)
def test_analyze_malformed_trace_line_is_a_parse_error(tmp_path, capsys, line, needle):
    trace = tmp_path / "trace.jsonl"
    good = '{"stage": 0, "example": "p(0)", "action": "extended", "program": "p(0)."}'
    trace.write_text(f"{good}\n{line}\n")
    code, _, err = run(capsys, "analyze", "--trace", str(trace))
    assert_one_line_parse_error(code, err, needle)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("model", "--program", "{program}", "--depth", "0"), "depth bound must be a positive"),
        (("analyze", "--trace", "{trace}", "--depth", "0"), "depth bound must be a positive"),
        (("rlgg", "--example", "p(0)", "--depth", "0"), "exceed depth bound 0"),
    ],
    ids=["model", "analyze", "rlgg"],
)
def test_depth_bound_below_one_is_a_usage_error(tmp_path, capsys, argv, needle):
    program = tmp_path / "p.pl"
    program.write_text("p(0).\n")
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"stage": 0, "example": "p(0)", "action": "extended", "program": "p(0)."}\n')
    argv = [a.format(program=program, trace=trace) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err


@pytest.mark.parametrize(
    "argv,target",
    [
        (("learn", "--system", "golem", "--examples", "{stream}", "--trace", "{target}"),
         "missing/t.jsonl"),
        (("analyze", "--trace", "{trace}", "--report", "{target}"), "missing/r.json"),
        (("reproduce", "case-1", "--outdir", "{target}"), "file/sub"),
    ],
    ids=["learn-trace", "analyze-report", "reproduce-outdir"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, target):
    stream = tmp_path / "stream.pl"
    stream.write_text("p(0).\n")
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"stage": 0, "example": "p(0)", "action": "extended", "program": "p(0)."}\n')
    (tmp_path / "file").write_text("")
    target = tmp_path / target
    code, out, err = run(capsys, *(a.format(stream=stream, trace=trace, target=target) for a in argv))
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {target}: ")


def test_deeply_nested_input_is_a_parse_error(tmp_path, capsys):
    deep = "s(" * 1500 + "0" + ")" * 1500
    code, _, err = run(capsys, "distance", deep, "0")
    assert_one_line_parse_error(code, err, "nested too deeply")
    program = tmp_path / "deep.pl"
    program.write_text(f"p({deep}).\n")
    code, _, err = run(capsys, "model", "--program", str(program), "--depth", "3")
    assert_one_line_parse_error(code, err, "nested too deeply")


@pytest.mark.parametrize("system", ["pgolem", "golem"])
def test_learn_and_analyze_the_200_stage_ascending_stream(tmp_path, capsys, system):
    # Its deepest examples nest past the 332 levels a recursive renderer
    # reaches under the default recursion limit.
    stream = tmp_path / "stream.pl"
    stream.write_text("".join(f"{render_literal(a)}.\n" for a in even_ascending_stream(200)))
    trace = tmp_path / "trace.jsonl"
    code, out, err = run(
        capsys, "learn", "--system", system, "--examples", str(stream), "--trace", str(trace)
    )
    assert code == 0, err
    assert out.splitlines()[1:] == ["p(0).", "p(s(s(X0))) :- p(X0)."]
    code, out, err = run(capsys, "analyze", "--trace", str(trace))
    assert code == 0, err
    report = json.loads(out)
    assert report["verdict"] == "stable"
    assert len(report["correctness"]) == 200 and all(report["correctness"].values())


def test_model_prints_a_400_deep_fact(tmp_path, capsys):
    fact = "p(" + "s(" * 400 + "0" + ")" * 400 + ")"
    program = tmp_path / "deep.pl"
    program.write_text(f"{fact}.\n")
    code, out, err = run(capsys, "model", "--program", str(program), "--depth", "401")
    assert code == 0, err
    assert out.splitlines() == [f"{fact}.", "% 1 atom(s), depth bound 401, truncated: 0"]


def test_rlgg_saturation_over_the_cap_is_a_usage_error(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("".join(f"q{i}(X) :- r{i}(X), t{i}(X).\n" for i in range(14)))
    code, out, err = run(capsys, "rlgg", "--background", str(bg), "--example", "p(0)")
    assert code == 2 and not out
    assert "--policy ground" in err


def learn_ground_policy_over_facts(tmp_path, capsys, n):
    """golem with the ground policy on the stream p(a). p(b). over the
    background q(c0). ... q(cN-1).: the lgg at stage 1 pairs N^2 + 1
    literals."""
    bg = tmp_path / "bg.pl"
    bg.write_text("".join(f"q(c{i}).\n" for i in range(n)))
    stream = tmp_path / "stream.pl"
    stream.write_text("p(a).\np(b).\n")
    return run(
        capsys, "learn", "--system", "golem", "--policy", "ground",
        "--background", str(bg), "--examples", str(stream),
    )


@pytest.mark.parametrize("n", [10, 20])
def test_learn_ground_policy_under_the_lgg_cap(tmp_path, capsys, n):
    code, out, err = learn_ground_policy_over_facts(tmp_path, capsys, n)
    assert code == 0, err
    qs = sorted(f"q(c{i})" for i in range(n))
    lines = ["% 2 stage(s), depth bound 5", f"p(a) :- {', '.join(qs)}.", "p(b)."]
    assert out == "\n".join(lines + [f"{q}." for q in qs]) + "\n"


def test_learn_ground_policy_over_the_lgg_cap_is_a_usage_error(tmp_path, capsys):
    code, out, err = learn_ground_policy_over_facts(tmp_path, capsys, 45)
    assert code == 2 and not out
    assert err == "error: lgg would pair 2026 literals of equal sign and predicate (cap 420)\n"


def test_learn_ground_policy_over_1000_facts_reaches_the_lgg_cap(tmp_path, capsys):
    # Stage 0 grounds a saturation clause with a 1,000-atom body, and stage
    # 1 pairs it with the only other one: neither may recurse per literal.
    code, out, err = learn_ground_policy_over_facts(tmp_path, capsys, 1000)
    assert code == 2 and not out
    assert err == "error: lgg would pair 1000001 literals of equal sign and predicate (cap 420)\n"


@pytest.mark.parametrize(
    "program,depth,needle",
    [
        ("q(X).\nr(f(0, 0)).\n", "6", "would hold 458330 terms at depth 6"),
        ("q(X, Y).\nr(f(0, 0)).\n", "5", "2 unbound head variables would have 677^2 instances"),
    ],
    ids=["universe", "head-instances"],
)
def test_model_over_the_universe_cap_is_a_usage_error(tmp_path, capsys, program, depth, needle):
    path = tmp_path / "wide.pl"
    path.write_text(program)
    code, out, err = run(capsys, "model", "--program", str(path), "--depth", depth)
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err and "lower the depth bound" in err


def test_learn_analyze_and_rlgg_default_bound_covers_the_background(tmp_path, capsys):
    bg = tmp_path / "bg.pl"
    bg.write_text("q(s(s(s(s(s(s(0))))))).\n")
    stream = tmp_path / "stream.pl"
    stream.write_text("p(0).\n")
    trace = tmp_path / "trace.jsonl"
    rule = "p(0) :- q(s(s(s(s(s(s(0)))))))."
    code, out, _ = run(
        capsys, "learn", "--system", "golem", "--examples", str(stream),
        "--background", str(bg), "--trace", str(trace),
    )
    assert code == 0
    assert out.splitlines()[0] == "% 1 stage(s), depth bound 11"
    assert rule in out.splitlines()
    code, out, _ = run(capsys, "analyze", "--trace", str(trace))
    assert code == 0
    report = json.loads(out)
    assert report["candidateModel"]["depthBound"] == 11
    assert report["correctness"] == {"p(0)": True}
    cfg = config_for_stream(
        parse_example_stream("p(0)."), System.GOLEM, background=parse_program(bg.read_text())
    )
    assert cfg.depth_bound == 11
    code, out, _ = run(
        capsys, "rlgg", "--background", str(bg), "--example", "p(0)", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"clauses": [rule], "depthBound": 11}
