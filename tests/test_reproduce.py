"""The reproduce contract: the exact bytes every built-in case writes and
prints, and the one FAIL line and exit code of a failing check. The digests
are the same under every PYTHONHASHSEED."""

from __future__ import annotations

import hashlib
import json

import pytest

from hornlearn import cli
from hornlearn.cli import main

PINNED = {
    "example-3.1": {
        "example-3.1.report.json": "ebc1140bbd9943e240b790e01c16753b8604deef717c51bbabcb6c67b8992e85",
        "example-3.1.trace.jsonl": "c1473fb585613f8a9e2bf28a8ec278e92558a010008dd9373722c54d4464877c",
    },
    "example-3.2": {
        "example-3.2.report.json": "e29615a09ccf65ebf3430bcf120401c194daa301e852e92e48271efeb829d5cc",
        "example-3.2.trace.jsonl": "13b03e9fa3f04a8c63c473dea186e0789422883bf6e0587b2e02bdb645d5eb52",
    },
    "case-1": {
        "case-1.model.txt": "d18085868d302927f1c651d46ed69e97863683cb2cc124b18d73e9850b58d172",
    },
    "case-2": {
        "case-2.model.txt": "e58496d5e2e68e2b224e23158016e7068f8881ea9262e86904c4a3df2e326628",
    },
    "pgolem-fix": {
        "pgolem-fix.ascending.report.json": "ebc1140bbd9943e240b790e01c16753b8604deef717c51bbabcb6c67b8992e85",
        "pgolem-fix.ascending.trace.jsonl": "c1473fb585613f8a9e2bf28a8ec278e92558a010008dd9373722c54d4464877c",
        "pgolem-fix.reordered.report.json": "28248d072e1a8352b5a58f2453026d3580e8aaffd62415f0360eec97bffd8eef",
        "pgolem-fix.reordered.trace.jsonl": "06fe5fb1d0520dd16cdedb7407d51eda18db00125a9a5998e32ba5bd73f2c420",
    },
}


def reproduce(capsys, case, outdir):
    code = main(["reproduce", case, "--outdir", str(outdir)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", sorted(PINNED))
def test_reproduce_outputs_are_pinned(tmp_path, capsys, case):
    code, out, err = reproduce(capsys, case, tmp_path)
    assert (code, out, err) == (0, f"PASS {case}\n", "")
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert written == PINNED[case]


def test_reproduce_reports_the_first_golden_difference(tmp_path, capsys, monkeypatch):
    real = cli._golden_text("example-3.1.trace.jsonl").splitlines()
    changed = dict(json.loads(real[3]), action="extended")
    golden = real[:3] + [json.dumps(changed)] + real[4:]
    monkeypatch.setattr(cli, "_golden_text", lambda name: "\n".join(golden) + "\n")
    code, out, err = reproduce(capsys, "example-3.1", tmp_path)
    assert code == 1 and out == ""
    assert err == (
        "FAIL example-3.1: first difference at stage 3:\n"
        f"  expected: {golden[3]}\n"
        f"  actual:   {real[3]}\n"
    )


def test_reproduce_reports_limits_that_differ_across_orderings(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "program_variant_equal", lambda p, q: False)
    code, out, err = reproduce(capsys, "pgolem-fix", tmp_path)
    assert (code, out, err) == (1, "", "FAIL pgolem-fix: limits differ across orderings\n")
