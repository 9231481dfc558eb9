"""A node's hash is its identity, so a set of nodes iterates in an order set
by where the allocator put them, not by PYTHONHASHSEED. Output must not
follow that order: every trace and report is rendered from sorted text.

Each fold runs in a fresh process under the default allocator and plain
`malloc`, at two hash seeds, and all four must write the same bytes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

FOLDS = r"""
import random
import sys

from conftest import SIG_BINARY, SIG_UNARY, random_simple_program, random_stream
from hornlearn import (
    HornProgram, System, config_for_stream, convergence_report, default_window, run_stream,
    trace_text,
)
from hornlearn.cases import even_ascending_stream, even_reordered_stream


def fold(stream, background=HornProgram()):
    for system in System:
        cfg = config_for_stream(stream, system, background=background)
        records = run_stream(stream, cfg)
        w = default_window(len(records))
        report = convergence_report(records, frozenset(stream), w, cfg.depth_bound)
        sys.stdout.write(trace_text(records) + report.to_json() + "\n")


fold(even_ascending_stream(12))
fold(even_reordered_stream(12))
for i in range(20):
    rng = random.Random(2025 + i)
    sig = (SIG_UNARY, SIG_BINARY)[i % 2]
    stream = random_stream(rng, sig, max_depth=4)
    background = HornProgram()
    if i % 4 >= 2:
        while not background or not background.range_restricted:
            background = random_simple_program(rng, sig, max_depth=3)
    fold(stream, background)
"""


def test_traces_and_reports_do_not_follow_node_set_order():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(root / "src"), str(root / "tests"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONMALLOC"}
    outs = {}
    for allocator in (None, "malloc"):
        for seed in ("0", "1"):
            run_env = {**env, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
            if allocator:
                run_env["PYTHONMALLOC"] = allocator
            done = subprocess.run(
                [sys.executable, "-c", FOLDS],
                env=run_env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outs[allocator, seed] = done.stdout
    first = outs[None, "0"]
    assert first.count('"verdict"') == 2 * 22
    assert all(out == first for out in outs.values())
