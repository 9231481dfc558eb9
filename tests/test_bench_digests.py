"""A tier-1 sample of the benchmark's output check: the learners must still
write the traces recorded in perfbench/expected.json.

perfbench is imported read-only, as the benchmark itself runs it: both golem
streams and the first pool entry of 8 evenly spaced pgolem strata are folded
and passed through `workloads.check` (trace digest plus paper property).
Two of them are folded again with the bounded-model slot emptied before
every query, which must change neither the trace nor the report. The
tracer's hooks are run once, in a fresh process, against the names it wraps,
and the worker once per workload, as the benchmark starts it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hornlearn import config_for_stream, convergence_report, default_window, run_stream, semantics

from conftest import count_model_builds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

EXPECTED = json.loads(wl.EXPECTED_PATH.read_text(encoding="utf-8"))
SAMPLED_STRATA = 8


def sampled_orders() -> list:
    out = []
    for name in ("golem-ascending", "golem-descending"):
        (order,) = wl.unit_orders(wl.WORKLOADS[name], EXPECTED, 0)
        out.append(pytest.param(name, order, id=name))
    w = wl.WORKLOADS["pgolem-shuffled"]
    pool = EXPECTED[w.name]["pool"]
    size = len(pool) // w.streams
    for stratum in range(0, w.streams, w.streams // SAMPLED_STRATA):
        perm = pool[stratum * size][0]
        order = [int(k) for k in perm.split()]
        out.append(pytest.param(w.name, order, id=f"{w.name}-stratum{stratum}"))
    return out


def fold(name: str, order: list[int]):
    w = wl.WORKLOADS[name]
    stream = wl.build_stream(order)
    cfg = config_for_stream(stream, w.system)
    records = run_stream(stream, cfg)
    report = convergence_report(
        records, frozenset(stream), default_window(len(records)), cfg.depth_bound
    )
    return w, stream, cfg, records, report


@pytest.mark.parametrize("name,order", sampled_orders())
def test_trace_matches_recorded_digest(name, order):
    w, stream, cfg, records, report = fold(name, order)
    assert wl.check(w, EXPECTED, order, stream, records, report, cfg.depth_bound) is None


@pytest.mark.parametrize(
    "name,order",
    [p for p in sampled_orders() if p.id in ("golem-ascending", "pgolem-shuffled-stratum0")],
)
def test_model_memo_changes_no_trace_or_report(monkeypatch, name, order):
    # The slot holds one model: a 64-entry memo raised peak memory on the
    # benchmark by about 10% on golem-descending.
    counts = count_model_builds(monkeypatch)
    least_model = semantics._least_model
    held = []

    def remembered(*args):
        entry = least_model(*args)
        entries = [v for v in vars(semantics).values() if isinstance(v, semantics._Entry)]
        held.append(entries == [entry])
        return entry

    def cleared(*args):
        semantics._slot = None
        return least_model(*args)

    def traced_fold():
        _, _, _, records, report = fold(name, order)
        return wl.trace_digest(records), report.to_json()

    semantics._slot = None
    monkeypatch.setattr(semantics, "_least_model", remembered)
    with_slot = traced_fold()
    queries = sum(counts.values())
    assert counts["hit"] > 0 and counts["warm"] > 0 and held and all(held), (counts, held)
    counts.clear()
    monkeypatch.setattr(semantics, "_least_model", cleared)
    assert traced_fold() == with_slot
    assert counts == {"cold": queries}, (counts, queries)
    semantics._slot = None


# Both learners on a 10-stage even stream, then one coverage query of a set,
# under the benchmark's tracer; the last line is the model-call count.
TRACED_RUN = """
import json
import layers
tracer = layers.install()
import hornlearn as hl
from hornlearn.cases import even_ascending_stream
stream = even_ascending_stream(10)
records = []
for system in hl.System:
    cfg = hl.config_for_stream(stream, system)
    records.append(hl.run_stream(stream, cfg))
    hl.convergence_report(records[-1], frozenset(stream), hl.default_window(10), cfg.depth_bound)
hl.covers(records[-1][-1].program, set(stream), cfg.depth_bound)
tracer.suspended = True
print(json.dumps(layers.summarize(tracer, records)["semantics.model_calls"]))
"""

# The spans the tracer names but does not find in hornlearn today.
UNTRACED = {"generalize.reduce_program", "limits.window_limits", "logic.depth", "semantics.tp_step"}


def test_the_benchmark_tracer_finds_what_it_wraps():
    # A function it wraps renamed or moved is reported as missing, and an
    # argument its hooks cannot hash raises; either would leave a per-layer
    # metric reading 0 on working code.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) > 0
    missing = set()
    for line in run.stderr.splitlines():
        if line.startswith("perfbench: not traced (missing): "):
            missing |= set(line.split(": ", 2)[2].split(", "))
    assert missing <= UNTRACED, missing


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_the_benchmark_worker_folds_its_unit(workload):
    # The worker as perfbench/run.py starts it: a fresh process with the
    # hash seed pinned and the checkout's src/ on the path, one JSON job as
    # its argument. A library call it makes that no longer fits (a renamed
    # function, a changed signature) ends it with a traceback here.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    job = {"workload": workload, "seed": 0, "trace": 0, "spans": None}
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), json.dumps(job)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    streams = json.loads(run.stdout.splitlines()[-1])["streams"]
    assert streams and [s["error"] for s in streams] == [None] * len(streams), streams
