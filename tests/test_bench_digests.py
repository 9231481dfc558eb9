"""A tier-1 sample of the benchmark's output check: the learners must still
write the traces recorded in perfbench/expected.json.

perfbench is imported read-only, as the benchmark itself runs it: both golem
streams and the first pool entry of 8 evenly spaced pgolem strata are folded
and passed through `workloads.check` (trace digest plus paper property).
Two of them are folded again with the bounded-model slot emptied before
every query, which must change neither the trace nor the report.
"""

import json
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
