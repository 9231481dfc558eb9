"""A tier-1 sample of the benchmark's output check: the learners must still
write the traces recorded in perfbench/expected.json.

perfbench is imported read-only, as the benchmark itself runs it: both golem
streams and the first pool entry of 8 evenly spaced pgolem strata are folded
and passed through `workloads.check` (trace digest plus paper property).
"""

import json
import sys
from pathlib import Path

import pytest

from hornlearn import config_for_stream, convergence_report, default_window, run_stream

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


@pytest.mark.parametrize("name,order", sampled_orders())
def test_trace_matches_recorded_digest(name, order):
    w = wl.WORKLOADS[name]
    stream = wl.build_stream(order)
    cfg = config_for_stream(stream, w.system)
    records = run_stream(stream, cfg)
    report = convergence_report(
        records, frozenset(stream), default_window(len(records)), cfg.depth_bound
    )
    assert wl.check(w, EXPECTED, order, stream, records, report, cfg.depth_bound) is None
