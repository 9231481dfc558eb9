"""Record the trace digests the benchmark checks against (expected.json).

Run from the repository root, only when a change to the learner alters its
traces on purpose:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record.py

It refuses to record a stream that fails its paper property.

The pgolem-shuffled pool is drawn once from a fixed generator seed. Each
entry is [shuffle, digest, T_P rounds of learning, clauses in the analysis
window]. The pool is stored in stratum order: split into halves by window
size, which sets analysis time, then each half sorted by T_P rounds, which
set learning time. The benchmark's --seed then picks one shuffle per stratum.
"""

from __future__ import annotations

import json
import operator
import random
import sys

import hornlearn as hl

import layers
import workloads as wl

POOL_SIZE = 256
POOL_SEED = "pgolem-shuffled pool"


def fold(tracer: layers.Tracer, w: wl.Workload, order: list[int]) -> tuple[str, int, int]:
    """The stream's trace digest, the T_P rounds its learning took, and the
    clauses in the window its analysis reads."""
    stream = wl.build_stream(order)
    cfg = hl.config_for_stream(stream, w.system)
    tracer.counts.clear()
    records = hl.run_stream(stream, cfg)
    rounds = tracer.counts["semantics.tp_rounds"]
    window = hl.default_window(len(records))
    report = hl.convergence_report(records, frozenset(stream), window, cfg.depth_bound)
    problem = wl.check_property(w, stream, records, report, cfg.depth_bound)
    if problem:
        sys.exit(f"{w.name} {order}: {problem}")
    window_clauses = sum(len(rec.program) for rec in records[-window:])
    return wl.trace_digest(records), rounds, window_clauses


def main() -> None:
    tracer = layers.install()
    expected = {}
    for name in ("golem-ascending", "golem-descending"):
        w = wl.WORKLOADS[name]
        (order,) = wl.unit_orders(w, {}, 0)
        expected[name] = {"stages": w.stages, "digest": fold(tracer, w, order)[0]}
    w = wl.WORKLOADS["pgolem-shuffled"]
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        order = rng.sample(range(w.stages), w.stages)
        pool.append([" ".join(map(str, order)), *fold(tracer, w, order)])
    pool.sort(key=lambda entry: (entry[3], entry[2], entry[0]))
    half = len(pool) // 2
    by_rounds = operator.itemgetter(2, 0)
    pool = sorted(pool[:half], key=by_rounds) + sorted(pool[half:], key=by_rounds)
    expected[w.name] = {"stages": w.stages, "pool": pool}
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
