"""One fresh benchmark process: set up, fold the workload's unit, check it.

run.py starts it with PYTHONHASHSEED pinned and PYTHONPATH set to the
checkout's src/, passing a JSON job as the only argument:

    {"workload": ..., "seed": ..., "trace": 0|1, "spans": path|null}

It prints one JSON line: set-up seconds, per-stream learn/analyze seconds and
check results, peak RSS, and, when traced, the per-layer metrics. Every timed
step is bracketed by a pace probe (`pace_s`), which run.py uses to scale the
step's time to a fixed machine speed.
"""

import json
import resource
import sys
import time
from pathlib import Path

PACE_ROUNDS = 40_000


def pace_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current pace.

    The loop builds, hashes and stores nested tuples, the kind of work
    hornlearn's terms do, and touches nothing of hornlearn.
    """
    t = time.perf_counter()
    seen = set()
    term = ()
    for i in range(PACE_ROUNDS):
        term = ("s", term) if i & 7 else ()
        seen.add((term, i & 63))
    return time.perf_counter() - t


def main() -> None:
    job = json.loads(sys.argv[1])
    expected = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))

    pace_s()  # the first probe of a process runs cold
    paces = [pace_s()]
    # Set-up as a user pays it: import, stream construction, configuration.
    t0 = time.perf_counter()
    import hornlearn as hl

    import workloads as wl

    w = wl.WORKLOADS[job["workload"]]
    orders = wl.unit_orders(w, expected, job["seed"])
    streams = [wl.build_stream(order) for order in orders]
    configs = [hl.config_for_stream(stream, w.system) for stream in streams]
    setup_s = time.perf_counter() - t0
    paces.append(pace_s())

    src = str(Path(__file__).resolve().parent.parent / "src")
    if not hl.__file__.startswith(src):
        sys.exit(f"hornlearn imported from {hl.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        import layers

        tracer = layers.install()

    def call(name, fn, *args):
        return tracer.span(name, fn, *args) if tracer else fn(*args)

    # paces[i] and paces[i + 1] bracket timed step i: set-up, then learn and
    # analyze for each stream.
    folded = []
    for stream, cfg in zip(streams, configs):
        t1 = time.perf_counter()
        records = call("learn", hl.run_stream, stream, cfg)
        learn_s = time.perf_counter() - t1
        paces.append(pace_s())
        window = hl.default_window(len(records))
        t2 = time.perf_counter()
        report = call(
            "analyze", hl.convergence_report, records, frozenset(stream), window, cfg.depth_bound
        )
        analyze_s = time.perf_counter() - t2
        paces.append(pace_s())
        folded.append((records, report, learn_s, analyze_s))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def pace(step: int) -> float:
        return (paces[step] + paces[step + 1]) / 2

    result = {"setup_s": setup_s, "setup_pace_s": pace(0), "peak_rss_mb": peak_rss_mb, "streams": []}
    if tracer:
        tracer.suspended = True
        result["layers"] = layers.summarize(tracer, [records for records, *_ in folded])
        if job["spans"]:
            layers.write_spans(tracer, job["spans"])
    for i, (order, stream, cfg, (records, report, learn_s, analyze_s)) in enumerate(
        zip(orders, streams, configs, folded)
    ):
        problem = wl.check(w, expected, order, stream, records, report, cfg.depth_bound)
        result["streams"].append(
            {
                "learn_s": learn_s,
                "learn_pace_s": pace(1 + 2 * i),
                "analyze_s": analyze_s,
                "analyze_pace_s": pace(2 + 2 * i),
                "error": problem,
            }
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
