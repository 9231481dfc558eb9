"""hornlearn benchmark: fold even-number streams and time learning and analysis.

    python3 perfbench/run.py --workload golem-ascending --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It builds nothing and imports hornlearn
from the checkout's src/. Fresh worker processes (worker.py), one at a time,
each fold the workload's unit of streams until the time is up. Workers run
with PYTHONHASHSEED pinned, which makes the traced counts repeat exactly.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates traced and untraced workers and reports the per-layer metrics,
including the tracing overhead. `--workload all` runs every workload in
turn. The last line of stdout is the JSON result. The full record, with
provenance, goes to perfbench/results/. README.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170.0
# What the pace probe in worker.py takes, in seconds, on the machine speed
# the timings are scaled to: about its time on a 2 GHz Xeon core in the
# fast state described in run_workload.
PACE_REFERENCE_S = 0.0125


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": HASH_SEED,
    }


def run_worker(job: dict, deadline: float) -> dict:
    """Run one worker to completion; a crash or timeout is a failed unit."""
    env = {**os.environ, "PYTHONHASHSEED": HASH_SEED, "PYTHONPATH": str(SRC)}
    timeout = max(5.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {done.returncode}: {tail[0]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def unit_totals(worker: dict) -> tuple[float, float]:
    """Learn and analyze seconds summed over the worker's unit."""
    streams = worker["streams"]
    return sum(s["learn_s"] for s in streams), sum(s["analyze_s"] for s in streams)


def paced(seconds: float, pace_s: float) -> float:
    """Seconds scaled to the machine speed at which the pace probe takes
    PACE_REFERENCE_S."""
    return seconds * PACE_REFERENCE_S / pace_s


def paced_means(worker: dict) -> tuple[float, float]:
    """Paced learn and analyze seconds per stream of the worker's unit."""
    streams = worker["streams"]
    learn = statistics.fmean(paced(s["learn_s"], s["learn_pace_s"]) for s in streams)
    analyze = statistics.fmean(paced(s["analyze_s"], s["analyze_pace_s"]) for s in streams)
    return learn, analyze


def run_workload(name: str, seed: int, seconds: float, trace: bool, stem: str) -> dict:
    """Fold the workload's unit in fresh workers until `seconds` have passed,
    after one untimed warm-up worker."""
    hard_deadline = time.monotonic() + WORKER_TIMEOUT_S
    warmup = run_worker({"workload": name, "seed": seed, "trace": 0, "spans": None}, hard_deadline)
    workers = []
    start = time.monotonic()
    # --trace 1 needs at least one traced and one untraced worker.
    while len(workers) < 1 + trace or time.monotonic() - start < seconds:
        traced = trace and len(workers) % 2 == 0
        spans = str(RESULTS / f"{stem}.spans.jsonl") if traced and not workers else None
        out = run_worker({"workload": name, "seed": seed, "trace": int(traced), "spans": spans}, hard_deadline)
        out["trace"] = int(traced)
        workers.append(out)

    attempted = failed = 0
    errors = []
    for out in [warmup, *workers]:
        streams = out.get("streams")
        if streams is None:
            attempted += 1
            failed += 1
            errors.append(out["error"])
            continue
        attempted += len(streams)
        bad = [s["error"] for s in streams if s["error"]]
        failed += len(bad)
        errors.extend(bad)

    # A unit that fails its check is still timed; `failed` reports it.
    good = [w for w in workers if "streams" in w]
    plain = [w for w in good if not w["trace"]]
    traced_runs = [w for w in good if w["trace"]]
    info: dict = {"workers": len(workers), "untraced_workers": len(plain), "failed_frac": failed / attempted}
    metrics: dict[str, float] = {}
    if trace and traced_runs and plain:
        # Layer figures all come from the fastest traced worker, so that they
        # add up; its counts equal every other traced worker's.
        fastest = min(traced_runs, key=lambda w: w["layers"]["bench.learn_s"])
        layers = dict(fastest["layers"])
        layers["bench.untraced_learn_s"] = min(unit_totals(w)[0] for w in plain)
        layers["bench.trace_overhead_s"] = layers["bench.learn_s"] - layers["bench.untraced_learn_s"]
        counts = [k for k in layers if not k.endswith(("_s", "_ms", "_ratio"))]
        info["counts_repeat"] = all(w["layers"][k] == layers[k] for w in traced_runs for k in counts)
        metrics = layers
    elif not trace and plain:
        # On a shared VM the CPU switches between a fast state and one about
        # 1.5-2.7x slower, for seconds to minutes at a time, so raw times
        # mostly report the machine's state. Each timed step is therefore
        # scaled by the pace probe run around it (worker.py), and the run
        # reports the median over its workers.
        learn, analyze = zip(*(paced_means(w) for w in plain))
        metrics = {
            "learn_s": statistics.median(learn),
            "analyze_s": statistics.median(analyze),
            "setup_s": statistics.median(paced(w["setup_s"], w["setup_pace_s"]) for w in plain),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain),
        }
        raw = [unit_totals(w) for w in plain]
        for i, key in enumerate(("learn_s", "analyze_s")):
            per_stream = [r[i] / len(w["streams"]) for r, w in zip(raw, plain)]
            info[f"raw_{key}_min"] = min(per_stream)
            info[f"raw_{key}_median"] = statistics.median(per_stream)
        info["raw_setup_s_median"] = statistics.median(w["setup_s"] for w in plain)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": metrics,
        "info": info,
        "provenance": provenance(),
        "workers": [warmup, *workers],
    }


def main() -> int:
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hornlearn" / "__init__.py").is_file():
        print(f"perfbench: no hornlearn sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}

    chosen = workloads if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    total_attempted = total_failed = 0
    combined: dict[str, dict] = {}
    for name in chosen:
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        result = run_workload(name, args.seed, seconds, bool(args.trace), stem)
        result["metrics"] = {k: result["metrics"][k] for k in units if k in result["metrics"]}
        (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        total_attempted += result["attempted"]
        total_failed += result["failed"]
        for err in result["errors"]:
            print(f"{name}: FAILED {err}", file=sys.stderr)
        if set(result["metrics"]) != set(units):
            print(f"{name}: no complete measurement", file=sys.stderr)
            return 1
        prov = result["provenance"]
        print(f"{name}  seed {args.seed}  python {prov['python']}  nproc {prov['nproc']}  "
              f"PYTHONHASHSEED {prov['pythonhashseed']}  src {prov['src_py_lines']} lines  "
              f"git {prov['git_sha'][:12]}")
        for key, value in result["metrics"].items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {key:36s} {shown} {units[key]}")
        print(f"  {'failed_frac':36s} {result['info']['failed_frac']:.6g} share "
              f"({result['failed']}/{result['attempted']})  {json.dumps(result['info'])}")
        prefix = f"{name}/" if len(chosen) > 1 else ""
        for key, value in result["metrics"].items():
            combined[prefix + key] = {"value": value, "unit": units[key]}

    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
