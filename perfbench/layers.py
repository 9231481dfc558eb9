"""Per-layer tracing of hornlearn from outside the library.

`install` wraps the public functions of each hornlearn module in spans and
the hottest logic helpers in plain call counters. hornlearn modules import
functions by name (`is_covered` is bound in semantics, generalize and
learner), so every module-level alias of a wrapped function is rebound.
Spans stay in memory with their parent ids; `summarize` turns them into the
per-layer metrics and `write_spans` writes them out after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import hornlearn as hl
import hornlearn.logic as logic
import hornlearn.metric as metric

# (module, function) -> span name. The span name is the metric prefix.
SPANS = {
    ("learner", "golem_step"): "learner.step",
    ("learner", "pgolem_step"): "learner.step",
    ("semantics", "least_model_bounded"): "semantics.model",
    ("semantics", "is_covered"): "semantics.cover",
    ("generalize", "saturate"): "generalize.saturate",
    ("generalize", "lgg_clause_sets"): "generalize.lgg",
    ("generalize", "reduce_program"): "generalize.reduce",
    ("subsumption", "theta_subsumes"): "subsumption.theta",
    ("subsumption", "reduce_clause"): "subsumption.reduce_clause",
    ("metric", "priority_precedes"): "metric.precedes",
    ("metric", "clause_distance"): "metric.distance",
    ("syntax", "render_clause"): "syntax.render_clause",
    ("limits", "window_limits"): "limits.window",
}

HASHED_CLASSES = (logic.Var, logic.Fn, logic.Literal)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack = [0]
        self.next_id = 1
        self.counts: Counter[str] = Counter()
        self.suspended = False
        self.seen_models: set = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the learn/analyze roots too."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def note(self, hook, result, args, kwargs) -> None:
        """Run a bookkeeping hook without counting its own calls."""
        self.suspended = True
        try:
            hook(self, result, *args, **kwargs)
        finally:
            self.suspended = False


def _after_model(tr: Tracer, model, p, depth_bound, signature=None) -> None:
    tr.counts["semantics.model_atoms"] += len(model.atoms)
    key = (p, depth_bound, signature)
    if key in tr.seen_models:
        tr.counts["semantics.model_repeats"] += 1
    tr.seen_models.add(key)


def _after_cover(tr: Tracer, covered, p, e, depth_bound) -> None:
    tr.counts["semantics.cover_simple"] += metric.is_simple_program(p)


def _after_reduce(tr: Tracer, out, p, depth_bound) -> None:
    tr.counts["generalize.reduce_removed"] += len(p) - len(out)


def _after_theta(tr: Tracer, result, c, d) -> None:
    tr.counts["subsumption.theta_hits"] += bool(result[0])


def _after_window(tr: Tracer, result, snapshots, w) -> None:
    tr.counts["limits.window_clauses"] += len(result[1])


def _after_tp(tr: Tracer, out, p, atoms, *rest, **kwargs) -> None:
    tr.counts["semantics.tp_out_atoms"] += len(out)
    tr.counts["semantics.tp_new_atoms"] += len(out) - len(atoms)


AFTER = {
    "semantics.model": _after_model,
    "semantics.cover": _after_cover,
    "generalize.reduce": _after_reduce,
    "subsumption.theta": _after_theta,
    "limits.window": _after_window,
}

# (module, function) -> (counter, hook). Called up to 10^6 times per stream:
# counted, never timed, so that the wrapper cost stays a small share of the
# traced run.
COUNTERS = {
    ("logic", "subterms"): ("logic.subterms_calls", None),
    ("logic", "depth"): ("logic.depth_calls", None),
    ("semantics", "tp_step"): ("semantics.tp_rounds", _after_tp),
}


def _span_wrapper(tr: Tracer, name: str, fn):
    hook = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.suspended:
            return fn(*args, **kwargs)
        result = tr.span(name, fn, *args, **kwargs)
        if hook is not None:
            tr.note(hook, result, args, kwargs)
        return result

    return wrapper


def _count_wrapper(tr: Tracer, key: str, fn, hook=None):
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if not tr.suspended:
            counts[key] += 1
            if hook is not None:
                tr.note(hook, result, args, kwargs)
        return result

    return wrapper


def _rebind(original, replacement) -> int:
    """Point every hornlearn module-level alias of original at replacement."""
    rebound = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hornlearn" and not mod_name.startswith("hornlearn."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def install() -> Tracer:
    """Wrap hornlearn in place for the rest of the process."""
    tr = Tracer()
    wrappers = [(place, functools.partial(_span_wrapper, tr, name)) for place, name in SPANS.items()]
    wrappers += [
        (place, functools.partial(_count_wrapper, tr, key, hook=hook))
        for place, (key, hook) in COUNTERS.items()
    ]
    missing = []
    for (mod, fn_name), wrap in wrappers:
        fn = getattr(importlib.import_module(f"hornlearn.{mod}"), fn_name, None)
        if fn is None or not _rebind(fn, wrap(fn)):
            missing.append(f"{mod}.{fn_name}")
    for cls in HASHED_CLASSES:
        cls.__hash__ = _count_wrapper(tr, "logic.hash_calls", cls.__hash__)
    if missing:
        print(f"perfbench: not traced (missing): {', '.join(missing)}", file=sys.stderr)
    return tr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tr: Tracer, records: list[list[hl.StageRecord]]) -> dict[str, float]:
    """Per-layer metrics of everything traced so far, for one worker."""
    names = {sid: name for sid, _, name, _, _ in tr.spans}
    child_time: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, start, end in tr.spans:
        child_time[parent] += end - start
    calls: Counter[str] = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    step_ms = []
    reduce_models = 0
    for sid, parent, name, start, end in tr.spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_time[sid]
        if name == "learner.step":
            step_ms.append((end - start) * 1000)
        if name == "semantics.model" and names.get(parent) == "generalize.reduce":
            reduce_models += 1

    out: dict[str, float] = {}
    for name in sorted(set(SPANS.values())):
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_s"] = total[name]
        out[f"{name}_self_s"] = own[name]
    c = tr.counts
    out["learner.stage_p50_ms"] = statistics.median(step_ms) if step_ms else 0.0
    out["learner.stage_p90_ms"] = (
        statistics.quantiles(step_ms, n=10)[-1] if len(step_ms) > 1 else out["learner.stage_p50_ms"]
    )
    flat = [rec for recs in records for rec in recs]
    for action in ("covered", "extended", "restarted"):
        out[f"learner.{action}"] = sum(rec.action.value == action for rec in flat)
    out["learner.replayed"] = sum(
        rec.stage - rec.restarted_from + 1 for rec in flat if rec.restarted_from is not None
    )
    out["semantics.model_atoms"] = c["semantics.model_atoms"]
    out["semantics.model_repeat_ratio"] = _ratio(c["semantics.model_repeats"], calls["semantics.model"])
    out["semantics.tp_rounds"] = c["semantics.tp_rounds"]
    out["semantics.tp_new_ratio"] = _ratio(c["semantics.tp_new_atoms"], c["semantics.tp_out_atoms"])
    out["semantics.cover_simple_ratio"] = _ratio(c["semantics.cover_simple"], calls["semantics.cover"])
    out["generalize.reduce_removed"] = c["generalize.reduce_removed"]
    out["generalize.reduce_model_calls"] = reduce_models
    out["subsumption.theta_hit_ratio"] = _ratio(c["subsumption.theta_hits"], calls["subsumption.theta"])
    out["limits.window_clauses"] = c["limits.window_clauses"]
    for key in ("logic.subterms_calls", "logic.depth_calls", "logic.hash_calls"):
        out[key] = c[key]
    out["bench.learn_s"] = total["learn"]
    out["bench.analyze_s"] = total["analyze"]
    return out


def write_spans(tr: Tracer, path) -> None:
    """One JSON line per span: id, parent id (0 = none), name, start and
    duration in seconds from the first span."""
    origin = min((start for _, _, _, start, _ in tr.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as f:
        for sid, parent, name, start, end in tr.spans:
            f.write(json.dumps([sid, parent, name, round(start - origin, 9), round(end - start, 9)]) + "\n")
