"""Statistics, trace analysis and result comparison for perfbench.

Pure functions over plain Python data, kept apart from run.py so the
self-tests (test_benchlib.py) exercise them without building anything.
"""

import json
import os
import statistics

SCHEMA = "adapex-perfbench-v1"

# Spans whose self time is training work outside the per-layer spans
# (loss, SGD step, augmentation, batch assembly).
TRAIN_SPANS = ("nn.train_base_plain", "nn.train_base_ee", "nn.retrain")

LAYER_KINDS = ("conv", "bn", "actquant", "pool", "linear")

# Gated end-to-end metrics that are deterministic model outputs for a seed
# on every workload (served accuracy, decision agreement, served share), so
# compare judges them seed by seed.
SIM_END_TO_END = ("quality_pct",)

# Per-layer metrics that are plain sums of one span name's durations.
SPAN_SUMS = {
    "data.make_synthetic_s": "data.make_synthetic",
    "model.build_s": "model.build",
    "analysis.lint_design_s": "analysis.lint_design",
    "nn.train_base_plain_s": "nn.train_base_plain",
    "nn.train_base_ee_s": "nn.train_base_ee",
    "nn.retrain_s": "nn.retrain",
    "pruning.prune_s": "pruning.prune",
    "hls.folding_s": "hls.folding",
    "finn.compile_s": "finn.compile",
    "finn.estimate_s": "finn.estimate",
    "nn.eval_s": "nn.eval",
}


def summarize(samples):
    """Median and quartiles of a list of samples.

    Quartiles follow statistics.quantiles(values, n=4) (the 'exclusive'
    method); a single sample is its own median and quartiles.
    """
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("no samples")
    med = statistics.median(values)
    if len(values) == 1:
        return {"median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def relative_spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    s = summarize(values)
    if s["median"] == 0:
        return 0.0 if s["q3"] == s["q1"] else float("inf")
    return (s["q3"] - s["q1"]) / abs(s["median"])


# ---------------------------------------------------------------- tracing


def load_chrome_trace(path):
    """Spans of a Chrome trace-event file as dicts: name, start, end (us),
    tid, id, parent."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        spans.append({
            "name": ev["name"],
            "start": float(ev["ts"]),
            "end": float(ev["ts"]) + float(ev["dur"]),
            "tid": ev.get("tid", 0),
            "id": args.get("id"),
            "parent": args.get("parent", -1),
        })
    return spans


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time (us) per span id: its duration minus the part of its
    interval that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None and s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        out[s["id"]] = (s["end"] - s["start"]) - covered_length(
            s["start"], s["end"], kids)
    return out


def flat_table(spans):
    """Rows (name, calls, total_s, self_s), largest self time first."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += (s["end"] - s["start"]) * 1e-6
        r[2] += selfs[s["id"]] * 1e-6
    table = [(name, r[0], r[1], r[2]) for name, r in rows.items()]
    table.sort(key=lambda row: (-row[3], row[0]))
    return table


def span_metrics(spans, workers):
    """Per-layer metrics derived from the spans of one traced run, with
    their units. A metric whose spans are absent is left out."""
    selfs = self_times(spans)
    dur = {}
    calls = {}
    for s in spans:
        dur.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e-6)
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def total(name):
        return sum(dur.get(name, []))

    m = {}
    for metric, name in SPAN_SUMS.items():
        if name in dur:
            m[metric] = (total(name), "s")
    for direction in ("fwd", "bwd"):
        for kind in LAYER_KINDS:
            name = "nn.%s.%s" % (direction, kind)
            if name in dur:
                m[name + "_s"] = (total(name), "s")
                m[name + "_calls"] = (float(calls[name]), "count")
    if any(name in dur for name in TRAIN_SPANS):
        m["nn.train_other_s"] = (sum(selfs[s["id"]] for s in spans
                                     if s["name"] in TRAIN_SPANS) * 1e-6, "s")
    sweep = total("gen.sweep")
    points = sorted(dur.get("gen.point", []))
    if sweep and points and "gen.replay" in dur:
        busy = sum(points)
        m["gen.serial_prefix_s"] = (total("gen.replay") - sweep, "s")
        m["pool.sweep_wall_s"] = (sweep, "s")
        m["pool.busy_s"] = (busy, "s")
        m["pool.utilization"] = (busy / (workers * sweep), "ratio")
        m["gen.point_wall_p50_s"] = (statistics.median(points), "s")
        m["gen.point_wall_max_s"] = (points[-1], "s")
    return m


def per_layer_report(wanted, metrics, live):
    """The per-layer metrics one traced run reports, as {name: (value,
    unit)}: the median of each measured metric, and 0 for a metric of a
    layer the workload bypasses. `wanted` is BENCHMARK.json's per_layer
    list, `metrics` the run's measured metrics (name -> dict with a
    median), `live` the names layers.json lists as live for the workload.
    Raises ValueError naming every live metric the run did not measure."""
    missing = [m["name"] for m in wanted
               if m["name"] in live and m["name"] not in metrics]
    if missing:
        raise ValueError("live per-layer metrics not measured: " +
                         ", ".join(missing))
    return {m["name"]: (metrics[m["name"]]["median"]
                        if m["name"] in metrics else 0.0, m["unit"])
            for m in wanted}


# ------------------------------------------------------------- comparison


def load_runs(paths):
    """Every run record in the given result files (or directories of
    them)."""
    runs = []
    for path in paths:
        files = [path]
        if os.path.isdir(path):
            files = sorted(os.path.join(path, f) for f in os.listdir(path)
                           if f.endswith(".json"))
        for f in files:
            with open(f) as fh:
                doc = json.load(fh)
            if doc.get("schema") != SCHEMA:
                continue
            runs.extend(doc["runs"])
    return runs


def run_values(runs, workload, metric):
    """(seed, value, failed) for each run of `workload` reporting
    `metric`, in file order."""
    out = []
    for r in runs:
        if r["workload"] != workload or metric not in r["metrics"]:
            continue
        out.append((r["seed"], r["metrics"][metric]["median"], r["failed"]))
    return out


def pairs(base, change):
    """Pairs runs by seed where both sides ran the same seeds, else by
    position."""
    base_by_seed = {}
    for seed, v, _ in base:
        base_by_seed.setdefault(seed, []).append(v)
    paired = []
    for seed, v, _ in change:
        if base_by_seed.get(seed):
            paired.append((base_by_seed[seed].pop(0), v))
    if len(paired) >= min(len(base), len(change)) and paired:
        return paired
    return [(b[1], c[1]) for b, c in zip(base, change)]


def verdict(base, change, bound, better, min_pairs=10):
    """Classifies one workload x metric.

    base, change: lists of (seed, value, failed) per run. Rules (the
    choosing-metrics guide, section 6.5 and section 8):
      - unresolved when either side's quartile spread exceeds the bound,
        unless every change run beats every base run (then improved);
      - worse when the change median is worse than the base median by more
        than `bound` (a share of the base median);
      - improved when the change wins at least nine tenths of >= min_pairs
        pairs, its median beats the base median by more than the base's own
        quartile spread, and no more operations failed than at the base;
      - unchanged otherwise.
    """
    if not base or not change:
        return "unresolved", "missing runs"
    sign = -1.0 if better == "lower" else 1.0
    b_vals = [v for _, v, _ in base]
    c_vals = [v for _, v, _ in change]
    b = summarize(b_vals)
    c = summarize(c_vals)

    def beats(x, y):
        return sign * (x - y) > 0

    fewer_failures = (sum(f for _, _, f in change) <=
                      sum(f for _, _, f in base))
    all_better = all(beats(x, y) for x in c_vals for y in b_vals)
    if max(relative_spread(b_vals), relative_spread(c_vals)) > bound:
        if all_better and fewer_failures:
            return "improved", "every change run beats every base run"
        return "unresolved", "run-to-run spread wider than the bound"
    base_med = b["median"]
    worse_by = (-sign * (c["median"] - base_med) / abs(base_med)
                if base_med else 0.0)
    if worse_by > bound:
        return "worse", "median worse by %.1f%% (bound %.1f%%)" % (
            100 * worse_by, 100 * bound)
    pr = pairs(base, change)
    wins = sum(1 for x, y in pr if beats(y, x))
    gap = sign * (c["median"] - base_med)
    if (len(pr) >= min_pairs and wins >= 0.9 * len(pr) and
            gap > b["q3"] - b["q1"] and fewer_failures):
        return "improved", "won %d/%d pairs" % (wins, len(pr))
    return "unchanged", "within bound (%d pairs, %d wins)" % (len(pr), wins)


def exact_verdict(base, change, bound, better):
    """Classifies a simulated metric, which repeats exactly per seed: runs
    are paired by seed and compared value for value."""
    by_seed = {seed: v for seed, v, _ in base}
    paired = [(by_seed[seed], v) for seed, v, _ in change if seed in by_seed]
    if not paired:
        return "unresolved", "no seed run on both sides"
    sign = -1.0 if better == "lower" else 1.0
    if all(b == c for b, c in paired):
        return "unchanged", "identical on %d seeds" % len(paired)
    rel = [sign * (c - b) / abs(b) if b else sign * (c - b) for b, c in paired]
    med = statistics.median(rel)
    if med < -bound:
        return "worse", "median per-seed change %.1f%% (bound %.1f%%)" % (
            100 * med, 100 * bound)
    wins = sum(1 for d in rel if d > 0)
    if wins >= 0.9 * len(rel) and med > 0:
        return "improved", "better on %d/%d seeds" % (wins, len(rel))
    return "unchanged", "median per-seed change %.2f%% on %d seeds" % (
        100 * med, len(rel))


def metric_specs(benchmark, layers):
    """Every (workload, metric) the comparison judges, each sample series
    once: each gated end-to-end metric on each workload with
    BENCHMARK.json's bound, then each named workload metric that no gated
    metric covers, with its bound from layers.json. A named metric with
    `alias_of` is the same series as (or a transform of) a gated metric and
    is judged only under that metric's name."""
    specs = []
    for w in benchmark["workloads"]:
        for m in benchmark["end_to_end"]:
            kind = "sim" if m["name"] in SIM_END_TO_END else "host"
            specs.append(dict(m, workload=w["name"], kind=kind))
    for m in layers["named_metrics"]:
        if "alias_of" not in m:
            specs.append(m)
    return specs


def compare(base_runs, change_runs, specs):
    """Rows (workload, metric, unit, base summary, change summary, verdict,
    reason), one per spec that either side reports. Traced runs are
    ignored: end-to-end numbers always come from untraced runs."""
    rows = []
    for spec in specs:
        wl, name = spec["workload"], spec["name"]
        b = run_values([r for r in base_runs if not r["trace"]], wl, name)
        c = run_values([r for r in change_runs if not r["trace"]], wl, name)
        if not b and not c:
            continue
        judge = exact_verdict if spec.get("kind") == "sim" else verdict
        v, why = judge(b, c, spec["bound"], spec["better"])
        rows.append((wl, name, spec["unit"],
                     summarize([x for _, x, _ in b]) if b else None,
                     summarize([x for _, x, _ in c]) if c else None, v, why))
    return rows
