#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload design|frozen_eval|fleet \
        --seed 7 --seconds 20 --trace 0|1

builds perfbench/ (a CMake project over ../src) into .bench_build/ on first
use, runs the workload with every ambient ADAPEX_* variable removed, prints
each metric by name with its unit, writes the run's result file under
.bench_build/results/, and prints one JSON object as its last line. With
--trace 1 the run reports the per-layer metrics instead of the end-to-end
ones and also writes the Chrome trace and the flat self-time table.

Compare two sets of result files (files or directories):

    python3 perfbench/run.py compare BASE CHANGE

Self-tests of the statistics and trace arithmetic:

    python3 perfbench/test_benchlib.py
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("error: " + msg)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def load_layers():
    with open(os.path.join(HERE, "layers.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no adapex sources (src/) next to perfbench/: nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd), 1)


def clean_env():
    """The environment minus every ADAPEX_* override, and the names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADAPEX_")}
    removed = sorted(k for k in os.environ if k.startswith("ADAPEX_"))
    return env, removed


def source_digest():
    """sha256 over the adapex sources and the benchmark's own sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"node": platform.node(), "cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def run_workload(args, benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (args.workload,
                                                           ", ".join(names)))
    build()
    env, removed = clean_env()
    if removed:
        log("ignoring ambient overrides: " + ", ".join(removed))

    stamp = "%s-seed%d-trace%d-%s-%d" % (
        args.workload, args.seed, args.trace,
        datetime.datetime.now().strftime("%Y%m%dT%H%M%S"), os.getpid())
    workdir = os.path.join(ROOT, ".bench_build", "runs", stamp)
    os.makedirs(workdir)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, stamp + ".trace.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result", 1)
    raw = json.loads(lines[-1])

    metrics = {}
    for name, m in raw["metrics"].items():
        s = benchlib.summarize(m["samples"])
        metrics[name] = {"unit": m["unit"], "samples": m["samples"], **s}
    if args.trace:
        spans = benchlib.load_chrome_trace(trace_path)
        for name, (value, unit) in benchlib.span_metrics(
                spans, raw["workers"]).items():
            metrics.setdefault(name, {"unit": unit, "samples": [value],
                                      "median": value, "q1": value,
                                      "q3": value})
        table = benchlib.flat_table(spans)
        table_path = os.path.join(RESULTS_DIR, stamp + ".selftime.tsv")
        with open(table_path, "w") as f:
            f.write("span\tcalls\ttotal_s\tself_s\n")
            for name, calls, total, self_s in table:
                f.write("%s\t%d\t%.6f\t%.6f\n" % (name, calls, total, self_s))

    layers = load_layers()
    if args.trace:
        try:
            values = benchlib.per_layer_report(
                benchmark["per_layer"], metrics,
                set(layers["live_layer_metrics"][args.workload]))
        except ValueError as e:
            fail("workload %s: %s" % (args.workload, e), 1)
    else:
        missing = [m["name"] for m in benchmark["end_to_end"]
                   if m["name"] not in metrics]
        if missing:
            fail("workload %s did not report %s" % (args.workload,
                                                    ", ".join(missing)), 1)
        values = {m["name"]: (metrics[m["name"]]["median"], m["unit"])
                  for m in benchmark["end_to_end"]}
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}

    record = {
        "host": host_info(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workers": raw["workers"],
        "kernel_isa": raw["kernel_isa"],
        "packed_isa": raw["packed_isa"],
        "env_removed": removed,
        "wall_s": time.time() - started,
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "checks": raw["checks"],
        "context": raw["context"],
        "metrics": metrics,
    }
    result_path = os.path.join(RESULTS_DIR, stamp + ".json")
    with open(result_path, "w") as f:
        json.dump({"schema": benchlib.SCHEMA, "runs": [record]}, f, indent=1)

    print("workload %s  seed %d  workers %d  kernel isa %s  packed isa %s" % (
        args.workload, args.seed, raw["workers"], raw["kernel_isa"],
        raw["packed_isa"]))
    for name, r in reported.items():
        print("  %-36s %16.6g %s" % (name, r["value"], r["unit"]))
    if not args.trace:
        for m in layers["named_metrics"]:
            if m["workload"] == args.workload and m["name"] in metrics:
                note = ("  (judged as %s)" % m["alias_of"] if "alias_of" in m
                        else "  (sim)" if m["kind"] == "sim" else "")
                print("  named %-30s %16.6g %s%s" % (
                    m["name"], metrics[m["name"]]["median"], m["unit"], note))
    for name, value in raw["context"].items():
        print("  context %-28s %s" % (name, value))
    for name, ok in raw["checks"].items():
        print("  check   %-28s %s" % (name, "ok" if ok else "FAILED"))
    print("  result file %s" % os.path.relpath(result_path, ROOT))
    if args.trace:
        print("  chrome trace %s" % os.path.relpath(trace_path, ROOT))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": reported}))


def run_compare(args, benchmark):
    base = benchlib.load_runs(args.base)
    change = benchlib.load_runs(args.change)
    if not base or not change:
        fail("no %s result runs found" % ("base" if not base else "change"))
    print("%-12s %-26s %12s %12s %12s %12s  %s" % (
        "workload", "metric", "base_med", "base_iqr", "change_med",
        "change_iqr", "verdict"))
    worse = False
    specs = benchlib.metric_specs(benchmark, load_layers())
    for wl, name, unit, b, c, v, why in benchlib.compare(base, change, specs):
        def fmt(s, key):
            return "%12.5g" % s[key] if s else "%12s" % "-"

        def iqr(s):
            return "%12.5g" % (s["q3"] - s["q1"]) if s else "%12s" % "-"

        print("%-12s %-26s %s %s %s %s  %s (%s) [%s]" % (
            wl, name, fmt(b, "median"), iqr(b), fmt(c, "median"), iqr(c), v,
            why, unit))
        worse = worse or v == "worse"
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", nargs=1)
        p.add_argument("change", nargs=1)
        args = p.parse_args(sys.argv[2:])
        run_compare(args, load_benchmark())
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    run_workload(args, load_benchmark())


if __name__ == "__main__":
    main()
