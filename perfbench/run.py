#!/usr/bin/env python3
"""Repository benchmark: builds cadet_perf from source and runs one workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition runs in its own process
(perfbench/cadet_perf), so a repetition's peak RSS is that of a lone run.
Repetitions repeat until --seconds have passed (at least MIN_REPS), all on
the workload inputs generated from --seed, and every metric is the median
over repetitions.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced repetition, then traced ones, and reports the per-layer
metrics, the tracing overhead, and writes the spans as JSONL under the
build directory. Human-readable lines go first; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status is non-zero, with no result line, when the build fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = (
    "scale_million",
    "scale_hostile_parallel",
    "testbed_paper_hour",
    "udp_loopback",
)
SCALE = ("scale_million", "scale_hostile_parallel")
MIN_REPS = 2
# A repetition is never started when it could push the run past this, and
# one still running then is stopped.
RUN_LIMIT_S = 150.0

# Reported beside the metrics and never gated: what the model computed.
FINGERPRINT_PREFIX = "fingerprint."


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(msg=""):
    print(msg, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then (re)build cadet_perf; returns the binary path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "cadet_perf"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "cadet_perf")


def source_digest():
    """SHA-256 over the program sources (src/), for the host stamp."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_rep(binary, args, timeout_s, spans_path=None):
    cmd = [binary] + args
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        return {"values": {}, "strings": {}, "exit": -1,
                "checks": [{"name": "exit_status", "ok": False,
                            "detail": "timed out after %.0f s" % timeout_s}]}
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"values": {}, "strings": {}, "checks": []}
    rep["exit"] = proc.returncode
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        rep["checks"].append({"name": "exit_status", "ok": False,
                              "detail": "cadet_perf exited %d"
                                        % proc.returncode})
    return rep


def spread(values):
    """(q3 - q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def fingerprint(rep):
    fp = {k: v for k, v in rep["values"].items()
          if k.startswith(FINGERPRINT_PREFIX)}
    fp.update({k: v for k, v in rep["strings"].items()
               if k.startswith(FINGERPRINT_PREFIX)})
    if "events" in rep["values"]:
        fp["fingerprint.events"] = rep["values"]["events"]
    return fp


def measure(binary, args):
    """Runs one workload's repetitions and prints its report; returns
    (correct, attempted, failed, metrics)."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)

    start = time.monotonic()
    untraced, traced = [], []
    while True:
        timeout_s = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
        first = not untraced and not traced
        extra = ["--check-determinism"] if first and args.workload in SCALE \
            else []
        if args.trace == 1 and not first:
            # Each traced repetition overwrites the previous one's spans.
            path = os.path.join(spans_dir, args.workload + ".jsonl")
            rep = run_rep(binary, base + ["--trace", "1"], timeout_s, path)
            traced.append(rep)
        else:
            rep = run_rep(binary, base + ["--trace", "0"] + extra, timeout_s)
            untraced.append(rep)
        if rep["exit"] != 0:
            break
        reps = len(untraced) + len(traced)
        elapsed = time.monotonic() - start
        per_rep = elapsed / reps
        if reps >= MIN_REPS and elapsed >= args.seconds:
            break
        if elapsed + per_rep > RUN_LIMIT_S:
            break

    measured = traced if args.trace == 1 else untraced
    all_reps = untraced + traced

    # ---- correctness: every check of every repetition, plus agreement
    # between repetitions of the same seed.
    checks = [dict(c, rep=i) for i, r in enumerate(all_reps)
              for c in r["checks"]]
    fps = [fingerprint(r) for r in all_reps if r["exit"] == 0]
    deterministic = args.workload != "udp_loopback"
    if deterministic and fps:
        checks.append({"name": "same_seed_same_model",
                       "ok": all(fp == fps[0] for fp in fps),
                       "detail": "%d repetitions" % len(fps)})
    if args.trace == 1 and untraced and traced:
        key = "events" if deterministic else "requests_attempted"
        base_count = untraced[0]["values"].get(key)
        checks.append({"name": "traced_matches_untraced",
                       "ok": all(r["values"].get(key) == base_count
                                 for r in traced),
                       "detail": "%s %s" % (key, base_count)})
    if not measured:
        checks.append({"name": "measured_repetitions", "ok": False,
                       "detail": "no measured repetition"})
    correct = all(c["ok"] for c in checks)

    # ---- metrics: medians over the measured repetitions.
    end_to_end, per_layer = metric_units()
    wanted = per_layer if args.trace == 1 else end_to_end
    series = {}
    for name in wanted:
        values = [r["values"][name] for r in measured if name in r["values"]]
        series[name] = values
    if args.trace == 1 and untraced and traced:
        base_rate = untraced[0]["values"].get("client_sim_s_per_wall_s")
        series["obs.tracing_overhead"] = [
            1.0 - r["values"]["client_sim_s_per_wall_s"] / base_rate
            for r in traced
            if base_rate and "client_sim_s_per_wall_s" in r["values"]]
    metrics = {}
    log("== perfbench %s seed %d trace %d: %d repetition(s) in %.1f s"
        % (args.workload, args.seed, args.trace, len(all_reps),
           time.monotonic() - start))
    first_rep = all_reps[0] if all_reps else {"values": {}, "strings": {}}
    log("host: cpu=%r cores=%d compiler=%r build=%s git=%s src=%s workers=%d"
        % (cpu_model(), os.cpu_count() or 1,
           first_rep["strings"].get("compiler", "?"),
           first_rep["strings"].get("build_type", "?"), git_sha(),
           source_digest(), first_rep["values"].get("workers", 1)))
    for name, unit in wanted.items():
        values = series.get(name, [])
        # Zero where the workload does not exercise the layer.
        value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        log("  %-32s %14.6g %-10s spread %6.2f%%  n=%d"
            % (name, value, unit, 100 * spread(values), len(values)))
    if args.trace == 0 and measured:
        for name in ("step_p50_us", "step_p99_us", "failed_fraction"):
            values = [r["values"][name] for r in measured
                      if name in r["values"]]
            if values:
                log("  %-32s %14.6g (per-layer, ungated)"
                    % (name, statistics.median(values)))
    for key, value in sorted((fps[0] if fps else {}).items()):
        log("  model %-40s %s" % (key, value))
    for c in checks:
        if not c["ok"]:
            log("  CHECK FAILED %s (rep %s): %s"
                % (c["name"], c.get("rep", "-"), c["detail"]))
    log("  correctness checks: %d run, %s"
        % (len(checks), "all passed" if correct else "FAILED"))

    attempted = sum(int(r["values"].get("requests_attempted", 0))
                    for r in measured)
    failed = sum(int(r["values"].get("requests_failed", 0))
                 for r in measured)
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        correct, attempted, failed, metrics = measure(binary, args)
    else:
        # Every workload in turn; metric names gain a "<workload>/" prefix.
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS:
            args.workload = workload
            ok, n, bad, named = measure(binary, args)
            correct, attempted, failed = correct and ok, attempted + n, \
                failed + bad
            metrics.update({workload + "/" + k: v for k, v in named.items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
