#!/usr/bin/env python3
"""Build the simulator and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds
perfbench/main.exe with dune, then runs passes of the workload, each in a
fresh process, for about S seconds.  A pass builds the rig, fills and ages
it, runs warm-up and timed operations, and reads every block back against
a shadow copy.

With --trace 0, passes are untraced.  Simulated-clock metrics come from
the first pass, and every later pass must repeat them bit for bit.
Host-clock metrics are the median over passes.  With --trace 1, untraced
and traced passes alternate.  The traced passes give the per-layer
metrics and write their spans to perfbench/_out/spans-NAME.jsonl (the
last traced pass of the last traced run of each workload).

The second-to-last line of output is the full report: every metric with
its unit, clock and sample count, or the reason it is absent.  The last
line holds the metrics BENCHMARK.json lists for the run's kind, in the form
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only if every pass read back what it wrote.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join("perfbench", "_out")
MIN_UNTRACED = 3
MIN_TRACED = 2
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # stay well inside the 180 s a run may take


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no source tree to build here (dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    except OSError as e:
        die("cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def run_pass(workload, seed, mode, spans=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die("a %s pass took longer than %d s" % (mode, PASS_TIMEOUT_S))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("a %s pass exited with code %d" % (mode, r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("a %s pass printed nothing" % mode)
    return json.loads(lines[-1])


def commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def median_metric(ms):
    """Median of one metric over passes; absent if any pass has it absent."""
    first = dict(ms[0])
    for m in ms:
        if m["value"] is None:
            return dict(m)
    first["value"] = statistics.median(m["value"] for m in ms)
    return first


def aggregate(section, passes, errors):
    """Simulated metrics from the first pass (all must agree); host metrics
    as the median over passes."""
    out = {}
    for name, m in passes[0][section].items():
        ms = [p[section][name] for p in passes]
        if m["clock"] == "sim":
            if any(x != m for x in ms):
                errors.append("simulated metric %s differs between passes" % name)
            out[name] = dict(m)
        else:
            out[name] = median_metric(ms)
    return out


def main():
    args = parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    build()

    start = time.monotonic()
    untraced, traced = [], []
    spans = None
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, "spans-%s.jsonl" % args.workload)
    while True:
        n = len(untraced) + len(traced)
        if args.trace and n % 2 == 1:
            traced.append(run_pass(args.workload, args.seed, "traced", spans))
        else:
            untraced.append(run_pass(args.workload, args.seed, "untraced"))
        used = time.monotonic() - start
        per_pass = used / (n + 1)
        enough = len(untraced) >= MIN_UNTRACED and (
            not args.trace or len(traced) >= MIN_TRACED)
        if used + per_pass > RUN_LIMIT_S or (enough and used + per_pass > args.seconds):
            break

    passes = untraced + traced
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e = aggregate("end_to_end", untraced, errors)
    for p in traced:
        for name, m in p["end_to_end"].items():
            if m["clock"] == "sim" and m != e2e[name]:
                errors.append("simulated metric %s differs when traced" % name)
    layers = {}
    if traced:
        # Untraced passes report only the GC counts, which tracing would inflate.
        layers = aggregate("per_layer", traced, errors)
        layers.update({name: median_metric([p["per_layer"][name] for p in untraced])
                       for name in untraced[0]["per_layer"]})
        plain = statistics.median(p["end_to_end"]["host_ops_s"]["value"] for p in untraced)
        probed = statistics.median(p["end_to_end"]["host_ops_s"]["value"] for p in traced)
        layers["harness.trace_overhead"] = {
            "value": plain / probed, "unit": "ratio", "clock": "host"}
    correct = failed == 0 and not errors

    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "env": {"cores": os.cpu_count(), "ocaml": passes[0]["ocaml"], "commit": commit()},
        "passes": len(untraced), "traced_passes": len(traced),
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": errors[:20], "end_to_end": e2e, "per_layer": layers}}))

    kind, have = ("per_layer", layers) if args.trace else ("end_to_end", e2e)
    metrics = {}
    for want in spec[kind]:
        m = have.get(want["name"])
        if m is None or m["value"] is None:
            die("metric %s is absent: %s" % (want["name"], (m or {}).get("absent", "not reported")))
        if m["unit"] != want["unit"]:
            die("metric %s is in %s, BENCHMARK.json says %s" % (want["name"], m["unit"], want["unit"]))
        metrics[want["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
