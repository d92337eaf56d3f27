#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: three seeded workloads, host time
and simulated results end to end, and a traced per-layer split.

    python3 perfbench/run.py --workload dos_flood --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --smoke                      # quick check of all

Builds perfbench_sim from ../src (into $CARGO_TARGET_DIR or .bench_build),
then runs the workload in fresh processes, one run each, until --seconds
have passed (at least three runs). Every process runs one workload once, so
its peak RSS is that workload's own. Runs of one seed must agree exactly on
every simulated metric and on sim_digest; any failed check or disagreement
makes the result incorrect and the exit status 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the runs). --trace 1 alternates untraced and traced runs and reports the
per-layer metrics; host-time layer metrics come from the untraced runs.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dos_flood", "lite_population", "s3_mixed")
MIN_RUNS = 3
# One process takes a few seconds; a stuck one is killed well within the
# 180 s a whole invocation may take.
RUN_TIMEOUT_S = 60
# Stop starting new runs once this much of that budget is used.
BUDGET_S = 100


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures (once) and builds perfbench_sim; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("simulator sources (src/) not found beside perfbench/")
    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    bdir = out / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_sim",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return bdir / "perfbench_sim"


def run_once(binary, workload, seed, traced, smoke):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{workload} run timed out after {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:])
        die(f"{workload} run printed no result (exit {p.returncode})")
    rec["exit"] = p.returncode
    return rec


def host_fingerprint(rec, seed):
    cpu = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": rec["compiler"],
            "build_type": rec["build_type"], "seed": seed}


def median(values):
    return statistics.median(values) if values else 0.0


def consistency_errors(recs):
    """Runs of one seed must agree on every simulated outcome."""
    errors = []
    ref = recs[0]
    for key in ("sim_digest", "sim", "attempted", "failed", "events"):
        for r in recs[1:]:
            if r[key] != ref[key]:
                errors.append(f"runs disagree on {key}: "
                              f"{ref[key]!r} vs {r[key]!r}")
                break
    traced = [r for r in recs if r["traced"]]
    for r in traced[1:]:
        if r["layer"] != traced[0]["layer"]:
            errors.append("traced runs disagree on per-layer counts")
            break
    return errors


def measure(binary, workload, seed, seconds, trace, smoke):
    """Runs until `seconds` have passed (MIN_RUNS at least); with trace,
    every untraced run is followed by a traced one."""
    start = time.monotonic()
    recs = []
    min_runs = 1 if smoke else MIN_RUNS
    while True:
        t0 = time.monotonic()
        recs.append(run_once(binary, workload, seed, False, smoke))
        if trace:
            recs.append(run_once(binary, workload, seed, True, smoke))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in recs if not r["traced"])
        # Stop when one more iteration would end nearer past the budget
        # than this one ends short of it.
        if untraced >= min_runs and elapsed + took / 2 >= seconds:
            break
        if elapsed + took > BUDGET_S:
            break
    return recs


def end_to_end(recs):
    runs = [r for r in recs if not r["traced"]]
    return {
        "wall_s": (median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (median([r["setup_s"] for r in runs]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB"),
    }


def per_layer(recs, spec):
    runs = [r for r in recs if not r["traced"]]
    traced = [r for r in recs if r["traced"]]
    layer = {k: (v["value"], v["unit"]) for k, v in traced[0]["layer"].items()}
    events = max(runs[0]["events"], 1)
    layer["sim.host_ns_per_event"] = (median(
        [(r["wall_s"] - r["teardown_s"]) / events * 1e9 for r in runs]), "ns")
    layer["sim.teardown_s"] = (median([r["teardown_s"] for r in runs]), "s")
    layer["trace.overhead_ratio"] = (
        median([r["wall_s"] for r in traced]) /
        median([r["wall_s"] for r in runs]), "ratio")
    # Layers a workload does not exercise report 0 (printed as n/a).
    missing = []
    for m in spec["per_layer"]:
        if m["name"] not in layer:
            layer[m["name"]] = (0.0, m["unit"])
            missing.append(m["name"])
    return layer, missing


def report(workload, seed, recs, trace, spec):
    """Prints the human-readable report; returns (correct, result dict)."""
    runs = [r for r in recs if not r["traced"]]
    ref = runs[0]
    errors = consistency_errors(recs)
    for r in recs:
        for c in r["checks"]:
            if not c["ok"]:
                errors.append(f"check {c['name']} failed: {c['detail']}")
        if r["exit"] != 0 and not any(not c["ok"] for c in r["checks"]):
            errors.append(f"run exited with status {r['exit']}")
    fp = host_fingerprint(ref, seed)
    print(f"== {workload}  seed={seed}  runs={len(runs)} untraced"
          f"{f' + {len(recs) - len(runs)} traced' if trace else ''}")
    print("   host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    e2e = end_to_end(recs)
    for name, (value, unit) in e2e.items():
        print(f"   {name:<28} {value:12.6g} {unit:<6} (host, median of "
              f"{len(runs)} runs)")
    for key in ("wall_s", "setup_s"):
        print(f"   {key + ' of each run':<28} " +
              " ".join(f"{r[key]:.4g}" for r in runs))
    for name, m in ref["sim"].items():
        print(f"   {name:<28} {m['value']:12.6g} {m['unit']:<6} "
              f"(sim, n={m['samples']})")
    print(f"   sim_digest                   {ref['sim_digest']}")
    print(f"   honest ops                   {ref['attempted']} attempted, "
          f"{ref['failed']} failed (per run)")
    for c in ref["checks"]:
        print(f"   check {c['name']:<32} {'ok' if c['ok'] else 'FAILED'}"
              f"  {c['detail']}")
    if trace:
        layer, missing = per_layer(recs, spec)
        for m in spec["per_layer"]:
            value, unit = layer[m["name"]]
            shown = "n/a" if m["name"] in missing else f"{value:12.6g}"
            print(f"   {m['name']:<28} {shown:>12} {unit}")
        metrics = {m["name"]: {"value": layer[m["name"]][0],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for e in errors:
        print(f"   ERROR: {e}")
    result = {"correct": not errors,
              "attempted": sum(r["attempted"] for r in recs),
              "failed": sum(r["failed"] for r in recs),
              "metrics": metrics}
    return not errors, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one untraced + one traced run each")
    args = ap.parse_args()

    stray = sorted(k for k in os.environ if k.startswith("BS_"))
    if stray:
        die("refusing to run with simulator knobs set: " + ", ".join(stray),
            code=2)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace) or args.smoke
    results = {}
    for w in workloads:
        recs = measure(binary, w, args.seed, 0 if args.smoke else seconds,
                       trace, args.smoke)
        results[w] = report(w, args.seed, recs, trace, spec)

    if len(workloads) == 1:
        correct, result = results[workloads[0]]
    else:
        correct = all(ok for ok, _ in results.values())
        result = {"correct": correct,
                  "attempted": sum(r["attempted"] for _, r in results.values()),
                  "failed": sum(r["failed"] for _, r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, (_, r) in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
