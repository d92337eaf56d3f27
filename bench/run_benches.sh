#!/usr/bin/env sh
# Runs every bench binary in build/bench/ (experiment reproductions and
# google-benchmark micro/ablation benches). Build first with:
#   cmake -B build -S . && cmake --build build -j
# The tier-1 test gate is the companion one-liner:
#   ctest --test-dir build -L tier1 --output-on-failure -j
#
# Subcommands (suites):
#   run_benches.sh sim-kernel   — measure the simulator hot-path benches
#     (event queue, same-time lane, actor spawn, timer arm/cancel, RPC
#     round trip) plus the e2e wall times and emit
#     build/BENCH_sim_kernel.json. The committed
#     repo-root BENCH_sim_kernel.json is the curated before/after snapshot;
#     this regenerates the "after" side on the current tree.
#   run_benches.sh sim-queue    — run bench_million_clients at full scale
#     (10^6 clients, 9-site grid5000, best-of-3 with the pure heap and with
#     the far ladder engaged) and emit build/BENCH_sim_queue.json. The
#     committed repo-root BENCH_sim_queue.json is the curated snapshot of
#     the same run.
#   run_benches.sh recovery     — run bench_recovery (journal-length sweep
#     x cold/warm/wiped/slow restarts + site power loss, all in simulated
#     time) and emit build/BENCH_recovery.json. The committed repo-root
#     BENCH_recovery.json is the curated snapshot of the same run.
#   run_benches.sh repl         — run bench_reconciliation (partition
#     duration and divergence sweeps over the custody plane, all in
#     simulated time) and emit build/BENCH_repl.json. The committed
#     repo-root BENCH_repl.json is the curated snapshot of the same run.
#   run_benches.sh gateway      — run bench_gateway (trace-replay dedup
#     sweep, sequential-vs-concurrent multipart parts, delta-vs-full
#     overwrite, all in simulated time) and emit build/BENCH_gateway.json.
#     The committed repo-root BENCH_gateway.json is the curated snapshot.
#   run_benches.sh lint         — time five fresh runs of the bslint two-pass
#     analyzer over the whole tree (it keeps no state between runs), verify
#     they print byte-identical reports, and emit build/BENCH_lint.json
#     with the median and the host. The committed repo-root
#     BENCH_lint.json is the curated snapshot.
# Suites compose: `run_benches.sh sim-kernel recovery` runs both.
set -eu
cd "$(dirname "$0")/.."
if [ ! -d build/bench ]; then
  echo "build/bench not found — build the tree first" >&2
  exit 1
fi

run_sim_kernel() {
  out=build/BENCH_sim_kernel.json
  micro=build/bench_micro_sim.json
  ./build/bench/bench_micro_sim \
    --benchmark_filter='BM_EventQueue|BM_SameTimeLane|BM_ActorSpawn|BM_TimerArmCancel|BM_RpcRoundTrip$|BM_RpcRefused' \
    --benchmark_min_time=0.1 --benchmark_format=json > "$micro"
  for b in bench_dos_throughput bench_detection_delay; do
    start=$(date +%s%N)
    ./build/bench/"$b" > /dev/null 2>&1
    end=$(date +%s%N)
    echo "$b $(( (end - start) / 1000000 ))" >> build/e2e_wall_ms.txt
  done
  python3 - "$micro" "$out" <<'PY'
import json, sys
micro = json.load(open(sys.argv[1]))
e2e = {}
for line in open("build/e2e_wall_ms.txt"):
    name, ms = line.split()
    e2e[name] = int(ms)  # last run wins
doc = {
    "description": "sim-kernel hot-path measurements on the current tree "
                   "(see repo-root BENCH_sim_kernel.json for the curated "
                   "before/after comparison)",
    "micro": [
        {k: b.get(k) for k in
         ("name", "real_time", "time_unit", "items_per_second",
          "allocs_per_op", "all_allocs_per_op",
          "frame_heap_allocs_per_op") if k in b}
        for b in micro.get("benchmarks", [])
    ],
    "e2e_wall_time_ms": e2e,
}
json.dump(doc, open(sys.argv[2], "w"), indent=2)
print("wrote", sys.argv[2])
PY
  rm -f build/e2e_wall_ms.txt
}

run_sim_queue() {
  out=build/BENCH_sim_queue.json
  ./build/bench/bench_million_clients > "$out"
  echo "wrote $out"
}

run_recovery() {
  out=build/BENCH_recovery.json
  ./build/bench/bench_recovery > "$out"
  echo "wrote $out"
}

run_repl() {
  out=build/BENCH_repl.json
  ./build/bench/bench_reconciliation > "$out"
  echo "wrote $out"
}

run_gateway() {
  out=build/BENCH_gateway.json
  ./build/bench/bench_gateway > "$out"
  echo "wrote $out"
}

run_lint() {
  out=build/BENCH_lint.json
  rm -f build/lint_wall_ms.txt
  for i in 1 2 3 4 5; do
    start=$(date +%s%N)
    # Findings exit 1; not an error here.
    build/tools/bslint/bslint --root . src tests bench > "build/lint_$i.txt" || true
    end=$(date +%s%N)
    echo "$(( (end - start) / 1000000 ))" >> build/lint_wall_ms.txt
    cmp -s build/lint_1.txt "build/lint_$i.txt" || {
      echo "lint bench: run $i differs from run 1" >&2; exit 1; }
  done
  python3 - "$out" <<'PY'
import json, os, statistics, subprocess, sys
runs = [int(line) for line in open("build/lint_wall_ms.txt")]
summary = open("build/lint_1.txt").read().strip().splitlines()[-1]
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
            if l.startswith("model name")), "unknown")
cxx = subprocess.run(["c++", "-dumpfullversion"], capture_output=True,
                     text=True).stdout.strip()
doc = {
    "description": "bslint two-pass analyzer wall time over src/ tests/ "
                   "bench/: five fresh runs (no state is kept between runs), "
                   "verified byte-identical before timing is reported",
    "host": {"cpu": cpu, "nproc": os.cpu_count(), "compiler": cxx},
    "wall_time_ms": {"median": statistics.median(runs), "runs": runs},
    "summary_line": summary,
}
json.dump(doc, open(sys.argv[1], "w"), indent=2)
print("wrote", sys.argv[1])
PY
  rm -f build/lint_wall_ms.txt build/lint_[1-5].txt
}

if [ $# -gt 0 ]; then
  for suite in "$@"; do
    case "$suite" in
      sim-kernel) run_sim_kernel ;;
      sim-queue)  run_sim_queue ;;
      recovery)   run_recovery ;;
      repl)       run_repl ;;
      gateway)    run_gateway ;;
      lint)       run_lint ;;
      *) echo "unknown suite: $suite (known: sim-kernel sim-queue recovery repl gateway lint)" >&2
         exit 2 ;;
    esac
  done
  exit 0
fi

for b in build/bench/*; do
  [ -x "$b" ] || continue
  echo "== $b"
  "$b"
done
