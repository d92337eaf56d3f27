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
#   run_benches.sh lint         — time the bslint two-pass analyzer over the
#     whole tree (cold cache, warm cache, --no-cache) and verify the three
#     runs emit byte-identical reports; emit build/BENCH_lint.json. The
#     committed repo-root BENCH_lint.json is the curated snapshot.
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
    --benchmark_filter='BM_EventQueue|BM_SameTimeLane|BM_ActorSpawn|BM_TimerArmCancel|BM_RpcRoundTrip$' \
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
          "allocs_per_op", "frame_heap_allocs_per_op") if k in b}
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
  bslint=build/tools/bslint/bslint
  cache=build/bslint-bench-cache
  args="--root . --baseline tools/bslint/baseline.txt src tests bench"
  rm -rf "$cache"
  wall_ms() { # $1 = label, rest = command; appends "label ms" to the log
    label=$1; shift
    start=$(date +%s%N)
    "$@" > "build/lint_$label.txt" || true  # findings exit 1; not an error here
    end=$(date +%s%N)
    echo "$label $(( (end - start) / 1000000 ))" >> build/lint_wall_ms.txt
  }
  rm -f build/lint_wall_ms.txt
  wall_ms cold  $bslint --cache-dir "$cache" $args
  wall_ms warm  $bslint --cache-dir "$cache" $args
  wall_ms nocache $bslint --no-cache $args
  cmp -s build/lint_cold.txt build/lint_warm.txt || {
    echo "lint bench: cold and warm outputs differ" >&2; exit 1; }
  cmp -s build/lint_cold.txt build/lint_nocache.txt || {
    echo "lint bench: cached and --no-cache outputs differ" >&2; exit 1; }
  python3 - "$out" <<'PY'
import json, sys
wall = {}
for line in open("build/lint_wall_ms.txt"):
    name, ms = line.split()
    wall[name] = int(ms)
summary = open("build/lint_cold.txt").read().strip().splitlines()[-1]
doc = {
    "description": "bslint two-pass analyzer wall time over src/ tests/ "
                   "bench/ (cold index cache, warm cache, --no-cache); the "
                   "three runs are verified byte-identical before timing is "
                   "reported",
    "wall_time_ms": wall,
    "summary_line": summary,
}
json.dump(doc, open(sys.argv[1], "w"), indent=2)
print("wrote", sys.argv[1])
PY
  rm -f build/lint_wall_ms.txt build/lint_cold.txt build/lint_warm.txt     build/lint_nocache.txt
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
