function(bs_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

bs_add_bench(bench_intrusiveness bs_workload bs_mon bs_sec bs_viz)
bs_add_bench(bench_dos_timeline bs_workload bs_mon bs_sec bs_viz)
bs_add_bench(bench_dos_throughput bs_workload bs_mon bs_sec bs_viz)
bs_add_bench(bench_detection_delay bs_workload bs_mon bs_sec bs_viz)
bs_add_bench(bench_viz_tool bs_workload bs_mon bs_sec bs_viz)
bs_add_bench(bench_micro_segment_tree bs_blob benchmark::benchmark)
bs_add_bench(bench_micro_allocation bs_blob benchmark::benchmark)
bs_add_bench(bench_micro_policy_engine bs_sec benchmark::benchmark)
bs_add_bench(bench_micro_sim bs_rpc benchmark::benchmark)
bs_add_bench(bench_micro_flow bs_net benchmark::benchmark)
bs_add_bench(bench_micro_monitoring bs_mon bs_intro benchmark::benchmark)
# Smoke lane for the google-benchmark micro benches: one pass with the
# minimum measuring time so CI catches bit-rot (compile/link/assert/counter
# regressions) without paying for statistically meaningful timings. Run via
# `ctest --preset bench-smoke`. Note: the system benchmark library predates
# the "Nx" iteration-count syntax, so this must stay a plain double.
function(bs_add_bench_smoke name)
  add_test(NAME bench-smoke.${name}
           COMMAND ${name} --benchmark_min_time=0)
  set_tests_properties(bench-smoke.${name} PROPERTIES LABELS "bench-smoke")
endfunction()
bs_add_bench_smoke(bench_micro_segment_tree)
bs_add_bench_smoke(bench_micro_allocation)
bs_add_bench_smoke(bench_micro_policy_engine)
bs_add_bench_smoke(bench_micro_sim)
bs_add_bench_smoke(bench_micro_flow)
bs_add_bench_smoke(bench_micro_monitoring)

# Custom-main population bench (not google-benchmark); --smoke shrinks the
# population and fails on any digest or event-count mismatch between the
# pure heap and the engaged far ladder, covering the ladder at workload
# scale. The JSON names the build type it was compiled with.
bs_add_bench(bench_million_clients bs_workload)
target_compile_definitions(bench_million_clients PRIVATE
  BS_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
add_test(NAME bench-smoke.bench_million_clients
         COMMAND bench_million_clients --smoke)
set_tests_properties(bench-smoke.bench_million_clients
                     PROPERTIES LABELS "bench-smoke")

# Custom-main crash-recovery cost bench (not google-benchmark); --smoke
# runs the shortest journal sweep and fails on any time-to-readable
# ordering violation or digest drift across suite replays.
bs_add_bench(bench_recovery bs_blob bs_fault)
add_test(NAME bench-smoke.bench_recovery
         COMMAND bench_recovery --smoke)
set_tests_properties(bench-smoke.bench_recovery
                     PROPERTIES LABELS "bench-smoke")

# Custom-main geo-replication bench (not google-benchmark); --smoke runs
# the shortest outage only and fails on any coherence/ordering violation
# or digest drift across suite replays.
bs_add_bench(bench_reconciliation bs_repl bs_fault)
add_test(NAME bench-smoke.bench_reconciliation
         COMMAND bench_reconciliation --smoke)
set_tests_properties(bench-smoke.bench_reconciliation
                     PROPERTIES LABELS "bench-smoke")

# Custom-main S3-gateway bench (not google-benchmark); --smoke runs a
# single dedup ratio and delta size and fails on any ordering violation
# (dedup cuts provider bytes, concurrent parts beat sequential, deltas
# ship fewer wire bytes) or digest drift across suite replays.
bs_add_bench(bench_gateway bs_cloud bs_workload)
add_test(NAME bench-smoke.bench_gateway
         COMMAND bench_gateway --smoke)
set_tests_properties(bench-smoke.bench_gateway
                     PROPERTIES LABELS "bench-smoke")

bs_add_bench(bench_ablation_allocation bs_workload bs_viz)
bs_add_bench(bench_ablation_cache bs_mon bs_viz bs_workload)
bs_add_bench(bench_ablation_replication bs_core bs_mon bs_workload bs_viz)
bs_add_bench(bench_ablation_elasticity bs_core bs_mon bs_workload bs_viz)
bs_add_bench(bench_ablation_removal bs_core bs_mon bs_workload bs_viz)
