# Contract of tools/bench_compare, the CI perf-regression gate:
#  - identical reports pass (exit 0);
#  - a >threshold throughput regression fails (exit 2), whether it hides
#    in an absolute rate or a speedup ratio, and --ratios-only ignores
#    the former;
#  - a within-threshold dip passes;
#  - null rates (a run too short to rate) are SKIPPED, never scored as
#    regressions, and --max-skips bounds them;
#  - workload rows are matched by name, so reordering never mis-pairs;
#  - a baseline metric missing from the fresh report is a schema error
#    (exit 1), as is a kind mismatch.
# Run as:
#   cmake -DTOOL=<path-to-bench_compare> -DWORK=<scratch-dir> -P bench_compare.cmake
if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DTOOL=<path to bench_compare> -DWORK=<scratch dir>")
endif()
file(MAKE_DIRECTORY ${WORK})

# A miniature throughput Report: envelope + two workload rows.
file(WRITE ${WORK}/base.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "avx2",
  "simd_width": 4,
  "headline_speedup": 2.4,
  "workloads": [
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 48000000.0,
      "batched_refs_per_sec": 115000000.0,
      "speedup": 2.4
    },
    {
      "name": "lu",
      "scalar_refs_per_sec": 24000000.0,
      "batched_refs_per_sec": 48000000.0,
      "speedup": 2.0
    }
  ]
}
]=])

# Same numbers, workload rows reordered: must still pair by name.
file(WRITE ${WORK}/reordered.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "avx2",
  "simd_width": 4,
  "headline_speedup": 2.4,
  "workloads": [
    {
      "name": "lu",
      "scalar_refs_per_sec": 24000000.0,
      "batched_refs_per_sec": 48000000.0,
      "speedup": 2.0
    },
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 48000000.0,
      "batched_refs_per_sec": 115000000.0,
      "speedup": 2.4
    }
  ]
}
]=])

# lu's batched rate drops 25% (speedups intact): absolute-rate gate only.
file(WRITE ${WORK}/regress_rate.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "avx2",
  "simd_width": 4,
  "headline_speedup": 2.4,
  "workloads": [
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 48000000.0,
      "batched_refs_per_sec": 115000000.0,
      "speedup": 2.4
    },
    {
      "name": "lu",
      "scalar_refs_per_sec": 24000000.0,
      "batched_refs_per_sec": 36000000.0,
      "speedup": 2.0
    }
  ]
}
]=])

# The headline speedup collapses 2.4 -> 1.5: caught even --ratios-only.
file(WRITE ${WORK}/regress_ratio.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "avx2",
  "simd_width": 4,
  "headline_speedup": 1.5,
  "workloads": [
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 48000000.0,
      "batched_refs_per_sec": 72000000.0,
      "speedup": 1.5
    },
    {
      "name": "lu",
      "scalar_refs_per_sec": 24000000.0,
      "batched_refs_per_sec": 48000000.0,
      "speedup": 2.0
    }
  ]
}
]=])

# Everything dips 5%: inside the default 10% threshold.
file(WRITE ${WORK}/dip5.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "avx2",
  "simd_width": 4,
  "headline_speedup": 2.28,
  "workloads": [
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 45600000.0,
      "batched_refs_per_sec": 109250000.0,
      "speedup": 2.28
    },
    {
      "name": "lu",
      "scalar_refs_per_sec": 22800000.0,
      "batched_refs_per_sec": 45600000.0,
      "speedup": 1.9
    }
  ]
}
]=])

# lu was too short to rate: nulls must SKIP, not score as -100%.
file(WRITE ${WORK}/nullrate.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "sse2",
  "simd_width": 2,
  "headline_speedup": 2.4,
  "workloads": [
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 48000000.0,
      "batched_refs_per_sec": 115000000.0,
      "speedup": 2.4
    },
    {
      "name": "lu",
      "scalar_refs_per_sec": null,
      "batched_refs_per_sec": null,
      "speedup": null
    }
  ]
}
]=])

# The lu row vanished: baseline metrics missing from fresh = exit 1.
file(WRITE ${WORK}/missing.json [=[
{
  "jetty_report": 1,
  "kind": "throughput",
  "simd_isa": "avx2",
  "simd_width": 4,
  "headline_speedup": 2.4,
  "workloads": [
    {
      "name": "delivery-bound",
      "scalar_refs_per_sec": 48000000.0,
      "batched_refs_per_sec": 115000000.0,
      "speedup": 2.4
    }
  ]
}
]=])

# A different bench's report entirely.
file(WRITE ${WORK}/otherkind.json [=[
{
  "jetty_report": 1,
  "kind": "snoopbus",
  "simd_isa": "avx2",
  "simd_width": 4,
  "workloads": []
}
]=])

function(expect_exit expected)
  # ARGN is the bench_compare argument list.
  execute_process(
    COMMAND ${TOOL} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR
            "bench_compare ${pretty}: expected exit ${expected}, got "
            "${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

function(expect_stdout_matches regex)
  # ARGN is the bench_compare argument list; exit code is not checked
  # here (pair with expect_exit for that).
  execute_process(
    COMMAND ${TOOL} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(NOT out MATCHES "${regex}")
    message(FATAL_ERROR
            "bench_compare ${pretty}: stdout does not match "
            "\"${regex}\"\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# Self-compare and name-keyed reordering pass.
expect_exit(0 ${WORK}/base.json ${WORK}/base.json)
expect_exit(0 ${WORK}/base.json ${WORK}/reordered.json)

# A 25% absolute-rate regression fails... unless only ratios are gated.
expect_exit(2 ${WORK}/base.json ${WORK}/regress_rate.json)
expect_exit(0 ${WORK}/base.json ${WORK}/regress_rate.json --ratios-only)

# The FAIL line names the worst offending row and its delta, so a CI
# log tail is diagnosable without scrolling up to the table.
expect_stdout_matches(
  "FAIL: 1 metric\\(s\\) regressed more than 10\\.0% vs [^\n]* \\(worst: workloads\\[lu\\]\\.batched_refs_per_sec -25\\.0%\\)"
  ${WORK}/base.json ${WORK}/regress_rate.json)

# A collapsed speedup fails either way.
expect_exit(2 ${WORK}/base.json ${WORK}/regress_ratio.json)
expect_exit(2 ${WORK}/base.json ${WORK}/regress_ratio.json --ratios-only)

# A 5% dip is inside the default 10% threshold; a 3% threshold trips.
expect_exit(0 ${WORK}/base.json ${WORK}/dip5.json)
expect_exit(2 ${WORK}/base.json ${WORK}/dip5.json --threshold 3)

# Null rates skip (exit 0), and --max-skips 0 turns them into failures.
expect_exit(0 ${WORK}/base.json ${WORK}/nullrate.json)
expect_exit(1 ${WORK}/base.json ${WORK}/nullrate.json --max-skips 0)

# Schema drift and kind mismatch are hard errors, not passes.
expect_exit(1 ${WORK}/base.json ${WORK}/missing.json)
expect_exit(1 ${WORK}/base.json ${WORK}/otherkind.json)
expect_exit(1 ${WORK}/base.json)

# Malformed flag values are usage errors, not a 0% gate or a zero skip
# budget (atof/atol used to read 'abc' and 'x' as 0).
expect_exit(1 ${WORK}/base.json ${WORK}/base.json --threshold abc)
expect_exit(1 ${WORK}/base.json ${WORK}/base.json --max-skips x)

message(STATUS "bench_compare regression-gate contract holds")
