# The simulating benches reject malformed flags before they simulate
# anything: a negative --repeat used to wrap to 4294967295 repeats
# through atoi, and a non-numeric --scale read as 0. Each case must exit
# 1 with the flag named on stderr. Run as:
#   cmake -DTHROUGHPUT=<bench_throughput> -DSNOOPBUS=<bench_snoopbus> -P bench_flags.cmake
if(NOT DEFINED THROUGHPUT OR NOT DEFINED SNOOPBUS)
  message(FATAL_ERROR "pass -DTHROUGHPUT=<bench_throughput> -DSNOOPBUS=<bench_snoopbus>")
endif()

function(expect_usage_error tool expected_pattern)
  # ARGN is the bench argument list. The timeout bounds a binary that
  # would start simulating instead of failing.
  execute_process(
    COMMAND ${tool} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(JOIN " " pretty ${ARGN})
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${tool} ${pretty}: expected exit 1, got ${rc}")
  endif()
  if(NOT err MATCHES "${expected_pattern}")
    message(FATAL_ERROR
            "${tool} ${pretty}: stderr did not explain the failure "
            "(wanted '${expected_pattern}', got: ${err})")
  endif()
endfunction()

expect_usage_error(${THROUGHPUT} "--repeat needs a count >= 1, got '-1'"
                   --smoke --repeat -1)
expect_usage_error(${SNOOPBUS} "--repeat needs a count >= 1, got '-1'"
                   --smoke --repeat -1)
expect_usage_error(${THROUGHPUT} "--scale needs a finite number > 0"
                   --smoke --scale abc)
expect_usage_error(${THROUGHPUT} "unknown flag '--repeats'"
                   --smoke --repeats 2)

message(STATUS "bench flag contract holds")
