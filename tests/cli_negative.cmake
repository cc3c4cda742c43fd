# Negative-path contract of jetty_cli's flag handling: every subcommand
# that accepts --filters must reject an invalid spec through
# FilterRegistry::describeFailure — a non-zero exit and a diagnostic that
# names the offending token (unknown family => the valid-family list;
# malformed member => the family's grammar) — and malformed numeric
# flags fail the same way. Run as:
#   cmake -DCLI=<path-to-jetty_cli> -P cli_negative.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to jetty_cli>")
endif()

function(expect_filter_failure expected_pattern)
  # ARGN is the jetty_cli argument list.
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(rc EQUAL 0)
    message(FATAL_ERROR
            "jetty_cli ${pretty}: expected a non-zero exit, got 0")
  endif()
  if(NOT err MATCHES "${expected_pattern}")
    message(FATAL_ERROR
            "jetty_cli ${pretty}: stderr did not explain the failure "
            "(wanted '${expected_pattern}', got: ${err})")
  endif()
endfunction()

# Unknown family: the registry must list the valid families.
expect_filter_failure("unknown filter family"
                      run --app lu --scale 0.001 --filters BOGUS-1)
expect_filter_failure("unknown filter family"
                      sweep --apps lu --scale 0.001 --filters BOGUS-1)
expect_filter_failure("unknown filter family"
                      bench --app lu --scale 0.001 --filters BOGUS-1)
expect_filter_failure("unknown filter family"
                      fuzz --rounds 1 --refs 64 --filters BOGUS-1)

# Malformed member of a known family: the family's grammar must appear.
expect_filter_failure("EJ-<sets>x<assoc>"
                      bench --app lu --scale 0.001 --filters EJ-banana)
expect_filter_failure("EJ-<sets>x<assoc>"
                      run --app lu --scale 0.001 --filters EJ-banana)

# Bad --buses values fail loudly too.
expect_filter_failure("--buses needs"
                      run --app lu --scale 0.001 --buses 0)
expect_filter_failure("--buses needs"
                      sweep --apps lu --scale 0.001 --buses 4,0)

# capture/trace reject malformed numbers instead of reading them as 0
# or wrapping them: a negative scale, a non-numeric scale, a negative
# limit and a non-numeric processor id each fail before any file is
# written.
expect_filter_failure("--scale needs"
                      capture --app lu --out neg.jt --scale -1 --limit 10)
expect_filter_failure("--scale needs"
                      capture --app lu --out neg.jt --scale abc)
expect_filter_failure("capture --limit needs"
                      capture --app lu --out neg.jt --limit -5)
expect_filter_failure("trace --proc needs"
                      trace --app lu --out neg.jt --proc x)
expect_filter_failure("trace --limit needs"
                      trace --app lu --out neg.jt --limit 1e3)

message(STATUS "jetty_cli negative-path contract holds")
