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

# Every command parses against its own flag table: an unknown flag, a
# flag that belongs to another command, or any flag on a command that
# takes none fails and lists the command's valid flags, instead of being
# dropped without a word.
expect_filter_failure("unknown flag '--filtres' \\(valid: .*--filters"
                      run --app lu --scale 0.01 --cache-dir off
                      --filtres EJ-8x2)
expect_filter_failure("unknown flag '--workers'"
                      run --app lu --scale 0.001 --workers 2)
expect_filter_failure("apps: unknown flag '--smoke'"
                      apps --smoke)

# Numbers parse strictly: trailing garbage is not a number (atof read
# '0.001xyz' as 0.001 and 'abc' as 0, which turned stealing off), and a
# negative count is not wrapped to 18 EB.
expect_filter_failure("capture --scale needs a finite number > 0, got '0.001xyz'"
                      capture --app lu --out g.jt --scale 0.001xyz --limit 5)
expect_filter_failure("sweep --steal-after needs a finite number, got 'abc'"
                      sweep --apps lu --scale 0.001 --steal-after abc)
expect_filter_failure("submit --timeout needs a finite number > 0, got '5s'"
                      submit x.json --timeout 5s)
expect_filter_failure("worker --cache-bytes needs a count >= 1, got '-5'"
                      worker --cache-dir off --cache-bytes -5)

message(STATUS "jetty_cli negative-path contract holds")
