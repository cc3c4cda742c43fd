# Spec contract of jetty_cli (ISSUE 5 acceptance): for every simulating
# subcommand, `--dump-spec` output fed back through `--spec` resolves to
# the bit-identical spec; a `--spec` run re-executes bit-identically; and
# the committed example specs stay loadable. Run as:
#   cmake -DCLI=<path-to-jetty_cli> -DEXAMPLES=<examples dir> -P cli_spec.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to jetty_cli>")
endif()
if(NOT DEFINED EXAMPLES)
  message(FATAL_ERROR "pass -DEXAMPLES=<path to the examples directory>")
endif()

set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_spec_work)
file(MAKE_DIRECTORY ${work})

function(run_cli out_var)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jetty_cli ${pretty} failed (${rc}): ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# --dump-spec -> --spec -> --dump-spec must be a fixed point.
function(check_dump_roundtrip name cmd)
  run_cli(dump1 ${cmd} ${ARGN} --dump-spec)
  file(WRITE ${work}/${name}.spec.json "${dump1}")
  run_cli(dump2 ${cmd} --spec ${work}/${name}.spec.json --dump-spec)
  if(NOT dump1 STREQUAL dump2)
    message(FATAL_ERROR
            "jetty_cli ${cmd}: --dump-spec is not a fixed point under "
            "--spec\nfirst:\n${dump1}\nsecond:\n${dump2}")
  endif()
endfunction()

check_dump_roundtrip(run run --app fm --scale 0.01 --buses 2)
check_dump_roundtrip(sweep sweep --apps lu,fm --procs 4 --buses 1,2
                     --scale 0.01 --no-subblock)
check_dump_roundtrip(bench bench --app lu --scale 0.01 --batch 64
                     --repeat 1)
check_dump_roundtrip(fuzz fuzz --rounds 2 --refs 128 --buses 2)

# replay of a single-section capture: the processor count is not
# inferable from the file, so the dumped spec's machine.procs must
# carry it (regression: --spec used to fall back to 4).
run_cli(cap trace --app lu --proc 0 --limit 4096 --out ${work}/one.jtt)
check_dump_roundtrip(replay replay --in ${work}/one.jtt --procs 8)
run_cli(rdump replay --spec ${work}/replay.spec.json --dump-spec)
if(NOT rdump MATCHES "\"procs\": 8")
  message(FATAL_ERROR
          "replay --spec lost the recorded processor count:\n${rdump}")
endif()

# A --spec run re-executes bit-identically (separate processes, so no
# run-cache sharing; every printed number is simulated, not timed).
run_cli(out1 run --spec ${work}/run.spec.json --scale 0.01)
run_cli(out2 run --spec ${work}/run.spec.json --scale 0.01)
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR
          "jetty_cli run --spec re-ran differently:\n${out1}\nvs\n${out2}")
endif()

# The committed example specs resolve through their natural subcommand.
run_cli(q run --spec ${EXAMPLES}/quickstart.spec.json --dump-spec)
# The paper specs the scorecard runs are sweep fixed points too.
foreach(paper figure4 figure5 8way nosubblock ablations)
  check_dump_roundtrip(paper_${paper} sweep
                       --spec ${EXAMPLES}/paper_${paper}.spec.json)
endforeach()
run_cli(z fuzz --spec ${EXAMPLES}/fuzz_smoke.spec.json --dump-spec)

# ... and the quickstart spec actually runs (scaled down for CI).
run_cli(smoke run --spec ${EXAMPLES}/quickstart.spec.json --scale 0.01)

message(STATUS "jetty_cli spec contract holds")
