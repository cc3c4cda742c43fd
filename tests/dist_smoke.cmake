# Multi-process smoke for the distributed sweep subsystem: a coordinator
# with two forked `jetty_cli worker` processes (each the serve request
# loop on a pipe pair, answering "cells" requests) — one killed after
# reading its first request, before answering — must complete the
# campaign, a rerun against the same disk cache must resume it without
# re-simulating anything, and both the resumed and the plain
# single-process Report must be byte-identical to the distributed one.
# Run as:
#   cmake -DCLI=<jetty_cli> -DSPEC=<distributed.spec.json> -DWORK=<dir>
#         -P dist_smoke.cmake
foreach(var CLI SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

# Cache persistence is the point of the test — start from a
# clean slate so a re-run of this ctest sees the same cold-start world.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_cli out_var)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "jetty_cli ${pretty} failed (${rc}):\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ byte-for-byte")
  endif()
endfunction()

# ---- 1. distributed campaign with an injected mid-shard kill ----------
# Worker 0 dies (_exit) after receiving its first shard request; the
# coordinator must respawn capacity, retry the orphaned shard, and still
# finish with exit 0.
run_cli(dist sweep --spec ${SPEC} --workers 2 --kill-worker-after 1
        --retries 2 --cache-dir ${WORK}/cache
        --json ${WORK}/dist.json --events ${WORK}/events.json)

# The kill must actually have landed: the structured event stream names
# the death and the retry.
file(READ ${WORK}/events.json events)
foreach(pattern "worker_died" "retried")
  string(FIND "${events}" "${pattern}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "no '${pattern}' event — the injected kill did not land:\n"
            "${events}")
  endif()
endforeach()

# ---- 2. resume from the disk tier: nothing re-simulates ---------------
# Fresh worker processes start with an empty memory tier, so every cell
# must come back as a disk hit.
run_cli(resumed sweep --spec ${SPEC} --workers 2
        --cache-dir ${WORK}/cache --json ${WORK}/resumed.json)
if(NOT resumed MATCHES "\\(0 simulated, 4 disk hits,")
  message(FATAL_ERROR
          "disk-tier resume re-simulated finished cells:\n${resumed}")
endif()
expect_identical(${WORK}/dist.json ${WORK}/resumed.json
                 "resumed Report")

# ---- 3. byte-identity against the single-process sweep ----------------
# The distributed run (above, cold) published every cell to the shared
# run cache; the plain sweep answers from it, so identical bytes prove
# the distributed merge changed nothing — not even a timing field.
run_cli(direct sweep --spec ${SPEC} --cache-dir ${WORK}/cache
        --json ${WORK}/direct.json)
expect_identical(${WORK}/dist.json ${WORK}/direct.json
                 "single-process Report")

message(STATUS "distributed sweep smoke OK")
