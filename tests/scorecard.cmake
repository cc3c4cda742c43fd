# Paper scorecard contract: `jetty_cli scorecard` over the committed paper
# specs at scale 0.25 exits 0 (every gated claim holds), and its --json
# result is byte-identical to the golden — moving any figure, table or
# claim fails here until the golden is regenerated on purpose
# (tests/golden/README.md). Run as:
#   cmake -DCLI=<path-to-jetty_cli> -DEXAMPLES=<examples dir>
#         -DGOLDEN=<golden file> -DWORK=<scratch dir> -P scorecard.cmake
foreach(var CLI EXAMPLES GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

execute_process(
  COMMAND ${CLI} scorecard ${EXAMPLES}/paper_scorecard.json --scale 0.25
          --cache-dir off --json ${WORK}/scorecard.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "jetty_cli scorecard failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK}/scorecard.json ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "the scorecard drifted from ${GOLDEN}; compare it with "
          "${WORK}/scorecard.json and regenerate the golden deliberately "
          "if the change is intended")
endif()
message(STATUS "paper scorecard matches its golden")
