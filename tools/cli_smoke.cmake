# End-to-end smoke test of the diaca CLI: generate -> place -> assign ->
# evaluate -> schedule over real files. Run via ctest (see CMakeLists.txt).
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGV}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
  message(STATUS "${out}")
endfunction()

run_step(${DIACA_BIN} generate --nodes=80 --clusters=5 --seed=3
         --out=world.txt)
run_step(${DIACA_BIN} place --matrix=world.txt --method=kcenter-b
         --servers=5 --out=servers.txt)
run_step(${DIACA_BIN} assign --matrix=world.txt --servers=servers.txt
         --algorithm=greedy --out=assignment.txt)
run_step(${DIACA_BIN} evaluate --matrix=world.txt --servers=servers.txt
         --assignment=assignment.txt)
run_step(${DIACA_BIN} schedule --matrix=world.txt --servers=servers.txt
         --assignment=assignment.txt)

# Capacitated + distributed-greedy path.
run_step(${DIACA_BIN} assign --matrix=world.txt --servers=servers.txt
         --algorithm=dg --capacity=20 --out=assignment_dg.txt)
run_step(${DIACA_BIN} evaluate --matrix=world.txt --servers=servers.txt
         --assignment=assignment_dg.txt)

# Observability artifacts: the same assign with --metrics-out/--trace-out
# must produce files that parse as JSON (CMake's own parser, >= 3.19) and
# an assignment byte-identical to the uninstrumented run.
run_step(${DIACA_BIN} assign --matrix=world.txt --servers=servers.txt
         --algorithm=greedy --out=assignment_obs.txt
         --metrics-out=metrics.json --trace-out=trace.json)
foreach(artifact metrics.json trace.json)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "assign did not write ${artifact}")
  endif()
  if(NOT CMAKE_VERSION VERSION_LESS 3.19)
    file(READ ${WORK_DIR}/${artifact} content)
    string(JSON type ERROR_VARIABLE json_err TYPE "${content}")
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "${artifact} is not valid JSON: ${json_err}")
    endif()
  endif()
endforeach()
if(NOT CMAKE_VERSION VERSION_LESS 3.19)
  file(READ ${WORK_DIR}/trace.json trace_content)
  string(JSON events ERROR_VARIABLE json_err GET "${trace_content}"
         traceEvents)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "trace.json has no traceEvents array: ${json_err}")
  endif()
  string(JSON num_events LENGTH "${trace_content}" traceEvents)
  if(num_events LESS 2)
    message(FATAL_ERROR "trace.json has only ${num_events} events")
  endif()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/assignment.txt
                        ${WORK_DIR}/assignment_obs.txt
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "instrumented assignment differs from plain run")
endif()

# A bad invocation must fail loudly.
execute_process(COMMAND ${DIACA_BIN} assign --matrix=missing.txt
                        --servers=servers.txt --algorithm=greedy
                        --out=x.txt
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "missing-matrix invocation unexpectedly succeeded")
endif()

# An unknown algorithm must fail fast and list the valid names.
execute_process(COMMAND ${DIACA_BIN} assign --matrix=world.txt
                        --servers=servers.txt --algorithm=bogus
                        --out=x.txt
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "bogus-algorithm invocation unexpectedly succeeded")
endif()
if(NOT "${out}${err}" MATCHES "nearest")
  message(FATAL_ERROR "algorithm error does not list the valid set:\n${err}")
endif()

# The legacy spellings that predate --oracle, and the retired tile
# prefetch depth, are gone: each must fail as an unknown flag.
foreach(legacy --distances=rows --row-cache=64 --landmarks=8 --tile-depth=2)
  execute_process(COMMAND ${DIACA_BIN} assign --matrix=world.txt
                          --servers=servers.txt --out=x.txt ${legacy}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "removed flag ${legacy} unexpectedly succeeded")
  endif()
  if(NOT "${err}" MATCHES "unknown flag")
    message(FATAL_ERROR
            "removed flag ${legacy} not rejected as unknown:\n${err}")
  endif()
endforeach()

# Simulate the session end to end from the produced files.
run_step(${DIACA_BIN} simulate --matrix=world.txt --servers=servers.txt
         --assignment=assignment.txt --duration-ms=1500)
