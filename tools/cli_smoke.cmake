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

# The legacy spellings that predate --oracle, the retired tile prefetch
# depth, the retired fold skip-block size and the retired APSP backend
# switch are gone: each must fail as an unknown flag.
foreach(legacy --distances=rows --row-cache=64 --landmarks=8 --tile-depth=2
               --tile-clients=8 --apsp=blocked)
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

# Each run must fail with an error that matches `pattern`.
function(expect_failure_naming pattern)
  execute_process(COMMAND ${DIACA_BIN} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "unexpectedly succeeded: ${ARGN}")
  endif()
  if(NOT "${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "error does not name ${pattern}: ${ARGN}\n${err}")
  endif()
endfunction()

# Integer flags are range-checked, not wrapped to 32 bits (a bare cast
# would solve --servers=4294967300 with 4 servers): the run must fail,
# naming the flag.
expect_failure_naming("--servers must be in" cloud --nodes=300
                      --clients=2000 --servers=4294967300)

# So are --oracle spec values: landmarks=4294967297 must not build one
# landmark; the error names the key.
expect_failure_naming("'landmarks' must be at most" cloud --nodes=300
                      --clients=2000 --servers=8
                      --oracle=landmarks:landmarks=4294967297)

# A bad --prune fails before the build or load it gates, naming the flag
# (not the client-index overflow, not the missing matrix).
expect_failure_naming(--prune cloud --nodes=300 --clients=3000000000
                      --prune=maybe)
expect_failure_naming(--prune assign --matrix=missing.txt
                      --servers=servers.txt --out=x.txt --prune=maybe)

# churn enforces --rss-budget-mb as a hard error naming the budget.
expect_failure_naming(--rss-budget-mb churn --nodes=300 --clients=500
                      --servers=4 --epochs=2 --rss-budget-mb=1)

# K-center placement on the default rows backend is a pruned sweep that
# builds no row; on the dense backend it folds whole matrix rows. The
# same cloud must come out with the same plan either way, checked here
# through the printed objective.
set(cloud_objectives "")
foreach(oracle_flag "" --oracle=dense)
  execute_process(COMMAND ${DIACA_BIN} cloud --nodes=300 --clients=3000
                          --servers=24 --block=tiled ${oracle_flag}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
            "cloud ${oracle_flag} failed (${code}):\n${out}\n${err}")
  endif()
  string(REGEX MATCH "max interaction path \\(ms\\)[^\n]*" line "${out}")
  if(line STREQUAL "")
    message(FATAL_ERROR "cloud ${oracle_flag} printed no objective:\n${out}")
  endif()
  list(APPEND cloud_objectives "${line}")
endforeach()
list(GET cloud_objectives 0 rows_objective)
list(GET cloud_objectives 1 dense_objective)
if(NOT rows_objective STREQUAL dense_objective)
  message(FATAL_ERROR "cloud objective differs between the rows and the "
                      "dense backend:\n${rows_objective}\n${dense_objective}")
endif()

# Simulate the session end to end from the produced files.
run_step(${DIACA_BIN} simulate --matrix=world.txt --servers=servers.txt
         --assignment=assignment.txt --duration-ms=1500)
