# ctest benchmark_smoke: run the whole benchmark at smoke scale (every
# workload untraced, then traced) and validate what it writes.
#
#   cmake -DDRIVER=<diaca_benchmark> -DOUT_DIR=<dir> -P benchmark/smoke.cmake
#
# Checks: the orchestrator exits 0 (every output check passed);
# results.json parses and carries, per workload, every end-to-end and
# every per-layer metric BENCHMARK.json names; each traced run's Chrome
# trace parses; and a single-workload run's last line is the one-object
# result with exactly the keys correct, attempted, failed and metrics.
cmake_minimum_required(VERSION 3.19)

foreach(_var IN ITEMS DRIVER OUT_DIR)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "pass -D${_var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(
  COMMAND ${DRIVER} --scale=smoke --runs 1 --trace --out-dir ${OUT_DIR}
  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
message("${_out}")
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "benchmark exited ${_rc}:\n${_err}")
endif()

file(READ ${CMAKE_CURRENT_LIST_DIR}/../BENCHMARK.json _bench)
file(READ ${OUT_DIR}/results.json _results)
string(JSON _failed GET "${_results}" failed)
if(NOT _failed EQUAL 0)
  message(FATAL_ERROR "results.json reports ${_failed} failed checks")
endif()

string(JSON _nw LENGTH "${_bench}" workloads)
math(EXPR _last_w "${_nw} - 1")
foreach(_w RANGE ${_last_w})
  string(JSON _workload GET "${_bench}" workloads ${_w} name)
  foreach(_kind IN ITEMS end_to_end per_layer)
    string(JSON _nm LENGTH "${_bench}" ${_kind})
    math(EXPR _last_m "${_nm} - 1")
    foreach(_m RANGE ${_last_m})
      string(JSON _metric GET "${_bench}" ${_kind} ${_m} name)
      string(JSON _got ERROR_VARIABLE _missing GET "${_results}"
             workloads ${_workload} metrics ${_metric} kind)
      if(NOT _missing STREQUAL "NOTFOUND" OR NOT _got STREQUAL _kind)
        message(FATAL_ERROR "${_workload}: ${_kind} metric ${_metric} missing")
      endif()
    endforeach()
  endforeach()
  string(JSON _trace GET "${_results}" workloads ${_workload} trace)
  file(READ ${_trace} _trace_json)
  string(JSON _events ERROR_VARIABLE _bad LENGTH "${_trace_json}" traceEvents)
  if(NOT _bad STREQUAL "NOTFOUND" OR _events LESS 2)
    message(FATAL_ERROR "${_workload}: trace ${_trace} does not parse: ${_bad}")
  endif()
endforeach()

execute_process(
  COMMAND ${DRIVER} --workload paper-sweep --seed 7 --seconds 0.1 --trace 0
          --scale smoke --out-dir ${OUT_DIR}
  RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "single-workload run exited ${_rc}:\n${_err}")
endif()
string(STRIP "${_out}" _out)
string(REGEX REPLACE ".*\n" "" _last_line "${_out}")
string(JSON _keys ERROR_VARIABLE _bad LENGTH "${_last_line}")
if(NOT _bad STREQUAL "NOTFOUND" OR NOT _keys EQUAL 4)
  message(FATAL_ERROR "last line is not a 4-key result object: ${_last_line}")
endif()
foreach(_key IN ITEMS correct attempted failed metrics)
  string(JSON _value ERROR_VARIABLE _bad GET "${_last_line}" ${_key})
  if(NOT _bad STREQUAL "NOTFOUND")
    message(FATAL_ERROR "result line lacks '${_key}'")
  endif()
endforeach()
message("benchmark smoke: OK")
