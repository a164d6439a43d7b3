# Check that docs/observability.md documents exactly the metric and span
# names the code records, in both directions. Usage:
#
#   cmake -DSOURCE_DIR=<repository root> -P scripts/check_obs_inventory.cmake
#
# Code side: every string literal passed to DIACA_OBS_{COUNT,SPAN,
# GAUGE_SET,OBSERVE,TIMER} or to Registry::Get{Counter,Gauge,Histogram}
# in src/, bench/ and tools/, skipping comment lines (obs.h's usage
# examples), plus the one name family built at run time:
# SolverRegistry's "solver." + name labels and their prefix + ".x"
# metrics (solver.<name> and solver.<name>.x).
#
# Doc side: the backticked names in the first column of every table row
# under "## Metric naming". A bare `y` after `a.b.x` in one cell is
# shorthand for `a.b.y`.
#
# Fails (non-zero exit) listing every name found on one side only.
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

# ---- Names the code records.
set(_code "")
file(GLOB_RECURSE _files
     "${SOURCE_DIR}/src/*.cc" "${SOURCE_DIR}/src/*.h"
     "${SOURCE_DIR}/bench/*.cc" "${SOURCE_DIR}/bench/*.h"
     "${SOURCE_DIR}/tools/*.cc" "${SOURCE_DIR}/tools/*.h")
foreach(_file IN LISTS _files)
  file(READ "${_file}" _text)
  # Semicolons would split the text into a list; no name contains one.
  string(REPLACE ";" " " _text "${_text}")
  string(REGEX REPLACE "\n[ \t]*//[^\n]*" "" _text "\n${_text}")
  string(REGEX MATCHALL
         "(DIACA_OBS_(COUNT|SPAN|GAUGE_SET|OBSERVE|TIMER)|Get(Counter|Gauge|Histogram))\\([ \t\r\n]*\"[^\"]*\""
         _calls "${_text}")
  foreach(_call IN LISTS _calls)
    string(REGEX REPLACE "^.*\"([^\"]*)\"$" "\\1" _name "${_call}")
    list(APPEND _code "${_name}")
  endforeach()
  if(_text MATCHES "\"solver\\.\" \\+ name")
    list(APPEND _code "solver.<name>")
  endif()
  string(REGEX MATCHALL
         "Get(Counter|Gauge|Histogram)\\(prefix \\+ \"\\.[a-z_]+\"\\)"
         _calls "${_text}")
  foreach(_call IN LISTS _calls)
    string(REGEX REPLACE "^.*\"\\.([a-z_]+)\"\\)$" "solver.<name>.\\1"
           _name "${_call}")
    list(APPEND _code "${_name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES _code)
list(SORT _code)

# ---- Names the doc lists.
set(_doc_file "${SOURCE_DIR}/docs/observability.md")
if(NOT EXISTS "${_doc_file}")
  message(FATAL_ERROR "no such file: ${_doc_file}")
endif()
file(READ "${_doc_file}" _text)
string(REPLACE ";" " " _text "${_text}")
string(FIND "${_text}" "\n## Metric naming\n" _begin)
if(_begin LESS 0)
  message(FATAL_ERROR "${_doc_file}: no \"## Metric naming\" section")
endif()
math(EXPR _begin "${_begin} + 1")
string(SUBSTRING "${_text}" ${_begin} -1 _text)
string(FIND "${_text}" "\n## " _end)
if(_end GREATER_EQUAL 0)
  string(SUBSTRING "${_text}" 0 ${_end} _text)
endif()
string(REPLACE "\n" ";" _lines "${_text}")
set(_doc "")
foreach(_line IN LISTS _lines)
  if(NOT _line MATCHES "^\\|[^|]*`")
    continue()
  endif()
  string(REGEX MATCH "^\\|[^|]*" _cell "${_line}")
  string(REGEX MATCHALL "`[^`]+`" _tokens "${_cell}")
  set(_prefix "")
  foreach(_token IN LISTS _tokens)
    string(REGEX REPLACE "^`(.*)`$" "\\1" _name "${_token}")
    if(_name MATCHES "\\.")
      string(REGEX REPLACE "\\.[^.]*$" "." _prefix "${_name}")
    else()
      set(_name "${_prefix}${_name}")
    endif()
    list(APPEND _doc "${_name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES _doc)
list(SORT _doc)

# ---- Compare.
set(_undocumented "${_code}")
list(REMOVE_ITEM _undocumented ${_doc})
set(_stale "${_doc}")
list(REMOVE_ITEM _stale ${_code})
list(LENGTH _code _num_code)
list(LENGTH _doc _num_doc)
if(_undocumented OR _stale)
  string(REPLACE ";" "\n  " _undocumented "${_undocumented}")
  string(REPLACE ";" "\n  " _stale "${_stale}")
  message(FATAL_ERROR
          "docs/observability.md does not match the code "
          "(${_num_code} names recorded, ${_num_doc} documented).\n"
          "Recorded but undocumented:\n  ${_undocumented}\n"
          "Documented but not recorded:\n  ${_stale}")
endif()
message(STATUS "docs/observability.md documents all ${_num_code} recorded "
               "metric and span names")
