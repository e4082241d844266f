# Passes only when the CLI exits 0 and its stdout matches the regex MATCH.
#   cmake -DCLI=<fcdpm_cli> "-DMATCH=<regex>" -P cli_stdout_matches.cmake
#         -- <args>
set(args "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(DEFINED dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fcdpm_cli ${args}: exit ${code}\n${err}")
elseif(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "fcdpm_cli ${args}: stdout does not match "
                      "'${MATCH}':\n${out}")
endif()
