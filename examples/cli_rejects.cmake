# Passes only when the CLI exits 2 and its stderr contains EXPECT.
#   cmake -DCLI=<fcdpm_cli> -DEXPECT=<text> -P cli_rejects.cmake -- <args>
set(args "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "${EXPECT}" at)
if(NOT code EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "fcdpm_cli ${args}: exit ${code}, want 2 and "
                      "'${EXPECT}' on stderr; stderr:\n${err}")
endif()
