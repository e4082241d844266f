# Passes only when the CLI exits 0 with the same stdout on every engine.
#   cmake -DCLI=<fcdpm_cli> "-DENGINES=reference;hot" -P cli_same_stdout.cmake
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
foreach(engine IN LISTS ENGINES)
  execute_process(COMMAND "${CLI}" ${args} --engine ${engine}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fcdpm_cli ${args} --engine ${engine}: exit ${code}"
                        "\n${err}")
  elseif(DEFINED want AND NOT out STREQUAL want)
    message(FATAL_ERROR "fcdpm_cli ${args}: --engine ${engine} stdout:\n"
                        "${out}\ndiffers from:\n${want}")
  endif()
  set(want "${out}")
endforeach()
