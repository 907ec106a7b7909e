# Runs TOOL on INPUT with ARGS (a ;-list) and requires exit code 0 and a
# non-empty stdout; when SAME_AS (another ;-list) is given, TOOL on INPUT
# with SAME_AS must also succeed and print exactly the same stdout:
#
#   cmake -DTOOL=... -DINPUT=... -DARGS=... [-DSAME_AS=...] \
#         -P cli_same_output.cmake
function(run_tool Args OutVar)
  execute_process(COMMAND ${TOOL} ${INPUT} ${Args}
                  RESULT_VARIABLE Code
                  OUTPUT_VARIABLE Out
                  ERROR_VARIABLE Err)
  if(NOT Code STREQUAL "0")
    message(FATAL_ERROR "'${Args}': expected exit 0, got '${Code}'\n"
                        "stderr:\n${Err}")
  endif()
  if(Out STREQUAL "")
    message(FATAL_ERROR "'${Args}': printed nothing\nstderr:\n${Err}")
  endif()
  set(${OutVar} "${Out}" PARENT_SCOPE)
endfunction()

run_tool("${ARGS}" Got)
if(DEFINED SAME_AS)
  run_tool("${SAME_AS}" Want)
  if(NOT Got STREQUAL Want)
    message(FATAL_ERROR "'${ARGS}' printed:\n${Got}\n"
                        "'${SAME_AS}' printed:\n${Want}")
  endif()
endif()
