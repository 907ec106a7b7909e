# Runs TOOL on INPUT with ARGS (a ;-list) and requires exit code 1, an
# empty stdout, and EXPECT somewhere in stderr:
#
#   cmake -DTOOL=... -DINPUT=... -DARGS=... -DEXPECT=... -P cli_refusal.cmake
execute_process(COMMAND ${TOOL} ${INPUT} ${ARGS}
                RESULT_VARIABLE Code
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT Code STREQUAL "1")
  message(FATAL_ERROR "expected exit 1, got '${Code}'\nstderr:\n${Err}")
endif()
if(NOT Out STREQUAL "")
  message(FATAL_ERROR "expected no output, got:\n${Out}")
endif()
string(FIND "${Err}" "${EXPECT}" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${Err}")
endif()
