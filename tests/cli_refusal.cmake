# Runs TOOL on INPUT with ARGS (a ;-list) and requires exit code CODE
# (default 1), an empty stdout, and EXPECT somewhere in stderr. INPUT may
# be omitted. ALLOW_STDOUT=1 drops the empty-stdout check, for tools that
# report progress before they fail:
#
#   cmake -DTOOL=... [-DINPUT=...] -DARGS=... -DEXPECT=... [-DCODE=2] \
#         [-DALLOW_STDOUT=1] -P cli_refusal.cmake
if(NOT DEFINED CODE)
  set(CODE 1)
endif()
execute_process(COMMAND ${TOOL} ${INPUT} ${ARGS}
                RESULT_VARIABLE Code
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT Code STREQUAL "${CODE}")
  message(FATAL_ERROR "expected exit ${CODE}, got '${Code}'\nstderr:\n${Err}")
endif()
if(NOT ALLOW_STDOUT AND NOT Out STREQUAL "")
  message(FATAL_ERROR "expected no output, got:\n${Out}")
endif()
string(FIND "${Err}" "${EXPECT}" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${Err}")
endif()
