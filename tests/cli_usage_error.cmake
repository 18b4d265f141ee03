# Runs the ccml_sim CLI with ARGS (a ;-list) and passes when it exits 2 with
# EXPECT on stderr: a malformed command line must be refused with a usage
# error that names the offending option.
#   cmake -DCLI=<ccml_sim> -DARGS=<a;b;c> -DEXPECT=<text> -P cli_usage_error.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\n${err}")
endif()
# The usage text that follows names every option, so only the error line
# counts.
string(REGEX MATCH "error: [^\n]*" line "${err}")
string(FIND "${line}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the error line does not name '${EXPECT}':\n${err}")
endif()
