# Runs the ccml_sim CLI with ARGS (a ;-list) in a fresh directory ROOT/CASE
# and passes when it exits RC and its stdout plus every file it wrote hash to
# the SHA-256 values GOLDEN lists for CASE.  GOLDEN is in `sha256sum` format,
# one "<hash>  <CASE>/<path>" line per file, the command's stdout saved as
# <CASE>/stdout; on a mismatch the actual lines are printed in that format.
#   cmake -DCLI=<ccml_sim> -DROOT=<dir> -DCASE=<name> -DARGS=<a;b;c>
#         -DGOLDEN=<file> [-DRC=<exit code>] -P cli_golden.cmake
if(NOT DEFINED RC)
  set(RC 0)
endif()
set(dir "${ROOT}/${CASE}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
execute_process(COMMAND ${CLI} ${ARGS}
                WORKING_DIRECTORY "${dir}"
                RESULT_VARIABLE rc
                OUTPUT_FILE "${dir}/stdout"
                ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "expected exit ${RC}, got '${rc}'\n${err}")
endif()

file(GLOB_RECURSE written RELATIVE "${ROOT}" "${dir}/*")
list(SORT written)
set(actual "")
foreach(path IN LISTS written)
  file(SHA256 "${ROOT}/${path}" hash)
  string(APPEND actual "${hash}  ${path}\n")
endforeach()

file(STRINGS "${GOLDEN}" golden_lines REGEX "  ${CASE}/")
set(expected "")
foreach(line IN LISTS golden_lines)
  string(APPEND expected "${line}\n")
endforeach()

if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output of '${CASE}' differs from ${GOLDEN}\n"
                      "expected:\n${expected}actual:\n${actual}")
endif()
