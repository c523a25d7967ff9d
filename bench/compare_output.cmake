# Runs COMMAND (a list: executable then arguments) and fails unless its
# standard output equals the file GOLDEN byte for byte. On a mismatch the
# actual output is written to ACTUAL for diffing.
#
#   cmake -DGOLDEN=<file> -DACTUAL=<file> "-DCOMMAND=<exe>;<arg>;..." \
#         -P compare_output.cmake
execute_process(COMMAND ${COMMAND} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; "
                      "this run's output is in ${ACTUAL}")
endif()
