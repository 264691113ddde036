# Runs BIN and compares its stdout with EXPECTED byte for byte, keeping
# the run's stdout in ACTUAL. On a mismatch it prints a unified diff and
# fails. Usage:
#   cmake -DBIN=<binary> -DEXPECTED=<file> -DACTUAL=<file> \
#         -P compare_stdout.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL} RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${EXPECTED} (diff "
          "above). A change to a paper number re-records the file and says "
          "why.")
endif()
