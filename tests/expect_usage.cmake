# Runs EXE with the argument list ARGS and passes only when it exits
# with status 2 and prints a usage line: how the benches must answer a
# command line they cannot run as written.
#
#   cmake -DEXE=<binary> "-DARGS=--flag;value" -P expect_usage.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}':\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "usage:")
  message(FATAL_ERROR "no usage message in the output:\n${out}${err}")
endif()
