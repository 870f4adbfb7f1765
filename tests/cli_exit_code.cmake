# Runs a command-line tool and checks its exit code and (optionally) its
# stdout.
#   cmake -DCLI=<program> -DARGS="arg;arg" -DEXPECT_RC=<n>
#         [-DEXPECT_STDOUT=<regex>] -P cli_exit_code.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "${CLI} exited ${rc}, expected ${EXPECT_RC}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}':\n${out}")
endif()
