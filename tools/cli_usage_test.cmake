# Malformed numeric flags are usage errors: each command below must exit 2
# before doing any work, with a message naming the offending flag, and a
# well-formed command must still exit 0. Run through ctest:
#   cmake -DCLI=<path to sthist_cli> -P tools/cli_usage_test.cmake

if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to sthist_cli>")
endif()

# expect_exit(<code> <flag that stderr must name, or ""> <args>...)
function(expect_exit code flag)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  string(JOIN " " shown ${ARGN})
  if(NOT result STREQUAL "${code}")
    message(SEND_ERROR "'${shown}' exited ${result}, expected ${code}\n${err}")
  elseif(flag AND NOT err MATCHES "${flag}")
    message(SEND_ERROR "'${shown}' did not name ${flag}:\n${err}")
  else()
    message(STATUS "ok (exit ${result}): ${shown}")
  endif()
endfunction()

expect_exit(2 "--train"
  experiment --dataset cross --tuples 2000 --sim 10 --train -3)
expect_exit(2 "--queries" serve-sim --tuples 2000 --queries -5 --pace 1)
expect_exit(2 "--tenants" fleet-sim --tenants -1)
expect_exit(2 "--tuples" experiment --dataset cross --tuples -100 --sim 10)
expect_exit(2 "--buckets"
  experiment --dataset cross --tuples 2000 --sim 10 --buckets abc)
expect_exit(2 "--threads"
  sweep --dataset cross --tuples 2000 --train 10 --sim 10 --buckets 10
  --threads -1)
expect_exit(2 "--fault-rate"
  experiment --dataset cross --tuples 2000 --sim 10 --fault-rate nan)
expect_exit(0 ""
  experiment --dataset cross --tuples 2000 --train 10 --sim 10 --buckets 10)
