# Bad flags fail before a command does any work, with a message naming the
# offending flag: a malformed number, or a flag the command (or the selected
# serve-sim or fleet-sim mode or clusterer) does not read, is a usage error
# (exit 2); a well-formed value outside its range is a runtime failure
# (exit 1) instead of an abort. A well-formed command must still exit 0.
# Run through ctest:
#   cmake -DCLI=<path to sthist_cli> -P tools/cli_usage_test.cmake

if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to sthist_cli>")
endif()

# expect_exit(<code> <pattern the error message must match, or ""> <args>...)
# The message is stderr's first line. A usage error prints the usage text
# after it, which names nearly every flag, so the pattern is matched against
# the message alone and quotes the message ("malformed number: --train"),
# not just the flag.
function(expect_exit code pattern)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  string(JOIN " " shown ${ARGN})
  string(FIND "${err}\n" "\n" end)
  string(SUBSTRING "${err}" 0 ${end} first_line)
  if(NOT result STREQUAL "${code}")
    message(SEND_ERROR "'${shown}' exited ${result}, expected ${code}\n${err}")
  elseif(pattern AND NOT first_line MATCHES "${pattern}")
    message(SEND_ERROR "'${shown}' did not report ${pattern}:\n${err}")
  else()
    message(STATUS "ok (exit ${result}): ${shown}")
  endif()
endfunction()

expect_exit(2 "malformed number: --train"
  experiment --dataset cross --tuples 2000 --sim 10 --train -3)
expect_exit(2 "malformed number: --queries"
  serve-sim --tuples 2000 --queries -5 --pace 1)
expect_exit(2 "malformed number: --tenants" fleet-sim --tenants -1)
expect_exit(2 "malformed number: --tuples"
  experiment --dataset cross --tuples -100 --sim 10)
expect_exit(2 "malformed number: --buckets"
  experiment --dataset cross --tuples 2000 --sim 10 --buckets abc)
expect_exit(2 "malformed number: --threads"
  sweep --dataset cross --tuples 2000 --train 10 --sim 10 --buckets 10
  --threads -1)
expect_exit(2 "malformed number: --fault-rate"
  experiment --dataset cross --tuples 2000 --sim 10 --fault-rate nan)

# Out-of-range values exit 1.
expect_exit(1 "--alpha/--beta/--width: alpha must be in"
  cluster --dataset cross --tuples 2000 --alpha 5)
expect_exit(1 "--xi/--tau/--max-dims: xi must be >= 2"
  cluster --dataset cross --tuples 2000 --clusterer clique --xi 0)
expect_exit(1 "--alpha/--beta/--width: width_fraction must be positive"
  cluster --dataset cross --tuples 2000 --clusterer doc --width 0)
expect_exit(1 "--volume must be in"
  experiment --dataset cross --tuples 2000 --train 10 --sim 10 --volume 2)
expect_exit(1 "--sim must be > 0"
  experiment --dataset cross --tuples 2000 --sim 0)
expect_exit(1 "--buckets: estimator 'mhist' needs a positive bucket budget"
  experiment --dataset cross --tuples 2000 --train 10 --sim 10
  --estimator mhist --buckets 0)
expect_exit(1 "--alpha/--beta/--width: alpha must be in"
  serve-sim --drift cross-move --queries 400 --readers 0 --alpha 5)

# Thread counts above the limit exit 1 before any thread starts.
expect_exit(1 "--refiners 100000 is above the limit"
  fleet-sim --refiners 100000)
expect_exit(1 "--readers 100000 is above the limit"
  fleet-sim --readers 100000)
expect_exit(1 "--readers 100000 is above the limit"
  serve-sim --tuples 2000 --readers 100000)
expect_exit(1 "--readers 100000 is above the limit"
  serve-sim --drift cross-move --queries 400 --readers 100000)
expect_exit(1 "--threads 100000 is above the limit"
  sweep --dataset cross --tuples 2000 --train 10 --sim 10 --buckets 10
  --threads 100000)

# Flags the command or the serve-sim mode does not read exit 2.
expect_exit(2 "unknown flag: --bogus" fleet-sim --bogus 1)
expect_exit(2 "unknown flag: --clusterer"
  experiment --dataset cross --tuples 3000 --train 50 --sim 50 --buckets 30
  --init --clusterer clique)
expect_exit(2 "unknown flag: --snapshot in serve-sim drift mode"
  serve-sim --drift cross-move --snapshot f.snap)
expect_exit(2 "unknown flag: --dataset in serve-sim drift mode"
  serve-sim --drift cross-move --dataset gauss)
expect_exit(2 "unknown flag: --readers in serve-sim replay mode"
  serve-sim --tuples 2000 --pace 1 --readers 8)
expect_exit(2 "unknown flag: --fault-rate in serve-sim replay mode"
  serve-sim --tuples 2000 --pace 1 --fault-rate 0.5)
expect_exit(2 "unknown flag: --reinit-window in serve-sim concurrent mode"
  serve-sim --tuples 2000 --readers 2 --reinit-window 5)

# fleet-sim --restore takes its tenants and seed from the file and skips the
# driver; snapshot load/verify never refine. Each refuses the flags it does
# not read before it opens the file, so the file need not exist.
foreach(flag tenants seed buckets pace)
  expect_exit(2 "--${flag} in fleet-sim restore mode"
    fleet-sim --queries 32 --restore missing.snap --${flag} 5)
endforeach()
foreach(mode load verify)
  expect_exit(2 "--buckets in snapshot ${mode}"
    snapshot ${mode} --in missing.snap --buckets 999)
endforeach()

expect_exit(0 ""
  experiment --dataset cross --tuples 2000 --train 10 --sim 10 --buckets 10)
