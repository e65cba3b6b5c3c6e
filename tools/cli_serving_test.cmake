# Serving determinism through the CLI, at sizes small enough for every ctest
# run: a paced fleet replays to the same digest and counters at any refiner
# count, a fleet snapshot restores to the digest it was saved at, and a
# one-tenant serving run prints one digest whether it runs paced, saves
# periodic snapshots, or restores from the last of them. Run through ctest:
#   cmake -DCLI=<path to sthist_cli> -DDIR=<scratch dir> \
#         -P tools/cli_serving_test.cmake

if(NOT CLI OR NOT DIR)
  message(FATAL_ERROR "pass -DCLI=<path to sthist_cli> -DDIR=<scratch dir>")
endif()
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# run(<output variable> <args>...): the CLI's stdout; fails on a non-zero
# exit.
function(run out)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE err)
  string(JOIN " " shown ${ARGN})
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "'${shown}' exited ${result}\n${err}")
  endif()
  message(STATUS "ran: ${shown}")
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

# expect_same(<what> <regex> <output> <output>...): the lines matching
# <regex> are present and equal in every output.
function(expect_same what regex first)
  string(REGEX MATCHALL "[^\n]*(${regex})[^\n]*" want "${first}")
  if(NOT want)
    message(FATAL_ERROR "${what}: no line matches '${regex}'")
  endif()
  foreach(other ${ARGN})
    string(REGEX MATCHALL "[^\n]*(${regex})[^\n]*" got "${other}")
    if(NOT got STREQUAL want)
      string(REPLACE ";" "\n" want "${want}")
      string(REPLACE ";" "\n" got "${got}")
      message(FATAL_ERROR "${what} differs:\n${want}\n--- vs ---\n${got}")
    endif()
  endforeach()
  message(STATUS "ok: ${what}")
endfunction()

set(fleet --tenants 16 --queries 32 --pace 1)
run(fleet_1 fleet-sim ${fleet} --refiners 1)
run(fleet_3 fleet-sim ${fleet} --refiners 3 --snapshot "${DIR}/fleet.snap")
expect_same("fleet replay at 1 and 3 refiners"
  "fleet digest:|feedback accepted|feedback applied|publishes|reads served"
  "${fleet_1}" "${fleet_3}")
run(fleet_restored fleet-sim --queries 32 --restore "${DIR}/fleet.snap")
expect_same("fleet restore" "fleet digest:" "${fleet_3}" "${fleet_restored}")

set(serve serve-sim --tuples 4000 --queries 2000)
run(serve_paced ${serve} --pace 1)
run(serve_saving ${serve} --snapshot-every 700 --snapshot "${DIR}/serve.snap")
run(serve_restored ${serve} --restore "${DIR}/serve.snap")
expect_same("serve digest paced, saving and restored" "serve digest:"
  "${serve_paced}" "${serve_saving}" "${serve_restored}")
