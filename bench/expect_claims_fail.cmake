# Runs paper_figures on a claims file that must fail, and passes only when
# the driver exits 1 and names every claim in EXPECT (comma-separated):
#   cmake -DPROGRAM=<paper_figures> -DJSON=<out.json> -DCLAIMS=<claims.json>
#         -DEXPECT=<id>,<id> -P expect_claims_fail.cmake
execute_process(COMMAND ${PROGRAM} --json ${JSON} --claims ${CLAIMS}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "paper_figures exited ${code}, not 1, on ${CLAIMS}:\n"
                      "${out}${err}")
endif()
string(REPLACE "," ";" ids "${EXPECT}")
foreach(id IN LISTS ids)
  string(FIND "${err}" "claim failed: ${id}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "paper_figures did not name the failed claim ${id}:\n"
                        "${out}${err}")
  endif()
endforeach()
message(STATUS "the claims check tripped on ${EXPECT}")
