# Run a command that must fail: pass only when it exits with a non-zero
# status (a crash does not count) and its output matches a regex.
#
#   cmake -DEXPECT=<regex> -P expect_failure.cmake -- <command> [args...]
#
# CTest's PASS_REGULAR_EXPRESSION alone ignores the exit status, so a
# command that printed the expected message and then exited 0 would pass.
set(command "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P expect_failure.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT status MATCHES "^[0-9]+$" OR status EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit status, got '${status}'")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
