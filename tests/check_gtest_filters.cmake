# Fails when a --gtest_filter pattern in FILTER_SOURCE matches no test of
# TEST_BINARY. gtest runs a filter that matches nothing as a passing empty
# run, so a renamed or deleted suite would otherwise drop out of its named
# ctest gate unnoticed.
#
#   cmake -DTEST_BINARY=<pqtls_tests> -DFILTER_SOURCE=<CMakeLists.txt> \
#         -P check_gtest_filters.cmake

execute_process(COMMAND "${TEST_BINARY}" --gtest_list_tests
                OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TEST_BINARY} --gtest_list_tests exited with ${rc}")
endif()

# Listing format: "Suite." lines (optionally followed by a "# TypeParam"
# comment), each followed by indented "Test" lines.
set(suites "")
set(tests "")
string(REPLACE "\n" ";" lines "${listing}")
foreach(line IN LISTS lines)
  if(line MATCHES "^([^ #]+)\\.")
    set(suite "${CMAKE_MATCH_1}")
    list(APPEND suites "${suite}")
  elseif(line MATCHES "^  ([^ ]+)")
    list(APPEND tests "${suite}.${CMAKE_MATCH_1}")
  endif()
endforeach()

file(READ "${FILTER_SOURCE}" source)
string(REGEX MATCHALL "--gtest_filter=[^ \t\r\n)]+" filters "${source}")
set(checked 0)
set(missing "")
foreach(filter IN LISTS filters)
  string(REPLACE "--gtest_filter=" "" filter "${filter}")
  # Positive and negative ("-") patterns alike must name existing tests.
  string(REGEX MATCHALL "[^:-]+" patterns "${filter}")
  foreach(pattern IN LISTS patterns)
    math(EXPR checked "${checked} + 1")
    if(pattern MATCHES "^([^*?]+)\\.\\*$")
      # The common "Suite.*" form: an exact suite-name lookup.
      list(FIND suites "${CMAKE_MATCH_1}" found)
    else()
      # Any other glob: match it against every full test name.
      string(REGEX REPLACE "([][.+^$()|\\\\])" "\\\\\\1" regex "${pattern}")
      string(REPLACE "*" ".*" regex "${regex}")
      string(REPLACE "?" "." regex "${regex}")
      set(found -1)
      foreach(test IN LISTS tests)
        if(test MATCHES "^${regex}$")
          set(found 0)
          break()
        endif()
      endforeach()
    endif()
    if(found EQUAL -1)
      list(APPEND missing "${pattern}")
    endif()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no --gtest_filter patterns found in ${FILTER_SOURCE}")
endif()
if(missing)
  list(JOIN missing ", " missing)
  message(FATAL_ERROR "--gtest_filter patterns matching no test: ${missing}")
endif()
message(STATUS "all ${checked} --gtest_filter patterns match tests")
