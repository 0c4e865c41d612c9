# Compiles dropped_waits.cc with -fsyntax-only and passes only if the
# compiler reports exactly one nodiscard diagnostic on each line marked
# DROP and none elsewhere. CI builds with -Werror=unused-result, so this
# is what makes a dropped co_await fail the build.
#
#   cmake -DCXX=<compiler> -DSRC=<dropped_waits.cc> -DINC=<src dir>
#         -P check_dropped_waits.cmake
execute_process(
  COMMAND ${CXX} -std=c++20 -fsyntax-only -Wunused-result -I${INC} ${SRC}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "dropped_waits.cc does not compile:\n${out}")
endif()

file(STRINGS ${SRC} lines)
set(want "")
set(n 0)
foreach(line IN LISTS lines)
  math(EXPR n "${n} + 1")
  if(line MATCHES "// DROP$")
    list(APPEND want ${n})
  endif()
endforeach()

get_filename_component(name ${SRC} NAME)
string(REGEX MATCHALL "${name}:[0-9]+:[0-9]+: (warning|error): [^\n]*nodiscard"
       diagnostics "${out}")
set(got "")
foreach(d IN LISTS diagnostics)
  string(REGEX REPLACE "^${name}:([0-9]+):.*" "\\1" n "${d}")
  list(APPEND got ${n})
endforeach()

if(NOT got STREQUAL want)
  message(FATAL_ERROR "nodiscard diagnostics on lines [${got}], want one "
                      "on each DROP line [${want}]:\n${out}")
endif()
list(LENGTH want drops)
message(STATUS "${drops} dropped waits, each diagnosed once")
