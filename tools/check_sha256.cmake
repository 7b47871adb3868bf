# Holds one trace scenario's trace and metrics JSON to pinned SHA-256 values
# (the obs_trace_pin_* ctest legs in tools/CMakeLists.txt):
#   cmake -DTRACE=<file> -DTRACE_SHA256=<hex> \
#         -DMETRICS=<file> -DMETRICS_SHA256=<hex> -P check_sha256.cmake
foreach(kind TRACE METRICS)
  file(SHA256 "${${kind}}" got)
  if(NOT got STREQUAL "${${kind}_SHA256}")
    message(FATAL_ERROR
            "${${kind}}: SHA-256 ${got}, pinned ${${kind}_SHA256}")
  endif()
endforeach()
