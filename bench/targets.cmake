# Bench binaries: `figures` regenerates and checks every reproduced paper
# figure (see DESIGN.md); kernels times the real-time kernels. Included from
# the top-level CMakeLists with include() rather than add_subdirectory() so
# build/bench/ holds only the executables.

function(psw_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

psw_bench(figures psw_memsim psw_svmsim psw_baseline)
# The paper's claims as tests, one per figure at quarter scale so `ctest -j`
# runs them side by side; the claims pinned to half scale run in
# scripts/ci.sh's release stage (`figures --scale=half`).
foreach(fig 2 4 5 6 7 8 9 10 12 13 14 15 16 17 18 19 20 21 22 ablation ext)
  add_test(NAME figures.${fig} COMMAND figures --fig=${fig} --scale=quarter)
  set_tests_properties(figures.${fig} PROPERTIES LABELS claims)
endforeach()
psw_bench(kernels psw_core psw_phantom psw_parallel benchmark::benchmark)

# `cmake --build build --target bench_kernels_json` regenerates the
# committed kernel-benchmark report at the repo root, five repetitions per
# case with only their mean, median and spread recorded.
add_custom_target(bench_kernels_json
  COMMAND kernels --json ${CMAKE_SOURCE_DIR}/BENCH_kernels.json
          --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
  DEPENDS kernels
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench
  COMMENT "Running kernel benchmarks -> BENCH_kernels.json"
  VERBATIM)
