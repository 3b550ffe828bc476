# bench.one_driver: every bench drives its RPCs through bench::DriveCalls
# (bench/common.cc). Fails when any other bench/*.cc calls SubmitCall( or
# AwaitCall( itself, since each hand-rolled loop has re-grown its own
# latency bookkeeping. A bench that must keep its own loop goes in `allowed`
# with the reason next to it.
#   cmake -DBENCH_DIR=<repo>/bench -P tests/one_driver.cmake
cmake_minimum_required(VERSION 3.16)
set(allowed common.cc)
file(GLOB sources "${BENCH_DIR}/*.cc")
foreach(source IN LISTS sources)
  get_filename_component(name "${source}" NAME)
  file(STRINGS "${source}" calls REGEX "(SubmitCall|AwaitCall)\\(")
  if(calls AND NOT name IN_LIST allowed)
    list(APPEND offenders "${name}")
  endif()
endforeach()
if(offenders)
  message(FATAL_ERROR "bench.one_driver: drive calls through bench::DriveCalls, not by hand: "
                      "${offenders}")
endif()
