#!/usr/bin/env bash
# One-command verification: the tier-1 suite (Release build + ctest) plus
# the concurrency suites under a sanitizer — the gate every PR must pass.
# CI (.github/workflows/ci.yml) and local runs share this entrypoint, so
# "green locally" and "green in CI" mean the same thing.
#
# Usage:
#   tools/verify.sh                       # tier-1 + TSan (the default gate)
#   tools/verify.sh --tier1-only          # just the Release build + ctest
#   tools/verify.sh --tsan-only           # just the TSan suite
#   tools/verify.sh --sanitize=thread     # any -DCYCLERANK_SANITIZE value,
#   tools/verify.sh --sanitize=address,undefined   # e.g. ASan+UBSan
#   tools/verify.sh --static              # static gate: Clang build with
#                                         # -Werror=thread-safety, clang-tidy
#                                         # over src/, tools/lint.py
#   tools/verify.sh --faults              # fault matrix: ASan+UBSan build,
#                                         # fault-injection suites and the
#                                         # reader mutation test swept over
#                                         # CYCLERANK_FAULT_SEED values
#
# Environment:
#   BUILD_DIR          tier-1 build directory          (default: build)
#   TSAN_DIR           thread-sanitizer build dir      (default: build-tsan)
#   STATIC_DIR         --static build dir              (default: build-static)
#   CLANG / CLANG_TIDY compilers for --static    (default: clang++,
#                      clang-tidy; run-clang-tidy is used when available)
#   JOBS               parallel build/test jobs        (default: nproc)
#   FAULT_SEEDS        seeds swept by --faults   (default: "1 7 42 1337 9001")
#   VERIFY_CMAKE_ARGS  extra args for every configure, e.g.
#                      "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache" (CI cache)
#
# Sanitizer trees build only the library and tests (benchmarks, examples
# and tools are skipped — they add compile time but no coverage).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
TSAN_DIR=${TSAN_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc)}
MODE=${1:-all}
# Deliberately word-split: VERIFY_CMAKE_ARGS holds whole cmake arguments.
read -r -a EXTRA_CMAKE_ARGS <<<"${VERIFY_CMAKE_ARGS:-}"

run_tier1() {
  echo "== tier-1: configure + build + ctest (${BUILD_DIR})" >&2
  cmake -B "${BUILD_DIR}" -S . "${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"}"
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
}

run_sanitize() {
  local san="$1"
  local dir
  if [[ "${san}" == "thread" ]]; then
    dir="${TSAN_DIR}"          # keep the historical tree name for TSan
  else
    dir="build-san-${san//,/-}"  # e.g. build-san-address-undefined
  fi
  echo "== sanitize=${san}: configure + build + ctest (${dir})" >&2
  if [[ "${san}" == *undefined* ]]; then
    # A UBSan diagnostic must fail the suite, not scroll past it.
    export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
  fi
  if [[ "${san}" == *thread* ]]; then
    # TSan's lock-order detector accretes stale graph edges: libstdc++'s
    # std::mutex never calls pthread_mutex_destroy, so a dead stack
    # mutex's edges survive and stack-address reuse across sequential
    # tests stitches phantom "cycles" between unrelated mutexes. Lock
    # order is instead enforced by the runtime lock-rank checker
    # (common/lock_rank.h), which is active in this very build and
    # aborts on the first wrong nesting; TSan still gates data races.
    export TSAN_OPTIONS="detect_deadlocks=0${TSAN_OPTIONS:+:${TSAN_OPTIONS}}"
  fi
  cmake -B "${dir}" -S . -DCYCLERANK_SANITIZE="${san}" \
        -DCYCLERANK_BUILD_BENCHMARKS=OFF -DCYCLERANK_BUILD_EXAMPLES=OFF \
        -DCYCLERANK_BUILD_TOOLS=OFF \
        "${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"}"
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_faults() {
  # The PR-8 fault matrix: build the tests under ASan+UBSan (a torn write
  # or recovery bug should abort loudly, not corrupt quietly), run every
  # fault-injection suite once, then sweep the randomized-churn tests and
  # the reader mutation test over a set of seeds — determinism means any
  # failing seed reproduces exactly.
  local dir="build-san-address-undefined"
  local seeds=${FAULT_SEEDS:-"1 7 42 1337 9001"}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
  echo "== faults 1/3: ASan+UBSan build (${dir})" >&2
  cmake -B "${dir}" -S . -DCYCLERANK_SANITIZE=address,undefined \
        -DCYCLERANK_BUILD_BENCHMARKS=OFF -DCYCLERANK_BUILD_EXAMPLES=OFF \
        -DCYCLERANK_BUILD_TOOLS=OFF \
        "${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"}"
  cmake --build "${dir}" -j "${JOBS}" \
        --target common_tests platform_tests graph_tests
  echo "== faults 2/3: fault-injection + env suites" >&2
  "${dir}/common_tests" --gtest_filter='*Env*:*Backoff*'
  "${dir}/platform_tests" --gtest_filter='FaultInjection*:Overload*'
  echo "== faults 3/3: seed sweep (${seeds})" >&2
  for seed in ${seeds}; do
    echo "---- CYCLERANK_FAULT_SEED=${seed}" >&2
    CYCLERANK_FAULT_SEED="${seed}" "${dir}/platform_tests" \
      --gtest_filter='FaultInjectionTest.RandomFaultChurnNeverServesWrongBytes:FaultInjectionTest.RandomFaultChurnReplaysIdenticallyPerSeed'
    # Seeded byte mutations of every reader's golden corpus.
    CYCLERANK_FAULT_SEED="${seed}" "${dir}/graph_tests" \
      --gtest_filter='ReaderMutationTest.*'
  done
}

run_static() {
  local dir=${STATIC_DIR:-build-static}
  local clang=${CLANG:-clang++}
  local tidy=${CLANG_TIDY:-clang-tidy}
  if ! command -v "${clang}" >/dev/null; then
    echo "verify --static: ${clang} not found (set CLANG=)" >&2
    exit 2
  fi
  echo "== static 1/3: Clang build, -Werror=thread-safety (${dir})" >&2
  # Debug so the lock-rank checker compiles in — the static tree doubles as
  # proof that the checked configuration builds warning-clean.
  cmake -B "${dir}" -S . -DCMAKE_CXX_COMPILER="${clang}" \
        -DCMAKE_BUILD_TYPE=Debug -DCYCLERANK_WERROR=ON \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        -DCYCLERANK_BUILD_BENCHMARKS=OFF -DCYCLERANK_BUILD_EXAMPLES=OFF \
        "${EXTRA_CMAKE_ARGS[@]+"${EXTRA_CMAKE_ARGS[@]}"}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "== static 2/3: clang-tidy over src/" >&2
  # run-clang-tidy parallelizes; fall back to sequential clang-tidy. Either
  # way the log is kept for the CI failure artifact.
  local tidy_log="${dir}/clang-tidy.log"
  if command -v run-clang-tidy >/dev/null; then
    run-clang-tidy -p "${dir}" -quiet -j "${JOBS}" 'src/.*' \
      2>&1 | tee "${tidy_log}"
  elif command -v "${tidy}" >/dev/null; then
    find src \( -name '*.cc' \) -print0 |
      xargs -0 -n 8 -P "${JOBS}" "${tidy}" -p "${dir}" --quiet \
        2>&1 | tee "${tidy_log}"
  else
    echo "verify --static: ${tidy} not found (set CLANG_TIDY=)" >&2
    exit 2
  fi
  # clang-tidy exits 0 even on gated findings in some harness paths; grep
  # the log so a '-warnings-as-errors' hit always fails the gate.
  if grep -q "warnings treated as errors\|error:" "${tidy_log}"; then
    echo "verify --static: clang-tidy reported gated findings" >&2
    exit 1
  fi
  echo "== static 3/3: tools/lint.py" >&2
  python3 tools/lint.py --self-test
  python3 tools/lint.py
}

case "${MODE}" in
  all)          run_tier1; run_sanitize thread ;;
  --tier1-only) run_tier1 ;;
  --tsan-only)  run_sanitize thread ;;
  --sanitize=*) run_sanitize "${MODE#--sanitize=}" ;;
  --static)     run_static ;;
  --faults)     run_faults ;;
  *)
    echo "usage: tools/verify.sh [--tier1-only | --tsan-only | --sanitize=<list> | --static | --faults]" >&2
    exit 2 ;;
esac
echo "verify: OK (${MODE})" >&2
