#!/usr/bin/env sh
# Static + dynamic analysis gate (`urcl::check`, DESIGN.md §9, §14). Runs, in
# order:
#
#   1. the repo lint (tools/lint) over the source tree — banned constructs,
#      format hygiene, lock discipline and the include-graph layer DAG;
#   2. the Clang thread-safety build: with clang++ available, a
#      -DURCL_THREAD_SAFETY=ON library build where any -Wthread-safety
#      diagnostic is an error. Without clang++ the annotations compile to
#      nothing, so the step degrades to a GCC syntax-check of a probe TU that
#      exercises the common/thread_annotations.h wrappers — proving the header
#      stays usable — and says so; it hard-fails only if neither works;
#   3. clang-tidy (advisory): the curated .clang-tidy checks over src/, driven
#      by the exported compile_commands.json. Findings are printed, never
#      fatal — the enforced analysis gates are steps 1-2. Skipped with a
#      message when clang-tidy is not installed;
#   4. a -DURCL_SIMD=OFF build running the `kernels`-labeled tests on the
#      scalar backend: its 8-lane helpers are plain loops and its tanh/exp
#      run the scalar replicas lane by lane, so the memcmp suites and the
#      golden fingerprint must come out as on the native backend;
#   5. an ASan+UBSan build (poisoning + graph checks forced on) running the
#      `analysis`-, `exec`-, `kernels`-, `serving`-, `autograd`-,
#      `robustness`- and `models`-labeled tests plus the pool suite (exec
#      under ASan proves the arena's lifetime-sharing of slots never reads or
#      writes out of a
#      live slot's window; kernels proves the tensor kernels' shifted
#      flat-plane indexing stays inside each tensor; serving covers pooled
#      plans that move between query threads and rebind each snapshot's
#      weight storage on every run;
#      autograd runs every op's gradient formula, the one both executors
#      call, through the tape tests and the finite-difference checks;
#      robustness runs the checkpoint and tensor decoders, which parse bytes
#      read from disk, over truncated and corrupted input; models trains
#      UrclModel, every DeepBaseline and EWC through the shared forecaster);
#   6. a TSan build running the `analysis`-, `serving`-, `exec`-,
#      `observability`- and `kernels`-labeled tests (serving is mandatory
#      under TSan: the hot-swap path is lock-free and its data-race freedom
#      is part of the serving contract; exec covers plan replay racing the
#      pool from worker threads; observability covers the lock-striped flight
#      recorder and the metrics registry, both written from every serving
#      thread; kernels covers the tensor kernels, whose ParallelFor chunks
#      must write disjoint output slots). Every test target carrying a
#      selected label must be built in that tree: ctest only lists the cases
#      of targets that were built, so an unbuilt suite is skipped silently;
#   7. the `chaos`-labeled suite under both sanitizer builds with a serving
#      fault storm injected via URCL_FAULT (fault-point names documented in
#      src/common/fault_injector.h). The chaos tests assert the serving
#      invariants -- no crash, no non-finite output, every failure typed --
#      so running them under ASan and TSan extends that to "and no memory
#      error or data race on any fault path".
#
# Build trees are kept under build-check-{asan,tsan,tsafety,scalar} and reused across
# runs. Usage: scripts/check.sh [-j N]
set -eu

jobs=2
while [ $# -gt 0 ]; do
  case "$1" in
    -j) jobs="$2"; shift 2 ;;
    *) echo "usage: scripts/check.sh [-j N]" >&2; exit 2 ;;
  esac
done

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

echo "== [1/7] repo lint =="
cmake -B build-check-asan -S . \
  -DURCL_SANITIZE=address+undefined -DURCL_WERROR=ON \
  -DURCL_BUILD_BENCHMARKS=OFF -DURCL_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-check-asan -j"$jobs" --target urcl_lint
./build-check-asan/tools/lint/urcl_lint --root "$root"

echo "== [2/7] Clang -Wthread-safety =="
if command -v clang++ >/dev/null 2>&1; then
  # Library-only build: tests/benches link gtest/benchmark, which may not be
  # built for clang here; the annotations all live in src/.
  cmake -B build-check-tsafety -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DURCL_THREAD_SAFETY=ON \
    -DURCL_BUILD_TESTS=OFF -DURCL_BUILD_BENCHMARKS=OFF \
    -DURCL_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-check-tsafety -j"$jobs"
  echo "thread-safety: clang -Werror=thread-safety-analysis build clean"
else
  # No clang in this environment: the attributes expand to nothing, so the
  # best available check is that the annotated wrappers still compile and the
  # macros still expand. A probe TU exercising Mutex/MutexLock/CondVar/
  # guarded members must pass a syntax-only compile; if it cannot, the header
  # rotted and the step fails hard.
  probe="$(mktemp /tmp/urcl_tsafety_probe_XXXXXX.cc)"
  cat > "$probe" <<'EOF'
#include "common/thread_annotations.h"
struct Probe {
  urcl::Mutex mu;
  urcl::CondVar cv;
  int value URCL_GUARDED_BY(mu) = 0;
  void Set(int v) URCL_EXCLUDES(mu) {
    urcl::MutexLock lock(mu);
    value = v;
    cv.NotifyAll();
  }
  void WaitNonZero() URCL_EXCLUDES(mu) {
    urcl::MutexLock lock(mu);
    while (value == 0) cv.Wait(mu);
  }
};
int main() { Probe p; p.Set(1); return 0; }
EOF
  if ! "${CXX:-c++}" -std=c++20 -fsyntax-only -I "$root/src" "$probe"; then
    rm -f "$probe"
    echo "thread-safety: clang++ not found AND the annotations header fails to" >&2
    echo "compile with ${CXX:-c++}; fix common/thread_annotations.h" >&2
    exit 1
  fi
  rm -f "$probe"
  echo "thread-safety: clang++ not found; verified common/thread_annotations.h"
  echo "  wrappers compile under ${CXX:-c++} (annotations are no-ops here --"
  echo "  run on a machine with clang for the full analysis)"
fi

echo "== [3/7] clang-tidy (advisory) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by the asan tree configured in step 1.
  # Advisory by design: findings inform, the deterministic gates enforce.
  find src -name '*.cc' | xargs clang-tidy -p build-check-asan --quiet || true
else
  echo "clang-tidy not installed; skipping (advisory step, .clang-tidy is the config)"
fi

echo "== [4/7] scalar backend (URCL_SIMD=OFF): kernels tests =="
cmake -B build-check-scalar -S . -DURCL_SIMD=OFF \
  -DURCL_BUILD_BENCHMARKS=OFF -DURCL_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-check-scalar -j"$jobs" --target \
  simd_test tensor_ops_test runtime_test golden_test
ctest --test-dir build-check-scalar -L kernels --output-on-failure -j"$jobs"

echo "== [5/7] ASan+UBSan: analysis/exec/kernels/serving/autograd/robustness/models tests," \
  "poisoning + checks on =="
cmake --build build-check-asan -j"$jobs" --target \
  check_test lint_test exec_test pool_test autograd_test grad_check_test urcl_header_selfcheck \
  simd_test tensor_ops_test runtime_test golden_test serve_test serve_robustness_test \
  checkpoint_test serialize_test core_test baselines_test extensions_test strategies_test
# Force every gate on so the sanitizer sees the poisoned free lists and the
# gated verification paths, not the Release defaults.
URCL_CHECK=1 URCL_POOL_POISON=1 \
  ctest --test-dir build-check-asan -L "analysis|exec|kernels|serving|autograd|robustness|models" \
  --output-on-failure -j"$jobs"
URCL_CHECK=1 URCL_POOL_POISON=1 ./build-check-asan/tests/pool_test

echo "== [6/7] TSan: analysis + serving + exec + observability + kernels tests =="
cmake -B build-check-tsan -S . -DURCL_SANITIZE=thread \
  -DURCL_BUILD_BENCHMARKS=OFF -DURCL_BUILD_EXAMPLES=OFF >/dev/null
# urcl_lint is built here too: the repo_lint ctest entry runs the binary.
cmake --build build-check-tsan -j"$jobs" --target \
  check_test lint_test serve_test serve_robustness_test exec_test obs_test blackbox_tool_test \
  urcl_lint simd_test tensor_ops_test runtime_test golden_test
# scripts/tsan.supp silences one libstdc++ atomic<shared_ptr> artifact
# (relaxed reader unlock in _Sp_atomic::load); see the comment there.
export TSAN_OPTIONS="suppressions=$root/scripts/tsan.supp${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
URCL_CHECK=1 URCL_POOL_POISON=1 \
  ctest --test-dir build-check-tsan -L "analysis|serving|exec|observability|kernels" \
  --output-on-failure -j"$jobs"

echo "== [7/7] chaos: fault-injected serving under ASan and TSan =="
# The env spec layers on top of each test's own Configure() call (the storm
# test calls LoadFromEnv), so directed tests keep their deterministic rates
# while the storm test runs under the union of both fault sets.
chaos_spec="serve_bitflip=0.2;drop_publish=0.1;tick_drop=0.1;tick_dup=0.1;slow=0.05;slow_ms=1;seed=11"
cmake --build build-check-asan -j"$jobs" --target chaos_test
cmake --build build-check-tsan -j"$jobs" --target chaos_test
URCL_FAULT="$chaos_spec" URCL_CHECK=1 \
  ctest --test-dir build-check-asan -L chaos --output-on-failure -j"$jobs"
URCL_FAULT="$chaos_spec" URCL_CHECK=1 \
  ctest --test-dir build-check-tsan -L chaos --output-on-failure -j"$jobs"

echo "scripts/check.sh: all analysis gates passed"
