#!/usr/bin/env bash
# opckit CI driver: build + test matrix, dynamic analysis, and static
# analysis (clang-tidy + opclint on the example layouts).
#
# Usage:
#   tools/ci.sh            # release + sanitize + lint (the default gate)
#   tools/ci.sh all        # everything, including tsan, tidy and perf
#   tools/ci.sh release    # Release build + ctest
#   tools/ci.sh sanitize   # ASan+UBSan build + ctest
#   tools/ci.sh tsan       # TSan build + thread-pool tests only
#   tools/ci.sh tidy       # clang-tidy over src/ and tools/ (skips if absent)
#   tools/ci.sh lint       # opckit lint on generated example layouts
#   tools/ci.sh perf       # perfbench: every workload once (in `all` only)
#
# Build trees live under build-ci-<job> so CI never disturbs ./build.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CTEST_ARGS=(--output-on-failure -j "${JOBS}")

log() { printf '\n=== ci: %s ===\n' "$*"; }

configure_build() { # <dir> [extra cmake args...]
  local dir="$1"; shift
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@" > /dev/null
  cmake --build "${dir}" -j "${JOBS}"
}

job_release() {
  log "release build + full test suite"
  configure_build build-ci-release
  (cd build-ci-release && ctest "${CTEST_ARGS[@]}")
}

job_sanitize() {
  log "ASan+UBSan build + full test suite"
  configure_build build-ci-asan -DOPCKIT_SANITIZE=address,undefined
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}")
  # The record-file suite is part of the full run above; gate explicitly
  # on the `store` label so a test-discovery regression can never
  # silently drop it from the sanitizer matrix. Two runs, so each half
  # must match tests: the corrupt-file corpus through both of the file's
  # readers (ResultStore.*, PatternLibrary.*), then crash/resume.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L store \
         -R '^(ResultStore|PatternLibrary)\.')
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L store \
         -R 'FlowResume\.(Flat|Cell)CrashThenResume')
  # Same explicit gate for the observability suite (`trace` label): the
  # tracer's per-thread buffers and the metrics atomics must stay clean
  # under ASan/UBSan too, not just TSan.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L trace)
  # And for the SOCS kernel-imaging + metrology edge-case suite (`socs`
  # and `metrology` labels): the eigensolver and kernel synthesis are
  # index-heavy numerics the address sanitizer should sweep on every CI
  # run, not only when the full suite happens to include them.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L socs)
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L metrology)
  # `mrc` label: the scanline signoff engine (interval maps, union-find,
  # ring walks) plus the 240-seed differential harness — exactly the
  # index-heavy code ASan/UBSan exists for.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L mrc)
  # `fft` label: the planned-FFT engine's parity suite (bit-exact legacy
  # parity, r2c/c2r round trips, sparse-batch pruning) is pointer-table
  # indexing end to end — bit-reversal permutations, compact-row
  # scatter, blocked column gathers — the sanitizer's home turf.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L fft)
  # `service` label: the opcd daemon — wire-protocol fault corpus
  # (corrupt frames, hostile lengths, truncation at every byte), the
  # cross-job correction library, and live-socket lifecycle tests.
  # Byte-parsing plus connection teardown is exactly where ASan/UBSan
  # earns its keep.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L service)
  # `pat` label: the pattern library — the norm-pruned retrieval index,
  # its persistence round trips, and the flow's exact/near/miss dispatch
  # (its corrupt-file corpus runs under the `store` gate above). Index
  # arithmetic over loaded records: sweep it on every sanitizer run.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L pat)
  # `ilt` label: the pixel-ILT engine — per-kernel scatter/gather over
  # the sparse SOCS support, adjoint FFT buffers reused across
  # iterations, and the pixel-grid legalizer's scanline passes. Raw
  # index arithmetic over flat arrays: sanitizer territory.
  (cd build-ci-asan && \
   ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L ilt)
}

job_tsan() {
  log "TSan build + concurrency tests"
  configure_build build-ci-tsan -DOPCKIT_SANITIZE=thread
  # ThreadPool: the pool's own protocol; FlowParallel: the tiled OPC flow
  # driver's parallel gather/solve phases on top of it; FlowResume: the
  # persistent store's append path behind the serial merge phase;
  # TraceFlow: worker threads writing per-thread span buffers and metric
  # atomics during a traced jobs=8 flow, merged at flow end.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" -R 'ThreadPool|FlowParallel|FlowResume|TraceFlow')
  # Gate on the `trace` label explicitly so a test-discovery regression
  # can never silently drop the traced-flow suite from the TSan matrix.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L trace)
  # `socs` label: the process-wide KernelCache (mutex under concurrent
  # flow workers) and both engines' pooled chunked reductions are
  # concurrency machinery — keep them, and the `metrology` edge cases,
  # in the TSan matrix explicitly.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L 'socs|metrology')
  # `mrc` label: the MrcFlowGate suite drives the parallel signoff phase
  # at jobs=8 — the per-tile check_polygons calls run on pool workers and
  # must stay data-race-free against the serial accounting.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L mrc)
  # `fft` label: the process-wide PlanCache (mutex under concurrent flow
  # workers requesting the same frame shape) and shared immutable plans
  # driven from pool threads — the PlanCacheTest.ConcurrentRequests*
  # case exists specifically for this job.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L fft)
  # `service` label: the daemon is the most concurrent code in the repo —
  # connection reader threads, the admission queue, pool workers running
  # jobs, and shutdown draining all share state under one mutex. The
  # concurrent-clients and drain/abort tests exist for this job.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L service)
  # `pat` label: the flow's reuse session attaches near-match warm-start
  # seeds in the serial resolve phase, pool workers read them during the
  # parallel solve, and fresh solves flow back through the serial merge
  # — the jobs=8 warm-started determinism test exists for this job.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L pat)
  # `ilt` label: ILT tiles run on pool workers like any other solve —
  # shared KernelCache/PlanCache lookups from the descent loop plus the
  # serial merge accounting. The jobs=1 vs jobs=8 identity test exists
  # for this job.
  (cd build-ci-tsan && \
   ctest "${CTEST_ARGS[@]}" --no-tests=error -L ilt)
}

job_tidy() {
  if ! command -v clang-tidy > /dev/null; then
    log "clang-tidy not installed — skipping (config: .clang-tidy)"
    return 0
  fi
  log "clang-tidy over src/ and tools/ (warnings are errors)"
  configure_build build-ci-tidy -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  find src tools -name '*.cpp' -print0 |
    xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build-ci-tidy --quiet \
      --warnings-as-errors='*'
}

job_lint() {
  log "opclint over generated example layouts"
  configure_build build-ci-release
  local root; root="$(pwd)"
  local bin="${root}/build-ci-release/tools/opckit"
  local work; work="$(mktemp -d)"
  # quickstart writes a drawn+corrected library; it must lint clean
  # (exit 0: the derived-datatype note is advisory, not an error).
  (cd "${work}" && "${root}/build-ci-release/examples/quickstart" > /dev/null)
  "${bin}" lint --in "${work}/quickstart_out.gds"
  "${bin}" lint --codes > /dev/null
  "${bin}" lint --model > /dev/null
  rm -rf "${work}"
  # docs/LINT_CODES.md is generated from the compiled registry; fail on
  # drift so the doc can never lag a code change.
  if ! "${bin}" lint --codes --format md | diff -u docs/LINT_CODES.md -; then
    echo "ci: docs/LINT_CODES.md is stale — regenerate with:" >&2
    echo "    build/tools/opckit lint --codes --format md > docs/LINT_CODES.md" >&2
    exit 1
  fi
  # Same contract for the metric registry: docs/METRICS.md is generated
  # from the compiled table (trace/metrics.cpp), so a metric added,
  # renamed, or re-described in code must regenerate the doc.
  if ! "${bin}" metrics --format md | diff -u docs/METRICS.md -; then
    echo "ci: docs/METRICS.md is stale — regenerate with:" >&2
    echo "    build/tools/opckit metrics --format md > docs/METRICS.md" >&2
    exit 1
  fi
  # docs/PERF.md's benchmark inventory must list every experiment target
  # registered in bench/bench.cmake — a new bench added without a row in
  # the playbook (or a rename that orphans one) fails here.
  local drift=0 target
  for target in $(sed -n 's/^opckit_add_experiment(\([a-z0-9_]*\))$/\1/p' \
                    bench/bench.cmake); do
    if ! grep -q "\`${target}\`" docs/PERF.md; then
      echo "ci: bench target '${target}' missing from docs/PERF.md" >&2
      drift=1
    fi
  done
  if [[ "${drift}" -ne 0 ]]; then
    echo "ci: docs/PERF.md benchmark inventory is stale — add the" >&2
    echo "    missing targets to the 'Benchmark inventory' table" >&2
    exit 1
  fi
  echo "ci: lint clean (docs/LINT_CODES.md, docs/METRICS.md, docs/PERF.md in sync)"
}

job_perf() {
  # One short run of each benchmark workload (perfbench/run.py). A run
  # exits non-zero on any failed correctness check — output byte
  # identity across jobs, the mask_deck_180 signoff gate, no kernel set
  # or FFT plan built inside the timed jobs — so the exit status is the
  # gate; the timings are not compared here.
  log "perfbench: every workload once"
  local workload
  for workload in chip_socs ilt_escalate daemon_reuse; do
    CARGO_TARGET_DIR=build-ci-perf python3 perfbench/run.py \
      --workload "${workload}" --seed 1 --seconds 3 --trace 0 > /dev/null
  done
}

main() {
  local jobs=("${@:-}")
  if [[ -z "${jobs[0]:-}" ]]; then jobs=(release sanitize lint); fi
  if [[ "${jobs[0]}" == all ]]; then
    jobs=(release sanitize tsan tidy lint perf)
  fi
  for j in "${jobs[@]}"; do "job_${j}"; done
  log "all jobs passed"
}

main "$@"
