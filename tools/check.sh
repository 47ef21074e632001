#!/bin/sh
# tools/check.sh — one command for the full correctness-tooling matrix
# (docs/CORRECTNESS.md). CI runs exactly this script so local runs and CI
# cannot drift.
#
# Usage:
#   tools/check.sh [stage...]
#
# Stages (default and "all": release asan tsan faults tidy thread-safety
# lint analyze modelcheck coverage fuzz):
#   release   Release build + full ctest suite (tier-1 verify).
#   asan      ASan+UBSan build with -DTDS_AUDIT=ON (structural invariant
#             audits after every mutation) + full ctest suite.
#   tsan      ThreadSanitizer build + full ctest suite — the required
#             sanitizer coverage for the sharded engine's concurrent code
#             (the ShardedEngine* suites: multi-producer ingest, snapshot
#             readers, and the rebalancer racing the writer threads; the
#             SpscRing* suites; the merge and read-path differentials),
#             each asserted present with --no-tests=error.
#   faults    Fault-injection matrix: ASan+UBSan build with
#             -DTDS_FAILPOINTS=ON so the deterministic failpoints
#             (util/failpoint.h) compile in, then the fault/checkpoint-log/
#             backpressure suites and the fault fuzz driver — every
#             injected failure must surface as a clean Status, never a
#             crash, hang, leak, or audit violation.
#   tidy      clang-tidy over src/ with the checked-in .clang-tidy, using
#             the asan build's compilation database. Skipped with a notice
#             when clang-tidy is not installed (the container image may not
#             ship it); CI installs it.
#   thread-safety
#             Clang Thread Safety Analysis as errors over src/ (the
#             annotations in util/thread_annotations.h are no-ops off
#             Clang, so this is the leg that actually checks the locking
#             contracts), plus the negative-compile proof that an
#             unguarded access is rejected. Skipped with a notice when
#             clang++ is not installed; CI installs it.
#   lint      Project-rule linter (tools/tds_lint.py) and its selftest:
#             aggregate audit/fuzz coverage, no raw std::mutex outside
#             util/mutex.h, no raw std::atomic outside util/atomic.h (the
#             model-check instrumentation seam), no wall-clock or ambient
#             randomness in src/core + src/engine, no ownerless task
#             markers, every fuzz driver registered in both execution
#             modes.
#   analyze   Semantic analyzer (tools/tds_analyze.py) and its selftest:
#             lock-acquisition-order cycles, const-Query purity,
#             audit-hooked Status mutators, no-write-before-failpoint,
#             and the memory-order audit (explicit orders on hot-path
#             atomics, no relaxed RCU pointer access, cross-file fence
#             pairing).
#             Uses the libclang AST frontend when the clang python
#             bindings are installed, else the builtin frontend — both
#             enforce the same rules, so this stage never skips.
#   modelcheck
#             Stateless model checker (src/modelcheck/, docs/CORRECTNESS.md
#             "Model checking"): -DTDS_MODELCHECK=ON routes every
#             tds::Atomic operation through the bounded-exploration
#             scheduler, then runs the checker's own unit suite
#             (vector-clock algebra, sleep sets, replay determinism) and
#             the protocol suites — SpscRing FIFO + cursor wrap, RCU route
#             publish, the park/wake handshake, stop-vs-ingest — which
#             exhaustively or boundedly enumerate the interleavings and
#             prove the engine's memory-order choices minimal.
#   coverage  gcov line-coverage reports over src/core and src/histogram
#             from the fuzz-driver leg (-DTDS_COVERAGE=ON build), each with
#             a hard floor enforced by tools/coverage_report.py — the guard
#             that keeps the fuzz drivers actually exercising the core
#             sketches and both histogram layouts.
#   fuzz      Coverage-guided fuzzing smoke: clang + -DTDS_LIBFUZZER=ON
#             builds every tests/fuzz driver as a libFuzzer target
#             (ASan+UBSan+audits riding along), then runs each briefly
#             from its seed corpus (tests/fuzz/corpus/). Skipped with a
#             notice when clang++ is not installed; CI installs it.
#
# Every stage builds out-of-tree (build-release/, build-asan/, build-tsan/)
# so the matrix never pollutes the default build/ directory.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
STAGES="${*:-release asan tsan faults tidy thread-safety lint analyze modelcheck coverage fuzz}"
if [ "$STAGES" = "all" ]; then
  STAGES="release asan tsan faults tidy thread-safety lint analyze modelcheck coverage fuzz"
fi

log() { printf '\n== check.sh: %s ==\n' "$*"; }

build_and_test() {
  # build_and_test <dir> <extra cmake flags...>
  dir="$ROOT/$1"
  shift
  cmake -S "$ROOT" -B "$dir" -DTDS_WERROR=ON "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

for stage in $STAGES; do
  case "$stage" in
    release)
      log "Release build + ctest"
      build_and_test build-release -DCMAKE_BUILD_TYPE=Release
      ;;
    asan)
      log "ASan+UBSan build (audits on) + ctest"
      build_and_test build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTDS_SANITIZE="address;undefined" -DTDS_AUDIT=ON
      # The merge/rebalance differential and fuzz layer must exist in this
      # leg (audits armed): --no-tests=error turns "the tests silently
      # vanished" into a hard failure.
      log "ASan leg: engine merge differential + fuzz drivers present"
      ctest --test-dir "$ROOT/build-asan" --output-on-failure \
        --no-tests=error -R 'EngineMerge|MergedSnapshot|RegistryMerge'
      # The EH and CoarseCEH fuzz drivers hold the flat bucket store to a
      # naive reference histogram (their wide-class seeds grow, slide and
      # empty its block), the CEH driver holds it to the exact decayed sum,
      # the block-transition and tiny-epsilon tests pin the block's growth
      # policy and the class-budget bound, the WBMH drivers hold the
      # counters to the exact decayed sum, the encoding pins hold every
      # histogram's wire format to fixed hashes, and the registry batch
      # test holds the grouped prefetch path to per-item ingest across
      # arena growth, and the mid-resolve rehash test across key-table
      # growth inside one segment. The registry fuzzers drive every backend's slab
      # through the registry's own ingest, eviction, codec and copy paths
      # (the registry audit reaches every per-key audit), and the copy
      # tests hold each state's copy constructor to the codec. The batch
      # differential holds every backend's UpdateBatch to per-item ingest,
      # the Exact/EWMA/RecentItems/PolyExp fuzzers drive the Standalone
      # owners under audits, and the per-key twin test holds every
      # registry backend to its standalone structure. They must run with
      # audits armed, and must never silently vanish.
      log "ASan leg: histogram reference fuzzers + batch differential present"
      ctest --test-dir "$ROOT/build-asan" --output-on-failure \
        --no-tests=error \
        -R 'EhFuzz|CehFuzz|CoarseCehFuzz|FlatBucketStoreTest|CreateRejectsEpsilonWithoutClassBudget|WbmhFuzz|WbmhSharedLayoutFuzz|EncodingPin|AggregateRegistryTest.BatchMatchesPerItem|RegistryFuzzTest|AggregateRegistryTest.Cop|SnapshotTest.CloneEncodes|AggregateRegistryTest.DecodeRejects|AggregateRegistryTest.SegmentThatRehashesMidResolve|BatchDifferentialTest|ExactFuzz|EwmaFuzz|RecentItemsFuzz|PolyExpFuzz|AggregateRegistryTest.PerKeyStateMatchesStandalone'
      ;;
    tsan)
      log "TSan build + ctest"
      build_and_test build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTDS_SANITIZE=thread
      log "TSan leg: sharded engine + ring suites, merge/read differentials present"
      ctest --test-dir "$ROOT/build-tsan" --output-on-failure \
        --no-tests=error \
        -R 'ShardedEngine|SpscRing|EngineMerge|MergedSnapshot|RebalanceRaces|Oversubscribed|SessionFlushesRace|ConcurrentWriterRequests|EngineReadTest'
      # Thread-local cascade scratch (flat_store.h) must hold under TSan.
      log "TSan leg: histogram reference fuzzers + batch differential present"
      ctest --test-dir "$ROOT/build-tsan" --output-on-failure \
        --no-tests=error \
        -R 'EhFuzz|CoarseCehFuzz|WbmhFuzz|WbmhSharedLayoutFuzz|EncodingPin|AggregateRegistryTest.BatchMatchesPerItem'
      ;;
    faults)
      log "Fault-injection build (failpoints + ASan+UBSan + audits) + ctest"
      build_and_test build-faults -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTDS_FAILPOINTS=ON -DTDS_SANITIZE="address;undefined" -DTDS_AUDIT=ON
      # The fault matrix must actually run in this build (elsewhere the
      # suites GTEST_SKIP without failpoints): --no-tests=error turns a
      # silently-skipped matrix into a hard failure.
      log "faults leg: fault matrix + checkpoint-log/backpressure suites present"
      ctest --test-dir "$ROOT/build-faults" --output-on-failure \
        --no-tests=error \
        -R 'EngineFault|BackpressureTest|CheckpointLog|Standby'
      # The reference-checked histogram fuzzers, the block-transition and
      # tiny-epsilon tests, the batch differential, the Standalone owners'
      # fuzzers and the per-key twin test must also survive the failpoint
      # build (the decode funnels they drive are failpoint-instrumented).
      log "faults leg: histogram reference fuzzers + batch differential present"
      ctest --test-dir "$ROOT/build-faults" --output-on-failure \
        --no-tests=error \
        -R 'EhFuzz|CehFuzz|CoarseCehFuzz|FlatBucketStoreTest|CreateRejectsEpsilonWithoutClassBudget|WbmhFuzz|WbmhSharedLayoutFuzz|EncodingPin|AggregateRegistryTest.BatchMatchesPerItem|RegistryFuzzTest|AggregateRegistryTest.Cop|SnapshotTest.CloneEncodes|AggregateRegistryTest.DecodeRejects|AggregateRegistryTest.SegmentThatRehashesMidResolve|BatchDifferentialTest|ExactFuzz|EwmaFuzz|RecentItemsFuzz|PolyExpFuzz|AggregateRegistryTest.PerKeyStateMatchesStandalone'
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        log "clang-tidy not installed; skipping the lint stage"
        continue
      fi
      log "clang-tidy over src/"
      # Reuse (or create) the asan build for its compile_commands.json.
      if [ ! -f "$ROOT/build-asan/compile_commands.json" ]; then
        cmake -S "$ROOT" -B "$ROOT/build-asan" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DTDS_SANITIZE="address;undefined" -DTDS_AUDIT=ON -DTDS_WERROR=ON
      fi
      if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -quiet -p "$ROOT/build-asan" -j "$JOBS" \
          "^$ROOT/src/.*" "^$ROOT/tools/.*"
      else
        find "$ROOT/src" "$ROOT/tools" -name '*.cc' -print0 |
          xargs -0 -n 1 -P "$JOBS" clang-tidy -quiet -p "$ROOT/build-asan"
      fi
      ;;
    thread-safety)
      if ! command -v clang++ >/dev/null 2>&1; then
        log "clang++ not installed; skipping the thread-safety stage"
        continue
      fi
      log "Clang thread-safety analysis over src/ (as errors)"
      cmake -S "$ROOT" -B "$ROOT/build-tsa" \
        -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTDS_THREAD_SAFETY=ON
      # The library target covers all of src/; no suppressions exist in
      # engine code (tds_lint's raw-mutex rule keeps locking in the
      # annotated wrappers).
      cmake --build "$ROOT/build-tsa" -j "$JOBS" --target tds
      log "thread-safety negative-compile proof"
      sh "$ROOT/tests/negative/thread_safety_negative_test.sh" "$ROOT"
      ;;
    lint)
      log "project-rule linter (tds_lint.py) + selftest"
      python3 "$ROOT/tools/tds_lint.py" --root "$ROOT"
      python3 "$ROOT/tools/tds_lint.py" --selftest --root "$ROOT"
      ;;
    analyze)
      log "semantic analyzer (tds_analyze.py) + selftest"
      python3 "$ROOT/tools/tds_analyze.py" --selftest --root "$ROOT"
      # Hand the analyzer a compilation database so a clang-equipped host
      # exercises the libclang AST frontend; without the bindings it
      # prints a notice and runs the builtin frontend on the same rules.
      if [ ! -f "$ROOT/build-asan/compile_commands.json" ]; then
        cmake -S "$ROOT" -B "$ROOT/build-asan" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DTDS_SANITIZE="address;undefined" -DTDS_AUDIT=ON -DTDS_WERROR=ON
      fi
      python3 "$ROOT/tools/tds_analyze.py" --root "$ROOT" \
        --compdb "$ROOT/build-asan/compile_commands.json"
      log "seed-corpus freshness (make_fuzz_corpus.py --check)"
      python3 "$ROOT/tools/make_fuzz_corpus.py" --check
      ;;
    modelcheck)
      log "model checker (TDS_MODELCHECK=ON): scheduler unit + protocol suites"
      cmake -S "$ROOT" -B "$ROOT/build-modelcheck" -DTDS_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTDS_MODELCHECK=ON
      cmake --build "$ROOT/build-modelcheck" -j "$JOBS" \
        --target modelcheck_unit_test modelcheck_suites_test
      # --no-tests=error: the suites only exist under TDS_MODELCHECK=ON,
      # so "zero tests matched" means the gate silently vanished.
      ctest --test-dir "$ROOT/build-modelcheck" --output-on-failure \
        --no-tests=error \
        -R 'ModelCheck|SpscRingSuite|RoutePublishSuite|ParkWakeSuite|StopIngestSuite|ReadChannelSuite|CoverageFloor'
      ;;
    coverage)
      log "fuzz-driver line coverage over src/core (gcov) + floor"
      cmake -S "$ROOT" -B "$ROOT/build-cov" -DTDS_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTDS_COVERAGE=ON
      cmake --build "$ROOT/build-cov" -j "$JOBS" --target \
        core_fuzz_test eh_fuzz_test ceh_fuzz_test wbmh_fuzz_test \
        mvd_fuzz_test snapshot_fuzz_test registry_fuzz_test \
        engine_merge_fuzz_test engine_fault_fuzz_test \
        checkpoint_log_fuzz_test
      ctest --test-dir "$ROOT/build-cov" -j "$JOBS" --output-on-failure \
        --no-tests=error -R 'Fuzz'
      # Floor set from a measured 78%: tightening it requires new fuzz
      # coverage, loosening it requires editing this line in review.
      python3 "$ROOT/tools/coverage_report.py" \
        --build-dir "$ROOT/build-cov" --filter src/core --floor 70
      # The histogram layer (flat store, EH, WBMH) gets its own floor so
      # the reference-checked fuzz surface cannot quietly rot.
      python3 "$ROOT/tools/coverage_report.py" \
        --build-dir "$ROOT/build-cov" --filter src/histogram --floor 70
      ;;
    fuzz)
      if ! command -v clang++ >/dev/null 2>&1; then
        log "clang++ not installed; skipping the libFuzzer fuzz stage"
        continue
      fi
      log "libFuzzer smoke over tests/fuzz drivers (clang, ASan+UBSan+audits)"
      cmake -S "$ROOT" -B "$ROOT/build-fuzz" -DTDS_WERROR=ON \
        -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTDS_LIBFUZZER=ON -DTDS_SANITIZE="address;undefined" \
        -DTDS_AUDIT=ON -DTDS_FAILPOINTS=ON
      cmake --build "$ROOT/build-fuzz" -j "$JOBS" --target \
        core_fuzz_test_fuzzer eh_fuzz_test_fuzzer ceh_fuzz_test_fuzzer \
        wbmh_fuzz_test_fuzzer mvd_fuzz_test_fuzzer \
        snapshot_fuzz_test_fuzzer registry_fuzz_test_fuzzer \
        engine_merge_fuzz_test_fuzzer engine_fault_fuzz_test_fuzzer \
        checkpoint_log_fuzz_test_fuzzer
      # Bounded smoke: each driver replays its seed corpus, then fuzzes
      # briefly with coverage feedback. CI keeps this short; drop the cap
      # for a real fuzzing session.
      FUZZ_SECONDS="${FUZZ_SECONDS:-10}"
      for driver in core_fuzz_test eh_fuzz_test ceh_fuzz_test \
          wbmh_fuzz_test mvd_fuzz_test snapshot_fuzz_test \
          registry_fuzz_test engine_merge_fuzz_test \
          engine_fault_fuzz_test checkpoint_log_fuzz_test
      do
        log "fuzz: $driver (${FUZZ_SECONDS}s)"
        "$ROOT/build-fuzz/tests/fuzz/${driver}_fuzzer" \
          -max_total_time="$FUZZ_SECONDS" -rss_limit_mb=4096 \
          -print_final_stats=1 \
          "$ROOT/tests/fuzz/corpus/$driver"
      done
      ;;
    *)
      echo "check.sh: unknown stage '$stage'" >&2
      echo "known stages: release asan tsan faults tidy thread-safety" \
        "lint analyze modelcheck coverage fuzz all" >&2
      exit 2
      ;;
  esac
done

log "all requested stages passed"
