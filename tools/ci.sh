#!/usr/bin/env bash
# Full CI pass: plain build + tests, a staged-pipeline divergence gate,
# island determinism + equal-budget quality gates, crash/island torture,
# an AddressSanitizer(+UBSan) build + tests, a standalone UBSan build +
# tests, and a ThreadSanitizer pass over a multi-island run. Run from the
# repository root:
#
#   tools/ci.sh            # everything
#   tools/ci.sh --fast     # plain build + tests + divergence gate only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc)
FAST=${1:-}

echo "== plain build =="
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS"
echo "== plain ctest =="
(cd build && ctest --output-on-failure -j 2)

echo "== test-name stability =="
# ctest names each case by its --gtest_list_tests line. A parameter that
# gtest prints as a raw byte dump puts pointer values into that line, so
# the name changes from run to run; two listings must agree.
for bin in build/tests/test_*; do
  [ -x "$bin" ] || continue
  if ! diff <("$bin" --gtest_list_tests) <("$bin" --gtest_list_tests) \
      > /dev/null; then
    echo "ci: FAIL ($bin lists different test names on two runs)"
    exit 1
  fi
done

echo "== mode-cache hit rates + pipeline stage profile =="
# incremental_eval exits nonzero when the cached run diverges bytewise
# from the cache-disabled one, so this doubles as the cache divergence
# gate; --profile adds the per-stage table to the CI summary.
./build/bench/incremental_eval --muls 3,6 --population 24 --generations 20 \
  --profile --dvs

echo "== staged-vs-default report identity (audited) =="
# The explicit default backends must reproduce the implicit defaults
# byte-for-byte, and the audited stage replay must pass on the result.
SF=./build/examples/synthesize_file
IN=examples/data/sensor_node.mmsyn
ARGS="--population 24 --generations 20 --report-timing=false --audit"
$SF --input "$IN" $ARGS > /tmp/mmsyn-ci-default.out
$SF --input "$IN" $ARGS --scheduler=bottom-level --dvs=none \
  > /tmp/mmsyn-ci-staged.out
if ! diff -q /tmp/mmsyn-ci-default.out /tmp/mmsyn-ci-staged.out; then
  echo "ci: FAIL (explicit pipeline backends diverge from the defaults)"
  exit 1
fi

echo "== power-backend report identity + flag validation =="
# The pinned `paper` power backend must reproduce the flag-omitted default
# byte-for-byte (the registry's bit-identity contract), and an unknown
# --power= value must fail fast with an actionable message instead of
# silently falling back to the default.
$SF --input "$IN" $ARGS --power=paper > /tmp/mmsyn-ci-power-paper.out
if ! diff -q /tmp/mmsyn-ci-default.out /tmp/mmsyn-ci-power-paper.out; then
  echo "ci: FAIL (--power=paper diverges from the flag-omitted default)"
  exit 1
fi
if $SF --input "$IN" $ARGS --power=bogus > /dev/null 2> /tmp/mmsyn-ci-power-err.txt; then
  echo "ci: FAIL (unknown --power=bogus was accepted)"
  exit 1
fi
if ! grep -q "bogus" /tmp/mmsyn-ci-power-err.txt; then
  echo "ci: FAIL (unknown-power error does not name the offending value)"
  exit 1
fi

echo "== power-backend ablation gate =="
# power_backends exits nonzero when a structural ordering (thermal >=
# paper >= dpm-idle in Psi-weighted static power) breaks or a backend's
# own synthesis fails its invariant audit; the committed JSON pins the
# orderings as a tracked baseline too.
./build/bench/power_backends --population 24 --generations 30 \
  --json /tmp/mmsyn-ci-power.json
python3 - /tmp/mmsyn-ci-power.json BENCH_power_backends.json << 'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
for tag, data in (("fresh", fresh), ("committed", committed)):
    if not data["ordering_ok"]:
        sys.exit(f"ci: FAIL ({tag} power-backend ordering violated)")
    for name, row in data["backends"].items():
        if not row["audited_ok"]:
            sys.exit(f"ci: FAIL ({tag} backend '{name}' failed its audit)")
print("power gate: orderings + audits ok (fresh and committed)")
EOF

echo "== micro-kernel parity + perf gate =="
# micro_kernels exits nonzero if any scheduling/DVS stage diverges from
# the frozen reference kernels or the combined speedup drops under 2x.
# The committed BENCH_micro_kernels.json is the tracked baseline: the
# speedup is a same-process ratio (machine-independent), so a fresh run
# falling more than 10% below it flags a data-layout/solver regression.
./build/bench/micro_kernels --repeats 10 --min-speedup 2.0 \
  --json /tmp/mmsyn-ci-mk.json
python3 - /tmp/mmsyn-ci-mk.json BENCH_micro_kernels.json << 'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))["combined"]["speedup"]
committed = json.load(open(sys.argv[2]))["combined"]["speedup"]
if fresh < 0.9 * committed:
    sys.exit(f"ci: FAIL (combined sched+DVS speedup {fresh:.2f}x regressed "
             f">10% below committed baseline {committed:.2f}x)")
print(f"perf gate: fresh {fresh:.2f}x vs committed {committed:.2f}x — ok")
EOF

echo "== failpoint coverage =="
# Every production failpoint must stay registered (a site silently dropped
# from a refactored path would leave its recovery code untested). The list
# mode prints one registered site per line.
$SF --failpoints list | tee /tmp/mmsyn-ci-failpoints.txt
for site in alloc.arena cache.insert checkpoint.rename checkpoint.write \
            io.read pool.task; do
  if ! grep -qx "$site" /tmp/mmsyn-ci-failpoints.txt; then
    echo "ci: FAIL (failpoint site '$site' is no longer registered)"
    exit 1
  fi
done
# The server binary registers the job-server sites on top of the core
# ones; they gate the WAL/admission/run recovery paths the soak drives.
./build/examples/mmsyn_serve --failpoints list \
  | tee /tmp/mmsyn-ci-failpoints-serve.txt > /dev/null
for site in server.accept server.journal.write job.spawn job.result.write; do
  if ! grep -qx "$site" /tmp/mmsyn-ci-failpoints-serve.txt; then
    echo "ci: FAIL (server failpoint site '$site' is no longer registered)"
    exit 1
  fi
done

echo "== island determinism (threads 1 vs 3) =="
# The island-model contract: a sharded run is a pure function of
# (seed, islands, migration schedule), never thread timing.
ISLAND_ARGS="--islands 3 --migration-interval 5 --migrants 2"
$SF --input "$IN" $ARGS $ISLAND_ARGS --threads 1 > /tmp/mmsyn-ci-isl1.out
$SF --input "$IN" $ARGS $ISLAND_ARGS --threads 3 > /tmp/mmsyn-ci-isl3.out
if ! diff -q /tmp/mmsyn-ci-isl1.out /tmp/mmsyn-ci-isl3.out; then
  echo "ci: FAIL (island results differ across thread counts)"
  exit 1
fi

echo "== island scaling + equal-budget quality gate =="
# island_scaling exits nonzero when island results differ across thread
# counts or no island configuration matches the single population at an
# equal evaluation budget. The committed BENCH_island_scaling.json is the
# tracked baseline; the gated metric (single-population fitness over the
# best island fitness) is deterministic, so a >10% drop means the island
# trajectory itself regressed, not the machine.
./build/bench/island_scaling --population 48 --generations 60 \
  --json /tmp/mmsyn-ci-island.json
python3 - /tmp/mmsyn-ci-island.json BENCH_island_scaling.json << 'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))["equal_budget_quality_ratio"]
committed = json.load(open(sys.argv[2]))["equal_budget_quality_ratio"]
if fresh < 0.9 * committed:
    sys.exit(f"ci: FAIL (equal-budget island quality {fresh:.3f} regressed "
             f">10% below committed baseline {committed:.3f})")
print(f"island gate: fresh {fresh:.3f} vs committed {committed:.3f} — ok")
EOF

echo "== server throughput + cache gate =="
# Two client waves through the wire protocol; the binary itself asserts
# the second wave is served entirely from the result cache. The gated
# metric (cache_hit_rate) is deterministic by construction — any drop
# below the committed baseline means the cache key or journal replay
# regressed, so the gate is exact, not a 10% band. jobs_per_sec is
# tracked in the JSON but never gated (machine-dependent).
./build/bench/server_throughput --muls 3,4,5 --seeds 3 --workers 4 \
  --clients 4 --json /tmp/mmsyn-ci-server.json
python3 - /tmp/mmsyn-ci-server.json BENCH_server_throughput.json << 'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))["cache_hit_rate"]
committed = json.load(open(sys.argv[2]))["cache_hit_rate"]
if fresh < committed:
    sys.exit(f"ci: FAIL (server cache hit rate {fresh:.3f} below committed "
             f"baseline {committed:.3f})")
print(f"server cache gate: fresh {fresh:.3f} vs committed {committed:.3f} — ok")
EOF

echo "== server soak (kill -9 / drain / typed rejections) =="
# 24 concurrent jobs byte-identical to the CLI, zero lost jobs across a
# kill -9 restart, graceful SIGTERM drain + resume, typed queue-full /
# quarantine / budget exits; also registered as the server_soak ctest.
bench/server_soak.sh build/examples/mmsyn_serve build/examples/mmsyn_client \
  build/examples/synthesize_file

echo "== crash torture =="
# Deterministic fault schedule (transient reads, on-disk checkpoint
# corruption, kill mid-save) must recover to a byte-identical audited
# report; also registered as the crash_torture ctest.
bench/crash_torture.sh "$SF"

echo "== island crash torture =="
# Kill-and-resume across a migration barrier (corrupted barrier save +
# kill mid-rotation) must replay migrated individuals bit-identically;
# also registered as the island_torture ctest.
bench/island_torture.sh "$SF"

if [ "$FAST" = "--fast" ]; then
  echo "ci: PASS (fast mode: sanitizer stages skipped)"
  exit 0
fi

echo "== address-sanitizer build =="
cmake -B build-asan -S . -DMMSYN_SANITIZE=address > /dev/null
cmake --build build-asan -j "$JOBS"
echo "== address-sanitizer ctest =="
# The suite includes arena_test and micro_kernels_identity, so the bump
# allocator and every SoA scheduling/DVS path run under the sanitizers.
(cd build-asan && ctest --output-on-failure -j 2)

echo "== address-sanitizer option fuzzer =="
# Seeded random argv vectors and server jobs (valid, boundary, garbage)
# must end in a typed error or an auditor-clean result, never a signal;
# the ctest run above includes it, this leg names it in the CI summary.
./build-asan/tests/test_server --gtest_filter='OptionFuzz.*'

echo "== address-sanitizer crash torture (failpoints armed) =="
# Recovery paths (bounded retries, generation fallback, cache quarantine)
# must be leak- and overflow-clean while faults actually fire. The torture
# harness arms via --failpoints; the extra run arms via MMSYN_FAILPOINTS to
# cover the env path and the sites the torture schedule does not reach.
bench/crash_torture.sh ./build-asan/examples/synthesize_file
MMSYN_FAILPOINTS='alloc.arena=fail@1;pool.task=fail@3;cache.insert=corrupt@2' \
  ./build-asan/examples/synthesize_file --input "$IN" $ARGS > /dev/null

echo "== address-sanitizer power backends (thermal / dpm-idle) =="
# The non-reference power paths (fixed-point thermal iteration, per-PE
# busy accounting, DPM sleep arithmetic, DVS idle-penalty coupling) must
# be clean under ASan+UBSan end to end, audit included. The plain ctest
# suites already run test_power under the sanitizers; these legs drive
# the full synthesize->audit pipeline per backend.
./build-asan/examples/synthesize_file --input "$IN" $ARGS \
  --power=thermal > /dev/null
./build-asan/examples/synthesize_file --input "$IN" $ARGS \
  --power=dpm-idle --dvs > /dev/null

echo "== undefined-behaviour-sanitizer build =="
cmake -B build-ubsan -S . -DMMSYN_SANITIZE=undefined > /dev/null
cmake --build build-ubsan -j "$JOBS"
echo "== undefined-behaviour-sanitizer ctest =="
(cd build-ubsan && ctest --output-on-failure -j 2)

echo "== undefined-behaviour-sanitizer option fuzzer =="
./build-ubsan/tests/test_server --gtest_filter='OptionFuzz.*'

echo "== undefined-behaviour-sanitizer power backends =="
./build-ubsan/examples/synthesize_file --input "$IN" $ARGS \
  --power=thermal > /dev/null
./build-ubsan/examples/synthesize_file --input "$IN" $ARGS \
  --power=dpm-idle --dvs > /dev/null

echo "== thread-sanitizer island run =="
# The island coordinator is the one place worker threads exchange state
# (gather-then-install migration at the generation barriers, shared
# counters, cooperative stop), so a multi-island run at islands == threads
# is the racy configuration by construction. TSan over the full ctest
# suite would triple CI time for paths ASan already covers; this leg pins
# the concurrency story instead.
cmake -B build-tsan -S . -DMMSYN_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$JOBS"
./build-tsan/examples/synthesize_file --input "$IN" $ARGS \
  --islands 3 --migration-interval 5 --migrants 2 --threads 3 > /dev/null
# A parsed System that skipped validate() must be safe to synthesize at
# threads > 1: synthesize() finalizes every mode graph before the pool
# starts, so the lazy TaskGraph caches are never built concurrently.
./build-tsan/tests/test_core \
  --gtest_filter='Cosynth.UnvalidatedParsedSystemIsSafeAcrossThreads'

echo "== thread-sanitizer server run =="
# The job server is the other thread-heavy subsystem: workers, watchdog,
# acceptor and per-connection threads all share the job table under one
# mutex. The in-process throughput bench drives every one of those
# threads (wire clients included) in a single TSan process.
./build-tsan/bench/server_throughput --muls 3,4 --seeds 2 --generations 15 \
  --workers 4 --clients 4 > /dev/null
# 200 sequential client connections: the acceptor joins each finished
# connection thread while connection threads deregister concurrently.
./build-tsan/tests/test_server \
  --gtest_filter='JobServer.FinishedConnectionThreadsAreReaped'

echo "ci: PASS"
