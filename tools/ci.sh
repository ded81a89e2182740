#!/usr/bin/env bash
# CI driver: build + test the default config, run the micro_train
# Shrink-phase smoke (twice — the selection/model digests must match
# across runs, and the binary itself exits non-zero on any broken
# determinism/zero-alloc contract), validate the snip::obs telemetry
# export (fig11 --obs-json must parse and carry the hit-rate /
# erroneous-field-rate / per-Shrink-phase-timing signals), check the
# fig11/fig12 --quick CSVs against their committed SHA-1s, run the
# out-of-core micro_train stage (2M synthetic rows trained through
# the mmap'd SNCT view under a hard RSS cap, with the forest
# fingerprint required identical across two block geometries), build +
# test the asan/ubsan config (which reruns the obs, Log2Histogram,
# and EmpiricalCdf regression tests under sanitizers, and drives a
# copied Game after its source is destroyed), run the TSan
# smokes of the shared-const concurrency contracts (parallel session
# runner lookups + parallel training/PFI on a shared const forest +
# lazily-sorted EmpiricalCdf reads + ShardedRegistry attribution,
# including micro_train itself), run the micro_lookup hot-path smoke
# (the binary exits non-zero if any lookup thread allocated in its
# timed loop or the frozen and mutable layouts disagree on a single
# decision; the JSON is additionally checked for zero allocs_per_iter
# at every thread count of both lookup benchmarks and on the SNIP
# online-fill dedupe path, BM_SnipObserveKnown), then fuzz the
# OTA model codec and the frozen "SNPF" arena with corrupt packages
# under asan (truncations and random bit flips must be rejected
# cleanly — no crashes, no sanitizer reports, including the mmap'd
# SNCT attach path), and finally check under asan that the two table
# layouts agree on one lookup path: sessions bitwise-identical at
# every event-block size, frozen and mutable lookups identical over a
# randomized stream, unsorted records projected onto the same
# key by both tables, and SnipScheme deciding every event exactly as
# a frozen-then-overlay reference rule does. The fleet OTA backend
# gets three more stages: the fleet_sim --quick epoch push (delta
# payload must undercut the full baseline, sharded aggregation must stay
# bitwise-identical to serial, and the per-cohort staleness report
# must be present and sane), the SNPD patch corruption fuzz under
# asan (every real mutation of a patch must be rejected and the
# device receive path must still converge on the published head via
# full-fetch fallback), and the TSan sharded-merge equivalence smoke.
#
# Usage: tools/ci.sh [jobs]   (jobs defaults to nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> default build + ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

echo "==> micro_train smoke (Shrink-phase contracts, two runs)"
./build/bench/micro_train --quick --out build/micro_train_a.json \
    >/dev/null
./build/bench/micro_train --quick --out build/micro_train_b.json \
    >/dev/null
DIGESTS_A=$(grep -o '"digest": "[^"]*"' build/micro_train_a.json)
DIGESTS_B=$(grep -o '"digest": "[^"]*"' build/micro_train_b.json)
if [ -z "$DIGESTS_A" ] || [ "$DIGESTS_A" != "$DIGESTS_B" ]; then
    echo "micro_train: selection/model digests differ across runs" >&2
    exit 1
fi

echo "==> out-of-core micro_train (bounded RSS + block-size invariance)"
# 2M synthetic rows trained through the mmap'd SNCT view under a hard
# in-binary RSS cap (micro_train exits non-zero if VmHWM exceeds it),
# at two block geometries — the forest fingerprints must agree.
./build/bench/micro_train --quick --rows 2000000 --block-rows 4096 \
    --rss-budget-mb 64 --rss-cap-mb 512 \
    --out build/micro_train_oo_a.json >/dev/null
./build/bench/micro_train --quick --rows 2000000 --block-rows 512 \
    --rss-budget-mb 64 --rss-cap-mb 512 \
    --out build/micro_train_oo_b.json >/dev/null
OO_A=$(grep -o '"fingerprint": "[^"]*"' build/micro_train_oo_a.json)
OO_B=$(grep -o '"fingerprint": "[^"]*"' build/micro_train_oo_b.json)
if [ -z "$OO_A" ] || [ "$OO_A" != "$OO_B" ]; then
    echo "micro_train: out-of-core fingerprints differ across" \
         "block sizes" >&2
    exit 1
fi

echo "==> obs telemetry export smoke (fig11 --obs-json)"
./build/bench/fig11_schemes --quick --obs-json build/fig11_obs.json \
    >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fig11_obs.json') as f:
    d = json.load(f)

missing = []
for section, key in [
    ('gauges', 'session.hit_rate'),
    ('gauges', 'session.error_field_rate'),
    ('counters', 'lookup.hits'),
    ('counters', 'lookup.misses'),
    ('counters', 'lookup.bytes'),
    ('counters', 'decide.err.shortcircuits'),
    ('timers', 'span.shrink'),
    ('timers', 'span.shrink.select'),
    ('timers', 'span.shrink.select.train'),
    ('timers', 'span.shrink.select.pfi'),
]:
    if key not in d.get(section, {}):
        missing.append(f'{section}/{key}')
if missing:
    sys.exit('fig11 --obs-json missing: ' + ', '.join(missing))

rate = d['gauges']['session.hit_rate']
if not 0.0 <= rate <= 1.0:
    sys.exit(f'session.hit_rate out of range: {rate}')
if d['timers']['span.shrink']['sum_s'] <= 0.0:
    sys.exit('span.shrink recorded no wall time')
EOF

echo "==> figure CSV pin (fig11/fig12 --quick vs tools/golden/fig_quick.sha1)"
# Any change to figure output — games, schemes, energy model, Shrink —
# must be deliberate: regenerate the hashes and say why in CHANGES.md.
mkdir -p build/fig_quick
./build/bench/fig11_schemes --quick \
    --csv build/fig_quick/fig11_schemes.csv >/dev/null
./build/bench/fig12_continuous_learning --quick \
    --csv build/fig_quick/fig12_continuous_learning.csv >/dev/null 2>&1
( cd build/fig_quick && sha1sum --check --quiet \
    ../../tools/golden/fig_quick.sha1 )

echo "==> micro_lookup smoke (hot-path + dedupe-path zero-alloc, frozen equivalence)"
( cd build && ./bench/micro_lookup \
    --benchmark_min_time=0.05s \
    --benchmark_out=micro_lookup_ci.json \
    --benchmark_out_format=json >/dev/null )
python3 - <<'EOF'
import json, sys

with open('build/micro_lookup_ci.json') as f:
    d = json.load(f)

gated = [b for b in d['benchmarks']
         if 'TableLookup' in b['name'] or
         'BM_SnipObserveKnown' in b['name']]
for name in ('BM_FrozenTableLookup', 'BM_MemoTableLookup',
             'BM_SnipObserveKnown'):
    if not any(name in b['name'] for b in gated):
        sys.exit(f'micro_lookup: {name} missing from JSON')
bad = [(b['name'], b.get('allocs_per_iter')) for b in gated
       if b.get('allocs_per_iter') != 0]
if bad:
    sys.exit('micro_lookup: nonzero allocs_per_iter: %r' % bad)
EOF

echo "==> fleet OTA smoke (fleet_sim --quick epoch push)"
./build/bench/fleet_sim --quick --out build/fleet_sim_ci.json \
    >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fleet_sim_ci.json') as f:
    d = json.load(f)

missing = [k for k in (
    'ota_full_bytes', 'ota_delta_bytes', 'delta_ratio',
    'delta_beats_full', 'fallbacks', 'staleness_skew',
    'sharded_identical', 'agg_serial_s', 'agg_sharded_s',
    'cohorts') if k not in d]
if missing:
    sys.exit('fleet_sim json missing: ' + ', '.join(missing))
if not d['delta_beats_full']:
    sys.exit('fleet_sim: delta OTA payload does not beat the '
             'full-package baseline')
if not d['sharded_identical']:
    sys.exit('fleet_sim: sharded aggregation diverged from serial')
for c in d['cohorts']:
    for k in ('name', 'devices', 'versions_behind', 'patch_bytes',
              'full_bytes', 'delta_bytes', 'used_delta',
              'stale_hit_rate'):
        if k not in c:
            sys.exit(f'fleet_sim cohort missing field: {k}')
    if not 0.0 <= c['stale_hit_rate'] <= 1.0:
        sys.exit('fleet_sim: stale_hit_rate out of range: %r'
                 % c['stale_hit_rate'])
EOF

echo "==> asan/ubsan build + ctest"
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$JOBS"
ctest --preset asan-ubsan -j "$JOBS"

echo "==> games layer copy safety (asan)"
# A copied Game must run on its own resolved handler tables after the
# source is destroyed: a pointer into the source's params_ would be a
# use-after-free here.
./build-asan/tests/games_test \
    --gtest_filter='Games.CopiedGameMatchesFreshGame:Games.GoldenExecutionDigestAllGames'

echo "==> tsan smoke (concurrent lookups + parallel Shrink phase)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS" --target parallel_test \
    --target obs_test --target ml_test --target micro_train \
    --target fleet_test
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/ml_test \
    --gtest_filter='ChunkedDatasetTest.ThreadInvarianceOnSharedView'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/parallel_test \
    --gtest_filter='ParallelRunnerTest.ConcurrentLookupsOnSharedConstTable:ParallelRunnerTest.ConcurrentLookupsOnSharedConstFrozenTable:ParallelRunnerTest.RunSessionsMatchesSerialBitwise:ShrinkParallelTest.*'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/obs_test \
    --gtest_filter='ShardedRegistry.*'
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/bench/micro_train --quick --profile-s 10 --trees 8 \
    --threads 4 --out build-tsan/micro_train_tsan.json >/dev/null

echo "==> tsan sharded-merge equivalence (fleet aggregation)"
TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/fleet_test \
    --gtest_filter='FleetAggregateTest.*'

echo "==> task pool (tsan parallel_test @ 8 threads + steady-state spawn check)"
# The whole parallel suite — pool internals, nested submission,
# concurrent external callers — racing on an 8-way shared pool
# under tsan.
SNIP_THREADS=8 TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/parallel_test
# Zero steady-state respawns: across a 5-epoch continuous-learning
# run every epoch's Shrink/PFI/session parallelism must reuse the
# same resident workers, so the lifetime spawn total must equal the
# resident pool size (workers are only ever spawned as residents).
./build/bench/fig12_continuous_learning --quick --epochs 5 \
    --threads 4 --obs-json build/fig12_obs_pool.json >/dev/null
python3 - <<'EOF'
import json, sys

with open('build/fig12_obs_pool.json') as f:
    d = json.load(f)

g = d.get('gauges', {})
for k in ('pool.threads_spawned', 'pool.size', 'pool.tasks',
          'pool.steals', 'pool.overflow', 'pool.park_ns'):
    if k not in g:
        sys.exit('fig12 --obs-json missing gauge: ' + k)
spawned, size = g['pool.threads_spawned'], g['pool.size']
if spawned != size:
    sys.exit('pool: threads_spawned %r != pool size %r — workers '
             'were spawned outside the resident set across '
             'ContinuousLearner epochs' % (spawned, size))
if g['pool.tasks'] <= 0:
    sys.exit('pool: no tasks executed despite --threads 4')
EOF

echo "==> corruption fuzz smoke (OTA model codec + SNPF arena, asan)"
SNIP_FUZZ_ITERS=512 \
    ./build-asan/tests/model_codec_test \
    --gtest_filter='ModelCodec*Fuzz*'
SNIP_FUZZ_ITERS=512 \
    ./build-asan/tests/core_test \
    --gtest_filter='*FrozenArenaCorruptionFuzz*'
./build-asan/tests/trace_test \
    --gtest_filter='ColumnarLogTest.MmapCorruptionRejectedCleanly:ColumnarLogTest.CorruptionRejectedOrSafe'
SNIP_FUZZ_ITERS=256 \
    ./build-asan/tests/trace_test \
    --gtest_filter='TrainingSectionTest.CorruptionFuzzRejectedOrSafe:TrainingSectionTest.LabelColumnBitFlipRejected:TrainingWriterTest.RejectsMisuseAndUnfinishedFiles'
./build-asan/tests/ml_test \
    --gtest_filter='ChunkedDatasetTest.BlockSizeInvarianceFuzz:ChunkedDatasetTest.RejectsForeignSchema'

echo "==> SNPD patch corruption fuzz (delta OTA receive path, asan)"
SNIP_FUZZ_ITERS=512 \
    ./build-asan/tests/fleet_test \
    --gtest_filter='Fleet*Fuzz*'

echo "==> lookup-path equivalence (block sizes, frozen vs mutable, key projection, scheme vs reference rule, asan)"
./build-asan/tests/core_test \
    --gtest_filter='Simulation.BatchedSessionBitwiseIdentical:MemoTableTest.FrozenEquivalenceOverRandomEvents:MemoTableTest.UnsortedInsertKeepsAllKeyFields:Schemes.SnipMatchesReferenceOverlayFuzz'

echo "==> all green"
