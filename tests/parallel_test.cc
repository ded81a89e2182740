/**
 * @file
 * Tests of the multi-session parallel harness (core::ParallelRunner)
 * and of the concurrency contracts it depends on: const MemoTable
 * lookups from many threads, const-Game reads, and bitwise-identical
 * session results regardless of worker count.
 *
 * ConcurrentLookupsOnSharedConstTable and the ShrinkParallelTest
 * suite are the TSan smoke targets (tools/ci.sh runs this binary
 * under -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/frozen_table.h"
#include "core/memo_table.h"
#include "core/model_codec.h"
#include "core/parallel_runner.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "ml/dataset.h"
#include "ml/pfi.h"
#include "ml/random_forest.h"
#include "trace/recorder.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/task_pool.h"
#include "util/stats.h"

namespace snip {
namespace core {
namespace {

TEST(ParallelRunnerTest, DefaultThreadCountRespectsEnv)
{
    ::setenv("SNIP_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3u);
    ::setenv("SNIP_THREADS", "bogus", 1);
    EXPECT_GE(defaultThreadCount(), 1u);  // falls back, never 0
    ::unsetenv("SNIP_THREADS");
    EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ParallelRunnerTest, DefaultThreadCountRejectsPartialParses)
{
    // A trailing-garbage value must be ignored (warn + fallback),
    // not silently truncated to its numeric prefix.
    unsigned fallback;
    {
        ::unsetenv("SNIP_THREADS");
        fallback = defaultThreadCount();
    }
    ::setenv("SNIP_THREADS", "4abc", 1);
    EXPECT_EQ(defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "4 8", 1);
    EXPECT_EQ(defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "", 1);
    EXPECT_EQ(defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "0", 1);
    EXPECT_EQ(defaultThreadCount(), fallback);
    ::setenv("SNIP_THREADS", "-2", 1);
    EXPECT_EQ(defaultThreadCount(), fallback);
    // Complete parses still work, including the 0x base prefix.
    ::setenv("SNIP_THREADS", "0x10", 1);
    EXPECT_EQ(defaultThreadCount(), 16u);
    ::unsetenv("SNIP_THREADS");
}

TEST(ParallelRunnerTest, SessionSeedsAreDistinct)
{
    const uint64_t base = 0x5e551011ULL;
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 64; ++i)
        seeds.push_back(ParallelRunner::sessionSeed(base, i));
    for (size_t i = 0; i < seeds.size(); ++i) {
        EXPECT_NE(seeds[i], base);  // never the undecorated base
        for (size_t j = i + 1; j < seeds.size(); ++j)
            EXPECT_NE(seeds[i], seeds[j]);
    }
    // Derivation is a pure function of (base, index).
    EXPECT_EQ(ParallelRunner::sessionSeed(base, 5),
              ParallelRunner::sessionSeed(base, 5));
}

TEST(ParallelRunnerTest, ForEachCoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        ParallelRunner runner(threads);
        EXPECT_EQ(runner.threads(), threads);
        constexpr size_t kN = 100;
        std::vector<std::atomic<int>> counts(kN);
        runner.forEach(kN, [&](size_t i) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(counts[i].load(), 1) << "index " << i;
    }
    // n smaller than the pool, and n == 0, must both work.
    ParallelRunner wide(8);
    std::atomic<int> total{0};
    wide.forEach(3, [&](size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 3);
    wide.forEach(0, [&](size_t) { ADD_FAILURE() << "fn called"; });
}

// ------------------------------------------------------- task pool

TEST(TaskPoolTest, NestedParallelForCompletesAtEveryPoolSize)
{
    // A task running on a pool worker submits a nested loop and
    // help-waits; at pool size 1 the owner must retire its own
    // queued tickets, at larger sizes thieves race it. Deadlock
    // here hangs the test binary, which is the assertion.
    for (unsigned threads : {1u, 2u, 8u}) {
        constexpr size_t kOuter = 6;
        constexpr size_t kInner = 5;
        std::vector<std::atomic<int>> counts(kOuter * kInner);
        util::parallelFor(kOuter, [&](size_t o) {
            util::parallelFor(kInner, [&](size_t i) {
                counts[o * kInner + i].fetch_add(
                    1, std::memory_order_relaxed);
            }, threads);
        }, threads);
        for (size_t k = 0; k < counts.size(); ++k)
            EXPECT_EQ(counts[k].load(), 1)
                << "threads " << threads << " slot " << k;
    }
    // Three levels deep, for good measure.
    std::atomic<int> total{0};
    util::parallelFor(3, [&](size_t) {
        util::parallelFor(3, [&](size_t) {
            util::parallelFor(3, [&](size_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            }, 8);
        }, 8);
    }, 8);
    EXPECT_EQ(total.load(), 27);
}

TEST(TaskPoolTest, ConcurrentExternalCallersShareThePool)
{
    // Eight raw std::threads (none of them pool workers) each drive
    // their own parallelFor against the shared pool at once — the
    // TSan smoke for the overflow ring, parking, and reclaim paths.
    constexpr size_t kCallers = 8;
    constexpr size_t kN = 64;
    std::vector<std::vector<std::atomic<int>>> counts(kCallers);
    for (auto &c : counts) {
        std::vector<std::atomic<int>> fresh(kN);
        c.swap(fresh);
    }
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 0; round < 4; ++round) {
                util::parallelFor(kN, [&, c](size_t i) {
                    counts[c][i].fetch_add(
                        1, std::memory_order_relaxed);
                }, 4);
            }
        });
    }
    for (auto &t : callers)
        t.join();
    for (size_t c = 0; c < kCallers; ++c)
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(counts[c][i].load(), 4)
                << "caller " << c << " index " << i;
}

TEST(TaskPoolTest, ExceptionsPropagateToTheSubmitter)
{
    // The first fn exception must surface on the calling thread
    // after the loop winds down (never std::terminate), and the
    // pool must stay usable afterwards.
    EXPECT_THROW(
        util::parallelFor(16, [&](size_t i) {
            if (i % 2 == 0)
                throw std::runtime_error("boom");
        }, 4),
        std::runtime_error);
    std::atomic<int> total{0};
    util::parallelFor(16, [&](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
    }, 4);
    EXPECT_EQ(total.load(), 16);
}

TEST(TaskPoolTest, StatsAreMonotonicAndSpawnsStayBounded)
{
    util::TaskPool &pool = util::TaskPool::instance();
    util::TaskPool::Stats before = pool.stats();
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
        util::parallelFor(32, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        }, 8);
    }
    util::TaskPool::Stats after = pool.stats();
    EXPECT_EQ(total.load(), 50 * 32);
    EXPECT_GE(after.tasks, before.tasks);
    EXPECT_GE(after.steals, before.steals);
    EXPECT_GE(after.overflow, before.overflow);
    // The warm-path contract: the pool grows (once) toward the
    // largest requested fan-out — threads=8 needs 7 helpers — and
    // repeated dispatch never creates another thread.
    EXPECT_EQ(after.threads_spawned,
              std::max<uint64_t>(before.threads_spawned, 7u));
    EXPECT_EQ(after.threads_spawned,
              static_cast<uint64_t>(pool.size()));
    util::TaskPool::Stats again = pool.stats();
    for (int round = 0; round < 20; ++round)
        util::parallelFor(32, [&](size_t) {}, 8);
    EXPECT_EQ(pool.stats().threads_spawned, again.threads_spawned);
}

/** Field-by-field equality of two session stats blocks. */
void
expectStatsEqual(const SessionStats &a, const SessionStats &b)
{
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.shortcircuits, b.shortcircuits);
    EXPECT_EQ(a.instr_total, b.instr_total);
    EXPECT_EQ(a.instr_skipped, b.instr_skipped);
    EXPECT_EQ(a.ip_work_total, b.ip_work_total);
    EXPECT_EQ(a.ip_work_skipped, b.ip_work_skipped);
    EXPECT_EQ(a.lookup_bytes, b.lookup_bytes);
    EXPECT_EQ(a.lookup_candidates, b.lookup_candidates);
    EXPECT_EQ(a.lookup_energy_j, b.lookup_energy_j);
    EXPECT_EQ(a.erroneous_shortcircuits, b.erroneous_shortcircuits);
    EXPECT_EQ(a.err_temp_only, b.err_temp_only);
    EXPECT_EQ(a.err_history, b.err_history);
    EXPECT_EQ(a.err_extern, b.err_extern);
    EXPECT_EQ(a.output_fields_total, b.output_fields_total);
    EXPECT_EQ(a.output_fields_wrong, b.output_fields_wrong);
    EXPECT_EQ(a.useless_events, b.useless_events);
    EXPECT_EQ(a.useless_instr_executed, b.useless_instr_executed);
}

/**
 * The tentpole determinism guarantee: running the same session
 * specs on a 4-worker pool produces results bitwise identical to a
 * plain serial loop (scheduling order must not leak into results).
 */
TEST(ParallelRunnerTest, RunSessionsMatchesSerialBitwise)
{
    constexpr size_t kSessions = 6;
    const uint64_t base = 0xab5e5510ULL;

    std::vector<SessionSpec> specs;
    for (size_t i = 0; i < kSessions; ++i) {
        SessionSpec spec;
        spec.make_game = [] { return games::makeGame("colorphun"); };
        spec.make_scheme = [](games::Game &) {
            return std::make_unique<BaselineScheme>();
        };
        spec.cfg.duration_s = 10.0;
        spec.cfg.seed = ParallelRunner::sessionSeed(base, i);
        specs.push_back(std::move(spec));
    }

    ParallelRunner pool(4);
    std::vector<SessionResult> par = pool.runSessions(specs);
    ASSERT_EQ(par.size(), kSessions);

    for (size_t i = 0; i < kSessions; ++i) {
        auto game = specs[i].make_game();
        auto scheme = specs[i].make_scheme(*game);
        SessionResult ser = runSession(*game, *scheme, specs[i].cfg);
        expectStatsEqual(par[i].stats, ser.stats);
        EXPECT_EQ(par[i].report.total(), ser.report.total());
        EXPECT_EQ(par[i].report.elapsed(), ser.report.elapsed());
        ASSERT_EQ(par[i].report.components().size(),
                  ser.report.components().size());
        for (size_t c = 0; c < ser.report.components().size(); ++c) {
            EXPECT_EQ(par[i].report.components()[c].dynamic_j,
                      ser.report.components()[c].dynamic_j);
            EXPECT_EQ(par[i].report.components()[c].static_j,
                      ser.report.components()[c].static_j);
        }
    }
}

/**
 * The parallel benches give each task a *fresh clone* of the game
 * where the serial loops reused one instance (runSession resets it).
 * Those must be equivalent, or parallelizing would change results.
 */
TEST(ParallelRunnerTest, FreshCloneEquivalentToReset)
{
    SimulationConfig cfg;
    cfg.duration_s = 10.0;

    auto reused = games::makeGame("memory_game");
    BaselineScheme s1;
    SessionResult warm = runSession(*reused, s1, cfg);
    (void)warm;  // dirty the instance, then rely on reset()
    BaselineScheme s2;
    SessionResult again = runSession(*reused, s2, cfg);

    auto fresh = games::makeGame("memory_game");
    BaselineScheme s3;
    SessionResult clone = runSession(*fresh, s3, cfg);

    expectStatsEqual(again.stats, clone.stats);
    EXPECT_EQ(again.report.total(), clone.report.total());
}

/**
 * The shared-read contract the whole design rests on: many threads
 * doing lookups against ONE const MemoTable + ONE const Game must
 * race-free (this is the TSan smoke target) and must each see the
 * same results a serial reader sees.
 */
TEST(ParallelRunnerTest, ConcurrentLookupsOnSharedConstTable)
{
    // Build a deployed model the way the runtime does.
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 30.0;
    cfg.record_events = true;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("colorphun");
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    SnipConfig scfg;
    SnipModel model = buildSnipModel(profile, *game, scfg);
    ASSERT_GT(model.table->entryCount(), 0u);

    game->reset();
    const MemoTable &table = *model.table;      // shared, const
    const games::Game &cgame = *game;           // shared, const
    const auto &events = res.trace.events;
    ASSERT_FALSE(events.empty());

    // Serial reference pass.
    uint64_t ref_hits = 0, ref_candidates = 0;
    {
        LookupScratch scratch;
        for (const auto &ev : events) {
            MemoLookup r = table.lookup(ev, cgame, scratch);
            ref_hits += r.hit;
            ref_candidates += r.candidates;
        }
    }

    constexpr unsigned kThreads = 8;
    constexpr int kRounds = 4;
    std::vector<uint64_t> hits(kThreads, 0);
    std::vector<uint64_t> candidates(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            LookupScratch scratch;  // per-caller, reused
            for (int round = 0; round < kRounds; ++round) {
                for (const auto &ev : events) {
                    MemoLookup r = table.lookup(ev, cgame, scratch);
                    hits[t] += r.hit;
                    candidates[t] += r.candidates;
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(hits[t], ref_hits * kRounds) << "thread " << t;
        EXPECT_EQ(candidates[t], ref_candidates * kRounds)
            << "thread " << t;
    }
    EXPECT_GT(ref_hits, 0u);
}

TEST(ParallelRunnerTest, ConcurrentLookupsOnSharedConstFrozenTable)
{
    // Same contract as the mutable-table test above, for the
    // deployed layout: one shared const FrozenTable, 8 threads,
    // per-caller scratch, results identical to a serial pass. The
    // frozen view is immutable by construction, so TSan has nothing
    // to flag (tools/ci.sh runs this under -fsanitize=thread).
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 30.0;
    cfg.record_events = true;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("colorphun");
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    SnipConfig scfg;
    SnipModel model = buildSnipModel(profile, *game, scfg);
    ASSERT_GT(model.table->entryCount(), 0u);

    game->reset();
    std::shared_ptr<const FrozenTable> frozen =
        model.table->freeze();
    const FrozenTable &table = *frozen;         // shared, const
    const games::Game &cgame = *game;           // shared, const
    const auto &events = res.trace.events;
    ASSERT_FALSE(events.empty());

    uint64_t ref_hits = 0, ref_bytes = 0;
    {
        LookupScratch scratch;
        for (const auto &ev : events) {
            FrozenLookup r = table.lookup(ev, cgame, scratch);
            ref_hits += r.hit;
            ref_bytes += r.bytes_scanned;
        }
    }

    constexpr unsigned kThreads = 8;
    constexpr int kRounds = 4;
    std::vector<uint64_t> hits(kThreads, 0);
    std::vector<uint64_t> bytes(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            LookupScratch scratch;  // per-caller, reused
            for (int round = 0; round < kRounds; ++round) {
                for (const auto &ev : events) {
                    FrozenLookup r = table.lookup(ev, cgame, scratch);
                    hits[t] += r.hit;
                    bytes[t] += r.bytes_scanned;
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(hits[t], ref_hits * kRounds) << "thread " << t;
        EXPECT_EQ(bytes[t], ref_bytes * kRounds) << "thread " << t;
    }
    EXPECT_GT(ref_hits, 0u);
}

// -------------------------------------------- Shrink-phase parallelism

/** Profile colorphun the way the offline pipeline does. */
trace::Profile
profileColorphun(double duration_s)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = duration_s;
    cfg.record_events = true;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("colorphun");
    return trace::Replayer::replay(res.trace, *replica);
}

/**
 * End-to-end thread invariance of the Shrink phase: buildSnipModel
 * at 1 worker and at 8 workers must produce identical selections
 * and byte-identical packed models (the OTA payload).
 */
TEST(ShrinkParallelTest, ModelBytesInvariantAcrossThreadCounts)
{
    auto game = games::makeGame("colorphun");
    trace::Profile profile = profileColorphun(30.0);

    SnipConfig c1;
    c1.threads = 1;
    SnipConfig c8 = c1;
    c8.threads = 8;
    SnipModel m1 = buildSnipModel(profile, *game, c1);
    SnipModel m8 = buildSnipModel(profile, *game, c8);

    ASSERT_EQ(m1.types.size(), m8.types.size());
    ASSERT_FALSE(m1.types.empty());
    for (size_t i = 0; i < m1.types.size(); ++i) {
        const auto &a = m1.types[i].selection;
        const auto &b = m8.types[i].selection;
        EXPECT_EQ(a.selected, b.selected);
        EXPECT_EQ(a.selected_bytes, b.selected_bytes);
        EXPECT_EQ(a.selected_error, b.selected_error);
        EXPECT_EQ(a.selected_hit_rate, b.selected_hit_rate);
        EXPECT_EQ(a.curve.size(), b.curve.size());
    }

    util::ByteBuffer p1, p8;
    packModel(m1, p1);
    packModel(m8, p8);
    ASSERT_EQ(p1.size(), p8.size());
    EXPECT_EQ(p1.data(), p8.data());  // byte-identical OTA payload
}

/**
 * TSan smoke for the training-side shared-read contract: many
 * threads running batched prediction and PFI against ONE const
 * Dataset and ONE const RandomForest (scratch is thread_local) must
 * be race-free and each see what a serial caller sees.
 */
TEST(ShrinkParallelTest, ConcurrentPfiOnSharedConstForest)
{
    auto game = games::makeGame("colorphun");
    trace::Profile profile = profileColorphun(30.0);

    // Dataset of the busiest event type.
    events::EventType busiest = events::EventType::Touch;
    size_t best = 0;
    for (events::EventType t : profile.typesPresent()) {
        size_t n = profile.ofType(t).size();
        if (n > best) {
            best = n;
            busiest = t;
        }
    }
    ASSERT_GE(best, 64u);
    const ml::Dataset ds(profile.ofType(busiest), game->schema());
    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;

    ml::ForestConfig fcfg;
    fcfg.num_trees = 8;
    ml::RandomForest forest(fcfg);
    forest.train(ds, cols);
    const ml::RandomForest &cforest = forest;  // shared, const

    // Serial reference pass.
    std::vector<uint64_t> ref(ds.numRows());
    cforest.predictRows(ds, 0, ds.numRows(), ref.data());
    ml::PfiConfig pcfg;
    pcfg.threads = 1;
    ml::PfiResult ref_pfi = ml::computePfi(cforest, ds, cols, pcfg);

    constexpr unsigned kThreads = 8;
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            std::vector<uint64_t> mine(ds.numRows());
            cforest.predictRows(ds, 0, ds.numRows(), mine.data());
            ml::PfiResult pfi =
                ml::computePfi(cforest, ds, cols, pcfg);
            ok[t] = (mine == ref &&
                     pfi.importance == ref_pfi.importance &&
                     pfi.base_error == ref_pfi.base_error);
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok[t], 1) << "thread " << t;
}

/**
 * TSan smoke for util::EmpiricalCdf's lazily-sorted const reads.
 * The old implementation mutated the sample vector from const
 * accessors with no synchronization, so the first concurrent
 * readers raced on the sort; reads of a shared const CDF must now
 * be safe and agree with a serial reference.
 */
TEST(ShrinkParallelTest, ConcurrentEmpiricalCdfReads)
{
    util::EmpiricalCdf cdf;
    util::Rng rng(99);
    for (int i = 0; i < 5000; ++i)
        cdf.add(rng.uniformReal(0.0, 1000.0));

    // Serial reference from a copy (the copy sorts independently,
    // leaving `cdf` unsorted for the concurrent first-read below).
    util::EmpiricalCdf ref_cdf(cdf);
    const double quantiles[] = {0.0, 0.25, 0.5, 0.9, 0.99, 1.0};
    double ref_q[6];
    for (int i = 0; i < 6; ++i)
        ref_q[i] = ref_cdf.quantile(quantiles[i]);
    double ref_at = ref_cdf.cdfAt(500.0);

    const util::EmpiricalCdf &shared = cdf;
    constexpr unsigned kThreads = 8;
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            bool good = true;
            for (int rep = 0; rep < 50; ++rep) {
                for (int i = 0; i < 6; ++i) {
                    good &= shared.quantile(quantiles[i]) ==
                            ref_q[i];
                }
                good &= shared.cdfAt(500.0) == ref_at;
            }
            ok[t] = good;
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok[t], 1) << "thread " << t;
}

/**
 * Regression: a SessionSpec without a factory must surface as an
 * error on the *calling* thread. The old code validated inside the
 * parallelFor worker, where util::fatal's throw (with throw-on-error
 * configured, as tests and library embedders use) escapes the worker
 * and lands in std::terminate instead of the caller's catch scope.
 */
TEST(ParallelRunnerTest, InvalidSpecThrowsOnCallerThread)
{
    bool prev = util::setThrowOnError(true);
    std::vector<SessionSpec> specs(3);  // no factories at all
    ParallelRunner pool(4);
    EXPECT_THROW(pool.runSessions(specs), std::runtime_error);

    // A single bad spec among good ones must also throw before any
    // session work is dispatched.
    std::vector<SessionSpec> mixed;
    for (int i = 0; i < 3; ++i) {
        SessionSpec spec;
        spec.make_game = [] { return games::makeGame("colorphun"); };
        spec.make_scheme = [](games::Game &) {
            return std::make_unique<BaselineScheme>();
        };
        spec.cfg.duration_s = 1.0;
        mixed.push_back(std::move(spec));
    }
    mixed[1].make_scheme = nullptr;
    EXPECT_THROW(pool.runSessions(mixed), std::runtime_error);
    util::setThrowOnError(prev);
}

}  // namespace
}  // namespace core
}  // namespace snip
