/**
 * @file
 * Microbenchmarks (google-benchmark) of the SNIP runtime hot path:
 * MemoTable lookup (hash + candidate compare) and insert, across
 * table sizes, plus the handler-execution ground-truth computation
 * the simulator performs per event.
 *
 * The lookup benchmarks run single- and multi-threaded against ONE
 * shared const table (the concurrency contract the simulator's
 * parallel session runner relies on) and report:
 *   - items_per_second per thread count (the scaling trajectory);
 *   - allocs_per_iter, counted by a thread-local counting
 *     allocator, to prove the scratch-based hit path does zero heap
 *     allocations on every thread (a global counter would blame one
 *     thread's bookkeeping allocations on another's timed window);
 *   - BM_FrozenTableLookup vs BM_MemoTableLookup side by side: the
 *     same event stream against the deployed flat arena and the
 *     mutable build-side table.
 *
 * BM_SnipObserveKnown times SnipScheme::observe's online-fill dedupe
 * path (records already in the frozen table or the overlay), with
 * allocs_per_iter counted the same way.
 *
 * The binary is also a self-check: it exits nonzero if any lookup
 * thread or the dedupe path allocated during its timed loop (or the
 * dedupe path grew the overlay), or if the frozen and
 * mutable layouts disagree on any hit/miss, candidate count,
 * bytes_scanned, or matched output over the fixture's event stream.
 *
 * Unless the caller passes its own --benchmark_out, results are
 * also written as JSON to BENCH_micro_lookup.json.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/frozen_table.h"
#include "core/memo_table.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/parallel.h"

using namespace snip;

// ------------------------------------------------ counting allocator
// operator new/delete instrumentation with a THREAD-LOCAL counter:
// each benchmark thread reads only its own allocation count, so one
// thread's post-loop bookkeeping (google-benchmark's counter maps,
// thread teardown) can never land inside another thread's timed
// window — the failure mode that made the multi-threaded runs
// report spurious nonzero allocs_per_iter with a global counter.
//
// GCC flags malloc-backed replacement allocators as mismatched with
// the deletes it inlines elsewhere in the TU; the pair below is
// consistent (new->malloc, delete->free), so silence it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
thread_local uint64_t t_allocs = 0;
/** Lookup threads that allocated inside their timed loop. */
std::atomic<uint64_t> g_alloc_violations{0};
}

void *
operator new(size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

namespace {

/** Shared fixture: a profiled game + deployed model, both layouts. */
struct Fixture {
    std::unique_ptr<games::Game> game;
    trace::Profile profile;
    /** Records of a second session: new to the model's tables. */
    trace::Profile unseen;
    core::SnipModel model;
    std::shared_ptr<const core::FrozenTable> frozen;
    std::vector<events::EventObject> events;
    size_t max_selected = 0;

    Fixture()
    {
        game = games::makeGame("ab_evolution");
        core::BaselineScheme baseline;
        core::SimulationConfig cfg;
        cfg.duration_s = 60.0;
        cfg.record_events = true;
        core::SessionResult res =
            core::runSession(*game, baseline, cfg);
        auto replica = games::makeGame("ab_evolution");
        profile = trace::Replayer::replay(res.trace, *replica);
        core::SnipConfig scfg;
        model = core::buildSnipModel(profile, *game, scfg);
        frozen = model.table->freeze();
        events = res.trace.events;
        cfg.seed += 1;
        core::SessionResult other =
            core::runSession(*game, baseline, cfg);
        auto other_replica = games::makeGame("ab_evolution");
        unseen = trace::Replayer::replay(other.trace, *other_replica);
        for (const auto &t : model.types)
            max_selected = std::max(max_selected,
                                    t.selection.selected.size());
        game->reset();
    }

    /** Scratch pre-sized to the widest selection: lookups against
     *  either layout then resize within capacity (no allocation). */
    core::LookupScratch sizedScratch() const
    {
        core::LookupScratch s;
        s.values.reserve(max_selected);
        s.present.reserve(max_selected);
        return s;
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

/**
 * The hot path as the runtime drives it: per-caller scratch, shared
 * const table, shared const game (all reads). With ->Threads(N),
 * N threads hammer the same table concurrently; items_per_second is
 * the aggregate lookup throughput.
 */
void
BM_MemoTableLookup(benchmark::State &state)
{
    Fixture &f = fixture();
    const core::MemoTable &table = *f.model.table;
    const games::Game &game = *f.game;
    // Pre-size the scratch to the widest selection and stride the
    // event stream by thread so threads don't walk in lockstep.
    core::LookupScratch scratch = f.sizedScratch();
    size_t i = static_cast<size_t>(state.thread_index()) * 7919;
    core::MemoLookup warm =
        table.lookup(f.events[i % f.events.size()], game, scratch);
    benchmark::DoNotOptimize(warm);

    uint64_t hits = 0;
    uint64_t allocs_before = t_allocs;
    for (auto _ : state) {
        const auto &ev = f.events[i++ % f.events.size()];
        core::MemoLookup res = table.lookup(ev, game, scratch);
        hits += res.hit;
        benchmark::DoNotOptimize(res);
    }
    uint64_t allocs = t_allocs - allocs_before;
    if (allocs != 0)
        g_alloc_violations.fetch_add(1, std::memory_order_relaxed);
    // Per-thread rates: averaged (not summed) across threads.
    state.counters["hit_rate"] = benchmark::Counter(
        static_cast<double>(hits) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoTableLookup)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/** Same workload against the deployed flat arena. */
void
BM_FrozenTableLookup(benchmark::State &state)
{
    Fixture &f = fixture();
    const core::FrozenTable &table = *f.frozen;
    const games::Game &game = *f.game;
    core::LookupScratch scratch = f.sizedScratch();
    size_t i = static_cast<size_t>(state.thread_index()) * 7919;
    core::FrozenLookup warm =
        table.lookup(f.events[i % f.events.size()], game, scratch);
    benchmark::DoNotOptimize(warm);

    uint64_t hits = 0;
    uint64_t allocs_before = t_allocs;
    for (auto _ : state) {
        const auto &ev = f.events[i++ % f.events.size()];
        core::FrozenLookup res = table.lookup(ev, game, scratch);
        hits += res.hit;
        benchmark::DoNotOptimize(res);
    }
    uint64_t allocs = t_allocs - allocs_before;
    if (allocs != 0)
        g_alloc_violations.fetch_add(1, std::memory_order_relaxed);
    state.counters["hit_rate"] = benchmark::Counter(
        static_cast<double>(hits) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FrozenTableLookup)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void
BM_MemoTableInsert(benchmark::State &state)
{
    Fixture &f = fixture();
    core::MemoTable table(f.game->schema());
    for (const auto &t : f.model.types)
        table.setSelected(t.type, t.selection.selected);
    size_t i = 0;
    for (auto _ : state) {
        table.insert(f.profile.records[i++ % f.profile.records.size()]);
    }
    state.counters["entries"] =
        static_cast<double>(table.entryCount());
}
BENCHMARK(BM_MemoTableInsert);

/**
 * The online-fill dedupe path: SnipScheme::observe on records that
 * are already memoized, half in the frozen table (the profile) and
 * half in the overlay (a second session's records, observed once
 * before timing). Every call projects the record, checks the frozen
 * table and, when absent there, the overlay bucket; none may
 * allocate or grow the overlay.
 */
void
BM_SnipObserveKnown(benchmark::State &state)
{
    Fixture &f = fixture();
    core::SnipScheme scheme(f.model);
    const auto &frozen_recs = f.profile.records;
    const auto &overlay_recs = f.unseen.records;
    for (const auto &rec : overlay_recs)
        scheme.observe(rec);
    size_t overlay_entries = scheme.overlayEntries();
    for (const auto &rec : frozen_recs)  // grow the reused key
        scheme.observe(rec);

    size_t i = 0;
    uint64_t allocs_before = t_allocs;
    for (auto _ : state) {
        const auto &recs = i % 2 ? overlay_recs : frozen_recs;
        scheme.observe(recs[(i / 2) % recs.size()]);
        ++i;
    }
    uint64_t allocs = t_allocs - allocs_before;
    if (allocs != 0 || scheme.overlayEntries() != overlay_entries)
        g_alloc_violations.fetch_add(1, std::memory_order_relaxed);
    state.counters["overlay_entries"] =
        static_cast<double>(overlay_entries);
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
        static_cast<double>(state.iterations()));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SnipObserveKnown);

void
BM_HandlerProcess(benchmark::State &state)
{
    Fixture &f = fixture();
    size_t i = 0;
    for (auto _ : state) {
        games::HandlerExecution ex =
            f.game->process(f.events[i++ % f.events.size()]);
        benchmark::DoNotOptimize(ex);
    }
}
BENCHMARK(BM_HandlerProcess);

void
BM_EventGeneration(benchmark::State &state)
{
    Fixture &f = fixture();
    util::Rng rng(42);
    double now = 0.0;
    for (auto _ : state) {
        events::EventObject ev =
            f.game->makeEvent(events::EventType::Drag, now, rng);
        now += 0.01;
        benchmark::DoNotOptimize(ev);
    }
}
BENCHMARK(BM_EventGeneration);

// ------------------------------------------------ parallel dispatch

/** Fan-out used by both dispatch benches (explicit, so SNIP_THREADS
 *  and the container's core count don't change what is measured). */
constexpr unsigned kDispatchThreads = 4;

/**
 * The verbatim pre-pool util::parallelFor engine: spawn and join
 * fresh std::threads per call. Kept here (not in the library) as
 * the dispatch-latency baseline for BM_ParallelDispatch.
 */
void
spawnParallelFor(size_t n, const std::function<void(size_t)> &fn,
                 unsigned threads)
{
    unsigned workers =
        static_cast<unsigned>(std::min<size_t>(threads, n));
    std::atomic<size_t> next{0};
    auto body = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(body);
    body();
    for (auto &t : pool)
        t.join();
}

/**
 * ns/dispatch of a small-n parallel loop on the persistent pool.
 * Each iteration is one complete parallelFor (submit + drain +
 * wind-down); the body is a token so the measurement is dispatch
 * latency, not compute. The caller thread must not allocate per
 * dispatch — Job is stack-resident, the callable is a FunctionRef,
 * and tickets ride preallocated rings — so allocs_per_iter feeds
 * the binary's alloc self-check like the lookup benches.
 */
void
BM_ParallelDispatch(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    std::atomic<uint64_t> sink{0};
    auto body = [&](size_t i) {
        sink.fetch_add(i + 1, std::memory_order_relaxed);
    };
    // Warm the pool: worker spawn is a one-time cost by design and
    // must not land in the timed loop (or the alloc counter).
    util::parallelFor(n, body, kDispatchThreads);
    uint64_t allocs_before = t_allocs;
    for (auto _ : state) {
        util::parallelFor(n, body, kDispatchThreads);
    }
    uint64_t allocs = t_allocs - allocs_before;
    if (allocs != 0)
        g_alloc_violations.fetch_add(1, std::memory_order_relaxed);
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
        static_cast<double>(state.iterations()));
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ParallelDispatch)->Arg(4)->Arg(64)->UseRealTime();

/** The same loop on the old spawn-per-call engine, for the ratio. */
void
BM_ParallelDispatchSpawn(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    std::atomic<uint64_t> sink{0};
    auto body = [&](size_t i) {
        sink.fetch_add(i + 1, std::memory_order_relaxed);
    };
    for (auto _ : state) {
        spawnParallelFor(n, body, kDispatchThreads);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ParallelDispatchSpawn)->Arg(4)->Arg(64)->UseRealTime();

}  // namespace

int
main(int argc, char **argv)
{
    // Default to also emitting machine-readable JSON (the BENCH_*
    // trajectory file) unless the caller picked an output already.
    bool has_out = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            has_out = true;
        args.push_back(argv[i]);
    }
    std::string out_flag = "--benchmark_out=BENCH_micro_lookup.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_argc = static_cast<int>(args.size());
    benchmark::Initialize(&args_argc, args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Self-check 1: no lookup thread (at any thread count) and no
    // dedupe loop may have allocated inside its timed loop.
    uint64_t alloc_violations =
        g_alloc_violations.load(std::memory_order_relaxed);
    if (alloc_violations != 0)
        std::fprintf(stderr,
                     "FAIL: %llu lookup or dedupe loop(s) allocated "
                     "during the timed loop\n",
                     static_cast<unsigned long long>(alloc_violations));

    // Self-check 2: the frozen and mutable layouts must make
    // bitwise-identical decisions — hit/miss, candidates scanned,
    // bytes charged, and matched outputs — over the whole fixture
    // event stream.
    Fixture &f = fixture();
    core::LookupScratch ms = f.sizedScratch();
    core::LookupScratch fs = f.sizedScratch();
    uint64_t mismatches = 0;
    for (const auto &ev : f.events) {
        core::MemoLookup mres = f.model.table->lookup(ev, *f.game, ms);
        core::FrozenLookup fres = f.frozen->lookup(ev, *f.game, fs);
        bool same = mres.hit == fres.hit &&
                    mres.candidates == fres.candidates &&
                    mres.bytes_scanned == fres.bytes_scanned;
        if (same && mres.hit) {
            same = mres.entry->outputs.size() == fres.nout;
            for (uint32_t o = 0; same && o < fres.nout; ++o)
                same = mres.entry->outputs[o].id == fres.out_ids[o] &&
                       mres.entry->outputs[o].value ==
                           fres.out_values[o];
        }
        if (!same)
            ++mismatches;
    }
    if (mismatches != 0)
        std::fprintf(stderr,
                     "FAIL: frozen vs mutable lookup disagreed on "
                     "%llu of %zu events\n",
                     static_cast<unsigned long long>(mismatches),
                     f.events.size());
    else
        std::fprintf(stderr,
                     "equivalence: frozen == mutable over %zu events "
                     "(hits, candidates, bytes, outputs)\n",
                     f.events.size());

    // Self-check 3: warm pool dispatch must beat spawn-per-call
    // decisively. The acceptance bar is 10x; the runtime gate is 5x
    // to keep CI robust against scheduler noise on small containers
    // (the measured ratio on this hardware is far above both).
    uint64_t dispatch_fail = 0;
    {
        const size_t kN = 4;
        const int kReps = 5000;
        std::atomic<uint64_t> sink{0};
        auto body = [&](size_t i) {
            sink.fetch_add(i + 1, std::memory_order_relaxed);
        };
        util::parallelFor(kN, body, kDispatchThreads);  // warm
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r)
            util::parallelFor(kN, body, kDispatchThreads);
        auto t1 = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r)
            spawnParallelFor(kN, body, kDispatchThreads);
        auto t2 = std::chrono::steady_clock::now();
        double pool_ns =
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count() / kReps;
        double spawn_ns =
            std::chrono::duration<double, std::nano>(t2 - t1)
                .count() / kReps;
        double ratio = pool_ns > 0 ? spawn_ns / pool_ns : 0.0;
        if (ratio < 5.0) {
            ++dispatch_fail;
            std::fprintf(stderr,
                         "FAIL: pool dispatch only %.1fx faster "
                         "than spawn-per-call (%.0f vs %.0f "
                         "ns/dispatch, need >= 5x)\n",
                         ratio, pool_ns, spawn_ns);
        } else {
            std::fprintf(stderr,
                         "dispatch: pool %.0f ns vs spawn %.0f ns "
                         "per parallelFor (%.1fx)\n",
                         pool_ns, spawn_ns, ratio);
        }
        benchmark::DoNotOptimize(sink);
    }
    return (alloc_violations != 0 || mismatches != 0 ||
            dispatch_fail != 0)
               ? 1
               : 0;
}
