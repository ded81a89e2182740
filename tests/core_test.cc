/**
 * @file
 * Tests for the core SNIP layer: output diffing, the deployed memo
 * table, the naive / In.Event table analyses, the pipeline facade,
 * scheme decision policies, the session runner, and the continuous
 * learner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>

#include "core/continuous_learning.h"
#include "core/frozen_table.h"
#include "core/lookup_table.h"
#include "core/memo_table.h"
#include "core/model_codec.h"
#include "core/output_diff.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "obs/metrics.h"
#include "trace/columnar_log.h"
#include "trace/recorder.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {
namespace {

// --------------------------------------------------------- OutputDiff

class OutputDiffTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        t_ = schema_.addOutput("t", events::OutputCategory::Temp, 16);
        h_ = schema_.addOutput("h", events::OutputCategory::History, 4);
        x_ = schema_.addOutput("x", events::OutputCategory::Extern,
                               256);
    }

    events::FieldSchema schema_;
    events::FieldId t_, h_, x_;
};

TEST_F(OutputDiffTest, IdenticalIsClean)
{
    std::vector<events::FieldValue> a = {{t_, 1}, {h_, 2}};
    OutputDiff d = diffOutputs(a, a, schema_);
    EXPECT_FALSE(d.anyWrong());
    EXPECT_EQ(d.fields_total, 2u);
}

TEST_F(OutputDiffTest, TempOnlyDamage)
{
    std::vector<events::FieldValue> applied = {{t_, 1}, {h_, 2}};
    std::vector<events::FieldValue> truth = {{t_, 9}, {h_, 2}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_TRUE(d.anyWrong());
    EXPECT_TRUE(d.tempOnly());
    EXPECT_EQ(d.wrong_temp, 1u);
    EXPECT_EQ(d.wrong_history, 0u);
}

TEST_F(OutputDiffTest, HistoryDamageNotTempOnly)
{
    std::vector<events::FieldValue> applied = {{h_, 1}};
    std::vector<events::FieldValue> truth = {{h_, 2}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_FALSE(d.tempOnly());
    EXPECT_EQ(d.wrong_history, 1u);
}

TEST_F(OutputDiffTest, MissingAndSpuriousCountWrong)
{
    std::vector<events::FieldValue> applied = {{t_, 1}};
    std::vector<events::FieldValue> truth = {{h_, 2}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_EQ(d.fields_total, 2u);
    EXPECT_EQ(d.fields_wrong, 2u);
    EXPECT_EQ(d.wrong_temp, 1u);   // spurious temp write
    EXPECT_EQ(d.wrong_history, 1u);  // missing history write
}

TEST_F(OutputDiffTest, ExternDamage)
{
    std::vector<events::FieldValue> applied = {};
    std::vector<events::FieldValue> truth = {{x_, 7}};
    OutputDiff d = diffOutputs(applied, truth, schema_);
    EXPECT_EQ(d.wrong_extern, 1u);
    EXPECT_FALSE(d.tempOnly());
}

// ---------------------------------------------------------- MemoTable

class MemoTableTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        game_ = games::makeGame("colorphun");
        // Deploy the ground-truth necessary set.
        selected_ =
            game_->necessaryInputIds(events::EventType::Touch);
        table_ = std::make_unique<MemoTable>(game_->schema());
        table_->setSelected(events::EventType::Touch, selected_);
    }

    games::HandlerExecution
    nextExecution(util::Rng &rng)
    {
        events::EventObject ev =
            game_->makeEvent(events::EventType::Touch, 0.0, rng);
        last_event_ = ev;
        return game_->process(ev);
    }

    std::unique_ptr<games::Game> game_;
    std::vector<events::FieldId> selected_;
    std::unique_ptr<MemoTable> table_;
    events::EventObject last_event_;
};

TEST_F(MemoTableTest, MissOnEmptyTable)
{
    util::Rng rng(1);
    nextExecution(rng);
    LookupScratch scratch;
    MemoLookup res = table_->lookup(last_event_, *game_, scratch);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.candidates, 0u);
    // Gathering the necessary inputs still costs their bytes.
    EXPECT_EQ(res.bytes_scanned,
              table_->selectedBytes(events::EventType::Touch));
}

TEST_F(MemoTableTest, HitAfterInsertWithUnchangedState)
{
    util::Rng rng(2);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), 1u);
    LookupScratch scratch;
    MemoLookup res = table_->lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(res.entry->outputs, ex.outputs);
    EXPECT_GE(res.candidates, 1u);
}

TEST_F(MemoTableTest, StateChangeInvalidatesMatch)
{
    util::Rng rng(3);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    // Perturb a necessary history field the entry stored.
    events::FieldId mode_out = game_->schema().find("o.mode");
    ASSERT_NE(mode_out, events::kInvalidField);
    uint64_t cur = game_->state().get(game_->schema().find("h.mode"));
    game_->state().apply(mode_out, cur + 1);
    LookupScratch scratch;
    MemoLookup res = table_->lookup(last_event_, *game_, scratch);
    EXPECT_FALSE(res.hit);
}

TEST_F(MemoTableTest, DuplicateInsertIgnored)
{
    util::Rng rng(4);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), 1u);
}

TEST_F(MemoTableTest, BytesAccounting)
{
    util::Rng rng(5);
    table_->insert(nextExecution(rng));
    EXPECT_GT(table_->totalBytes(), MemoTable::kEntryHeaderBytes);
    uint64_t one = table_->totalBytes();
    // Different state -> different key -> new entry.
    events::FieldId streak_out = game_->schema().find("o.streak");
    uint64_t cur =
        game_->state().get(game_->schema().find("h.streak"));
    game_->state().apply(streak_out, cur + 1);
    table_->insert(nextExecution(rng));
    EXPECT_GE(table_->totalBytes(), one);
}

TEST_F(MemoTableTest, ClearEmptiesTable)
{
    util::Rng rng(6);
    table_->insert(nextExecution(rng));
    table_->clear();
    EXPECT_EQ(table_->entryCount(), 0u);
    EXPECT_EQ(table_->totalBytes(), 0u);
}

TEST_F(MemoTableTest, UndeployedTypeMisses)
{
    // colorphun has no Gyro handler deployed in this table.
    events::EventObject ev;
    ev.type = events::EventType::Gyro;
    LookupScratch scratch;
    MemoLookup res = table_->lookup(ev, *game_, scratch);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.bytes_scanned, 0u);
}

TEST_F(MemoTableTest, SetSelectedAfterInsertFatal)
{
    bool prev = util::setThrowOnError(true);
    util::Rng rng(7);
    table_->insert(nextExecution(rng));
    EXPECT_THROW(
        table_->setSelected(events::EventType::Touch, selected_),
        std::runtime_error);
    util::setThrowOnError(prev);
}

// Regression: lookup() must be genuinely const (callable through a
// const MemoTable& — the shape concurrent readers use) and carries
// no mutable hit state at all; hit accounting lives in the caller's
// dense counter array indexed by the FrozenTable entry ordinal.
TEST_F(MemoTableTest, ConstLookupHitsFlowViaCallerOwnedOrdinals)
{
    util::Rng rng(8);
    table_->insert(nextExecution(rng));

    const MemoTable &ct = *table_;
    LookupScratch scratch;
    MemoLookup res = ct.lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(res.hit);

    auto frozen = FrozenTable::freeze(ct);
    std::vector<uint64_t> hit_counts(frozen->entryCount(), 0);
    FrozenLookup fres = frozen->lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(fres.hit);
    ASSERT_LT(fres.entry_ordinal, hit_counts.size());
    EXPECT_EQ(hit_counts[fres.entry_ordinal], 0u);
    ++hit_counts[fres.entry_ordinal];

    FrozenLookup again = frozen->lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(again.hit);
    EXPECT_EQ(again.entry_ordinal, fres.entry_ordinal);
    EXPECT_EQ(hit_counts[again.entry_ordinal], 1u);
}

// Regression: an insert whose inputs are not sorted by FieldId must
// project the same key as the canonical record (the two-pointer
// projection used to silently drop every field after the first
// out-of-order one).
TEST_F(MemoTableTest, UnsortedInsertKeepsAllKeyFields)
{
    util::Rng rng(9);
    games::HandlerExecution ex = nextExecution(rng);
    ASSERT_GT(ex.inputs.size(), 1u);

    games::HandlerExecution reversed = ex;
    std::reverse(reversed.inputs.begin(), reversed.inputs.end());

    MemoTable other(game_->schema());
    other.setSelected(events::EventType::Touch, selected_);
    other.insert(reversed);
    table_->insert(ex);

    EXPECT_EQ(other.entryCount(), table_->entryCount());
    EXPECT_EQ(other.totalBytes(), table_->totalBytes());
    LookupScratch scratch;
    MemoLookup res = other.lookup(last_event_, *game_, scratch);
    EXPECT_TRUE(res.hit);

    // An unsorted record projects onto the key the frozen table
    // holds.
    auto frozen = FrozenTable::freeze(*table_);
    const auto sel = frozen->selectedSet(reversed.type);
    ProjectedKey key;
    projectRecord(sel, reversed.inputs, key);
    EXPECT_TRUE(frozen->contains(reversed.type, key));
    games::HandlerExecution changed = reversed;
    bool bumped = false;
    for (auto &fv : changed.inputs) {
        if (std::find(selected_.begin(), selected_.end(), fv.id) !=
            selected_.end()) {
            ++fv.value;
            bumped = true;
            break;
        }
    }
    ASSERT_TRUE(bumped);
    projectRecord(sel, changed.inputs, key);
    EXPECT_FALSE(frozen->contains(changed.type, key));
}

// Regression: a missing In.Event field must not hash (and therefore
// match) like a present field whose value is UINT64_MAX — the old
// code used ~0ULL as the absence sentinel.
TEST_F(MemoTableTest, MissingFieldDoesNotCollideWithMaxValue)
{
    // Deploy a single In.Event key field.
    events::FieldId key_fid = events::kInvalidField;
    for (events::FieldId fid : selected_) {
        const auto &d = game_->schema().def(fid);
        if (d.side == events::FieldSide::Input &&
            d.in_cat == events::InputCategory::Event) {
            key_fid = fid;
            break;
        }
    }
    ASSERT_NE(key_fid, events::kInvalidField);
    MemoTable table(game_->schema());
    table.setSelected(events::EventType::Touch, {key_fid});

    // Entry recorded from an execution that never read the field.
    games::HandlerExecution rec;
    rec.type = events::EventType::Touch;
    rec.outputs = {{game_->schema().find("o.mode"), 1}};
    table.insert(rec);
    ASSERT_EQ(table.entryCount(), 1u);

    // An event carrying the legitimate value UINT64_MAX must not
    // land in the missing-field bucket (a false short-circuit).
    events::EventObject ev;
    ev.type = events::EventType::Touch;
    ev.fields = {{key_fid, ~0ULL}};
    LookupScratch scratch;
    MemoLookup res = table.lookup(ev, *game_, scratch);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.candidates, 0u);

    // And the converse: an event missing the field must not match
    // an entry keyed on value UINT64_MAX.
    games::HandlerExecution rec_max;
    rec_max.type = events::EventType::Touch;
    rec_max.inputs = {{key_fid, ~0ULL}};
    rec_max.outputs = {{game_->schema().find("o.mode"), 2}};
    MemoTable table2(game_->schema());
    table2.setSelected(events::EventType::Touch, {key_fid});
    table2.insert(rec_max);
    events::EventObject missing;
    missing.type = events::EventType::Touch;
    MemoLookup res2 = table2.lookup(missing, *game_, scratch);
    EXPECT_FALSE(res2.hit);
    EXPECT_EQ(res2.candidates, 0u);
}

// Duplicate inserts must leave both entryCount() and totalBytes()
// untouched (append-only semantics keep the first outputs).
TEST_F(MemoTableTest, DuplicateInsertAccountingUnchanged)
{
    util::Rng rng(10);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    size_t count = table_->entryCount();
    uint64_t bytes = table_->totalBytes();
    table_->insert(ex);
    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), count);
    EXPECT_EQ(table_->totalBytes(), bytes);
}

// clear() then re-inserting the same records must reproduce the
// exact accounting and hit behaviour of the first fill.
TEST_F(MemoTableTest, ClearThenReinsertRoundTrip)
{
    util::Rng rng(11);
    games::HandlerExecution ex = nextExecution(rng);
    table_->insert(ex);
    size_t count = table_->entryCount();
    uint64_t bytes = table_->totalBytes();

    table_->clear();
    EXPECT_EQ(table_->entryCount(), 0u);
    EXPECT_EQ(table_->totalBytes(), 0u);

    table_->insert(ex);
    EXPECT_EQ(table_->entryCount(), count);
    EXPECT_EQ(table_->totalBytes(), bytes);
    LookupScratch scratch;
    MemoLookup res = table_->lookup(last_event_, *game_, scratch);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.entry->outputs, ex.outputs);
}

// A reused scratch must produce results identical to a fresh one,
// whatever type width was looked up before.
TEST_F(MemoTableTest, ScratchReuseAcrossLookupsIsEquivalent)
{
    util::Rng rng(12);
    LookupScratch scratch;
    for (int i = 0; i < 20; ++i) {
        games::HandlerExecution ex = nextExecution(rng);
        table_->insert(ex);
        MemoLookup a = table_->lookup(last_event_, *game_, scratch);
        LookupScratch fresh;
        MemoLookup b = table_->lookup(last_event_, *game_, fresh);
        EXPECT_EQ(a.hit, b.hit);
        EXPECT_EQ(a.candidates, b.candidates);
        EXPECT_EQ(a.bytes_scanned, b.bytes_scanned);
        EXPECT_EQ(a.entry, b.entry);
    }
}

// A second table over the same schema whose entries are unioned in
// must behave like inserting the underlying records directly, with
// first-wins dedup preserved.
TEST_F(MemoTableTest, MergeFromUnionsEntries)
{
    util::Rng rng(13);
    games::HandlerExecution shared = nextExecution(rng);
    events::EventObject shared_event = last_event_;
    table_->insert(shared);
    size_t before = table_->entryCount();

    MemoTable other(game_->schema());
    other.setSelected(events::EventType::Touch, selected_);
    other.insert(shared);  // duplicate key: must not grow the union
    games::HandlerExecution fresh{};
    size_t other_only = 0;
    for (int i = 0; i < 50 && other_only == 0; ++i) {
        fresh = nextExecution(rng);
        other.insert(fresh);
        other_only = other.entryCount() - 1;
    }
    ASSERT_EQ(other_only, 1u);

    table_->mergeFrom(other);
    EXPECT_EQ(table_->entryCount(), before + 1);
    LookupScratch scratch;
    MemoLookup hit = table_->lookup(last_event_, *game_, scratch);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.entry->outputs, fresh.outputs);
    // Merging again is idempotent, and the shared entry kept the
    // first-inserted outputs.
    table_->mergeFrom(other);
    EXPECT_EQ(table_->entryCount(), before + 1);
    MemoLookup dup = table_->lookup(shared_event, *game_, scratch);
    ASSERT_TRUE(dup.hit);
    EXPECT_EQ(dup.entry->outputs, shared.outputs);
}

// Merging a frozen arena must equal merging the MemoTable it was
// frozen from: the same entries in the same canonical order, so the
// re-frozen arenas are byte-identical. The source selects more
// fields than the destination, so re-projection narrows its keys
// and first-wins dedup collapses some of them.
TEST_F(MemoTableTest, MergeFromFrozenMatchesMergeFromSource)
{
    std::vector<events::FieldId> wider = selected_;
    for (const auto &d : game_->schema().defs()) {
        if (wider.size() >= selected_.size() + 3)
            break;
        if (d.side == events::FieldSide::Input &&
            std::find(wider.begin(), wider.end(), d.id) ==
                wider.end())
            wider.push_back(d.id);
    }
    ASSERT_GT(wider.size(), selected_.size());

    util::Rng rng(14);
    MemoTable source(game_->schema());
    source.setSelected(events::EventType::Touch, wider);
    MemoTable via_table(game_->schema());
    MemoTable via_arena(game_->schema());
    via_table.setSelected(events::EventType::Touch, selected_);
    via_arena.setSelected(events::EventType::Touch, selected_);
    for (int i = 0; i < 300; ++i) {
        games::HandlerExecution ex = nextExecution(rng);
        source.insert(ex);
        if (i % 4 == 0) {  // entries both sides already hold
            via_table.insert(ex);
            via_arena.insert(ex);
        }
    }
    size_t before = via_table.entryCount();

    via_table.mergeFrom(source);
    via_arena.mergeFrom(*FrozenTable::freeze(source));
    EXPECT_GT(via_table.entryCount(), before);
    EXPECT_EQ(via_arena.entryCount(), via_table.entryCount());
    EXPECT_EQ(via_arena.totalBytes(), via_table.totalBytes());
    auto a = FrozenTable::freeze(via_table);
    auto b = FrozenTable::freeze(via_arena);
    ASSERT_EQ(a->arenaSize(), b->arenaSize());
    EXPECT_EQ(std::memcmp(a->arenaData(), b->arenaData(),
                          a->arenaSize()),
              0);
}

// -------------------------------------------------------- FrozenTable

// The deployed flat arena must make exactly the decisions of the
// mutable table it was frozen from: hit/miss, candidate count, byte
// accounting and matched outputs, over a large randomized event
// stream mixing replays of profiled events with fresh ones.
TEST_F(MemoTableTest, FrozenEquivalenceOverRandomEvents)
{
    util::Rng rng(0xf00d);
    std::vector<events::EventObject> seen;
    for (int i = 0; i < 256; ++i) {
        table_->insert(nextExecution(rng));
        seen.push_back(last_event_);
    }
    auto frozen = FrozenTable::freeze(*table_);
    ASSERT_EQ(frozen->entryCount(), table_->entryCount());
    ASSERT_EQ(frozen->totalBytes(), table_->totalBytes());

    LookupScratch ms, fs;
    uint64_t hits = 0;
    for (int i = 0; i < 10000; ++i) {
        events::EventObject ev =
            rng.next() % 2 == 0
                ? seen[rng.next() % seen.size()]
                : game_->makeEvent(events::EventType::Touch, 0.0,
                                   rng);
        MemoLookup m = table_->lookup(ev, *game_, ms);
        FrozenLookup f = frozen->lookup(ev, *game_, fs);
        ASSERT_EQ(m.hit, f.hit) << "event " << i;
        ASSERT_EQ(m.candidates, f.candidates) << "event " << i;
        ASSERT_EQ(m.bytes_scanned, f.bytes_scanned) << "event " << i;
        if (m.hit) {
            ++hits;
            ASSERT_EQ(m.entry->outputs.size(), f.nout);
            for (uint32_t o = 0; o < f.nout; ++o) {
                ASSERT_EQ(m.entry->outputs[o].id, f.out_ids[o]);
                ASSERT_EQ(m.entry->outputs[o].value,
                          f.out_values[o]);
            }
        }
    }
    // The stream replays profiled events, so some must still hit
    // (the most recent insert matches the current game state).
    EXPECT_GT(hits, 0u);
}

// attach() over a copy of the arena bytes must reproduce the
// freeze()-built view exactly — this is the wire round trip the v2
// package performs — and the copy is a zero-copy view over the
// caller's buffer.
TEST_F(MemoTableTest, FrozenArenaAttachRoundTrip)
{
    util::Rng rng(0xa77ac4);
    std::vector<events::EventObject> seen;
    for (int i = 0; i < 64; ++i) {
        table_->insert(nextExecution(rng));
        seen.push_back(last_event_);
    }
    auto frozen = FrozenTable::freeze(*table_);
    EXPECT_FALSE(frozen->zeroCopy());  // freeze() owns its arena

    auto bytes = std::make_shared<std::vector<uint64_t>>(
        (frozen->arenaSize() + 7) / 8);
    std::memcpy(bytes->data(), frozen->arenaData(),
                frozen->arenaSize());
    auto attached = FrozenTable::attach(
        reinterpret_cast<const uint8_t *>(bytes->data()),
        frozen->arenaSize(), bytes, game_->schema());
    ASSERT_TRUE(attached.ok()) << attached.status().message();
    const FrozenTable &view = *attached.value();
    EXPECT_TRUE(view.zeroCopy());
    EXPECT_EQ(view.entryCount(), frozen->entryCount());
    EXPECT_EQ(view.totalBytes(), frozen->totalBytes());

    LookupScratch a, b;
    for (const auto &ev : seen) {
        FrozenLookup x = frozen->lookup(ev, *game_, a);
        FrozenLookup y = view.lookup(ev, *game_, b);
        ASSERT_EQ(x.hit, y.hit);
        ASSERT_EQ(x.candidates, y.candidates);
        ASSERT_EQ(x.bytes_scanned, y.bytes_scanned);
        if (x.hit) {
            ASSERT_EQ(x.entry_ordinal, y.entry_ordinal);
            ASSERT_EQ(x.nout, y.nout);
            for (uint32_t o = 0; o < x.nout; ++o)
                ASSERT_EQ(x.out_values[o], y.out_values[o]);
        }
    }
}

// Corrupted "SNPF" arenas must never crash attach(): truncations are
// always rejected (the header's total_size can't match), and bit
// flips either fail validation or land in stored values, in which
// case the view must still be safely probeable (asan/ubsan verify
// the bounds). SNIP_FUZZ_ITERS cranks the iteration count in CI.
TEST_F(MemoTableTest, FrozenArenaCorruptionFuzz)
{
    size_t iters = 64;
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        iters = static_cast<size_t>(std::strtoull(env, nullptr, 10));

    util::Rng rng(0xc0441457ULL);
    std::vector<events::EventObject> seen;
    for (int i = 0; i < 48; ++i) {
        table_->insert(nextExecution(rng));
        seen.push_back(last_event_);
    }
    auto frozen = FrozenTable::freeze(*table_);
    size_t n = frozen->arenaSize();
    ASSERT_GT(n, 32u);

    for (size_t i = 0; i < iters; ++i) {
        auto bytes = std::make_shared<std::vector<uint64_t>>(
            (n + 7) / 8);
        std::memcpy(bytes->data(), frozen->arenaData(), n);
        auto *raw = reinterpret_cast<uint8_t *>(bytes->data());
        size_t len = n;
        if (rng.next() % 2 == 0) {
            len = rng.next() % n;  // truncate
        } else {
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                raw[rng.next() % n] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        auto res = FrozenTable::attach(raw, len, bytes,
                                       game_->schema());
        if (len < n) {
            EXPECT_FALSE(res.ok()) << "truncation accepted, " << len;
            continue;
        }
        if (!res.ok())
            continue;  // structural validation caught the flip
        // Flip landed in stored data: still a valid, bounded view.
        LookupScratch scratch;
        for (size_t e = 0; e < 8 && e < seen.size(); ++e) {
            FrozenLookup r =
                res.value()->lookup(seen[e], *game_, scratch);
            (void)r;
        }
    }
}

// ------------------------------------------------------ lookup tables

class AnalysisTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        game_ = games::makeGame("ab_evolution");
        BaselineScheme baseline;
        SimulationConfig cfg;
        cfg.duration_s = 40.0;
        cfg.record_events = true;
        cfg.seed = 31;
        SessionResult res = runSession(*game_, baseline, cfg);
        auto replica = games::makeGame("ab_evolution");
        profile_ = trace::Replayer::replay(res.trace, *replica);
    }

    std::unique_ptr<games::Game> game_;
    trace::Profile profile_;
};

TEST_F(AnalysisTest, NaiveCurveMonotone)
{
    NaiveTableAnalysis naive(profile_, game_->schema());
    ASSERT_FALSE(naive.curve().empty());
    double prev_cov = -1.0;
    uint64_t prev_entries = 0;
    for (const auto &p : naive.curve()) {
        EXPECT_GE(p.coverage, prev_cov);
        EXPECT_GE(p.entries, prev_entries);
        EXPECT_EQ(p.input_bytes, p.entries * naive.rowInputBytes());
        prev_cov = p.coverage;
        prev_entries = p.entries;
    }
    EXPECT_GT(naive.rowInputBytes(), 1000000u);  // ~1 MB rows
}

TEST_F(AnalysisTest, NaiveBytesForCoverage)
{
    NaiveTableAnalysis naive(profile_, game_->schema());
    double final_cov = naive.finalCoverage();
    if (final_cov > 0.005) {
        EXPECT_GT(naive.bytesForCoverage(final_cov / 2), 0u);
    }
    EXPECT_EQ(naive.bytesForCoverage(0.999), 0u);
}

TEST_F(AnalysisTest, InEventTableSmallerButErroneous)
{
    InEventTableResult r =
        analyzeInEventTable(profile_, game_->schema());
    EXPECT_GT(r.entries, 0u);
    EXPECT_LT(r.table_bytes, r.naive_bytes / 100);
    EXPECT_GT(r.coverage, 0.02);
    EXPECT_GT(r.erroneous_hit_fraction, 0.01);
    double cat_sum = r.err_temp_only + r.err_history + r.err_extern;
    EXPECT_NEAR(cat_sum, 1.0, 1e-9);
}

// -------------------------------------------------------- SnipModel

TEST_F(AnalysisTest, BuildModelSelectsPerType)
{
    SnipModel model = buildSnipModel(profile_, *game_);
    EXPECT_EQ(model.game, "ab_evolution");
    EXPECT_GE(model.types.size(), 2u);
    ASSERT_NE(model.frozen, nullptr);
    EXPECT_GT(model.frozen->entryCount(), 10u);
    EXPECT_GT(model.selectedBytes(), 0u);
    // Selected sets must be small relative to the full record.
    EXPECT_LT(model.selectedBytes(),
              game_->schema().totalInputBytes() / 20);
}

TEST_F(AnalysisTest, DeveloperOverrideForcesField)
{
    SnipConfig cfg;
    cfg.overrides.force_keep = {"drag.path"};  // a noise field
    SnipModel model = buildSnipModel(profile_, *game_, cfg);
    events::FieldId path = game_->schema().find("drag.path");
    bool kept = false;
    for (const auto &t : model.types) {
        if (t.type != events::EventType::Drag)
            continue;
        kept = std::find(t.selection.selected.begin(),
                         t.selection.selected.end(),
                         path) != t.selection.selected.end();
    }
    EXPECT_TRUE(kept);
}

TEST_F(AnalysisTest, UnknownOverrideFatal)
{
    bool prev = util::setThrowOnError(true);
    SnipConfig cfg;
    cfg.overrides.force_keep = {"not.a.field"};
    EXPECT_THROW(buildSnipModel(profile_, *game_, cfg),
                 std::runtime_error);
    util::setThrowOnError(prev);
}

TEST_F(AnalysisTest, SparseTypesLeftUndeployed)
{
    SnipConfig cfg;
    cfg.min_records_per_type = 1u << 30;
    SnipModel model = buildSnipModel(profile_, *game_, cfg);
    EXPECT_TRUE(model.types.empty());
    EXPECT_EQ(model.frozen->entryCount(), 0u);
}

// ------------------------------------------------------------ Schemes

TEST(Schemes, BaselineNeverSkips)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme s;
    util::Rng rng(1);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision d = s.decide(*game, ev, truth);
    EXPECT_FALSE(d.shortcircuit);
    EXPECT_DOUBLE_EQ(d.cpu_skip_fraction, 0.0);
    EXPECT_FALSE(d.skip_ips);
}

TEST(Schemes, MaxCpuSkipsOnRepeat)
{
    auto game = games::makeGame("colorphun");
    MaxCpuScheme s;
    util::Rng rng(2);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision first = s.decide(*game, ev, truth);
    EXPECT_DOUBLE_EQ(first.cpu_skip_fraction, 0.0);
    s.observe(truth);
    Decision second = s.decide(*game, ev, truth);
    EXPECT_DOUBLE_EQ(second.cpu_skip_fraction,
                     truth.maxcpu_fraction);
    EXPECT_FALSE(second.shortcircuit);
}

TEST(Schemes, MaxIpSkipsIpsOnExactEventRepeat)
{
    auto game = games::makeGame("colorphun");
    MaxIpScheme s;
    util::Rng rng(3);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision first = s.decide(*game, ev, truth);
    EXPECT_FALSE(first.skip_ips);
    s.observe(truth);
    Decision second = s.decide(*game, ev, truth);
    EXPECT_TRUE(second.skip_ips);
    EXPECT_LT(s.ipSleepTimeout(), BaselineScheme().ipSleepTimeout());
}

TEST(Schemes, MaxIpDecideAloneDoesNotLearn)
{
    // decide() alone learns nothing: an event is not "seen" until
    // observe() runs, and re-deciding without observing must never
    // change the answer.
    auto game = games::makeGame("colorphun");
    MaxIpScheme s;
    util::Rng rng(3);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    EXPECT_FALSE(s.decide(*game, ev, truth).skip_ips);
    EXPECT_FALSE(s.decide(*game, ev, truth).skip_ips);
    EXPECT_FALSE(s.decide(*game, ev, truth).skip_ips);
    s.observe(truth);
    EXPECT_TRUE(s.decide(*game, ev, truth).skip_ips);
}

TEST(Schemes, SnipHitsAfterObserve)
{
    auto game = games::makeGame("colorphun");
    // Empty-profile model with ground-truth selection.
    SnipModel model;
    model.game = game->name();
    MemoTable table(game->schema());
    table.setSelected(
        events::EventType::Touch,
        game->necessaryInputIds(events::EventType::Touch));
    model.frozen = FrozenTable::freeze(table);

    SnipScheme s(model);
    util::Rng rng(4);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision miss = s.decide(*game, ev, truth);
    EXPECT_FALSE(miss.shortcircuit);
    s.observe(truth);  // online fill
    Decision hit = s.decide(*game, ev, truth);
    ASSERT_TRUE(hit.shortcircuit);
    EXPECT_EQ(hit.outputs, truth.outputs);
    EXPECT_GT(hit.lookup_bytes, 0u);
}

TEST(Schemes, NoOverheadsVariant)
{
    auto game = games::makeGame("colorphun");
    SnipModel model;
    model.game = game->name();
    MemoTable table(game->schema());
    table.setSelected(
        events::EventType::Touch,
        game->necessaryInputIds(events::EventType::Touch));
    model.frozen = FrozenTable::freeze(table);
    auto s = makeScheme(SchemeKind::NoOverheads, &model);
    EXPECT_EQ(s->kind(), SchemeKind::NoOverheads);
    util::Rng rng(5);
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth = game->process(ev);
    Decision d = s->decide(*game, ev, truth);
    EXPECT_FALSE(d.charge_lookup);
}

TEST(Schemes, FactoryRequiresModelForSnip)
{
    bool prev = util::setThrowOnError(true);
    EXPECT_THROW(makeScheme(SchemeKind::Snip, nullptr),
                 std::runtime_error);
    EXPECT_NO_THROW(makeScheme(SchemeKind::Baseline));
    util::setThrowOnError(prev);
}

// A scheme shares its model's arena and keeps nothing else of the
// model, so it must keep deciding after the model is destroyed (asan
// in CI catches a dangling read). A model without a table is a usage
// error.
TEST(Schemes, SnipSchemeOutlivesItsModel)
{
    auto game = games::makeGame("colorphun");
    std::unique_ptr<SnipScheme> s;
    {
        SnipModel model;
        model.game = game->name();
        MemoTable table(game->schema());
        table.setSelected(
            events::EventType::Touch,
            game->necessaryInputIds(events::EventType::Touch));
        util::Rng fill(6);
        for (int i = 0; i < 32; ++i)
            table.insert(game->process(
                game->makeEvent(events::EventType::Touch, 0.0, fill)));
        model.frozen = FrozenTable::freeze(table);
        s = std::make_unique<SnipScheme>(model);
    }
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    SessionResult res = runSession(*game, *s, cfg);
    EXPECT_GT(res.stats.lookup_bytes, 0u);

    bool prev = util::setThrowOnError(true);
    EXPECT_THROW(SnipScheme(SnipModel{}), std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(Schemes, Names)
{
    EXPECT_STREQ(schemeName(SchemeKind::Baseline), "Baseline");
    EXPECT_STREQ(schemeName(SchemeKind::Snip), "SNIP");
    EXPECT_STREQ(schemeName(SchemeKind::NoOverheads), "No Overheads");
}

// On the overlay-fallback path (frozen miss, overlay consulted) the
// overlay's shared gather cost is already covered by the frozen
// charge; an overlay scan charged no more than that cost must
// contribute zero extra lookup bytes — never wrap the subtraction.
TEST(Schemes, OverlayFallbackLookupBytesNoUnderflow)
{
    auto game = games::makeGame("colorphun");
    SnipModel model;
    model.game = game->name();
    MemoTable table(game->schema());
    table.setSelected(
        events::EventType::Touch,
        game->necessaryInputIds(events::EventType::Touch));
    model.frozen = FrozenTable::freeze(table);

    SnipScheme s(model);
    util::Rng rng(21);
    events::EventObject ev1 =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution truth1 = game->process(ev1);
    EXPECT_FALSE(s.decide(*game, ev1, truth1).lookup_hit);
    s.observe(truth1);  // online fill: overlay now non-empty
    ASSERT_GT(s.overlayEntries(), 0u);

    // A fresh event missing in both tables: the frozen (empty)
    // lookup charges the gather cost, the overlay scan hits an
    // empty bucket and may charge no more than that same cost.
    events::EventObject ev2 =
        game->makeEvent(events::EventType::Touch, 1.0, rng);
    games::HandlerExecution truth2 = game->process(ev2);
    LookupScratch scratch;
    FrozenLookup f = s.frozen().lookup(ev2, *game, scratch);
    ASSERT_FALSE(f.hit);
    Decision d = s.decide(*game, ev2, truth2);
    EXPECT_FALSE(d.lookup_hit);
    // No underflow: the total can only be the frozen charge plus a
    // small non-negative overlay surplus, not a wrapped uint64.
    EXPECT_GE(d.lookup_bytes, f.bytes_scanned);
    EXPECT_LT(d.lookup_bytes, f.bytes_scanned + (1u << 20));
    if (d.lookup_candidates == 0) {
        EXPECT_EQ(d.lookup_bytes, f.bytes_scanned);
    }
}

// The 10k-event block-vs-scalar fuzz: mixed event types, the audit
// watchdog live, online fill on. A scheme handed each block through
// prepareBatch() and then decided event by event must produce
// bitwise-identical Decision sequences to one that never sees the
// hint, and leave both schemes with identical hit counts, audit
// counters and overlay contents.
TEST(Schemes, DecideBatchMatchesScalarFuzz)
{
    auto game = games::makeGame("ab_evolution");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 60.0;
    cfg.record_events = true;
    cfg.seed = 99;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("ab_evolution");
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel model = buildSnipModel(profile, *game, scfg);
    ASSERT_NE(model.frozen, nullptr);

    // Tile the recorded stream to 10k events (duplicates are what
    // make the hit/audit paths fire); the game keeps its
    // end-of-session state, matching the most recent records.
    const auto &evs = res.trace.events;
    const auto &recs = profile.records;
    ASSERT_EQ(evs.size(), recs.size());
    ASSERT_GT(evs.size(), 0u);
    const size_t kTotal = 10000;
    std::vector<events::EventObject> stream(kTotal);
    std::vector<games::HandlerExecution> truths(kTotal);
    for (size_t i = 0; i < kTotal; ++i) {
        stream[i] = evs[i % evs.size()];
        truths[i] = recs[i % recs.size()];
    }

    SnipRuntimeConfig rcfg;
    rcfg.audit_every = 4;
    SnipScheme scalar(model, rcfg);
    SnipScheme batched(model, rcfg);

    util::Rng brng(0xb10c);
    uint64_t hits = 0;
    size_t base = 0;
    while (base < kTotal) {
        size_t len = std::min<size_t>(1 + brng.next() % 64,
                                      kTotal - base);
        batched.prepareBatch({stream.data() + base, len});
        for (size_t k = 0; k < len; ++k) {
            const size_t i = base + k;
            Decision bd = batched.decide(*game, stream[i], truths[i]);
            if (!bd.shortcircuit)
                batched.observe(truths[i]);
            Decision sd = scalar.decide(*game, stream[i], truths[i]);
            if (!sd.shortcircuit)
                scalar.observe(truths[i]);
            ASSERT_EQ(sd.shortcircuit, bd.shortcircuit) << i;
            ASSERT_EQ(sd.outputs, bd.outputs) << i;
            ASSERT_EQ(sd.cpu_skip_fraction, bd.cpu_skip_fraction);
            ASSERT_EQ(sd.skip_ips, bd.skip_ips) << i;
            ASSERT_EQ(sd.lookup_bytes, bd.lookup_bytes) << i;
            ASSERT_EQ(sd.lookup_candidates, bd.lookup_candidates) << i;
            ASSERT_EQ(sd.charge_lookup, bd.charge_lookup);
            ASSERT_EQ(sd.lookup_ran, bd.lookup_ran) << i;
            ASSERT_EQ(sd.lookup_hit, bd.lookup_hit) << i;
            ASSERT_EQ(sd.audited, bd.audited) << i;
            hits += sd.lookup_hit;
        }
        base += len;
    }
    EXPECT_EQ(scalar.hitCounts(), batched.hitCounts());
    EXPECT_EQ(scalar.auditsRun(), batched.auditsRun());
    EXPECT_EQ(scalar.auditsFailed(), batched.auditsFailed());
    EXPECT_EQ(scalar.tableClears(), batched.tableClears());
    EXPECT_EQ(scalar.overlayEntries(), batched.overlayEntries());
    EXPECT_EQ(scalar.frozenActive(), batched.frozenActive());
    // The tiled duplicates must actually exercise the hit path
    // (and with it the audit watchdog).
    EXPECT_GT(hits, 0u);
    EXPECT_GT(scalar.auditsRun(), 0u);
    EXPECT_GT(scalar.overlayEntries(), 0u);
}

/**
 * SNIP's decision rule spelled out over the public table API: a
 * FrozenTable::lookup, then a lookup in a plain MemoTable overlay on
 * a miss, online fill inserting only records the frozen table does
 * not hold, and the audit watchdog. Written without SnipScheme's
 * internals so the scheme can share work between the two layouts
 * and still be checked against the rule itself.
 */
class ReferenceSnip
{
  public:
    ReferenceSnip(const FrozenTable &frozen, SnipRuntimeConfig cfg)
        : frozen_(frozen), cfg_(cfg), overlay_(frozen.schema()),
          hitCounts_(frozen.entryCount(), 0)
    {
        for (int t = 0; t < events::kNumEventTypes; ++t) {
            auto type = static_cast<events::EventType>(t);
            auto selected = frozen.selectedVector(type);
            if (!selected.empty())
                overlay_.setSelected(type, selected);
        }
        // The frozen key set: a record's key is its inputs that are
        // selected fields of its type, in id order.
        frozen.visitRecords([&](const games::HandlerExecution &rec) {
            frozenKeys_.insert(keyOf(rec));
        });
    }

    Decision decide(const games::Game &game,
                    const events::EventObject &ev)
    {
        Decision d;
        d.lookup_ran = true;
        auditPending_ = false;
        bool hit = false;
        if (frozenActive_) {
            FrozenLookup f = frozen_.lookup(ev, game, frozenScratch_);
            d.lookup_bytes = f.bytes_scanned;
            d.lookup_candidates = f.candidates;
            if (f.hit) {
                hit = true;
                ++hitCounts_[f.entry_ordinal];
                for (uint32_t i = 0; i < f.nout; ++i)
                    d.outputs.push_back(
                        {f.out_ids[i], f.out_values[i]});
            }
        }
        if (!hit) {
            MemoLookup o = overlay_.lookup(ev, game, overlayScratch_);
            // Behind a frozen probe the gather is already charged.
            uint64_t shared =
                frozenActive_ ? overlay_.selectedBytes(ev.type) : 0;
            d.lookup_bytes += o.bytes_scanned > shared
                                  ? o.bytes_scanned - shared
                                  : 0;
            d.lookup_candidates += o.candidates;
            if (o.hit) {
                hit = true;
                d.outputs = o.entry->outputs;
                overlayHitsBehindFrozen += frozenActive_;
            }
        }
        d.lookup_hit = hit;
        if (hit) {
            if (cfg_.audit_every > 0 &&
                ++hitCounter_ % cfg_.audit_every == 0) {
                auditPending_ = true;
                d.audited = true;
                auditOutputs_ = std::move(d.outputs);
                d.outputs.clear();
                return d;
            }
            d.shortcircuit = true;
        }
        return d;
    }

    void observe(const games::HandlerExecution &truth)
    {
        if (auditPending_) {
            auditPending_ = false;
            ++auditsRun;
            ++windowAudits_;
            if (auditOutputs_ != truth.outputs) {
                ++auditsFailed;
                ++windowFailures_;
            }
            if (windowAudits_ >= cfg_.audit_window) {
                if (static_cast<double>(windowFailures_) /
                        windowAudits_ >
                    cfg_.audit_clear_threshold) {
                    frozenActive_ = false;
                    overlay_.clear();
                    ++tableClears;
                }
                windowAudits_ = 0;
                windowFailures_ = 0;
            }
        }
        if (!frozenActive_ || !frozenKeys_.count(keyOf(truth)))
            overlay_.insert(truth);
    }

    const std::vector<uint64_t> &hitCounts() const { return hitCounts_; }
    size_t overlayEntries() const { return overlay_.entryCount(); }
    bool frozenActive() const { return frozenActive_; }

    uint64_t auditsRun = 0;
    uint64_t auditsFailed = 0;
    uint64_t tableClears = 0;
    /** Overlay hits after a frozen miss (before any clear). */
    uint64_t overlayHitsBehindFrozen = 0;

  private:
    using Key = std::pair<int, std::vector<std::pair<uint32_t, uint64_t>>>;

    Key keyOf(const games::HandlerExecution &rec) const
    {
        auto selected = frozen_.selectedVector(rec.type);
        Key key{static_cast<int>(rec.type), {}};
        for (const auto &fv : rec.inputs)
            if (std::binary_search(selected.begin(), selected.end(),
                                   fv.id))
                key.second.push_back({fv.id, fv.value});
        std::sort(key.second.begin(), key.second.end());
        return key;
    }

    const FrozenTable &frozen_;
    SnipRuntimeConfig cfg_;
    MemoTable overlay_;
    std::set<Key> frozenKeys_;
    std::vector<uint64_t> hitCounts_;
    LookupScratch frozenScratch_;
    LookupScratch overlayScratch_;
    bool frozenActive_ = true;
    uint64_t hitCounter_ = 0;
    uint32_t windowAudits_ = 0;
    uint32_t windowFailures_ = 0;
    bool auditPending_ = false;
    std::vector<events::FieldValue> auditOutputs_;
};

// 10k tiled events of a profiled model with online fill and the
// watchdog live: SnipScheme must make every Decision the reference
// rule makes, and end with the same hit counts, overlay and
// watchdog counters. A zero clear threshold over a small window
// makes the watchdog clear mid-stream, so the overlay-only path
// runs too.
TEST(Schemes, SnipMatchesReferenceOverlayFuzz)
{
    auto game = games::makeGame("ab_evolution");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 60.0;
    cfg.record_events = true;
    cfg.seed = 99;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("ab_evolution");
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    // The stream tiles the first kPeriod recorded events; the model
    // learns from the first half of them only, so the second half's
    // records are new to the frozen table: online fill puts them in
    // the overlay, and their repeats in later tiles hit there.
    const size_t kPeriod = 400;
    const auto &evs = res.trace.events;
    const auto &recs = profile.records;
    ASSERT_EQ(evs.size(), recs.size());
    ASSERT_GE(evs.size(), kPeriod);
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel model =
        buildSnipModel(profile.truncated(kPeriod / 2), *game, scfg);
    ASSERT_NE(model.frozen, nullptr);

    SnipRuntimeConfig rcfg;
    rcfg.audit_every = 4;
    rcfg.audit_window = 32;
    rcfg.audit_clear_threshold = 0.0;
    SnipScheme scheme(model, rcfg);
    ReferenceSnip ref(*model.frozen, rcfg);

    const size_t kTotal = 10000;
    uint64_t hits = 0;
    uint64_t hits_after_clear = 0;
    for (size_t i = 0; i < kTotal; ++i) {
        const events::EventObject &ev = evs[i % kPeriod];
        const games::HandlerExecution &truth = recs[i % kPeriod];
        Decision sd = scheme.decide(*game, ev, truth);
        Decision rd = ref.decide(*game, ev);
        ASSERT_EQ(sd.shortcircuit, rd.shortcircuit) << i;
        ASSERT_EQ(sd.outputs, rd.outputs) << i;
        ASSERT_EQ(sd.cpu_skip_fraction, rd.cpu_skip_fraction) << i;
        ASSERT_EQ(sd.skip_ips, rd.skip_ips) << i;
        ASSERT_EQ(sd.lookup_bytes, rd.lookup_bytes) << i;
        ASSERT_EQ(sd.lookup_candidates, rd.lookup_candidates) << i;
        ASSERT_TRUE(sd.charge_lookup) << i;
        ASSERT_EQ(sd.lookup_ran, rd.lookup_ran) << i;
        ASSERT_EQ(sd.lookup_hit, rd.lookup_hit) << i;
        ASSERT_EQ(sd.audited, rd.audited) << i;
        ASSERT_EQ(scheme.frozenActive(), ref.frozenActive()) << i;
        hits += sd.lookup_hit;
        hits_after_clear += sd.lookup_hit && !scheme.frozenActive();
        if (!sd.shortcircuit) {
            scheme.observe(truth);
            ref.observe(truth);
        }
    }
    EXPECT_EQ(scheme.hitCounts(), ref.hitCounts());
    EXPECT_EQ(scheme.overlayEntries(), ref.overlayEntries());
    EXPECT_EQ(scheme.auditsRun(), ref.auditsRun);
    EXPECT_EQ(scheme.auditsFailed(), ref.auditsFailed);
    EXPECT_EQ(scheme.tableClears(), ref.tableClears);
    // Every path must have run: frozen hits and overlay hits behind
    // a frozen miss before the clear, the overlay-only fallback
    // after it.
    EXPECT_GT(hits, hits_after_clear + ref.overlayHitsBehindFrozen);
    EXPECT_GT(ref.overlayHitsBehindFrozen, 0u);
    EXPECT_GT(scheme.tableClears(), 0u);
    EXPECT_FALSE(scheme.frozenActive());
    EXPECT_GT(hits_after_clear, 0u);
    EXPECT_GT(scheme.overlayEntries(), 0u);
}

// --------------------------------------------------------- Simulation

TEST(Simulation, SessionStatsConsistent)
{
    auto game = games::makeGame("greenwall");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    SessionResult res = runSession(*game, baseline, cfg);
    EXPECT_GT(res.stats.events, 100u);
    EXPECT_EQ(res.stats.shortcircuits, 0u);
    EXPECT_EQ(res.stats.instr_skipped, 0u);
    EXPECT_GT(res.stats.instr_total, 0u);
    EXPECT_GT(res.report.total(), 0.0);
    EXPECT_NEAR(res.report.elapsed(), 20.0, 0.2);
    EXPECT_DOUBLE_EQ(res.stats.errorFieldRate(), 0.0);
}

TEST(Simulation, RecordingCapturesAllEvents)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 15.0;
    cfg.record_events = true;
    SessionResult res = runSession(*game, baseline, cfg);
    EXPECT_EQ(res.trace.events.size(), res.stats.events);
    EXPECT_EQ(res.trace.game, "colorphun");
}

TEST(Simulation, SameSeedSameEnergy)
{
    auto game = games::makeGame("candy_crush");
    BaselineScheme a, b;
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    cfg.seed = 777;
    double e1 = runSession(*game, a, cfg).report.total();
    double e2 = runSession(*game, b, cfg).report.total();
    EXPECT_DOUBLE_EQ(e1, e2);
}

/** Scheme decorator that forwards every hook to @p inner but
 *  overrides the event-block size runSession drains. */
class BlockSizeScheme final : public Scheme
{
  public:
    BlockSizeScheme(Scheme &inner, uint32_t block)
        : inner_(inner), block_(block)
    {
    }

    SchemeKind kind() const override { return inner_.kind(); }
    Decision
    decide(const games::Game &game, const events::EventObject &ev,
           const games::HandlerExecution &truth) override
    {
        return inner_.decide(game, ev, truth);
    }
    void
    observe(const games::HandlerExecution &truth) override
    {
        inner_.observe(truth);
    }
    uint32_t batchBlock() const override { return block_; }
    void
    prepareBatch(std::span<const events::EventObject> evs) override
    {
        inner_.prepareBatch(evs);
    }
    double ipSleepTimeout() const override
    {
        return inner_.ipSleepTimeout();
    }

  private:
    Scheme &inner_;
    uint32_t block_;
};

// Sessions must be bitwise-identical at every event-block size: the
// batched drain only hoists event generation, never any
// state-dependent work.
TEST(Simulation, BatchedSessionBitwiseIdentical)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig pcfg;
    pcfg.duration_s = 30.0;
    pcfg.record_events = true;
    SessionResult prof = runSession(*game, baseline, pcfg);
    auto replica = games::makeGame("colorphun");
    trace::Profile profile =
        trace::Replayer::replay(prof.trace, *replica);
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel model = buildSnipModel(profile, *game, scfg);
    ASSERT_NE(model.frozen, nullptr);

    auto runWith = [&](uint32_t block) {
        SnipRuntimeConfig rcfg;
        rcfg.audit_every = 8;
        SnipScheme snip(model, rcfg);
        BlockSizeScheme scheme(snip, block);
        SimulationConfig ecfg;
        ecfg.duration_s = 15.0;
        ecfg.seed = 5;
        return runSession(*game, scheme, ecfg);
    };
    SessionResult scalar = runWith(1);
    for (uint32_t block : {8u, 32u, 256u}) {
        SessionResult batched = runWith(block);
        const SessionStats &a = scalar.stats;
        const SessionStats &b = batched.stats;
        EXPECT_EQ(a.events, b.events) << block;
        EXPECT_EQ(a.shortcircuits, b.shortcircuits) << block;
        EXPECT_EQ(a.instr_total, b.instr_total) << block;
        EXPECT_EQ(a.instr_skipped, b.instr_skipped) << block;
        EXPECT_DOUBLE_EQ(a.ip_work_total, b.ip_work_total) << block;
        EXPECT_DOUBLE_EQ(a.ip_work_skipped, b.ip_work_skipped)
            << block;
        EXPECT_EQ(a.lookup_bytes, b.lookup_bytes) << block;
        EXPECT_EQ(a.lookup_candidates, b.lookup_candidates) << block;
        EXPECT_DOUBLE_EQ(a.lookup_energy_j, b.lookup_energy_j)
            << block;
        EXPECT_EQ(a.erroneous_shortcircuits, b.erroneous_shortcircuits)
            << block;
        EXPECT_EQ(a.output_fields_total, b.output_fields_total)
            << block;
        EXPECT_EQ(a.output_fields_wrong, b.output_fields_wrong)
            << block;
        EXPECT_EQ(a.useless_events, b.useless_events) << block;
        EXPECT_DOUBLE_EQ(scalar.report.total(), batched.report.total())
            << block;
    }
    // The stream must actually exercise the hit path.
    EXPECT_GT(scalar.stats.shortcircuits, 0u);
}

TEST(Simulation, DifferentSeedsDiffer)
{
    auto game = games::makeGame("candy_crush");
    BaselineScheme a, b;
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    cfg.seed = 1;
    double e1 = runSession(*game, a, cfg).report.total();
    cfg.seed = 2;
    double e2 = runSession(*game, b, cfg).report.total();
    EXPECT_NE(e1, e2);
}

// The obs counters must be bookkeeping-identical to SessionStats
// and to the scheme's own audit/watchdog counters; the registry
// must stay empty when observability is off.
TEST(Simulation, ObsCountersMatchSessionStats)
{
    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig pcfg;
    pcfg.duration_s = 30.0;
    pcfg.record_events = true;
    SessionResult prof = runSession(*game, baseline, pcfg);
    auto replica = games::makeGame("colorphun");
    trace::Profile profile =
        trace::Replayer::replay(prof.trace, *replica);

    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel model = buildSnipModel(profile, *game, scfg);
    ASSERT_NE(model.frozen, nullptr);

    obs::Registry reg;
    SnipRuntimeConfig rcfg;
    rcfg.obs = &reg;
    SnipScheme scheme(model, rcfg);
    SimulationConfig ecfg;
    ecfg.duration_s = 15.0;
    ecfg.seed = 5;
    ecfg.obs = &reg;
    SessionResult res = runSession(*game, scheme, ecfg);

    const SessionStats &st = res.stats;
    EXPECT_EQ(reg.counterValue("session.events"), st.events);
    EXPECT_EQ(reg.counterValue("session.useless_events"),
              st.useless_events);
    EXPECT_EQ(reg.counterValue("session.instr_total"),
              st.instr_total);
    EXPECT_EQ(reg.counterValue("session.instr_skipped"),
              st.instr_skipped);
    EXPECT_EQ(reg.counterValue("session.output_fields"),
              st.output_fields_total);
    EXPECT_EQ(reg.counterValue("session.output_fields_wrong"),
              st.output_fields_wrong);
    EXPECT_EQ(reg.counterValue("decide.shortcircuit"),
              st.shortcircuits);
    EXPECT_EQ(reg.counterValue("decide.err.shortcircuits"),
              st.erroneous_shortcircuits);
    EXPECT_EQ(reg.counterValue("decide.err.temp_only"),
              st.err_temp_only);
    EXPECT_EQ(reg.counterValue("decide.err.history"),
              st.err_history);
    EXPECT_EQ(reg.counterValue("decide.err.extern"), st.err_extern);
    EXPECT_EQ(reg.counterValue("lookup.bytes"), st.lookup_bytes);
    EXPECT_EQ(reg.counterValue("lookup.candidates"),
              st.lookup_candidates);
    EXPECT_EQ(reg.counterValue("decide.audits"), scheme.auditsRun());
    EXPECT_EQ(reg.counterValue("decide.audit_failures"),
              scheme.auditsFailed());
    EXPECT_EQ(reg.counterValue("decide.table_clears"),
              scheme.tableClears());

    // Every lookup either hits or misses; hits are what
    // short-circuits and audits are made of.
    uint64_t hits = reg.counterValue("lookup.hits");
    uint64_t misses = reg.counterValue("lookup.misses");
    EXPECT_EQ(hits + misses, reg.counterValue("lookup.lookups"));
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(hits, st.shortcircuits + scheme.auditsRun());
    EXPECT_DOUBLE_EQ(
        reg.gaugeValue("session.hit_rate"),
        static_cast<double>(hits) /
            static_cast<double>(hits + misses));
    EXPECT_DOUBLE_EQ(reg.gaugeValue("session.error_field_rate"),
                     st.errorFieldRate());
    EXPECT_DOUBLE_EQ(reg.gaugeValue("session.energy_j"),
                     res.report.total());

    // Observability off (the default): a second run must leave the
    // existing registry untouched and behave identically.
    uint64_t events_before = reg.counterValue("session.events");
    SnipScheme plain(model);
    SimulationConfig off_cfg = ecfg;
    off_cfg.obs = nullptr;
    runSession(*game, plain, off_cfg);
    EXPECT_EQ(reg.counterValue("session.events"), events_before);
}

/** Order-sensitive 64-bit digest of integer and double words. */
struct WordDigest {
    uint64_t h = 0x601d'd16e'57ULL;

    void add(uint64_t x) { h = util::mixCombine(h, x); }
    void
    add(double x)
    {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        add(bits);
    }
    void
    add(const std::string &s)
    {
        add(util::fnv1a(s));
    }
};

void
digestSession(WordDigest &d, const SessionResult &r)
{
    const SessionStats &s = r.stats;
    for (uint64_t x :
         {s.events, s.shortcircuits, s.instr_total, s.instr_skipped,
          s.lookup_bytes, s.lookup_candidates,
          s.erroneous_shortcircuits, s.err_temp_only, s.err_history,
          s.err_extern, s.output_fields_total, s.output_fields_wrong,
          s.useless_events, s.useless_instr_executed})
        d.add(x);
    for (double x : {s.ip_work_total, s.ip_work_skipped,
                     s.lookup_energy_j})
        d.add(x);
    const soc::EnergyReport &rep = r.report;
    d.add(static_cast<uint64_t>(rep.components().size()));
    for (const soc::ComponentEnergy &c : rep.components()) {
        d.add(c.name);
        d.add(static_cast<uint64_t>(c.group));
        d.add(c.dynamic_j);
        d.add(c.static_j);
    }
    d.add(rep.elapsed());
    d.add(rep.total());
    for (int g = 0; g < static_cast<int>(soc::EnergyGroup::NumGroups);
         ++g)
        d.add(rep.groupEnergy(static_cast<soc::EnergyGroup>(g)));
}

// Behaviour pin for the whole session runtime: every catalog game
// under every scheme (SNIP with the audit watchdog and online fill),
// digested over SessionStats, every EnergyReport component and the
// SNIP scheme's own counters. The constant was computed before the
// runtime was reduced to its single sequential loop and must never
// change with a refactor; a deliberate model change updates it.
TEST(Simulation, GoldenDigestAllGamesAllSchemes)
{
    WordDigest d;
    uint64_t audits = 0, clears = 0, shortcircuits = 0;
    for (const std::string &name : games::allGameNames()) {
        auto game = games::makeGame(name);
        BaselineScheme profiler;
        SimulationConfig pcfg;
        pcfg.duration_s = 40.0;
        pcfg.seed = 0x901d;
        pcfg.record_events = true;
        SessionResult prof = runSession(*game, profiler, pcfg);
        auto replica = games::makeGame(name);
        trace::Profile profile =
            trace::Replayer::replay(prof.trace, *replica);
        SnipConfig scfg;
        scfg.min_records_per_type = 8;
        scfg.overrides.force_keep =
            game->params().recommended_overrides;
        SnipModel model = buildSnipModel(profile, *game, scfg);
        d.add(name);
        d.add(static_cast<uint64_t>(model.deployed()));
        if (!model.deployed())
            continue;

        SimulationConfig ecfg;
        ecfg.duration_s = 20.0;
        ecfg.seed = 0x601d;
        SnipRuntimeConfig rcfg;
            rcfg.audit_every = 8;
        rcfg.audit_window = 8;
        for (SchemeKind k :
             {SchemeKind::Baseline, SchemeKind::MaxCpu,
              SchemeKind::MaxIp, SchemeKind::Snip,
              SchemeKind::NoOverheads}) {
            std::unique_ptr<Scheme> scheme;
            if (k == SchemeKind::Snip || k == SchemeKind::NoOverheads)
                scheme = std::make_unique<SnipScheme>(
                    model, rcfg, k == SchemeKind::Snip);
            else
                scheme = makeScheme(k);
            SessionResult r = runSession(*game, *scheme, ecfg);
            d.add(static_cast<uint64_t>(k));
            digestSession(d, r);
            shortcircuits += r.stats.shortcircuits;
            if (auto *s = dynamic_cast<SnipScheme *>(scheme.get())) {
                d.add(s->auditsRun());
                d.add(s->auditsFailed());
                d.add(s->tableClears());
                d.add(static_cast<uint64_t>(s->overlayEntries()));
                for (uint64_t h : s->hitCounts())
                    d.add(h);
                audits += s->auditsRun();
                clears += s->tableClears();
            }
        }
    }
    // The pin must reach the hit, audit and watchdog-clear paths.
    EXPECT_GT(shortcircuits, 0u);
    EXPECT_GT(audits, 0u);
    EXPECT_GT(clears, 0u);
    EXPECT_EQ(d.h, 0x78c5bbb64890c25bULL)
        << "digest 0x" << std::hex << d.h;
}

TEST(Simulation, IdlePhoneCheaperThanAnyGame)
{
    soc::EnergyModel m = soc::EnergyModel::snapdragon821();
    util::Power idle = idlePhonePower(m);
    EXPECT_GT(idle, 0.3);
    EXPECT_LT(idle, 1.0);
}

TEST(Simulation, InvalidDurationFatal)
{
    bool prev = util::setThrowOnError(true);
    auto game = games::makeGame("colorphun");
    BaselineScheme s;
    SimulationConfig cfg;
    cfg.duration_s = 0.0;
    EXPECT_THROW(runSession(*game, s, cfg), std::runtime_error);
    util::setThrowOnError(prev);
}

// ------------------------------------------------ ContinuousLearner

TEST(ContinuousLearnerTest, ErrorDecaysAcrossEpochs)
{
    auto game = games::makeGame("ab_evolution");
    auto replica = games::makeGame("ab_evolution");
    LearningConfig cfg;
    cfg.epochs = 8;
    cfg.session_s = 8.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 8u);
    EXPECT_GT(epochs.front().error_field_rate, 0.02);
    EXPECT_LT(epochs.back().error_field_rate,
              epochs.front().error_field_rate / 2);
    // Profile grows monotonically.
    for (size_t i = 1; i < epochs.size(); ++i)
        EXPECT_GT(epochs[i].profile_records,
                  epochs[i - 1].profile_records);
}

TEST(ContinuousLearnerTest, TestedErrorWeightsByRecordCount)
{
    // Regression: the gate error used to average types with equal
    // weight, so one high-error type backed by a handful of records
    // could hold the confidence gate closed forever. The tested
    // error must weight each type by its profiled evidence.
    SnipModel model;
    TypeModel common;
    common.type = events::EventType::Touch;
    common.records = 1000;
    common.selection.selected_error = 0.001;
    TypeModel rare;
    rare.type = events::EventType::Gyro;
    rare.records = 5;
    rare.selection.selected_error = 0.5;
    model.types.push_back(std::move(common));
    model.types.push_back(std::move(rare));

    double err = testedModelError(model);
    // Weighted: (0.001*1000 + 0.5*5) / 1005 ~= 0.00348. The old
    // unweighted mean would be ~0.25 and fail a 0.005 gate.
    EXPECT_NEAR(err, 3.5 / 1005.0, 1e-12);
    EXPECT_LT(err, 0.005);

    // No evidence at all: maximally pessimistic.
    SnipModel empty;
    EXPECT_EQ(testedModelError(empty), 1.0);
}

TEST(ContinuousLearnerTest, EpochsReportOtaPayloadBytes)
{
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("colorphun");
    LearningConfig cfg;
    cfg.epochs = 3;
    cfg.session_s = 6.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 3u);
    for (const auto &er : epochs) {
        // Every epoch deploys through the OTA transport; the
        // package always carries at least the envelope.
        EXPECT_GT(er.payload_bytes, 16u);
        if (er.table_bytes > 0) {
            EXPECT_TRUE(er.deployed);
        }
    }
}

TEST(ContinuousLearnerTest, OtaRejectionFallsBackToBaseline)
{
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("colorphun");
    LearningConfig cfg;
    cfg.epochs = 3;
    cfg.session_s = 6.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    // Lossy transport: every package arrives truncated, so every
    // push fails the integrity check and is rejected.
    cfg.ota_tamper = [](util::ByteBuffer &pkg) {
        util::ByteBuffer cut;
        cut.putBytes(pkg.data().data(), pkg.size() / 2);
        pkg = cut;
    };
    obs::Registry reg;
    cfg.obs = &reg;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 3u);
    for (const auto &er : epochs) {
        // Regression: a rejected epoch used to report the dead
        // package's size. Nothing was deployed, so the epoch must
        // report no payload, no table, and a baseline session.
        EXPECT_EQ(er.payload_bytes, 0u);
        EXPECT_EQ(er.table_bytes, 0u);
        EXPECT_FALSE(er.deployed);
        EXPECT_FALSE(er.gate_withheld);
        EXPECT_EQ(er.rejected_packages,
                  static_cast<uint64_t>(er.epoch) + 1);
        EXPECT_DOUBLE_EQ(er.error_field_rate, 0.0);
        EXPECT_DOUBLE_EQ(er.coverage, 0.0);
        EXPECT_GT(er.energy_j, 0.0);
    }
    EXPECT_EQ(reg.counterValue("learn.epochs"), 3u);
    EXPECT_EQ(reg.counterValue("learn.deployed_epochs"), 0u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("learn.rejected_packages"), 3.0);
    ASSERT_NE(reg.findHistogram("learn.payload_bytes"), nullptr);
    // All three payload samples are 0 bytes -> underflow bucket.
    EXPECT_EQ(reg.findHistogram("learn.payload_bytes")
                  ->buckets()
                  .at(util::Log2Histogram::kUnderflowBucket),
              3u);
}

TEST(ContinuousLearnerTest, ConfidenceGateWithholdsEarlyEpochs)
{
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("colorphun");
    LearningConfig cfg;
    cfg.epochs = 4;
    cfg.session_s = 6.0;
    cfg.initial_profile_records = 20;
    cfg.snip.min_records_per_type = 8;
    cfg.confidence_gate = true;
    // Gate on evidence volume only, so the trajectory is
    // deterministic: 20 seed records < 100, then each session's
    // replay grows the profile well past it.
    cfg.gate_min_records = 100;
    cfg.gate_threshold = 1.0;
    ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    ASSERT_EQ(epochs.size(), 4u);

    // Epoch 0: a model was built and shipped (there is a table and
    // an OTA payload), but the gate withheld it.
    EXPECT_GT(epochs[0].table_bytes, 0u);
    EXPECT_GT(epochs[0].payload_bytes, 0u);
    EXPECT_TRUE(epochs[0].gate_withheld);
    EXPECT_FALSE(epochs[0].deployed);
    EXPECT_DOUBLE_EQ(epochs[0].coverage, 0.0);

    // Once the profile clears the evidence bar the gate opens.
    bool any_deployed = false;
    for (const auto &er : epochs) {
        EXPECT_NE(er.deployed, er.gate_withheld);
        EXPECT_EQ(er.rejected_packages, 0u);
        any_deployed |= er.deployed;
        if (er.profile_records >= cfg.gate_min_records)
            EXPECT_TRUE(er.deployed);
    }
    EXPECT_TRUE(any_deployed);
}

TEST(ContinuousLearnerTest, MismatchedReplicaFatal)
{
    bool prev = util::setThrowOnError(true);
    auto game = games::makeGame("colorphun");
    auto replica = games::makeGame("race_kings");
    EXPECT_THROW(ContinuousLearner(*game, *replica, {}),
                 std::runtime_error);
    util::setThrowOnError(prev);
}

// --------------------------------------------- Out-of-core Shrink

/** A replayed profile of a short ab_evolution session. */
trace::Profile
recordedProfile(double secs, uint64_t seed = 99)
{
    auto game = games::makeGame("ab_evolution");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = seed;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame("ab_evolution");
    return trace::Replayer::replay(res.trace, *replica);
}

// The chunked pipeline (mmap'd SNCT training sections through
// ml::ChunkedDataset) must produce byte-for-byte the package the
// in-memory pipeline builds from the same records.
TEST(SnipPipelineTest, ChunkedBuildMatchesInMemory)
{
    trace::Profile profile = recordedProfile(45.0);
    auto game = games::makeGame("ab_evolution");
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    SnipModel mem = buildSnipModel(profile, *game, scfg);

    std::vector<uint8_t> bytes;
    ASSERT_TRUE(
        trace::ColumnarLog::encodeTraining(profile, &bytes).ok());
    std::string path = ::testing::TempDir() + "/snip_oos.snct";
    ASSERT_TRUE(trace::ColumnarLog::save(bytes, path).ok());
    auto tlog = trace::ColumnarLog::open(path);
    ASSERT_TRUE(tlog.ok()) << tlog.status().message();

    ml::ChunkedConfig chunked;
    chunked.residency_budget_bytes = 1 << 18;  // aggressive drops
    auto oos = buildSnipModel(tlog.value(), *game, scfg, chunked);
    ASSERT_TRUE(oos.ok()) << oos.status().message();

    ASSERT_EQ(oos.value().types.size(), mem.types.size());
    for (size_t i = 0; i < mem.types.size(); ++i) {
        EXPECT_EQ(oos.value().types[i].type, mem.types[i].type);
        EXPECT_EQ(oos.value().types[i].selection.selected,
                  mem.types[i].selection.selected);
    }
    util::ByteBuffer pkg_mem, pkg_oos;
    packModel(mem, pkg_mem);
    packModel(oos.value(), pkg_oos);
    EXPECT_EQ(pkg_mem.data(), pkg_oos.data());
    std::remove(path.c_str());

    // And a trace with no training sections errors cleanly.
    auto none = buildSnipModel(
        std::shared_ptr<const trace::ColumnarLog>(), *game, scfg);
    EXPECT_FALSE(none.ok());
}

// The incremental-Shrink acceptance contract: rebuilding from an
// unchanged profile must skip selection wholesale (types served
// from ShrinkCaches, zero columns re-scored) and still produce the
// identical package; a changed profile must invalidate.
TEST(SnipPipelineTest, ShrinkCachesReplayUnchangedEpochs)
{
    trace::Profile profile = recordedProfile(30.0);
    auto game = games::makeGame("ab_evolution");
    obs::Registry reg;
    ShrinkCaches caches;
    SnipConfig scfg;
    scfg.min_records_per_type = 8;
    scfg.obs = &reg;
    scfg.caches = &caches;

    SnipModel first = buildSnipModel(profile, *game, scfg);
    ASSERT_FALSE(first.types.empty());
    uint64_t rescored0 =
        reg.counter("shrink.pfi.cols_rescored").value();
    EXPECT_GT(rescored0, 0u);
    EXPECT_EQ(reg.counter("shrink.types_cached").value(), 0u);

    SnipModel second = buildSnipModel(profile, *game, scfg);
    EXPECT_EQ(reg.counter("shrink.types_cached").value(),
              first.types.size());
    EXPECT_EQ(reg.counter("shrink.pfi.cols_rescored").value(),
              rescored0);  // nothing re-scored
    util::ByteBuffer p1, p2;
    packModel(first, p1);
    packModel(second, p2);
    EXPECT_EQ(p1.data(), p2.data());

    // Grow the profile: the changed types must re-run.
    trace::Profile more = recordedProfile(10.0, 123);
    profile.append(more);
    SnipModel third = buildSnipModel(profile, *game, scfg);
    EXPECT_GT(reg.counter("shrink.pfi.cols_rescored").value(),
              rescored0);

    // Caches must never leak across configs: a different error
    // budget is a different key.
    SnipConfig other = scfg;
    other.max_error = 0.05;
    (void)buildSnipModel(profile, *game, other);
    EXPECT_GT(reg.counter("shrink.types_deployed").value(), 0u);
}

// Incremental mode in the learner: the persistent caches and the
// stable (un-remixed) seed must never alter an epoch's produced
// model — two identical incremental runs agree bitwise, epoch for
// epoch. (The unchanged-epoch skip itself is pinned down above in
// ShrinkCachesReplayUnchangedEpochs, where the profile can be held
// truly constant between builds.)
TEST(ContinuousLearnerTest, IncrementalShrinkDeterministic)
{
    auto runOnce = [] {
        auto game = games::makeGame("ab_evolution");
        auto replica = games::makeGame("ab_evolution");
        LearningConfig cfg;
        cfg.epochs = 4;
        cfg.session_s = 6.0;
        cfg.initial_profile_records = 30;
        cfg.snip.min_records_per_type = 8;
        cfg.incremental_shrink = true;
        ContinuousLearner learner(*game, *replica, cfg);
        return learner.run();
    };
    auto a = runOnce();
    auto b = runOnce();
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].error_field_rate, b[i].error_field_rate) << i;
        EXPECT_EQ(a[i].coverage, b[i].coverage) << i;
        EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes) << i;
        EXPECT_EQ(a[i].table_bytes, b[i].table_bytes) << i;
    }
}

}  // namespace
}  // namespace core
}  // namespace snip
