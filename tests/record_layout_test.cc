/**
 * @file
 * Tests of the compiled record layout: Game::makeEvent and
 * Game::process emit records in canonical id order by construction,
 * into caller-owned storage, and equal both the by-value forms and a
 * reference that appends reads and writes in the historical order
 * and then stable-sorts them. Also the trust boundary for the layout
 * precondition (Game::checkEvent, ordered trace decoding) and the
 * simulator invariant that every scheme sees the same event stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace games {
namespace {

uint64_t
bitsOf(double x)
{
    uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** Field-by-field equality; doubles compared bitwise. */
void
expectSameExecution(const HandlerExecution &a, const HandlerExecution &b,
                    const std::string &what)
{
    EXPECT_EQ(a.type, b.type) << what;
    EXPECT_EQ(a.seq, b.seq) << what;
    EXPECT_EQ(a.inputs, b.inputs) << what;
    EXPECT_EQ(a.outputs, b.outputs) << what;
    EXPECT_EQ(a.necessary_hash, b.necessary_hash) << what;
    EXPECT_EQ(a.cpu_instructions, b.cpu_instructions) << what;
    EXPECT_EQ(a.memory_bytes, b.memory_bytes) << what;
    ASSERT_EQ(a.ip_calls.size(), b.ip_calls.size()) << what;
    for (size_t i = 0; i < a.ip_calls.size(); ++i) {
        EXPECT_EQ(a.ip_calls[i].kind, b.ip_calls[i].kind) << what;
        EXPECT_EQ(bitsOf(a.ip_calls[i].work_units),
                  bitsOf(b.ip_calls[i].work_units))
            << what;
    }
    EXPECT_EQ(bitsOf(a.maxcpu_fraction), bitsOf(b.maxcpu_fraction))
        << what;
    EXPECT_EQ(a.state_changed, b.state_changed) << what;
    EXPECT_EQ(a.useless, b.useless) << what;
    EXPECT_EQ(a.scoring, b.scoring) << what;
}

void
expectSameEvent(const events::EventObject &a, const events::EventObject &b,
                const std::string &what)
{
    EXPECT_EQ(a.type, b.type) << what;
    EXPECT_EQ(a.seq, b.seq) << what;
    EXPECT_EQ(bitsOf(a.timestamp), bitsOf(b.timestamp)) << what;
    EXPECT_EQ(a.fields, b.fields) << what;
}

// ------------------------------------------------------ storage reuse

// Caller-owned storage carries nothing over: every event is made
// into an EventObject that last held another game's event, and
// processed into a HandlerExecution that last held another game's
// execution, and both equal the by-value results.
TEST(RecordLayout, CallerOwnedStorageMatchesByValue)
{
    const auto &names = allGameNames();
    const size_t ng = names.size();
    std::vector<std::unique_ptr<Game>> byValue, owned;
    std::vector<util::Rng> rngA, rngB;
    for (size_t g = 0; g < ng; ++g) {
        byValue.push_back(makeGame(names[g]));
        owned.push_back(makeGame(names[g]));
        rngA.emplace_back(0x5107 + g);
        rngB.emplace_back(0x5107 + g);
    }
    std::vector<events::EventObject> evSlots(ng);
    std::vector<HandlerExecution> exSlots(ng);

    for (size_t i = 0; i < 5000; ++i) {
        for (size_t g = 0; g < ng; ++g) {
            // Slot (g + i) % ng was game g+1's at step i - 1.
            events::EventObject &ev = evSlots[(g + i) % ng];
            HandlerExecution &ex = exSlots[(g + i) % ng];
            const auto &mix = byValue[g]->params().mix;
            double now = static_cast<double>(i) * 0.02;

            events::EventType ta = mix[rngA[g].next() % mix.size()].type;
            events::EventObject want =
                byValue[g]->makeEvent(ta, now, rngA[g]);
            events::EventType tb = mix[rngB[g].next() % mix.size()].type;
            owned[g]->makeEvent(tb, now, rngB[g], ev);
            std::string what = names[g] + " event " + std::to_string(i);
            expectSameEvent(ev, want, what);

            HandlerExecution truth = byValue[g]->process(want);
            owned[g]->process(ev, ex);
            expectSameExecution(ex, truth, what);
            if (::testing::Test::HasFailure())
                return;
            byValue[g]->applyOutputs(truth.outputs);
            owned[g]->applyOutputs(ex.outputs);
        }
    }
}

// ------------------------------------------------------ emission order

/**
 * The historical process(): every read and write appended in handler
 * order (event fields, necessary history, complexity, blocks, extern;
 * temps, the state write, scoring writes, extern output), then
 * stable-sorted by id. Written against the public Game surface only.
 */
HandlerExecution
referenceProcess(const Game &game, const events::EventObject &ev)
{
    constexpr uint64_t kSaltUseless = 0x075e1e55ULL;
    constexpr uint64_t kSaltPattern = 0x09a77e24ULL;
    constexpr uint64_t kSaltScore = 0x05c042eaULL;
    constexpr uint64_t kSaltDelta = 0x0de17a00ULL;
    constexpr uint64_t kSaltExtIn = 0x0e871a10ULL;
    constexpr uint64_t kSaltExtOut = 0x0e871a20ULL;
    constexpr uint64_t kSaltCost = 0x0c057c05ULL;
    constexpr uint64_t kSaltWhich = 0x0071c400ULL;
    constexpr uint64_t kSaltTempOnly = 0x007e3b01ULL;

    const GameParams &p = game.params();
    const HandlerSpec &spec = game.handler(ev.type);
    const GameState &st = game.state();
    const events::FieldSchema &schema = game.schema();
    const std::string tn = events::eventTypeName(ev.type);
    auto hist = [&](const std::string &name) -> const HistoryFieldDecl & {
        for (const auto &d : p.history_fields)
            if (d.name == name)
                return d;
        ADD_FAILURE() << "no history field " << name;
        return p.history_fields.front();
    };
    auto eventValue = [&](events::FieldId fid) {
        const events::FieldValue *fv = events::findField(ev.fields, fid);
        EXPECT_NE(fv, nullptr);
        return fv ? fv->value : 0;
    };
    const uint64_t type_salt = util::mixCombine(
        p.salt, 0x7717e000ULL + static_cast<uint64_t>(ev.type));

    HandlerExecution ex;
    ex.type = ev.type;
    ex.seq = ev.seq;
    ex.inputs = ev.fields;
    std::vector<uint64_t> vals = {type_salt};
    for (const auto &efs : spec.event_fields)
        if (efs.necessary)
            vals.push_back(util::mixCombine(efs.fid, eventValue(efs.fid)));
    for (const auto &n : spec.necessary_history) {
        const auto &d = hist(n);
        uint64_t v = st.get(d.in_fid);
        ex.inputs.push_back({d.in_fid, v});
        vals.push_back(util::mixCombine(d.in_fid, v));
    }
    uint64_t vhash = util::hashWords(vals);
    const size_t vhash_words = vals.size();

    uint64_t complexity = 0;
    if (!spec.complexity_field.empty()) {
        const auto &d = hist(spec.complexity_field);
        complexity = st.get(d.in_fid);
        const auto &nh = spec.necessary_history;
        if (std::find(nh.begin(), nh.end(), spec.complexity_field) ==
            nh.end())
            ex.inputs.push_back({d.in_fid, complexity});
        uint32_t blocks = d.buckets
            ? static_cast<uint32_t>(complexity * spec.max_history_blocks /
                                    d.buckets)
            : 0;
        if (spec.max_history_blocks > 0 && blocks == 0)
            blocks = 1;
        blocks = std::min<uint32_t>(blocks, spec.max_history_blocks);
        for (uint32_t j = 0; j < blocks; ++j)
            ex.inputs.push_back(
                {schema.find(tn + ".blk" + std::to_string(j)),
                 st.blockContent(j)});
    }
    if (!spec.extern_field.empty() &&
        util::mixCombine(vhash, kSaltExtIn) % 1000000 <
            spec.extern_per_million) {
        events::FieldId xf = schema.find("x." + spec.extern_field);
        ex.inputs.push_back({xf, util::mixCombine(p.salt, xf)});
    }

    bool useless = false;
    if (!spec.plateau_history_field.empty()) {
        const auto &d = hist(spec.plateau_history_field);
        for (const auto &efs : spec.event_fields) {
            if (efs.name != spec.plateau_event_field)
                continue;
            uint64_t hv = st.get(d.in_fid);
            uint64_t evv = eventValue(efs.fid);
            if (d.buckets && hv == d.buckets - 1 &&
                evv * 4 >= 3ull * efs.cardinality)
                useless = true;
        }
    }
    useless = useless || util::mixCombine(vhash, kSaltUseless) % 10000 <
                             spec.useless_per_myriad;
    ex.useless = useless;

    bool state_changed = false;
    if (!useless) {
        uint64_t pattern = util::mixCombine(vhash, kSaltPattern) %
                           std::max<uint32_t>(1, spec.output_cardinality);
        uint64_t pkey = util::mixCombine(type_salt, pattern + 1);
        bool scoring = util::mixCombine(vhash, kSaltScore) % 100 <
                       spec.scoring_per_cent;
        scoring = scoring && !spec.scoring_history.empty();
        ex.scoring = scoring;
        for (uint32_t j = 0; j < spec.temp_outputs; ++j) {
            events::FieldId tf = schema.find(tn + ".t" + std::to_string(j));
            ex.outputs.push_back({tf, util::mixCombine(pkey, tf)});
        }
        bool temp_only = util::mixCombine(vhash, kSaltTempOnly) % 100 <
                         spec.temp_only_per_cent;
        if (!spec.history_outputs.empty() && !temp_only) {
            size_t which = util::mixCombine(vhash, kSaltWhich) %
                           spec.history_outputs.size();
            const auto &d = hist(spec.history_outputs[which]);
            uint64_t coarse = util::mixCombine(type_salt, pattern / 4 + 1);
            uint64_t value = util::mixCombine(coarse, d.out_fid);
            ex.outputs.push_back({d.out_fid, value});
            state_changed |= st.wouldChange(d.out_fid, value);
        }
        if (scoring) {
            uint32_t k = 0;
            for (const auto &n : spec.scoring_history) {
                const auto &d = hist(n);
                uint64_t cur = st.get(d.in_fid);
                ex.inputs.push_back({d.in_fid, cur});
                vals.push_back(util::mixCombine(d.in_fid, cur));
                uint64_t u = util::mixCombine(vhash, kSaltDelta + k++);
                ex.outputs.push_back({d.out_fid, cur + 1 + u % 50});
                state_changed = true;
            }
            if (!spec.extern_output.empty() &&
                util::mixCombine(vhash, kSaltExtOut) % 5 == 0) {
                events::FieldId xo =
                    schema.find(tn + ".xo." + spec.extern_output);
                ex.outputs.push_back({xo, util::mixCombine(pkey, xo)});
            }
        }
    }
    ex.necessary_hash = util::fnv1a(
        vals.data() + vhash_words,
        (vals.size() - vhash_words) * sizeof(uint64_t), vhash);
    ex.state_changed = state_changed;

    uint64_t cu = util::mixCombine(vhash, kSaltCost);
    double spread = 1.0 - spec.minstr_spread +
        2.0 * spec.minstr_spread *
            (static_cast<double>(cu % 1024) / 1024.0);
    double scale = spread *
        (1.0 + spec.complexity_cost_factor *
                   static_cast<double>(complexity)) *
        (ex.scoring ? 1.3 : 1.0);
    ex.cpu_instructions =
        static_cast<uint64_t>(spec.minstr_mean * scale * 1e6);
    for (const auto &c : spec.ip_calls)
        ex.ip_calls.push_back({c.kind, c.work_units * scale});
    ex.memory_bytes = static_cast<uint64_t>(
        spec.mem_bytes_factor *
        static_cast<double>(schema.bytesOf(ex.inputs))) +
        ex.cpu_instructions / 16;
    ex.maxcpu_fraction = spec.maxcpu_repeat_fraction;

    auto byId = [](const events::FieldValue &a,
                   const events::FieldValue &b) { return a.id < b.id; };
    std::stable_sort(ex.inputs.begin(), ex.inputs.end(), byId);
    std::stable_sort(ex.outputs.begin(), ex.outputs.end(), byId);
    return ex;
}

/** Whether @p fields repeats an id. */
bool
hasDuplicateId(const std::vector<events::FieldValue> &fields)
{
    for (size_t i = 1; i < fields.size(); ++i)
        if (fields[i].id == fields[i - 1].id)
            return true;
    return false;
}

/**
 * Drive @p game for @p n events, comparing each compiled execution
 * with referenceProcess and the state its outputs leave with the
 * state the reference outputs leave (last write wins). Returns how
 * many executions repeated an output id.
 */
size_t
checkAgainstReference(Game &game, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    const auto &mix = game.params().mix;
    HandlerExecution ex;
    size_t dup_outputs = 0;
    for (size_t i = 0; i < n; ++i) {
        events::EventType t = mix[rng.next() % mix.size()].type;
        events::EventObject ev =
            game.makeEvent(t, static_cast<double>(i) * 0.02, rng);
        HandlerExecution want = referenceProcess(game, ev);
        game.process(ev, ex);
        std::string what = game.name() + " event " + std::to_string(i);
        expectSameExecution(ex, want, what);
        if (::testing::Test::HasFailure())
            return dup_outputs;
        dup_outputs += hasDuplicateId(ex.outputs);

        GameState expected = game.state();
        for (const auto &fv : want.outputs)
            expected.apply(fv.id, fv.value);
        game.applyOutputs(ex.outputs);
        for (const auto &d : game.params().history_fields)
            EXPECT_EQ(game.state().get(d.in_fid), expected.get(d.in_fid))
                << what << " field " << d.name;
        EXPECT_EQ(game.state().epoch(), expected.epoch()) << what;
    }
    return dup_outputs;
}

TEST(RecordLayout, CatalogEmissionMatchesReference)
{
    for (const auto &name : allGameNames()) {
        auto game = makeGame(name);
        EXPECT_EQ(checkAgainstReference(*game, 3000, 0x0bde), 0u) << name;
    }
}

/** Split @p total bytes into @p n positive sizes. */
std::vector<uint32_t>
splitBytes(util::Rng &rng, uint32_t total, uint32_t n)
{
    std::vector<uint32_t> sizes(n, 1);
    for (uint32_t left = total - n; left > 0; --left)
        ++sizes[rng.next() % n];
    return sizes;
}

/**
 * A random game whose handlers put history fields under several
 * roles at once wherever Game's validation allows: complexity also
 * necessary or scoring, an accumulator both written and scored, a
 * field listed twice in one role.
 */
GameParams
randomParams(util::Rng &rng, int trial)
{
    GameParams p;
    p.name = "random" + std::to_string(trial);
    p.display = p.name;
    p.salt = rng.next();
    p.extern_bytes = 4096;
    std::vector<std::string> bounded, accum;
    uint32_t nb = 2 + static_cast<uint32_t>(rng.next() % 4);
    uint32_t na = 1 + static_cast<uint32_t>(rng.next() % 3);
    for (uint32_t i = 0; i < nb + na; ++i) {
        HistoryFieldDecl d;
        d.size_bytes = rng.chance(0.5) ? 4 : 8;
        if (i < nb) {
            d.name = "b" + std::to_string(i);
            d.buckets = 2 + static_cast<uint32_t>(rng.next() % 7);
            d.init = rng.next() % d.buckets;
            bounded.push_back(d.name);
        } else {
            d.name = "a" + std::to_string(i);
            d.buckets = 0;
            d.init = rng.next() % 100;
            accum.push_back(d.name);
        }
        p.history_fields.push_back(d);
    }
    // Interleave declaration order so ids do not follow role order.
    for (size_t i = p.history_fields.size(); i > 1; --i)
        std::swap(p.history_fields[i - 1],
                  p.history_fields[rng.next() % i]);
    p.extern_fields = {"net", "disk"};

    auto pick = [&](const std::vector<std::string> &from) {
        return from[rng.next() % from.size()];
    };
    std::vector<int> types(events::kNumEventTypes);
    for (int t = 0; t < events::kNumEventTypes; ++t)
        types[t] = t;
    for (size_t i = types.size(); i > 1; --i)
        std::swap(types[i - 1], types[rng.next() % i]);
    int nh = 1 + static_cast<int>(rng.next() % 3);
    for (int h = 0; h < nh; ++h) {
        auto type = static_cast<events::EventType>(types[h]);
        p.mix.push_back({type, 2.0 + static_cast<double>(rng.next() % 8)});

        HandlerSpec s;
        s.type = type;
        uint32_t nf = 2 + static_cast<uint32_t>(rng.next() % 5);
        std::vector<uint32_t> sizes =
            splitBytes(rng, events::eventObjectBytes(type), nf);
        for (uint32_t k = 0; k < nf; ++k) {
            EventFieldSpec f;
            f.name = "f" + std::to_string(k);
            f.size_bytes = sizes[k];
            f.necessary = k == 0 || rng.chance(0.4);
            f.cardinality = 2 + static_cast<uint32_t>(rng.next() % 14);
            s.event_fields.push_back(f);
        }
        for (int k = static_cast<int>(rng.next() % 3); k >= 0; --k)
            s.necessary_history.push_back(pick(bounded));
        for (int k = static_cast<int>(rng.next() % 3); k >= 0; --k)
            s.scoring_history.push_back(pick(accum));
        switch (rng.next() % 4) {
          case 0: s.complexity_field = pick(s.necessary_history); break;
          case 1: s.complexity_field = pick(s.scoring_history); break;
          case 2: s.complexity_field = pick(bounded); break;
          default: break;
        }
        // An accumulator written with a hashed value would scale the
        // cost past what a uint64 holds.
        if (std::find(accum.begin(), accum.end(), s.complexity_field) !=
            accum.end())
            s.complexity_cost_factor = 0.0;
        s.max_history_blocks = static_cast<uint32_t>(rng.next() % 4);
        s.history_block_bytes = 64;
        if (rng.chance(0.7)) {
            s.extern_field = pick(p.extern_fields);
            s.extern_per_million = 300000;
        }
        s.temp_outputs = static_cast<uint32_t>(rng.next() % 4);
        for (int k = static_cast<int>(rng.next() % 3); k >= 0; --k)
            s.history_outputs.push_back(
                rng.chance(0.5) ? pick(s.scoring_history) : pick(bounded));
        if (rng.chance(0.6))
            s.extern_output = "sync";
        s.output_cardinality = 4 + static_cast<uint32_t>(rng.next() % 40);
        s.useless_per_myriad = static_cast<uint32_t>(rng.next() % 2000);
        s.temp_only_per_cent = static_cast<uint32_t>(rng.next() % 40);
        s.scoring_per_cent = 30 + static_cast<uint32_t>(rng.next() % 60);
        if (rng.chance(0.3)) {
            s.plateau_history_field = pick(s.necessary_history);
            s.plateau_event_field = s.event_fields[0].name;
        }
        if (rng.chance(0.5))
            s.ip_calls.push_back({soc::IpKind::Gpu, 1.5});
        p.handlers.push_back(s);
    }
    return p;
}

TEST(RecordLayout, RandomRolesEmissionMatchesReference)
{
    util::Rng rng(0x7a11);
    size_t dup_outputs = 0;
    for (int trial = 0; trial < 40; ++trial) {
        Game game(randomParams(rng, trial));
        dup_outputs += checkAgainstReference(game, 400, 0xe0 + trial);
        if (HasFailure())
            return;
    }
    // The randomized roles must reach duplicate output ids, where
    // emission order decides which write wins.
    EXPECT_GT(dup_outputs, 0u);
}

// ----------------------------------------------------- trust boundary

TEST(RecordLayout, CheckEventAcceptsGeneratedEvents)
{
    for (const auto &name : allGameNames()) {
        auto game = makeGame(name);
        util::Rng rng(3);
        for (const auto &m : game->params().mix) {
            events::EventObject ev = game->makeEvent(m.type, 0.0, rng);
            EXPECT_TRUE(game->checkEvent(ev).ok()) << name;
        }
    }
}

/** A recorded trace of @p game and the same trace with event @p i
 *  corrupted by @p mutate. */
struct TracePair {
    trace::EventTrace good, bad;
};

TracePair
corruptTrace(const std::string &name,
             void (*mutate)(events::EventObject &, const Game &))
{
    auto game = makeGame(name);
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = 5.0;
    cfg.record_events = true;
    TracePair tp;
    tp.good = core::runSession(*game, baseline, cfg).trace;
    tp.bad = tp.good;
    mutate(tp.bad.events[tp.bad.events.size() / 2], *game);
    return tp;
}

void
swapFields(events::EventObject &ev, const Game &)
{
    std::swap(ev.fields[0], ev.fields[1]);
}

void
dropField(events::EventObject &ev, const Game &)
{
    ev.fields.pop_back();
}

void
addField(events::EventObject &ev, const Game &game)
{
    ev.fields.push_back(
        {static_cast<events::FieldId>(game.schema().size()), 7});
}

TEST(RecordLayout, CheckEventRejectsSwappedMissingExtraFields)
{
    auto game = makeGame("ab_evolution");
    util::Rng rng(11);
    events::EventObject ev =
        game->makeEvent(events::EventType::Drag, 0.0, rng);
    ASSERT_TRUE(game->checkEvent(ev).ok());

    events::EventObject swapped = ev;
    swapFields(swapped, *game);
    util::Status st = game->checkEvent(swapped);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("field 0 has id"), std::string::npos)
        << st.message();

    events::EventObject missing = ev;
    dropField(missing, *game);
    st = game->checkEvent(missing);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fields, its layout has"),
              std::string::npos)
        << st.message();

    events::EventObject extra = ev;
    addField(extra, *game);
    EXPECT_FALSE(game->checkEvent(extra).ok());

    events::EventObject unhandled = ev;
    unhandled.type = events::EventType::Gps;
    EXPECT_FALSE(game->checkEvent(unhandled).ok());

    // process() itself treats a layout mismatch as a broken
    // precondition.
    bool prev = util::setThrowOnError(true);
    EXPECT_THROW(game->process(swapped), std::runtime_error);
    EXPECT_THROW(game->process(missing), std::runtime_error);
    EXPECT_THROW(game->process(extra), std::runtime_error);
    util::setThrowOnError(prev);
}

// The path snip select / convert --training take for a trace file:
// decode, then Replayer::check, before any replay.
util::Status
decodeAndCheck(const trace::EventTrace &tr)
{
    util::ByteBuffer buf;
    trace::encodeEventTrace(tr, buf);
    trace::EventTrace back;
    util::Status st = trace::decodeEventTrace(buf, &back);
    if (!st.ok())
        return st;
    auto game = makeGame(back.game);
    return trace::Replayer::check(back, *game);
}

TEST(RecordLayout, BadTraceFilesGiveCleanErrors)
{
    TracePair swapped = corruptTrace("colorphun", swapFields);
    EXPECT_TRUE(decodeAndCheck(swapped.good).ok());
    util::Status st = decodeAndCheck(swapped.bad);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out of order"), std::string::npos)
        << st.message();

    TracePair missing = corruptTrace("race_kings", dropField);
    st = decodeAndCheck(missing.bad);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fields, its layout has"),
              std::string::npos)
        << st.message();

    TracePair extra = corruptTrace("memory_game", addField);
    st = decodeAndCheck(extra.bad);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fields, its layout has"),
              std::string::npos)
        << st.message();

    // A trace built in memory (as ColumnarLog::toTrace does) skips
    // the decoder's order check; Replayer::check still catches it.
    auto game = makeGame("colorphun");
    EXPECT_FALSE(trace::Replayer::check(swapped.bad, *game).ok());
    EXPECT_TRUE(trace::Replayer::check(swapped.good, *game).ok());
}

TEST(RecordLayout, DecodeRejectsDecreasingProfileFieldIds)
{
    trace::Profile prof;
    prof.game = "colorphun";
    HandlerExecution rec;
    rec.inputs = {{3, 1}, {3, 1}, {5, 2}};  // equal ids are allowed
    rec.outputs = {{9, 1}};
    prof.records.push_back(rec);
    util::ByteBuffer buf;
    trace::encodeProfile(prof, buf);
    trace::Profile back;
    EXPECT_TRUE(trace::decodeProfile(buf, &back).ok());

    prof.records[0].outputs = {{9, 1}, {4, 2}};
    util::ByteBuffer bad;
    trace::encodeProfile(prof, bad);
    EXPECT_FALSE(trace::decodeProfile(bad, &back).ok());
}

// ------------------------------------------- one stream for all schemes

// Every scheme sees the same event stream for a seed: the paired
// comparison the figures rely on, and the guarantee that reusing
// EventGen's event storage lets no scheme change the stream.
TEST(RecordLayout, EverySchemeSeesTheSameEventStream)
{
    for (const std::string &name : allGameNames()) {
        auto game = makeGame(name);
        core::BaselineScheme profiler;
        core::SimulationConfig pcfg;
        pcfg.duration_s = 30.0;
        pcfg.seed = 0x901d;
        pcfg.record_events = true;
        core::SessionResult prof = core::runSession(*game, profiler, pcfg);
        auto replica = makeGame(name);
        trace::Profile profile =
            trace::Replayer::replay(prof.trace, *replica);
        core::SnipConfig scfg;
        scfg.min_records_per_type = 8;
        scfg.overrides.force_keep = game->params().recommended_overrides;
        core::SnipModel model = core::buildSnipModel(profile, *game, scfg);
        ASSERT_NE(model.frozen, nullptr) << name;

        for (uint64_t seed : {0x5eedULL, 0xa11ceULL}) {
            core::SimulationConfig cfg;
            cfg.duration_s = 15.0;
            cfg.seed = seed;
            cfg.record_events = true;
            trace::EventTrace base;
            for (core::SchemeKind k :
                 {core::SchemeKind::Baseline, core::SchemeKind::MaxCpu,
                  core::SchemeKind::MaxIp, core::SchemeKind::Snip,
                  core::SchemeKind::NoOverheads}) {
                auto scheme = core::makeScheme(k, &model);
                core::SessionResult r =
                    core::runSession(*game, *scheme, cfg);
                if (k == core::SchemeKind::Baseline) {
                    base = r.trace;
                    ASSERT_FALSE(base.events.empty()) << name;
                    continue;
                }
                std::string what =
                    name + " " + core::schemeName(k) + " seed " +
                    std::to_string(seed);
                ASSERT_EQ(r.trace.events.size(), base.events.size())
                    << what;
                for (size_t i = 0; i < base.events.size(); ++i)
                    expectSameEvent(r.trace.events[i], base.events[i],
                                    what + " event " + std::to_string(i));
                if (HasFailure())
                    return;
            }
        }
    }
}

}  // namespace
}  // namespace games
}  // namespace snip
