/**
 * @file
 * Tests for the fleet backend (src/fleet): SNPD delta patches
 * (round-trip byte identity, corruption fuzz with the full-fetch
 * fallback — gtest filter Fleet*Fuzz* is the ci.sh asan stage),
 * sharded federated aggregation (bitwise equality with the serial
 * merge chain at shard counts {1, 2, 8} — FleetAggregate* is the
 * ci.sh tsan stage), the versioned model registry (lineage,
 * idempotent publish, integrity rejection, persistence), and the
 * cohort epoch-push simulation.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/federated.h"
#include "core/model_codec.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "fleet/aggregate.h"
#include "fleet/delta.h"
#include "fleet/fleet_sim.h"
#include "fleet/registry.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace snip {
namespace fleet {
namespace {

util::ByteBuffer
copyOf(const util::ByteBuffer &src)
{
    util::ByteBuffer out;
    out.putBytes(src.data().data(), src.size());
    return out;
}

util::ByteBuffer
randomBuffer(util::Rng &rng, size_t len)
{
    util::ByteBuffer b;
    for (size_t i = 0; i < len; ++i)
        b.putU8(static_cast<uint8_t>(rng.next()));
    return b;
}

std::span<const uint8_t>
spanOf(const util::ByteBuffer &b)
{
    return std::span<const uint8_t>(b.data());
}

/** Record + replay + PFI-select: a deployable model for @p game. */
core::SnipModel
buildModelFor(const std::string &game_name, double secs,
              uint64_t seed)
{
    auto game = games::makeGame(game_name);
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = seed;
    core::SessionResult res = core::runSession(*game, baseline, cfg);
    auto replica = games::makeGame(game_name);
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    core::SnipConfig scfg;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    return core::buildSnipModel(profile, *game, scfg);
}

/** Packed SNPM package of @p model as a shared buffer. */
std::shared_ptr<util::ByteBuffer>
packageOf(const core::SnipModel &model)
{
    auto pkg = std::make_shared<util::ByteBuffer>();
    core::packModel(model, *pkg);
    return pkg;
}

size_t
fuzzIters(size_t dflt)
{
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        return static_cast<size_t>(std::strtoull(env, nullptr, 10));
    return dflt;
}

// ------------------------------------------------------ delta (SNPD)

TEST(FleetDeltaTest, RoundTripRandomBuffers)
{
    // apply(diff(A, B), A) == B for assorted shapes: disjoint,
    // shared prefix/suffix, insertions in the middle, B shorter than
    // A, and tiny/empty endpoints.
    util::Rng rng(0x5d1ffULL);
    std::vector<std::pair<util::ByteBuffer, util::ByteBuffer>> cases;

    cases.emplace_back(randomBuffer(rng, 4096),
                       randomBuffer(rng, 4096));  // nothing shared
    {
        util::ByteBuffer a = randomBuffer(rng, 8192);
        util::ByteBuffer b = copyOf(a);  // identical
        cases.emplace_back(std::move(a), std::move(b));
    }
    {
        // Shared body with an insertion in the middle and a mutated
        // tail — the incremental-epoch shape.
        util::ByteBuffer a = randomBuffer(rng, 6000);
        util::ByteBuffer b;
        b.putBytes(a.data().data(), 2500);
        util::ByteBuffer mid = randomBuffer(rng, 333);
        b.putBytes(mid.data().data(), mid.size());
        b.putBytes(a.data().data() + 2500, 3000);
        util::ByteBuffer tail = randomBuffer(rng, 100);
        b.putBytes(tail.data().data(), tail.size());
        cases.emplace_back(std::move(a), std::move(b));
    }
    {
        util::ByteBuffer a = randomBuffer(rng, 5000);
        util::ByteBuffer b;  // target shrinks to a slice
        b.putBytes(a.data().data() + 1000, 2000);
        cases.emplace_back(std::move(a), std::move(b));
    }
    cases.emplace_back(util::ByteBuffer{}, randomBuffer(rng, 200));
    cases.emplace_back(randomBuffer(rng, 200), util::ByteBuffer{});
    cases.emplace_back(randomBuffer(rng, 7),
                       randomBuffer(rng, 5));  // below block size

    for (size_t i = 0; i < cases.size(); ++i) {
        const auto &[a, b] = cases[i];
        util::ByteBuffer patch;
        diffBytes(spanOf(a), spanOf(b), patch);
        util::Result<util::ByteBuffer> got =
            applyPatch(spanOf(a), patch);
        ASSERT_TRUE(got.ok()) << "case " << i << ": "
                              << got.status().message();
        EXPECT_EQ(got.value().data(), b.data()) << "case " << i;

        PatchInfo info;
        util::ByteBuffer probe = copyOf(patch);
        ASSERT_TRUE(inspectPatch(probe, &info).ok()) << "case " << i;
        EXPECT_EQ(info.src_bytes, a.size());
        EXPECT_EQ(info.tgt_bytes, b.size());
        EXPECT_EQ(info.copied_bytes + info.inserted_bytes, b.size());
    }
}

TEST(FleetDeltaTest, DeterministicPatchBytes)
{
    util::Rng rng(0x0d57ULL);
    util::ByteBuffer a = randomBuffer(rng, 3000);
    util::ByteBuffer b = randomBuffer(rng, 1000);
    b.putBytes(a.data().data(), 1500);
    util::ByteBuffer p1, p2;
    diffBytes(spanOf(a), spanOf(b), p1);
    diffBytes(spanOf(a), spanOf(b), p2);
    EXPECT_EQ(p1.data(), p2.data());
}

TEST(FleetDeltaTest, RoundTripRealEpochPackages)
{
    // Consecutive continuous-learning epochs share most of their
    // arena: the patch must reconstruct exactly AND be meaningfully
    // smaller than the full package.
    core::SnipModel m1 = buildModelFor("colorphun", 12.0, 31);
    core::SnipModel m2 = buildModelFor("colorphun", 16.0, 32);
    auto p1 = packageOf(m1);
    auto p2 = packageOf(m2);

    util::ByteBuffer patch;
    diffBytes(spanOf(*p1), spanOf(*p2), patch);
    util::Result<util::ByteBuffer> got =
        applyPatch(spanOf(*p1), patch);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().data(), p2->data());
}

TEST(FleetDeltaTest, RejectsWrongBase)
{
    util::Rng rng(0xbadba5eULL);
    util::ByteBuffer a = randomBuffer(rng, 2000);
    util::ByteBuffer b = randomBuffer(rng, 2000);
    util::ByteBuffer c = randomBuffer(rng, 2000);
    util::ByteBuffer patch;
    diffBytes(spanOf(a), spanOf(b), patch);
    EXPECT_FALSE(applyPatch(spanOf(c), patch).ok());
    // Same length, different bytes: the source CRC catches it.
    util::ByteBuffer patch2 = copyOf(patch);
    EXPECT_FALSE(applyPatch(spanOf(c), patch2).ok());
}

TEST(FleetDeltaTest, CorruptionFuzzFallback)
{
    // Truncations and bit flips over the patch: every mutant is
    // cleanly rejected (never a crash, never a wrong
    // reconstruction), and the device receive path always comes
    // back with the exact target via the full-package fallback.
    size_t iters = fuzzIters(64);
    util::Rng rng(0xfa11bacULL);
    util::ByteBuffer base = randomBuffer(rng, 4000);
    util::ByteBuffer tgt;
    tgt.putBytes(base.data().data(), 3000);
    util::ByteBuffer extra = randomBuffer(rng, 500);
    tgt.putBytes(extra.data().data(), extra.size());

    util::ByteBuffer patch;
    diffBytes(spanOf(base), spanOf(tgt), patch);
    ASSERT_GT(patch.size(), 16u);

    for (size_t i = 0; i < iters; ++i) {
        util::ByteBuffer mutant;
        if (rng.next() % 2 == 0) {
            size_t len = rng.next() % patch.size();
            mutant.putBytes(patch.data().data(), len);
        } else {
            mutant = copyOf(patch);
            auto &bytes =
                const_cast<std::vector<uint8_t> &>(mutant.data());
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                bytes[rng.next() % bytes.size()] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        // Flips can cancel; only a real mutation must be rejected.
        bool changed = mutant.data() != patch.data();
        util::ByteBuffer probe = copyOf(mutant);
        util::Result<util::ByteBuffer> direct =
            applyPatch(spanOf(base), probe);
        EXPECT_EQ(direct.ok(), !changed) << "iteration " << i;
        if (direct.ok())
            EXPECT_EQ(direct.value().data(), tgt.data());

        bool used_delta = false;
        util::ByteBuffer got = fetchWithDelta(spanOf(base), mutant,
                                              tgt, &used_delta);
        EXPECT_EQ(used_delta, !changed) << "iteration " << i;
        EXPECT_EQ(got.data(), tgt.data()) << "iteration " << i;
    }
}

// ------------------------------------------------ sharded aggregation

TEST(FleetAggregateTest, ShardedMatchesSerialBitwise)
{
    // The tentpole contract: aggregateUploads at shard counts
    // {1, 2, 8} freezes to the exact arena bytes of the core serial
    // merge chain over the same uploads.
    const std::string game_name = "memory_game";
    auto game = games::makeGame(game_name);
    core::SnipModel agreed = buildModelFor(game_name, 15.0, 41);

    constexpr size_t kUploads = 10;
    std::vector<util::ByteBuffer> uploads = recordUploadPayloads(
        game_name, agreed, kUploads, 0x51a9d5ULL, 5.0);
    ASSERT_EQ(uploads.size(), kUploads);

    auto make_dest = [&] {
        core::MemoTable dest(game->schema());
        for (const core::TypeModel &t : agreed.types)
            dest.setSelected(t.type, t.selection.selected);
        return dest;
    };

    // Serial reference: the buildFederated chain.
    core::MemoTable serial = make_dest();
    for (auto &up : uploads) {
        util::ByteBuffer probe = copyOf(up);
        util::Result<core::SnipModel> decoded =
            core::unpackModel(probe);
        ASSERT_TRUE(decoded.ok()) << decoded.status().message();
        serial.mergeFrom(*decoded.value().table);
    }
    auto serial_frozen = serial.freeze();
    ASSERT_GT(serial_frozen->arenaSize(), 0u);

    for (size_t shards : {1u, 2u, 8u}) {
        core::MemoTable dest = make_dest();
        std::vector<util::ByteBuffer> ups;
        for (const auto &u : uploads)
            ups.push_back(copyOf(u));
        AggregateConfig cfg;
        cfg.shards = shards;
        AggregateStats stats = aggregateUploads(dest, ups, cfg);
        EXPECT_EQ(stats.uploads, kUploads);
        EXPECT_EQ(stats.dropped, 0u);
        EXPECT_EQ(stats.shards, shards);

        auto frozen = dest.freeze();
        ASSERT_EQ(frozen->arenaSize(), serial_frozen->arenaSize())
            << shards << " shards";
        EXPECT_EQ(std::memcmp(frozen->arenaData(),
                              serial_frozen->arenaData(),
                              frozen->arenaSize()),
                  0)
            << shards << " shards";
    }
}

TEST(FleetAggregateTest, DropsCorruptUploadsLikeSerial)
{
    const std::string game_name = "memory_game";
    auto game = games::makeGame(game_name);
    core::SnipModel agreed = buildModelFor(game_name, 12.0, 43);
    std::vector<util::ByteBuffer> uploads = recordUploadPayloads(
        game_name, agreed, 6, 0xc0bb1eULL, 4.0);

    // Corrupt two payloads; both pipelines must drop exactly those.
    for (size_t victim : {1u, 4u}) {
        auto &bytes = const_cast<std::vector<uint8_t> &>(
            uploads[victim].data());
        bytes[bytes.size() / 2] ^= 0x5a;
    }

    core::MemoTable serial(game->schema());
    for (const core::TypeModel &t : agreed.types)
        serial.setSelected(t.type, t.selection.selected);
    for (auto &up : uploads) {
        util::ByteBuffer probe = copyOf(up);
        util::Result<core::SnipModel> decoded =
            core::unpackModel(probe);
        if (decoded.ok())
            serial.mergeFrom(*decoded.value().table);
    }
    auto serial_frozen = serial.freeze();

    core::MemoTable dest(game->schema());
    for (const core::TypeModel &t : agreed.types)
        dest.setSelected(t.type, t.selection.selected);
    AggregateStats stats = aggregateUploads(dest, uploads, {});
    EXPECT_EQ(stats.dropped, 2u);
    auto frozen = dest.freeze();
    ASSERT_EQ(frozen->arenaSize(), serial_frozen->arenaSize());
    EXPECT_EQ(std::memcmp(frozen->arenaData(),
                          serial_frozen->arenaData(),
                          frozen->arenaSize()),
              0);
}

// --------------------------------------------------------- registry

TEST(FleetRegistryTest, PublishLineageFetch)
{
    core::SnipModel m1 = buildModelFor("greenwall", 10.0, 51);
    core::SnipModel m2 = buildModelFor("greenwall", 14.0, 52);
    core::SnipModel m3 = buildModelFor("greenwall", 18.0, 53);

    ModelRegistry reg;
    auto v1 = reg.publish("greenwall", packageOf(m1));
    auto v2 = reg.publish("greenwall", packageOf(m2));
    auto v3 = reg.publish("greenwall", packageOf(m3));
    ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
    EXPECT_EQ(reg.versionCount("greenwall"), 3u);

    // Auto-chained lineage: v3 -> v2 -> v1.
    const ModelVersion *head = reg.head("greenwall");
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->id, v3.value());
    EXPECT_EQ(head->parent, v2.value());
    EXPECT_EQ(head->epoch, 2u);

    auto chain = reg.lineage("greenwall", v3.value());
    ASSERT_TRUE(chain.ok());
    ASSERT_EQ(chain.value().size(), 3u);
    EXPECT_EQ(chain.value()[0], v3.value());
    EXPECT_EQ(chain.value()[2], v1.value());

    EXPECT_EQ(reg.behindHead("greenwall", 1)->id, v2.value());
    EXPECT_EQ(reg.behindHead("greenwall", 2)->id, v1.value());
    EXPECT_EQ(reg.behindHead("greenwall", 99), nullptr);

    // Fetch re-verifies and serves the exact bytes.
    auto fetched = reg.fetch("greenwall", v2.value());
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value()->data(), packageOf(m2)->data());

    EXPECT_EQ(reg.find("greenwall", 0xdeadULL), nullptr);
    EXPECT_FALSE(reg.fetch("greenwall", 0xdeadULL).ok());
    EXPECT_FALSE(reg.fetch("nope", v1.value()).ok());
}

TEST(FleetRegistryTest, IdempotentAndIntegrityChecked)
{
    core::SnipModel m = buildModelFor("greenwall", 10.0, 54);
    ModelRegistry reg;
    auto v1 = reg.publish("greenwall", packageOf(m));
    ASSERT_TRUE(v1.ok());
    // Identical bytes republished: same id, no new version.
    auto v1b = reg.publish("greenwall", packageOf(m));
    ASSERT_TRUE(v1b.ok());
    EXPECT_EQ(v1.value(), v1b.value());
    EXPECT_EQ(reg.versionCount("greenwall"), 1u);

    // A corrupt package is refused outright.
    auto bad = packageOf(m);
    const_cast<std::vector<uint8_t> &>(
        bad->data())[bad->size() / 2] ^= 0x40;
    EXPECT_FALSE(reg.publish("greenwall", bad).ok());
    EXPECT_EQ(reg.versionCount("greenwall"), 1u);

    // An unknown explicit parent is refused.
    core::SnipModel m2 = buildModelFor("greenwall", 12.0, 55);
    EXPECT_FALSE(
        reg.publish("greenwall", packageOf(m2), 0x12345ULL).ok());
    EXPECT_EQ(reg.versionCount("greenwall"), 1u);
}

TEST(FleetRegistryTest, DeltaMemoizedAndSaveLoadRoundTrip)
{
    core::SnipModel m1 = buildModelFor("colorphun", 10.0, 61);
    core::SnipModel m2 = buildModelFor("colorphun", 14.0, 62);
    ModelRegistry reg;
    auto v1 = reg.publish("colorphun", packageOf(m1));
    auto v2 = reg.publish("colorphun", packageOf(m2));
    ASSERT_TRUE(v1.ok() && v2.ok());

    auto d1 = reg.delta("colorphun", v1.value(), v2.value());
    auto d2 = reg.delta("colorphun", v1.value(), v2.value());
    ASSERT_TRUE(d1.ok() && d2.ok());
    EXPECT_EQ(d1.value().get(), d2.value().get());  // memoized

    // The patch upgrades v1's bytes to exactly v2's.
    util::ByteBuffer wire = copyOf(*d1.value());
    auto got = applyPatch(
        std::span<const uint8_t>(
            reg.find("colorphun", v1.value())->package->data()),
        wire);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().data(), packageOf(m2)->data());

    // Persist and reload: identical catalog, lineage intact.
    std::string dir = ::testing::TempDir() + "fleet_reg_rt";
    ASSERT_TRUE(reg.saveDir(dir).ok());
    auto loaded = ModelRegistry::loadDir(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().versionCount("colorphun"), 2u);
    const ModelVersion *head = loaded.value().head("colorphun");
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->id, v2.value());
    EXPECT_EQ(head->parent, v1.value());
    auto fetched = loaded.value().fetch("colorphun", v1.value());
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value()->data(), packageOf(m1)->data());
}

// A saved index whose id fields are not exactly 1-16 hex digits is
// refused with the line named; strtoull used to read "zz12" as 0,
// which publish() took as "parent = current head".
TEST(FleetRegistryTest, LoadDirRejectsMalformedIndexIds)
{
    core::SnipModel m1 = buildModelFor("colorphun", 10.0, 61);
    core::SnipModel m2 = buildModelFor("colorphun", 14.0, 62);
    ModelRegistry reg;
    ASSERT_TRUE(reg.publish("colorphun", packageOf(m1)).ok());
    ASSERT_TRUE(reg.publish("colorphun", packageOf(m2)).ok());
    std::string dir = ::testing::TempDir() + "fleet_reg_bad_index";
    ASSERT_TRUE(reg.saveDir(dir).ok());
    ASSERT_TRUE(ModelRegistry::loadDir(dir).ok());

    const std::string path = dir + "/index.txt";
    std::string index;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        index = ss.str();
    }
    // Line 2: game, id, parent, epoch, bytes (tab-separated).
    size_t line2 = index.find('\n') + 1;
    size_t id_at = index.find('\t', line2) + 1;
    size_t parent_at = index.find('\t', id_at) + 1;
    size_t parent_len = index.find('\t', parent_at) - parent_at;
    auto withParent = [&](const std::string &tok) {
        std::string bad = index;
        bad.replace(parent_at, parent_len, tok);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bad;
    };
    for (const char *tok : {"zz12", "12zz", "0x12", "-1", "+1",
                            "00000000000000001"}) {
        withParent(tok);
        auto loaded = ModelRegistry::loadDir(dir);
        ASSERT_FALSE(loaded.ok()) << tok;
        EXPECT_NE(loaded.status().message().find("line 2"),
                  std::string::npos)
            << loaded.status().message();
    }
    // The id field is held to the same rule.
    std::string bad = index;
    bad.replace(id_at, 1, "g");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bad;
    }
    EXPECT_FALSE(ModelRegistry::loadDir(dir).ok());

    // The untouched index still loads, upper-case digits included.
    std::string upper = index;
    for (size_t i = parent_at; i < parent_at + parent_len; ++i)
        upper[i] = static_cast<char>(std::toupper(upper[i]));
    withParent(upper.substr(parent_at, parent_len));
    EXPECT_TRUE(ModelRegistry::loadDir(dir).ok());
}

// ------------------------------------------------------- epoch push

TEST(FleetSimTest, PushEpochCohortReport)
{
    const std::string game_name = "memory_game";
    ModelRegistry reg;
    for (int e = 0; e < 3; ++e) {
        core::SnipModel m =
            buildModelFor(game_name, 8.0 + 4.0 * e, 70 + e);
        ASSERT_TRUE(reg.publish(game_name, packageOf(m)).ok());
    }

    FleetSimConfig cfg;
    cfg.game = game_name;
    cfg.devices = 1000000;
    cfg.eval_seconds = 5.0;
    cfg.cohorts = {
        {"stable", 0.6, 1},
        {"lagging", 0.3, 2},
        {"fresh", 0.1, 1000},
    };
    auto pushed = pushEpoch(reg, cfg);
    ASSERT_TRUE(pushed.ok()) << pushed.status().message();
    const EpochPushReport &r = pushed.value();

    EXPECT_EQ(r.head, reg.head(game_name)->id);
    ASSERT_EQ(r.cohorts.size(), 3u);
    uint64_t devices = 0;
    for (const CohortReport &c : r.cohorts)
        devices += c.devices;
    EXPECT_EQ(devices, cfg.devices);

    // Delta-updated cohorts ship patches; the fresh cohort
    // full-fetches. Fleet-wide, delta OTA strictly beats full.
    EXPECT_TRUE(r.cohorts[0].used_delta);
    EXPECT_GT(r.cohorts[0].patch_bytes, 0u);
    EXPECT_LT(r.cohorts[0].delta_bytes, r.cohorts[0].full_bytes);
    EXPECT_FALSE(r.cohorts[2].used_delta);
    EXPECT_EQ(r.cohorts[2].delta_bytes, r.cohorts[2].full_bytes);
    EXPECT_LT(r.delta_bytes, r.full_bytes);
    EXPECT_EQ(r.fallbacks, 0u);

    // Hit rates are rates; the no-model cohort misses everything.
    for (const CohortReport &c : r.cohorts) {
        EXPECT_GE(c.hit_rate, 0.0);
        EXPECT_LE(c.hit_rate, 1.0);
    }
    EXPECT_EQ(r.cohorts[2].hit_rate, 0.0);
    EXPECT_GE(r.staleness_skew, 0.0);

    EXPECT_FALSE(pushEpoch(reg, FleetSimConfig{.game = "nope"}).ok());
}

}  // namespace
}  // namespace fleet
}  // namespace snip
