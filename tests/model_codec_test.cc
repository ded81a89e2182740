/**
 * @file
 * Tests for the OTA model codec (core/model_codec.h): byte-identical
 * serialization round-trips, bitwise-identical runtime behaviour of
 * a shipped model, and — the safety half of the format — rejection
 * of truncated, bit-flipped, and crafted-malicious packages without
 * ever aborting. Includes the corruption fuzz smoke that tools/ci.sh
 * runs under sanitizers (gtest filter: ModelCodec*Fuzz*).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/model_codec.h"
#include "core/scheme.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace snip {
namespace core {
namespace {

/** Record + replay + PFI-select: a deployable model for @p game. */
SnipModel
buildModelFor(const std::string &game_name, double secs,
              uint64_t seed)
{
    auto game = games::makeGame(game_name);
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = seed;
    SessionResult res = runSession(*game, baseline, cfg);
    auto replica = games::makeGame(game_name);
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    SnipConfig scfg;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    return buildSnipModel(profile, *game, scfg);
}

util::ByteBuffer
copyOf(const util::ByteBuffer &src)
{
    util::ByteBuffer out;
    out.putBytes(src.data().data(), src.size());
    return out;
}

/** Wrap @p payload in a well-formed envelope with a correct CRC. */
util::ByteBuffer
envelope(const util::ByteBuffer &payload,
         uint32_t version = kModelVersion)
{
    util::ByteBuffer pkg;
    pkg.putU32(kModelMagic);
    pkg.putU32(version);
    pkg.putU32(static_cast<uint32_t>(payload.size()));
    pkg.putBytes(payload.data().data(), payload.size());
    pkg.putU32(util::crc32(payload.data().data(), payload.size()));
    return pkg;
}

TEST(ModelCodecTest, RoundTripIsByteIdentical)
{
    // The property the OTA pipeline relies on:
    // pack(unpack(pack(m))) == pack(m), byte for byte, across games
    // and seeds (canonical entry order makes this hold despite the
    // unordered bucket map).
    for (const char *game : {"colorphun", "greenwall"}) {
        for (uint64_t seed : {7ull, 4242ull}) {
            SnipModel model = buildModelFor(game, 20.0, seed);
            ASSERT_TRUE(model.table != nullptr);
            ASSERT_GT(model.table->entryCount(), 0u);

            util::ByteBuffer first;
            packModel(model, first);

            util::Result<SnipModel> back = unpackModel(first);
            ASSERT_TRUE(back.ok()) << back.status().message();

            util::ByteBuffer second;
            packModel(back.value(), second);
            EXPECT_EQ(first.data(), second.data())
                << game << " seed " << seed;
        }
    }
}

TEST(ModelCodecTest, RoundTripPreservesModelContents)
{
    SnipModel model = buildModelFor("ab_evolution", 20.0, 99);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    util::Result<SnipModel> back = unpackModel(pkg);
    ASSERT_TRUE(back.ok()) << back.status().message();

    const SnipModel &m = back.value();
    EXPECT_EQ(m.game, model.game);
    ASSERT_EQ(m.types.size(), model.types.size());
    for (size_t i = 0; i < m.types.size(); ++i) {
        EXPECT_EQ(m.types[i].type, model.types[i].type);
        EXPECT_EQ(m.types[i].records, model.types[i].records);
        EXPECT_EQ(m.types[i].selection.selected,
                  model.types[i].selection.selected);
        EXPECT_EQ(m.types[i].selection.selected_bytes,
                  model.types[i].selection.selected_bytes);
        EXPECT_EQ(m.types[i].selection.selected_error,
                  model.types[i].selection.selected_error);
        EXPECT_EQ(m.types[i].selection.full_error,
                  model.types[i].selection.full_error);
    }
    ASSERT_TRUE(m.table != nullptr);
    EXPECT_EQ(m.table->entryCount(), model.table->entryCount());
    EXPECT_EQ(m.table->totalBytes(), model.table->totalBytes());
    EXPECT_EQ(m.selectedBytes(), model.selectedBytes());
}

TEST(ModelCodecTest, ShippedModelRunsBitwiseIdentical)
{
    // Deploying the unpacked model must behave exactly like keeping
    // the in-memory original: same short-circuits, same energy, to
    // the last bit.
    SnipModel original = buildModelFor("colorphun", 20.0, 1234);
    util::ByteBuffer pkg;
    packModel(original, pkg);
    util::Result<SnipModel> shipped = unpackModel(pkg);
    ASSERT_TRUE(shipped.ok()) << shipped.status().message();

    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    cfg.seed = 777;

    auto game_a = games::makeGame("colorphun");
    SnipScheme scheme_a(original);
    SessionResult a = runSession(*game_a, scheme_a, cfg);

    auto game_b = games::makeGame("colorphun");
    SnipScheme scheme_b(shipped.value());
    SessionResult b = runSession(*game_b, scheme_b, cfg);

    EXPECT_GT(a.stats.shortcircuits, 0u);
    EXPECT_EQ(a.stats.events, b.stats.events);
    EXPECT_EQ(a.stats.shortcircuits, b.stats.shortcircuits);
    EXPECT_EQ(a.stats.instr_total, b.stats.instr_total);
    EXPECT_EQ(a.stats.instr_skipped, b.stats.instr_skipped);
    EXPECT_EQ(a.stats.lookup_bytes, b.stats.lookup_bytes);
    EXPECT_EQ(a.stats.lookup_candidates, b.stats.lookup_candidates);
    EXPECT_EQ(a.stats.erroneous_shortcircuits,
              b.stats.erroneous_shortcircuits);
    EXPECT_EQ(a.stats.output_fields_wrong,
              b.stats.output_fields_wrong);
    // Doubles compared with ==: bitwise-identical arithmetic.
    EXPECT_EQ(a.stats.ip_work_skipped, b.stats.ip_work_skipped);
    EXPECT_EQ(a.stats.lookup_energy_j, b.stats.lookup_energy_j);
    EXPECT_EQ(a.report.total(), b.report.total());
}

TEST(ModelCodecTest, SaveLoadRoundTrip)
{
    SnipModel model = buildModelFor("greenwall", 10.0, 5);
    std::string path =
        ::testing::TempDir() + "/snip_model_codec_test.snpm";
    ASSERT_TRUE(saveModel(model, path).ok());
    util::Result<SnipModel> loaded = loadModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(packedModelBytes(loaded.value()),
              packedModelBytes(model));
    std::remove(path.c_str());

    EXPECT_FALSE(loadModel("/nonexistent/dir/m.snpm").ok());
    EXPECT_FALSE(saveModel(model, "/nonexistent/dir/m.snpm").ok());
}

TEST(ModelCodecTest, InspectReportsHeaderAndCrc)
{
    SnipModel model = buildModelFor("greenwall", 10.0, 6);
    util::ByteBuffer pkg;
    packModel(model, pkg);

    PackageInfo info;
    ASSERT_TRUE(inspectPackage(pkg, &info).ok());
    EXPECT_EQ(info.version, kModelVersion);
    EXPECT_EQ(info.payload_bytes + 16u, pkg.size());
    EXPECT_TRUE(info.crc_ok);

    // Flip a payload byte: inspect still reads the header but flags
    // the CRC; unpack rejects.
    util::ByteBuffer bad = copyOf(pkg);
    const_cast<std::vector<uint8_t> &>(bad.data())[12 + 3] ^= 0x10;
    PackageInfo bad_info;
    ASSERT_TRUE(inspectPackage(bad, &bad_info).ok());
    EXPECT_FALSE(bad_info.crc_ok);
    util::Result<SnipModel> r = unpackModel(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("CRC"), std::string::npos);
}

TEST(ModelCodecTest, TruncationRejectedAtEveryPrefix)
{
    SnipModel model = buildModelFor("colorphun", 10.0, 8);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    ASSERT_GT(pkg.size(), 64u);

    for (size_t len = 0; len < pkg.size(); len += 1 + len / 9) {
        util::ByteBuffer cut;
        cut.putBytes(pkg.data().data(), len);
        util::Result<SnipModel> r = unpackModel(cut);
        EXPECT_FALSE(r.ok()) << "prefix " << len;
    }
}

TEST(ModelCodecTest, EveryBitFlipRejected)
{
    // Any single-bit flip lands in the magic, version, length,
    // payload (CRC-protected), or the CRC footer itself — all of
    // which unpack must detect.
    SnipModel model = buildModelFor("greenwall", 10.0, 9);
    util::ByteBuffer pkg;
    packModel(model, pkg);

    for (size_t pos = 0; pos < pkg.size(); pos += 1 + pos / 13) {
        for (uint8_t bit : {0, 4, 7}) {
            util::ByteBuffer flipped = copyOf(pkg);
            const_cast<std::vector<uint8_t> &>(
                flipped.data())[pos] ^=
                static_cast<uint8_t>(1u << bit);
            util::Result<SnipModel> r = unpackModel(flipped);
            EXPECT_FALSE(r.ok())
                << "byte " << pos << " bit " << int(bit);
        }
    }
}

TEST(ModelCodecTest, VersionMismatchRejected)
{
    util::ByteBuffer payload;  // empty model payload
    payload.putString("");
    payload.putU32(0);  // schema fields
    payload.putU32(0);  // type models
    payload.putU8(0);   // no table

    util::ByteBuffer ok_pkg = envelope(payload);
    EXPECT_TRUE(unpackModel(ok_pkg).ok());

    // Neither the retired per-entry v1 format nor a future version
    // is read: both the server and the device path name the version
    // they refused.
    for (uint32_t version : {1u, kModelVersion + 1}) {
        SCOPED_TRACE(version);
        std::string named = "version " + std::to_string(version);
        util::ByteBuffer pkg = envelope(payload, version);
        util::Result<SnipModel> r = unpackModel(pkg);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.status().message().find(named), std::string::npos)
            << r.status().message();
        util::Result<SnipModel> dep = deployModel(
            std::make_shared<util::ByteBuffer>(envelope(payload, version)));
        ASSERT_FALSE(dep.ok());
        EXPECT_NE(dep.status().message().find(named),
                  std::string::npos)
            << dep.status().message();
    }
}

TEST(ModelCodecTest, ValidCrcBadContentRejected)
{
    // Integrity checks passing must not imply acceptance: a payload
    // with a correct CRC but malformed content (here: an event type
    // beyond the enum range) is still rejected.
    util::ByteBuffer payload;
    payload.putString("g");
    payload.putU32(1);  // one schema field
    payload.putString("f");
    payload.putU8(0);   // input side
    payload.putU8(0);
    payload.putU32(4);
    payload.putU32(1);    // one type model
    payload.putU8(0xee);  // invalid event type
    util::ByteBuffer pkg = envelope(payload);
    util::Result<SnipModel> r = unpackModel(pkg);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("type"), std::string::npos);
}

TEST(ModelCodecTest, TrailingPayloadBytesRejected)
{
    util::ByteBuffer payload;
    payload.putString("");
    payload.putU32(0);
    payload.putU32(0);
    payload.putU8(0);
    payload.putU32(0xabadcafe);  // junk past a complete payload
    util::ByteBuffer pkg = envelope(payload);
    util::Result<SnipModel> r = unpackModel(pkg);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("trailing"),
              std::string::npos);
}

TEST(ModelCodecTest, GarbageCountsDoNotOverAllocate)
{
    // A CRC-correct payload claiming 2^32-1 schema fields must be
    // rejected by the remaining-bytes bound, not by reserving GBs.
    util::ByteBuffer payload;
    payload.putString("g");
    payload.putU32(0xffffffffu);
    util::ByteBuffer pkg = envelope(payload);
    util::Result<SnipModel> r = unpackModel(pkg);
    EXPECT_FALSE(r.ok());
}

TEST(ModelCodecTest, RejectedPackageFallsBackToBaseline)
{
    // The deploy contract: a corrupt package yields an error — the
    // device keeps running at baseline (full execution, zero
    // short-circuits), it never crashes or ships a garbage table.
    SnipModel model = buildModelFor("colorphun", 10.0, 11);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    util::ByteBuffer cut;
    cut.putBytes(pkg.data().data(), pkg.size() / 2);

    util::Result<SnipModel> shipped = unpackModel(cut);
    ASSERT_FALSE(shipped.ok());

    auto game = games::makeGame("colorphun");
    BaselineScheme baseline;
    SimulationConfig cfg;
    cfg.duration_s = 10.0;
    cfg.seed = 11;
    SessionResult res = runSession(*game, baseline, cfg);
    EXPECT_GT(res.stats.events, 0u);
    EXPECT_EQ(res.stats.shortcircuits, 0u);
}

TEST(ModelCodecTest, DeployModelZeroCopyRunsBitwiseIdentical)
{
    // Device-side deploy: the v2 arena is attached as a validated
    // view over the package bytes — no per-entry rebuild — and runs
    // bit-for-bit like the in-memory original.
    SnipModel original = buildModelFor("colorphun", 20.0, 4321);
    auto pkg = std::make_shared<util::ByteBuffer>();
    packModel(original, *pkg);

    util::Result<SnipModel> dep = deployModel(pkg);
    ASSERT_TRUE(dep.ok()) << dep.status().message();
    ASSERT_TRUE(dep.value().frozen != nullptr);
    EXPECT_TRUE(dep.value().frozen->zeroCopy());
    EXPECT_TRUE(dep.value().table == nullptr);

    SimulationConfig cfg;
    cfg.duration_s = 20.0;
    cfg.seed = 888;

    auto game_a = games::makeGame("colorphun");
    SnipScheme scheme_a(original);
    SessionResult a = runSession(*game_a, scheme_a, cfg);

    auto game_b = games::makeGame("colorphun");
    SnipScheme scheme_b(dep.value());
    SessionResult b = runSession(*game_b, scheme_b, cfg);

    EXPECT_GT(a.stats.shortcircuits, 0u);
    EXPECT_EQ(a.stats.events, b.stats.events);
    EXPECT_EQ(a.stats.shortcircuits, b.stats.shortcircuits);
    EXPECT_EQ(a.stats.instr_skipped, b.stats.instr_skipped);
    EXPECT_EQ(a.stats.lookup_bytes, b.stats.lookup_bytes);
    EXPECT_EQ(a.stats.lookup_candidates, b.stats.lookup_candidates);
    EXPECT_EQ(a.stats.output_fields_wrong,
              b.stats.output_fields_wrong);
    EXPECT_EQ(a.report.total(), b.report.total());
}

TEST(ModelCodecTest, DeployModelCorruptionFuzz)
{
    // The zero-copy deploy path has no rebuild step to trip over
    // garbage, so the arena validation must catch everything the
    // CRC does not: every mutated package comes back as a clean
    // error, never a crash, and clean packages still deploy.
    size_t iters = 64;
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        iters = static_cast<size_t>(std::strtoull(env, nullptr, 10));

    SnipModel model = buildModelFor("ab_evolution", 15.0, 22);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    ASSERT_GT(pkg.size(), 32u);

    util::Rng rng(0xdeb70cafeULL);
    for (size_t i = 0; i < iters; ++i) {
        auto mutant = std::make_shared<util::ByteBuffer>();
        if (rng.next() % 2 == 0) {
            size_t len = rng.next() % pkg.size();
            mutant->putBytes(pkg.data().data(), len);
        } else {
            *mutant = copyOf(pkg);
            auto &bytes =
                const_cast<std::vector<uint8_t> &>(mutant->data());
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                bytes[rng.next() % bytes.size()] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        bool changed = mutant->data() != pkg.data();
        util::Result<SnipModel> r = deployModel(mutant);
        EXPECT_EQ(r.ok(), !changed) << "iteration " << i;
        if (r.ok())
            EXPECT_TRUE(r.value().frozen != nullptr);
    }
}

TEST(ModelCodecTest, CorruptionFuzzSmoke)
{
    // Random truncations and 1-8 byte corruptions, SNIP_FUZZ_ITERS
    // iterations (default 64; tools/ci.sh cranks it up under asan).
    // Every mutation must come back as a clean accept/reject — no
    // aborts, no sanitizer reports.
    size_t iters = 64;
    if (const char *env = std::getenv("SNIP_FUZZ_ITERS"))
        iters = static_cast<size_t>(std::strtoull(env, nullptr, 10));

    SnipModel model = buildModelFor("ab_evolution", 15.0, 21);
    util::ByteBuffer pkg;
    packModel(model, pkg);
    ASSERT_GT(pkg.size(), 32u);

    util::Rng rng(0xf022f022ULL);
    for (size_t i = 0; i < iters; ++i) {
        util::ByteBuffer mutant;
        if (rng.next() % 2 == 0) {
            size_t len = rng.next() % pkg.size();
            mutant.putBytes(pkg.data().data(), len);
        } else {
            mutant = copyOf(pkg);
            auto &bytes =
                const_cast<std::vector<uint8_t> &>(mutant.data());
            size_t flips = 1 + rng.next() % 8;
            for (size_t f = 0; f < flips; ++f)
                bytes[rng.next() % bytes.size()] ^=
                    static_cast<uint8_t>(1u + rng.next() % 255);
        }
        // Multiple flips can land on the same byte and cancel out;
        // only a mutant that actually differs must be rejected.
        bool changed = mutant.data() != pkg.data();
        util::Result<SnipModel> r = unpackModel(mutant);
        EXPECT_EQ(r.ok(), !changed) << "iteration " << i;
    }
}

}  // namespace
}  // namespace core
}  // namespace snip
