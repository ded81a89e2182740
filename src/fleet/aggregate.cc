#include "fleet/aggregate.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/model_codec.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace snip {
namespace fleet {

AggregateStats
aggregateUploads(core::MemoTable &dest,
                 std::span<const util::ByteBuffer> uploads,
                 const AggregateConfig &cfg)
{
    AggregateStats stats;
    stats.uploads = uploads.size();
    if (uploads.empty())
        return stats;

    // Decode every payload independently (one task per upload).
    // A payload that fails integrity checks is dropped, exactly as
    // the serial chain drops it — that device just contributes
    // nothing this round.
    std::vector<std::shared_ptr<const core::FrozenTable>> decoded(
        uploads.size());
    util::parallelFor(
        uploads.size(),
        [&](size_t u) {
            util::Result<core::SnipModel> res =
                core::unpackModel(uploads[u]);
            if (!res.ok() || !res.value().frozen) {
                util::warn("fleet: dropping upload %zu: %s", u,
                           res.ok() ? "no table in payload"
                                    : res.status().message().c_str());
                return;
            }
            decoded[u] = std::move(res.value().frozen);
        },
        cfg.threads);
    for (const auto &t : decoded)
        if (!t)
            ++stats.dropped;

    // Shard unions: contiguous upload ranges, merged in upload order
    // within each shard. Every shard table carries dest's selected
    // sets so re-projection matches the serial chain's.
    size_t nshards =
        std::clamp<size_t>(cfg.shards, 1, uploads.size());
    stats.shards = nshards;
    std::vector<std::unique_ptr<core::MemoTable>> shard_tables(
        nshards);
    util::parallelFor(
        nshards,
        [&](size_t s) {
            auto table =
                std::make_unique<core::MemoTable>(dest.schema());
            for (int t = 0; t < events::kNumEventTypes; ++t) {
                events::EventType type =
                    static_cast<events::EventType>(t);
                const auto &sel = dest.selected(type);
                if (!sel.empty())
                    table->setSelected(type, sel);
            }
            size_t begin = uploads.size() * s / nshards;
            size_t end = uploads.size() * (s + 1) / nshards;
            for (size_t u = begin; u < end; ++u)
                if (decoded[u])
                    table->mergeFrom(*decoded[u]);
            shard_tables[s] = std::move(table);
        },
        cfg.threads);

    // Tree-wise reduction: each level merges adjacent pairs
    // left-into-right-neighbor, preserving shard order, so the final
    // table's canonical entry order equals the serial chain's.
    while (shard_tables.size() > 1) {
        ++stats.merge_levels;
        size_t pairs = shard_tables.size() / 2;
        util::parallelFor(
            pairs,
            [&](size_t p) {
                shard_tables[2 * p]->mergeFrom(
                    *shard_tables[2 * p + 1]);
            },
            cfg.threads);
        std::vector<std::unique_ptr<core::MemoTable>> next;
        next.reserve(pairs + 1);
        for (size_t i = 0; i < shard_tables.size(); i += 2)
            next.push_back(std::move(shard_tables[i]));
        shard_tables = std::move(next);
    }
    dest.mergeFrom(*shard_tables[0]);

    if (cfg.obs) {
        obs::Registry &r = *cfg.obs;
        r.counter("fleet.aggregate.uploads").add(stats.uploads);
        r.counter("fleet.aggregate.dropped").add(stats.dropped);
        r.gauge("fleet.aggregate.shards")
            .set(static_cast<double>(stats.shards));
        r.gauge("fleet.aggregate.merge_levels")
            .set(static_cast<double>(stats.merge_levels));
    }
    return stats;
}

}  // namespace fleet
}  // namespace snip
