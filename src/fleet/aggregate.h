/**
 * @file
 * Sharded federated aggregation. The core federated backend merges N
 * per-device upload payloads through one serial chain of
 * MemoTable::mergeFrom(const FrozenTable &) calls, one per decoded
 * upload arena; at fleet scale that chain is the backend's critical
 * path. This layer partitions the uploads into K contiguous shards,
 * unions each shard into its own MemoTable in parallel
 * (util::parallelFor), then merges the shard tables tree-wise
 * (adjacent pairs per level, left-to-right order preserved).
 *
 * Equivalence contract: the aggregate is *bitwise identical* (frozen
 * arena bytes) to the serial chain at any shard count. The argument:
 * both mergeFrom overloads visit entries in canonical order and
 * insert first-seen-wins, i.e. each bucket's entry list is the
 * order-preserving dedup of the concatenated upload entry streams —
 * and dedup(concat(dedup(A), dedup(B))) == dedup(concat(A, B)), so
 * any merge tree that preserves the uploads' left-to-right order
 * yields the same canonical entry order, and FrozenTable::freeze()
 * is a pure function of that order. tests/fleet_test.cc enforces this at shard
 * counts {1, 2, 8}.
 *
 * Corrupt uploads are dropped exactly as the serial chain drops
 * them: that device contributes nothing this round, nothing fails.
 */

#ifndef SNIP_FLEET_AGGREGATE_H
#define SNIP_FLEET_AGGREGATE_H

#include <span>

#include "core/memo_table.h"
#include "util/bytes.h"

namespace snip {

namespace obs {
class Registry;
}  // namespace obs

namespace fleet {

/** Aggregation knobs. */
struct AggregateConfig {
    /** Upload shards unioned in parallel (clamped to [1, uploads]). */
    size_t shards = 8;
    /** parallelFor workers (0 = SNIP_THREADS / all cores). */
    unsigned threads = 0;
    /** Optional `fleet.aggregate.*` metrics sink. */
    obs::Registry *obs = nullptr;
};

/** What the aggregation pass consumed. */
struct AggregateStats {
    size_t uploads = 0;
    /** Uploads rejected by integrity checks and dropped. */
    size_t dropped = 0;
    /** Shards actually used after clamping. */
    size_t shards = 0;
    /** Tree-merge levels above the shard unions. */
    size_t merge_levels = 0;
};

/**
 * Decode the serialized per-device upload payloads (SNPM packages,
 * as produced by the federated device loop) and union their tables
 * into @p dest. @p dest's selected sets drive the re-projection,
 * exactly as in the serial chain. Returns what was
 * consumed/dropped.
 */
AggregateStats aggregateUploads(core::MemoTable &dest,
                                std::span<const util::ByteBuffer> uploads,
                                const AggregateConfig &cfg = {});

}  // namespace fleet
}  // namespace snip

#endif  // SNIP_FLEET_AGGREGATE_H
