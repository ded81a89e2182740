/**
 * @file
 * The immutable, deploy-side form of the SNIP lookup table. A
 * FrozenTable is one contiguous little-endian arena per model: an
 * open-addressing event-subkey index (flat power-of-two array,
 * linear probing) per event type whose slots point at ranges of
 * structure-of-arrays entry storage — key slots, key values, output
 * ids/values and entry sizes each in one flat array, the entries of
 * a bucket adjacent. A lookup is one index probe plus a linear scan
 * of adjacent memory: zero per-entry pointer chasing and zero
 * allocations.
 *
 * The arena's in-memory layout *is* its on-wire layout (the "SNPF"
 * section of a v2 model package), so OTA deploy can construct a
 * FrozenTable as a bounds-checked zero-copy view over the package
 * bytes. Ownership contract: a view never outlives its backing
 * buffer — attach() takes a shared_ptr keep-alive, and freeze()
 * produces a self-owning arena. See DESIGN.md "Frozen deployed
 * table".
 */

#ifndef SNIP_CORE_FROZEN_TABLE_H
#define SNIP_CORE_FROZEN_TABLE_H

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/memo_table.h"
#include "util/status.h"

namespace snip {
namespace core {

/** Arena magic ("SNPF"), first word of the frozen layout. */
constexpr uint32_t kFrozenMagic = 0x534e5046;
/** Frozen arena format version. */
constexpr uint32_t kFrozenVersion = 1;

/** Result of one frozen-table lookup (mirrors MemoLookup). */
struct FrozenLookup {
    bool hit = false;
    /** Candidate entries scanned under the event-subkey index. */
    uint32_t candidates = 0;
    /** Total bytes gathered + compared (same accounting as
     *  MemoTable::lookup, including kEntryHeaderBytes per entry). */
    uint64_t bytes_scanned = 0;
    /**
     * Ordinal of the matched entry across the whole table (types in
     * ascending order, entries in canonical order within a type).
     * Valid when hit; indexes a caller-owned hit-count array.
     */
    uint32_t entry_ordinal = 0;
    /** Matched entry's memoized outputs (views into the arena). */
    uint32_t nout = 0;
    const events::FieldId *out_ids = nullptr;
    const uint64_t *out_values = nullptr;
};

/**
 * A resolved index probe for one event: the candidate-entry range
 * its event subkey selects. count == 0 means no bucket (or the
 * event's type is undeployed). Probes depend only on the event's
 * fields and the immutable arena, so they stay valid for the
 * table's lifetime and can be precomputed ahead of the decide loop
 * (probeBatch / SnipScheme::prepareBatch).
 */
struct FrozenProbe {
    uint32_t begin = 0;
    uint32_t count = 0;
};

/**
 * Caller-owned reusable buffers for probeBatch: the type-grouping
 * order, the cached per-type layout maps and the subkey/probe memo.
 * Reusing one scratch across blocks makes probeBatch
 * allocation-free once the buffers have grown to the block size.
 */
struct BatchLookupScratch {
    /** Event indices grouped by type (original order within). */
    std::vector<uint32_t> order;
    /** Group boundaries into order: [type] .. [type + 1]. */
    std::vector<uint32_t> type_begin;
    /**
     * Cached canonical-layout map for one event type: where each
     * selected event field sits in the type's canonical field
     * vector. Layouts are a property of the handler spec, so the
     * map survives across blocks; it is keyed by the owning
     * table's unique id (monotonic, never reused — a recycled heap
     * address cannot alias) and rebuilt whenever the id or the
     * group's first event stops matching. Events are still
     * verified against the map individually, so a stale map can
     * only cost speed, never correctness.
     */
    struct GroupMap {
        uint64_t table_id = 0;  // 0 = never built
        bool layout_ok = false;
        /** Canonical field-vector size. */
        uint32_t nf = 0;
        /** Subkey-memo tag for this (table, field-map, width). */
        uint64_t tag = 0;
        /** The canonical id sequence (the map's source event's
         *  ids, in order): an event whose id sequence equals this
         *  one resolves every findField exactly as the source
         *  event did. */
        std::vector<events::FieldId> expected_ids;
        /** Selected event fields' positions in the canonical
         *  layout (compact, ascending selected order) and their
         *  field ids. */
        std::vector<uint32_t> event_pos;
        std::vector<uint32_t> event_fid;
    };
    /** Per-type cached layout maps (indexed by event type). */
    std::vector<GroupMap> group_maps;

    /**
     * Direct-mapped subkey/probe memo: event streams repeat the
     * same selected-field value tuples constantly (the premise the
     * memo table itself rests on), and the subkey mix chain plus
     * the index walk are the batch path's hottest computations.
     * Keyed by the full value tuple plus a tag of the type's
     * selected event fields and the owning table's unique id,
     * compared exactly on every probe, so a cached entry is always
     * what the mix chain and index walk would produce — a memo hit
     * skips both.
     */
    struct alignas(64) SubkeyMemo {
        uint64_t tag = 0;  // field map + table id fingerprint
        uint64_t vals[4] = {0, 0, 0, 0};
        /** Cached probe result for (table, tuple). */
        uint32_t begin = 0;
        uint32_t count = 0;
        uint32_t m = ~0u;  // tuple width; ~0u = empty slot
    };
    std::vector<SubkeyMemo> subkey_memo;
};

/**
 * Immutable deployed lookup table over a frozen arena.
 *
 * Thread safety: every method is const and touches only immutable
 * state, so any number of threads may look up concurrently on a
 * shared FrozenTable (each with its own scratch). Hit accounting is
 * the caller's job, via FrozenLookup::entry_ordinal into an array
 * the caller owns — there is nothing to race on by construction.
 */
class FrozenTable
{
  public:
    /**
     * Build a frozen arena from a mutable build-side table. Pure and
     * deterministic: the arena bytes are a function of the table's
     * canonical entry order alone, so freeze(unpack(pack(m))) is
     * byte-identical to freeze(m).
     */
    static std::shared_ptr<const FrozenTable>
    freeze(const MemoTable &table);

    /**
     * Attach a validated view over arena bytes (the deploy path).
     * Every offset, count and field id is bounds-checked against
     * @p size and @p schema before the view is returned; a malformed
     * arena yields an error Status, never UB. @p owner keeps the
     * backing buffer alive for the view's lifetime (zero-copy). If
     * @p data is not 8-aligned the bytes are copied into an owned
     * aligned buffer instead (still no per-entry work).
     */
    static util::Result<std::shared_ptr<const FrozenTable>>
    attach(const uint8_t *data, size_t size,
           std::shared_ptr<const void> owner,
           const events::FieldSchema &schema);

    /**
     * Look up an event. Identical semantics and byte/candidate
     * accounting to MemoTable::lookup over the same entries: gather
     * cost is charged even on an empty bucket, candidates are
     * scanned in canonical order, comparison checks stored key
     * slots against the gathered values.
     */
    FrozenLookup lookup(const events::EventObject &ev,
                        const games::Game &game,
                        LookupScratch &scratch) const;

    /**
     * Resolve the index probe for one event: subkey hash plus the
     * open-addressing walk, no gathering or comparing. lookup() is
     * exactly finishLookup(ev, ..., probeEvent(ev)).
     */
    FrozenProbe probeEvent(const events::EventObject &ev) const;

    /**
     * Complete a lookup from a precomputed probe: charge the gather
     * cost, gather the selected inputs, and scan the probe's
     * candidate range. Identical accounting to lookup() — the probe
     * merely skips recomputing the subkey and index walk.
     */
    FrozenLookup finishLookup(const events::EventObject &ev,
                              const games::Game &game,
                              LookupScratch &scratch,
                              FrozenProbe probe) const;

    /**
     * Resolve index probes for a block of events: the block is
     * grouped by event type (stable counting sort) so each type's
     * index is walked while cache-resident, and repeated
     * selected-field tuples are served from the scratch's subkey
     * memo without touching the index. No software prefetch: memo
     * hits never walk the index, so it would mostly be overhead.
     * Writes out[i] = probeEvent(evs[i]).
     */
    void probeBatch(std::span<const events::EventObject> evs,
                    std::span<FrozenProbe> out,
                    BatchLookupScratch &scratch) const;

    /**
     * Whether an observed execution is already memoized: projects
     * the record onto the type's selected fields and compares
     * against the bucket's entries exactly as MemoTable::insert's
     * duplicate check would. Used to keep online-fill overlays free
     * of entries the frozen table already holds.
     */
    bool containsRecord(const games::HandlerExecution &rec) const;

    /**
     * Visit every entry as a HandlerExecution (inputs = key fields,
     * canonical id order) in global ordinal order. Re-inserting the
     * records into a MemoTable with the same selections rebuilds
     * the exact source table (the v1-compat / server-side path).
     */
    void visitRecords(
        const std::function<void(const games::HandlerExecution &)>
            &fn) const;

    /** The schema snapshot the table was built/deployed against. */
    const events::FieldSchema &schema() const { return schema_; }

    /** Entries across all types. */
    size_t entryCount() const { return total_entries_; }
    /** Entries of one type. */
    size_t entryCount(events::EventType type) const;
    /** Modeled payload bytes (same accounting as MemoTable). */
    uint64_t totalBytes() const { return total_bytes_; }
    /** Sum of selected-field sizes for a type (bytes). */
    uint64_t selectedBytes(events::EventType type) const;
    /** Selected fields of a type (empty when undeployed). */
    std::vector<events::FieldId>
    selectedVector(events::EventType type) const;
    /** Widest selected set across types (scratch pre-sizing). */
    size_t maxSelected() const;
    /** Open-addressing capacity of a type's index (0 = undeployed). */
    uint32_t indexCapacity(events::EventType type) const;
    /** Used slots (buckets) of a type's index. */
    uint32_t bucketCount(events::EventType type) const;
    /** Used / capacity across all type indexes (<= 0.5 by build). */
    double indexLoadFactor() const;

    /** Whether this view borrows its bytes (no owned copy). */
    bool zeroCopy() const { return owned_.empty(); }

    /** Raw arena bytes (the v2 "SNPF" wire section, verbatim). */
    const uint8_t *arenaData() const { return data_; }
    size_t arenaSize() const { return size_; }

    /**
     * Export table shape as `table.*` gauges, like
     * MemoTable::recordStats, plus `table.layout` = 1 (frozen) and
     * `table.index_load_factor`.
     */
    void recordStats(obs::Registry &reg) const;

  private:
    FrozenTable() = default;

    /** Decoded view of one type's arena block. */
    struct TypeView {
        uint32_t nselected = 0;  // 0 = type undeployed
        uint32_t capacity = 0;   // index slots (power of two)
        uint32_t nentries = 0;
        uint32_t buckets = 0;    // used index slots
        uint64_t selected_bytes = 0;
        uint64_t type_bytes = 0;
        /** First global entry ordinal of this type. */
        uint32_t entry_base = 0;
        const events::FieldId *selected = nullptr;
        const uint8_t *is_event = nullptr;
        /** Index slots: {u64 subkey, u32 begin, u32 count}[cap]. */
        const uint8_t *index = nullptr;
        const uint32_t *key_off = nullptr;  // [nentries + 1]
        const uint32_t *out_off = nullptr;  // [nentries + 1]
        const uint32_t *key_slots = nullptr;
        const uint64_t *key_values = nullptr;
        const events::FieldId *out_ids = nullptr;
        const uint64_t *out_values = nullptr;
        const uint32_t *entry_bytes = nullptr;
    };

    uint64_t eventSubkey(const TypeView &tv,
                         const std::vector<events::FieldValue>
                             &fields) const;
    /** Probe the index for @p subkey; false = no bucket. */
    bool probe(const TypeView &tv, uint64_t subkey, uint32_t *begin,
               uint32_t *count) const;
    /**
     * Subkey + probe pass for one type group (order[gb..ge) in
     * scratch, all of type @p t): writes the group's probes into
     * @p out (original indices). Reuses (or rebuilds) the type's
     * cached layout map, scratch.group_maps[t].
     */
    void probeGroup(std::span<const events::EventObject> evs,
                    int t, uint32_t gb, uint32_t ge,
                    std::span<FrozenProbe> out,
                    BatchLookupScratch &scratch) const;
    /** Decode directory + validate everything; data_/size_ set. */
    util::Status decode(const events::FieldSchema &schema);

    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    /** Keep-alive for a zero-copy view (null when self-owned). */
    std::shared_ptr<const void> owner_;
    /** Owned storage (freeze() or misaligned-attach fallback);
     *  u64-backed so the arena base is always 8-aligned. */
    std::vector<uint64_t> owned_;

    events::FieldSchema schema_;
    std::array<TypeView, events::kNumEventTypes> types_{};
    size_t total_entries_ = 0;
    uint64_t total_bytes_ = 0;
    /** Unique per-instance id (monotonic, never reused) keying the
     *  cached layout maps in BatchLookupScratch. */
    uint64_t id_ = nextTableId();

    static uint64_t nextTableId();
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_FROZEN_TABLE_H
