/**
 * @file
 * The immutable, deploy-side form of the SNIP lookup table. A
 * FrozenTable is one contiguous little-endian arena per model: an
 * open-addressing event-subkey index (flat power-of-two array,
 * linear probing) per event type whose slots point at ranges of
 * structure-of-arrays entry storage — key slots, key values, output
 * ids/values and entry sizes each in one flat array, the entries of
 * a bucket adjacent. lookup() is the one entry point: event subkey,
 * one index probe, gather of the selected inputs, then a linear scan
 * of adjacent memory, with zero per-entry pointer chasing and zero
 * allocations. The subkey, gather and record projection are the same
 * functions MemoTable uses (memo_table.h), so both layouts key and
 * match entries identically.
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
#include <vector>

#include "core/memo_table.h"
#include "util/status.h"

namespace snip {
namespace core {

/** Arena magic ("SNPF"), first word of the frozen layout. */
constexpr uint32_t kFrozenMagic = 0x534e5046;
/** Frozen arena format version. */
constexpr uint32_t kFrozenVersion = 1;

/**
 * Result of one frozen-table lookup: MemoLookup's outcome and
 * accounting, with the matched entry given as an ordinal and views of
 * its outputs instead of a MemoEntry pointer.
 */
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
                        LookupScratch &scratch) const
    {
        return lookup(ev, eventSubkey(selectedSet(ev.type), ev.fields),
                      game, scratch);
    }

    /**
     * The one lookup implementation, with the event's @p subkey
     * already computed (SnipScheme computes it once per event for
     * both layouts). The gather runs only when the probe finds a
     * bucket, so on return @p scratch holds this event's gather iff
     * candidates > 0.
     */
    FrozenLookup lookup(const events::EventObject &ev, uint64_t subkey,
                        const games::Game &game,
                        LookupScratch &scratch) const;

    /**
     * Whether an entry of @p type already holds @p key (projected
     * onto this table's selected set of @p type), compared exactly
     * as MemoTable::insertKey's duplicate check does. Keeps
     * online-fill overlays free of entries the frozen table already
     * holds.
     */
    bool contains(events::EventType type, const ProjectedKey &key) const;

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
    /** The key rules' view of a type's selected fields. */
    SelectedSet selectedSet(events::EventType type) const
    {
        return types_[static_cast<int>(type)].selectedSet();
    }
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

        SelectedSet selectedSet() const
        {
            return {selected, is_event, nselected};
        }
    };

    /** Probe the index for @p subkey; false = no bucket. */
    bool probe(const TypeView &tv, uint64_t subkey, uint32_t *begin,
               uint32_t *count) const;
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
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_FROZEN_TABLE_H
