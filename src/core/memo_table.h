/**
 * @file
 * The deployed SNIP lookup table (paper §V-B, "Using the lookup
 * table during execution"): per event type it keeps the PFI-selected
 * necessary input fields and a set of entries mapping observed
 * necessary-input values to memoized outputs.
 *
 * Runtime lookup follows the paper's mechanism: the table is indexed
 * by a hash of the *event-object* portion of the necessary inputs
 * (computable before any processing); every candidate entry under
 * that index is then compared against the freshly gathered values of
 * all its stored necessary fields. The scan volume (candidates x
 * entry size) is exactly the Fig. 11c overhead term.
 */

#ifndef SNIP_CORE_MEMO_TABLE_H
#define SNIP_CORE_MEMO_TABLE_H

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "events/event.h"
#include "events/field.h"
#include "games/game.h"
#include "games/handler.h"

namespace snip {

namespace obs {
class Registry;
}  // namespace obs

namespace core {

class FrozenTable;

/** One memoized entry: necessary-input values -> outputs. */
struct MemoEntry {
    /** Stored necessary-field values (canonical id order). Fields
     *  the profiled execution did not read are simply not stored;
     *  comparison only checks stored fields. */
    std::vector<events::FieldValue> key_fields;
    /** Precomputed slot of each key field within the type's sorted
     *  selected set (parallel to key_fields). Lets lookup() compare
     *  against the gathered-value layout without per-field searches. */
    std::vector<uint32_t> key_slots;
    /** Memoized output writes. */
    std::vector<events::FieldValue> outputs;
    /** Entry payload size in bytes (keys + outputs). */
    uint32_t entry_bytes = 0;
};

/** Result of one runtime lookup. */
struct MemoLookup {
    bool hit = false;
    /** Entry that matched (valid when hit). */
    const MemoEntry *entry = nullptr;
    /** Candidate entries scanned under the event-hash index. */
    uint32_t candidates = 0;
    /** Total bytes gathered + compared during the scan. */
    uint64_t bytes_scanned = 0;
};

/**
 * Caller-owned reusable gather buffers. lookup() fills one slot per
 * selected field of the event's type (slot order == the sorted
 * selected set); reusing the scratch across calls makes the hit path
 * allocation-free after the first event of the largest type.
 */
struct LookupScratch {
    /** Gathered value per selected-field slot. */
    std::vector<uint64_t> values;
    /** Whether the slot's field was present/readable. */
    std::vector<uint8_t> present;
};

/**
 * One event type's selected (necessary) fields as both table layouts
 * hold them: ascending field ids with a parallel per-slot In.Event
 * flag. The three key rules below read only this view, so MemoTable
 * and FrozenTable share one definition of each.
 */
struct SelectedSet {
    const events::FieldId *ids = nullptr;
    const uint8_t *is_event = nullptr;
    uint32_t size = 0;
};

/**
 * The event subkey that picks a lookup's candidate bucket: a hash of
 * the selected In.Event values found in @p fields, in ascending id
 * order, so it is computable before any processing.
 */
uint64_t eventSubkey(SelectedSet sel,
                     const std::vector<events::FieldValue> &fields);

/**
 * Gather the current value of every selected field into @p scratch,
 * one slot per field of @p sel: In.Event fields from @p ev, the rest
 * from @p game's live state. Reusing the scratch makes this
 * allocation-free once it has grown to the widest type.
 */
void gatherSelected(SelectedSet sel, const events::EventObject &ev,
                    const games::Game &game, LookupScratch &scratch);

/**
 * A record's inputs projected onto a type's selected set. Keep one
 * per caller and refill it: projectRecord() reuses its capacity.
 */
struct ProjectedKey {
    /** Event subkey of the record's inputs. */
    uint64_t subkey = 0;
    /** The inputs that are selected fields, ascending id order. */
    std::vector<events::FieldValue> fields;
    /** Slot of each key field within the selected set. */
    std::vector<uint32_t> slots;
};

/**
 * Project a record's inputs onto @p sel into @p key: the key an
 * insert stores and a duplicate check compares. The inputs need not
 * be sorted. Sorted inputs and a key that has grown to the widest
 * type project without allocating.
 */
void projectRecord(SelectedSet sel,
                   const std::vector<events::FieldValue> &inputs,
                   ProjectedKey &key);

/** Per-game deployed lookup table. */
class MemoTable
{
  public:
    /**
     * Bind to a game's schema. The table keeps its own copy: models
     * built from a short-lived game (e.g. the federated builders)
     * must stay valid after that game is destroyed.
     */
    explicit MemoTable(const events::FieldSchema &schema);

    /**
     * Configure the necessary (selected) fields of one event type.
     * Must be called before inserting records of that type.
     */
    void setSelected(events::EventType type,
                     std::vector<events::FieldId> selected);

    /** Selected fields of a type (empty when unconfigured). */
    const std::vector<events::FieldId> &
    selected(events::EventType type) const;

    /** Sum of selected-field sizes for a type (bytes). */
    uint64_t selectedBytes(events::EventType type) const;

    /**
     * Insert (or refresh) an entry from a profiled/observed
     * execution: projectRecord() onto the type's selected fields,
     * then insertKey().
     */
    void insert(const games::HandlerExecution &rec);

    /**
     * Insert an entry under a key already projected onto this
     * table's selected set of @p type. Duplicate keys keep the
     * first-inserted outputs (the paper's table is append-only
     * between re-learns). Returns whether the table grew; an
     * undeployed type never does.
     */
    bool insertKey(events::EventType type, const ProjectedKey &key,
                   const std::vector<events::FieldValue> &outputs);

    /**
     * Look up an event at runtime. Event-side values come from
     * @p ev; history-side values are read from @p game's live state.
     *
     * Thread safety: lookup() never mutates the table, so any number
     * of threads may look up concurrently on a shared const table
     * (each with its own scratch) as long as no thread insert()s or
     * clear()s. Hit accounting is the caller's job (the deploy-side
     * FrozenTable hands back an entry ordinal for a caller-owned
     * dense counter array; see frozen_table.h).
     */
    MemoLookup lookup(const events::EventObject &ev,
                      const games::Game &game,
                      LookupScratch &scratch) const
    {
        return lookup(ev, eventSubkey(selectedSet(ev.type), ev.fields),
                      game, scratch, false);
    }

    /**
     * The one lookup implementation, with the event's @p subkey
     * already computed. When @p gathered is set, @p scratch already
     * holds this event's gather over the same selected fields (the
     * frozen probe filled it) and is compared as is.
     */
    MemoLookup lookup(const events::EventObject &ev, uint64_t subkey,
                      const games::Game &game, LookupScratch &scratch,
                      bool gathered) const;

    /**
     * Freeze this table into its immutable deploy-side form (a
     * self-owning contiguous arena; see frozen_table.h). Pure and
     * deterministic over the canonical entry order; the build-side
     * table is unchanged.
     */
    std::shared_ptr<const FrozenTable> freeze() const;

    /** The schema copy this table is bound to. */
    const events::FieldSchema &schema() const { return schema_; }

    /**
     * Visit every entry of @p type in canonical order: buckets by
     * ascending event-subkey, entries in insertion order within a
     * bucket. The order is stable across serialize/deserialize
     * round-trips, which is what makes re-serialization
     * byte-identical (model_codec.h).
     */
    void visitEntries(
        events::EventType type,
        const std::function<void(uint64_t subkey,
                                 const MemoEntry &entry)> &fn) const;

    /**
     * Union another table's entries into this one (the server-side
     * federated merge). Entries are re-projected onto *this* table's
     * selected sets; duplicate keys keep the first-seen outputs,
     * matching insert()'s append-only semantics.
     */
    void mergeFrom(const MemoTable &other);

    /**
     * Export table shape as `table.*` gauges (entries, payload
     * bytes, selected bytes, configured types). Read-only; see
     * DESIGN.md for the metric namespace.
     */
    void recordStats(obs::Registry &reg) const;

    /** Number of entries across all types. */
    size_t entryCount() const;
    /** Entries of one type. */
    size_t entryCount(events::EventType type) const;
    /** Total table payload bytes (entries + per-entry header). */
    uint64_t totalBytes() const;

    /** Per-entry header/index overhead modeled (bytes). */
    static constexpr uint32_t kEntryHeaderBytes = 256;

    /** Drop all entries (the profiler's "clear the table" action). */
    void clear();

  private:
    struct TypeTable {
        std::vector<events::FieldId> selected;   // sorted
        /** Per-slot In.Event flag (parallel to selected); lets
         *  lookup() gather without consulting the schema per field. */
        std::vector<uint8_t> selected_is_event;
        uint64_t selected_bytes = 0;
        /** Event-subkey hash -> candidate entries. */
        std::unordered_map<uint64_t, std::vector<MemoEntry>> buckets;
        size_t entries = 0;
        uint64_t bytes = 0;

        SelectedSet selectedSet() const
        {
            return {selected.data(), selected_is_event.data(),
                    static_cast<uint32_t>(selected.size())};
        }
    };

    SelectedSet selectedSet(events::EventType type) const
    {
        return types_[static_cast<int>(type)].selectedSet();
    }

    events::FieldSchema schema_;
    std::array<TypeTable, events::kNumEventTypes> types_;
    /** insert()'s projection, reused across records. */
    ProjectedKey insertScratch_;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_MEMO_TABLE_H
