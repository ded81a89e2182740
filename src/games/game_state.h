/**
 * @file
 * Mutable game state: the In.History / Out.History store. Bounded
 * fields hold bucketed values (UI mode, catapult stretch, detected
 * AR plane...); accumulators grow monotonically (score, distance);
 * an epoch counter versions the bulk context blocks so their
 * contents change whenever real state changes.
 */

#ifndef SNIP_GAMES_GAME_STATE_H
#define SNIP_GAMES_GAME_STATE_H

#include <cstdint>
#include <string>
#include <vector>

#include "events/field.h"

namespace snip {
namespace games {

/** Declaration of one history (state) field of a game. */
struct HistoryFieldDecl {
    /** Short name; registered as "h.<name>". */
    std::string name;
    /** Location size in bytes. */
    uint32_t size_bytes = 8;
    /**
     * Value space. Bounded fields wrap modulo @p buckets;
     * accumulators (buckets == 0) grow without bound.
     */
    uint32_t buckets = 8;
    /** Initial value. */
    uint64_t init = 0;
    /** Filled when the schema is built: the input-side field id. */
    events::FieldId in_fid = events::kInvalidField;
    /** Filled when the schema is built: the output-side field id. */
    events::FieldId out_fid = events::kInvalidField;

    bool isAccumulator() const { return buckets == 0; }
};

/**
 * The state store. Values are addressed by the *input-side* field
 * id; the paired output-side id writes through to the same slot.
 * Field ids are dense schema indices, so both directions are plain
 * arrays indexed by id; ids past the end, in a gap between declared
 * ids, or kInvalidField are not state.
 */
class GameState
{
  public:
    /** Build from declarations (called by Game). */
    void build(const std::vector<HistoryFieldDecl> &decls);

    /** Read a field by input-side id; panics on unknown id. */
    uint64_t get(events::FieldId in_fid) const;

    /**
     * Read a field if it is a state slot. Returns false for ids
     * that are not history fields (event/extern/block locations).
     */
    bool tryGet(events::FieldId in_fid, uint64_t &value) const;

    /**
     * Write a field via its *output-side* id; bounded fields wrap
     * modulo their bucket count. Bumps the epoch when the stored
     * value actually changes. Unknown output ids are ignored (they
     * are Out.Temp / Out.Extern writes that do not land in state).
     *
     * @return true when the stored value changed.
     */
    bool apply(events::FieldId out_fid, uint64_t value);

    /** Whether @p out_fid writes through to a state slot. */
    bool isHistoryOutput(events::FieldId out_fid) const;

    /**
     * Whether apply(out_fid, value) would change stored state,
     * without mutating anything. False for non-state outputs.
     */
    bool wouldChange(events::FieldId out_fid, uint64_t value) const;

    /** Version counter: bumps on every real state change. */
    uint64_t epoch() const { return epoch_; }

    /**
     * Fingerprint of all *bounded* state fields (accumulators
     * excluded). Context-block contents derive from it, so bulk
     * In.History payloads revisit whenever the bounded game state
     * revisits — the correlation that makes whole-record
     * memoization possible at all.
     */
    uint64_t boundedFingerprint() const;

    /**
     * Content hash of context block @p index. Block contents are a
     * *stale* snapshot of the bounded state: they refresh only every
     * few state changes (scene meshes are rebuilt occasionally, not
     * on every tiny state tick). The staleness matters: it keeps a
     * block from being a perfect stand-in for the live state fields,
     * so PFI-style selection cannot soundly key on blocks alone.
     */
    uint64_t blockContent(uint32_t index) const;

    /** Reset all fields to their declared initial values. */
    void reset();

  private:
    struct Slot {
        uint64_t value = 0;
        uint32_t buckets = 0;
        /** False for ids in a gap between declared in_fids. */
        bool live = false;
        uint64_t init = 0;
    };

    /** Recompute the bounded-state hash (fp_'s value). */
    uint64_t computeFingerprint() const;

    /** Whether @p in_fid addresses a declared slot. */
    bool isSlot(events::FieldId in_fid) const
    {
        return in_fid < slots_.size() && slots_[in_fid].live;
    }
    /** Input-side id @p out_fid writes to; kInvalidField if none. */
    events::FieldId inputOf(events::FieldId out_fid) const
    {
        return out_fid < outToIn_.size() ? outToIn_[out_fid]
                                         : events::kInvalidField;
    }

    std::vector<Slot> slots_;                 // by in_fid
    std::vector<events::FieldId> outToIn_;    // by out_fid
    std::vector<events::FieldId> boundedOrder_;
    uint64_t epoch_ = 0;
    uint64_t refreshedFp_ = 0;
    /** Maintained eagerly on every state change so all const reads
     *  (fingerprint, block contents) are safe from concurrent
     *  readers — no lazily-filled mutable caches. */
    uint64_t fp_ = 0;

    /** State changes between context-block refreshes. */
    static constexpr uint64_t kBlockRefreshPeriod = 3;
};

}  // namespace games
}  // namespace snip

#endif  // SNIP_GAMES_GAME_STATE_H
