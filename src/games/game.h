/**
 * @file
 * The parameterized game workload model. A Game is built from a
 * GameParams description (event mix, handler specs, state fields,
 * user-behaviour knobs) and provides the three operations the rest
 * of the system needs:
 *
 *  - makeEvent(): draw the next user event (seeded, reproducible);
 *  - process(): deterministically compute the full handler
 *    execution (inputs, outputs, costs) for an event against the
 *    current state *without* mutating anything — the ground truth
 *    schemes charge, memoize, or compare against;
 *  - applyOutputs(): commit a set of output writes (computed or
 *    memoized — possibly wrong) to the state.
 *
 * Seven concrete configurations (the paper's games) are provided by
 * catalog.h.
 */

#ifndef SNIP_GAMES_GAME_H
#define SNIP_GAMES_GAME_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "events/event.h"
#include "events/field.h"
#include "games/game_state.h"
#include "games/handler.h"
#include "util/rng.h"
#include "util/status.h"

namespace snip {
namespace games {

/** User-behaviour knobs (drives repetition and redundancy). */
struct UserModelParams {
    /** Zipf skew of necessary-value popularity (hot zones). */
    double zipf_s = 1.1;
    /**
     * Probability the next event of a type is an *exact* repeat of
     * the previous one (finger held still / re-pressed button);
     * yields the paper's 2-5% exactly-repeated events.
     */
    double exact_repeat_prob = 0.04;
    /**
     * Probability a gesture burst continues: necessary values are
     * kept from the previous event of the type while noise fields
     * are redrawn.
     */
    double burst_continue_prob = 0.55;
    /**
     * Entropy of the noise fields: every event draws two Zipf
     * "micro-context" latents from [0, noise_pool) and all noise
     * field values derive deterministically from them. Low-entropy
     * noise is what lets full input records revisit at all (the
     * paper's naive-table coverage, Fig. 6); raising the pool makes
     * records effectively unique.
     */
    uint32_t noise_pool = 40;
};

/** Complete declarative description of one game workload. */
struct GameParams {
    std::string name;      ///< Identifier, e.g. "ab_evolution".
    std::string display;   ///< Pretty name, e.g. "AB Evolution".
    uint64_t salt = 1;     ///< Per-game hash salt.

    /** One entry per event type the game consumes. */
    struct MixEntry {
        events::EventType type;
        double rate_hz;
    };
    std::vector<MixEntry> mix;

    /** Background (non-event) load, charged per frame/second. */
    double frame_rate = 60.0;
    double frame_gpu_units = 0.1;      ///< UI animation per frame.
    double frame_display_units = 1.0;  ///< Composition per frame.
    double frame_cpu_minstr = 0.3;     ///< Little-core M instr/frame.
    double audio_units_per_s = 10.0;   ///< Audio IP work per second.

    /** Handler behaviour per event type in the mix. */
    std::vector<HandlerSpec> handlers;
    /** Game state fields. */
    std::vector<HistoryFieldDecl> history_fields;
    /** In.Extern sources (registered as "x.<name>"). */
    std::vector<std::string> extern_fields;
    /**
     * Developer-recommended necessary fields (paper §V-B Option 1):
     * schema names the developer marks as must-keep because the
     * profile alone under-samples them (e.g. rarely-changing board
     * rows). Consumed by the SNIP pipeline as force-keep overrides.
     */
    std::vector<std::string> recommended_overrides;
    /** Size of each In.Extern location (bytes). */
    uint32_t extern_bytes = 1u << 20;

    UserModelParams user;
};

/** A runnable game workload. */
class Game
{
  public:
    /** Validate params, build the field schema, init state. */
    explicit Game(GameParams params);

    const std::string &name() const { return params_.name; }
    const std::string &displayName() const { return params_.display; }
    const GameParams &params() const { return params_; }
    const events::FieldSchema &schema() const { return schema_; }

    /** Sum of event rates across the mix (events/s). */
    double totalEventRate() const;

    /** Handler spec for a type; panics when the game lacks it. */
    const HandlerSpec &handler(events::EventType t) const;

    /**
     * Draw the next event of type @p t at simulated time @p now into
     * @p ev, overwriting every field and reusing its storage.
     * Consumes randomness from @p rng; advances per-type gesture
     * memory (bursts / exact repeats). The fields come out in the
     * handler's compiled In.Event layout (canonical id order).
     */
    void makeEvent(events::EventType t, double now, util::Rng &rng,
                   events::EventObject &ev);
    /** By-value form of makeEvent(t, now, rng, ev). */
    events::EventObject makeEvent(events::EventType t, double now,
                                  util::Rng &rng);

    /**
     * Check @p ev against the compiled In.Event layout: the game
     * handles its type, and its fields are exactly the handler's
     * event fields, in layout order. process() requires this (it
     * panics otherwise); call it on events from untrusted input.
     */
    util::Status checkEvent(const events::EventObject &ev) const;

    /**
     * Compute the full execution of @p ev against the current state
     * into @p ex, overwriting every field and reusing its storage.
     * Pure: identical (event, state) gives identical results. @p ev
     * must pass checkEvent(); inputs and outputs are emitted in
     * canonical id order by construction.
     */
    void process(const events::EventObject &ev,
                 HandlerExecution &ex) const;
    /** By-value form of process(ev, ex). */
    HandlerExecution process(const events::EventObject &ev) const;

    /** Commit output writes to the state. */
    void applyOutputs(const std::vector<events::FieldValue> &outputs);

    /** Mutable state access (tests, error injection). */
    GameState &state() { return state_; }
    const GameState &state() const { return state_; }

    /** Ground truth: ids of the necessary input fields of @p t. */
    std::vector<events::FieldId>
    necessaryInputIds(events::EventType t) const;

    /**
     * Read the *current* value of any non-event input location
     * (history slot, context block, extern source) — what the SNIP
     * runtime loads when comparing necessary inputs. Returns false
     * for event-object fields (those come from the event itself).
     */
    bool gatherInputValue(events::FieldId fid, uint64_t &value) const;

    /** Reset state and gesture memory to initial conditions. */
    void reset();

  private:
    void buildSchema();
    /** Index of the handler for @p t; panics when the game lacks it. */
    size_t handlerIndex(events::EventType t) const;
    /**
     * CDF of Zipf(user.zipf_s) over [0, cardinality) for the
     * @p index-th distinct cardinality; built on first use.
     */
    const std::vector<double> &zipfCdf(uint32_t index);
    uint64_t typeSalt(events::EventType t) const;

    GameParams params_;
    events::FieldSchema schema_;
    GameState state_;

    /** Per-type handler index; -1 when absent. */
    std::array<int, events::kNumEventTypes> handlerIdx_;

    /** Per-type last generated event (bursts / repeats). */
    struct GenMemory {
        bool valid = false;
        std::vector<events::FieldValue> fields;
    };
    std::array<GenMemory, events::kNumEventTypes> genMem_;

    /** Sentinel for an absent index. */
    static constexpr uint32_t kNone = ~0u;

    /** Per field id: context-block index, or kNone. */
    std::vector<uint32_t> blockOf_;

    /** Why a history field is among a handler's inputs. */
    enum class HistRole : uint8_t { Necessary, Complexity, Scoring };

    /** One history input of a handler's compiled input layout. */
    struct HistInput {
        events::FieldId fid = events::kInvalidField;
        uint32_t size_bytes = 0;
        HistRole role = HistRole::Necessary;
    };

    /** One scoring write: read in_fid, write out_fid. */
    struct ScoringOutput {
        events::FieldId in_fid = events::kInvalidField;
        events::FieldId out_fid = events::kInvalidField;
        /** Position in spec.scoring_history (salts the delta). */
        uint32_t k = 0;
    };

    /**
     * Everything a handler spec names, resolved once in buildSchema
     * so the per-event paths only index arrays. History fields are
     * indices into params_.history_fields (not pointers), so an
     * implicitly copied Game stays valid.
     *
     * The record layout is compiled here too. Schema registration
     * order puts history ids < extern ids < the handler's event ids
     * < its block ids on the input side, and history out ids < its
     * temp ids < its extern output id on the output side, so
     * process() emits records in canonical id order by appending:
     * hist_in (already in id order), the extern input, the event
     * fields, the blocks; and the history writes (scoring_out merged
     * with the one state write), the temps, the extern output.
     */
    struct HandlerIds {
        /** typeSalt(type), and the FNV-1a state after hashing it. */
        uint64_t type_salt = 0;
        uint64_t hash_seed = 0;
        /**
         * History inputs in id order. Entries of one id keep the
         * order necessary < complexity < scoring (then spec order),
         * the order a stable sort of the appended reads gives.
         */
        std::vector<HistInput> hist_in;
        /** Scoring writes in out-id order (stable in spec order). */
        std::vector<ScoringOutput> scoring_out;
        /** Most inputs / outputs one execution can emit. */
        size_t max_inputs = 0;
        size_t max_outputs = 0;
        std::vector<events::FieldId> temp_out;
        events::FieldId extern_out = events::kInvalidField;
        std::vector<events::FieldId> blocks;
        std::vector<uint32_t> necessary_hist;
        std::vector<uint32_t> scoring_hist;
        std::vector<uint32_t> hist_out;
        uint32_t complexity = kNone;
        uint32_t plateau = kNone;
        /** Index into spec.event_fields of plateau_event_field. */
        uint32_t plateau_event = kNone;
        events::FieldId extern_in = events::kInvalidField;
        /** Per event field: index into zipfCards_ (necessary only). */
        std::vector<uint32_t> zipf;
    };
    std::vector<HandlerIds> handlerIds_;

    /** Distinct Zipf cardinalities; zipfCdfs_ is parallel. */
    std::vector<uint32_t> zipfCards_;
    std::vector<std::vector<double>> zipfCdfs_;
    /** Index into zipfCards_ of user.noise_pool. */
    uint32_t noiseZipf_ = 0;

    uint64_t seq_ = 0;
};

}  // namespace games
}  // namespace snip

#endif  // SNIP_GAMES_GAME_H
