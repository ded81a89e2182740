/**
 * @file
 * The evaluated schemes (paper §VII): Baseline, Max CPU
 * (function-granularity CPU memoization upper bound, [3,14,42]),
 * Max IP (IP-invocation skipping + aggressive IP sleep, [43]),
 * SNIP (the deployed PFI lookup table), and No-Overheads SNIP
 * (SNIP with free lookups). A Scheme is a *decision policy*: for
 * every delivered event it decides what part of the end-to-end
 * processing can be skipped and which outputs to substitute; the
 * Simulation does all the energy charging and error accounting.
 */

#ifndef SNIP_CORE_SCHEME_H
#define SNIP_CORE_SCHEME_H

#include <memory>
#include <span>
#include <unordered_set>

#include "core/snip.h"
#include "events/event.h"
#include "games/game.h"

namespace snip {
namespace core {

/** Which scheme is running. */
enum class SchemeKind {
    Baseline = 0,
    MaxCpu,
    MaxIp,
    Snip,
    NoOverheads,
};

/** Display name. */
const char *schemeName(SchemeKind k);

/** What a scheme decided for one event. */
struct Decision {
    /** Skip the whole end-to-end processing, applying outputs. */
    bool shortcircuit = false;
    /** Outputs to apply when short-circuiting (may be wrong). */
    std::vector<events::FieldValue> outputs;
    /** Fraction of CPU instructions skipped (Max CPU partial). */
    double cpu_skip_fraction = 0.0;
    /** Skip the handler's IP invocations (Max IP). */
    bool skip_ips = false;
    /** Lookup scan volume to charge (0 = no lookup happened). */
    uint64_t lookup_bytes = 0;
    /** Candidate entries compared. */
    uint32_t lookup_candidates = 0;
    /** Charge the lookup cost (false for No-Overheads). */
    bool charge_lookup = true;
    /** A table lookup ran (SNIP schemes; baselines never look up). */
    bool lookup_ran = false;
    /** The lookup matched an entry. */
    bool lookup_hit = false;
    /**
     * The hit was diverted to a watchdog audit: processed fully so
     * observe() can compare the table's outputs to ground truth.
     */
    bool audited = false;
};

/** Decision policy interface. */
class Scheme
{
  public:
    virtual ~Scheme() = default;

    /** Which scheme this is. */
    virtual SchemeKind kind() const = 0;

    /**
     * Decide how to process @p ev. @p truth is the ground-truth
     * execution the simulator computed; implementations may only
     * use the parts a real runtime would know (necessary-input
     * hashes stand in for the hardware memoizer's own tables).
     */
    virtual Decision decide(const games::Game &game,
                            const events::EventObject &ev,
                            const games::HandlerExecution &truth) = 0;

    /** Observe a fully processed execution (learn/insert). */
    virtual void observe(const games::HandlerExecution &truth)
    {
        (void)truth;
    }

    /**
     * Preferred event-block size (0 = one event at a time).
     * runSession collects up to this many same-frame events, calls
     * prepareBatch() once, then runs the normal per-event
     * decide/observe protocol over the block. No library scheme
     * overrides this or prepareBatch(): SNIP decides each event with
     * one FrozenTable::lookup. The hooks stay because the
     * benchmark's tracing wrapper forwards both.
     */
    virtual uint32_t batchBlock() const { return 0; }

    /**
     * Hint: the next events, in delivery order, before they are
     * decided one by one. An override may precompute only what
     * depends on the event objects and immutable state; decide()
     * must return bitwise-identical Decisions with or without the
     * hint.
     */
    virtual void prepareBatch(std::span<const events::EventObject> evs)
    {
        (void)evs;
    }

    /** Idle seconds after which an IP may be power-gated. */
    virtual double ipSleepTimeout() const { return 0.5; }
};

/** Baseline: process everything. */
class BaselineScheme : public Scheme
{
  public:
    SchemeKind kind() const override { return SchemeKind::Baseline; }
    Decision decide(const games::Game &, const events::EventObject &,
                    const games::HandlerExecution &) override;
};

/**
 * Max CPU: when the necessary inputs of an execution repeat a prior
 * one, the repeatable fraction of its *CPU* work is skipped
 * (instruction/function-granularity reuse); IP invocations still
 * run. No lookup overheads are charged — it is an upper bound.
 */
class MaxCpuScheme : public Scheme
{
  public:
    SchemeKind kind() const override { return SchemeKind::MaxCpu; }
    Decision decide(const games::Game &, const events::EventObject &,
                    const games::HandlerExecution &truth) override;
    void observe(const games::HandlerExecution &truth) override;

  private:
    std::unordered_set<uint64_t> seen_;
};

/**
 * Max IP: IP invocations of repeating executions are skipped (their
 * results are reusable) and idle IPs are power-gated aggressively.
 * CPU work still runs. Upper bound: no overheads charged.
 */
class MaxIpScheme : public Scheme
{
  public:
    SchemeKind kind() const override { return SchemeKind::MaxIp; }
    Decision decide(const games::Game &, const events::EventObject &,
                    const games::HandlerExecution &truth) override;
    void observe(const games::HandlerExecution &truth) override;
    double ipSleepTimeout() const override { return 0.02; }

  private:
    std::unordered_set<uint64_t> seen_;
    /** Hash of the last decided event. Only observe() inserts it:
     *  a decide() alone learns nothing, so an event that is
     *  decided but never observed leaves seen_ unchanged. */
    uint64_t pendingHash_ = 0;
    bool hasPending_ = false;
};

/** SNIP runtime knobs. */
struct SnipRuntimeConfig {
    /**
     * Whether fully processed events are inserted into the table at
     * runtime (device-side table growth between cloud re-learns).
     */
    bool online_fill = true;

    /**
     * Audit watchdog (paper §VII-B future extension: "clear the PFI
     * lookup table if it detects the error rate to worsen"). Every
     * N-th would-be short-circuit is processed fully anyway and the
     * table's outputs are checked against ground truth; when the
     * audited error rate over a sliding window exceeds the
     * threshold, the table is cleared (falling back to online fill
     * until the next cloud re-learn). 0 disables auditing.
     */
    uint32_t audit_every = 0;
    /** Audits per error-rate window. */
    uint32_t audit_window = 64;
    /** Clear the table when audited error exceeds this rate. */
    double audit_clear_threshold = 0.05;
    /**
     * Optional metrics sink (nullptr = observability off) for the
     * scheme's own events: watchdog audits/failures/clears and
     * online-fill inserts. Counters are resolved once at
     * construction, so the per-event cost when disabled is one null
     * check. Per-lookup outcomes are recorded by runSession from the
     * Decision, not here.
     */
    obs::Registry *obs = nullptr;
};

/**
 * SNIP: end-to-end short-circuiting via the deployed table.
 *
 * The scheme serves lookups from the model's immutable FrozenTable
 * (freezing the mutable table on construction if the model was not
 * already frozen). Online fill goes into a small per-scheme mutable
 * *overlay* MemoTable with the same selections, consulted only on a
 * frozen miss — the frozen arena itself is never mutated, so it can
 * be shared across sessions and threads. Hit accounting lives in a
 * scheme-owned dense counter array indexed by frozen entry ordinal
 * (race-free by construction; the arena has no mutable hit field).
 * The watchdog's "clear the table" action deactivates the frozen
 * layout and falls back to the (cleared) overlay until re-learn.
 */
class SnipScheme : public Scheme
{
  public:
    /**
     * @param model Deployed model (borrowed; must outlive this).
     *        Must have a table in at least one layout; freeze() is
     *        called on it, so `model.frozen` is set on return.
     * @param charge_overheads False builds the No-Overheads bound.
     */
    SnipScheme(SnipModel &model, SnipRuntimeConfig cfg = {},
               bool charge_overheads = true);

    /**
     * Const overload for models already in deployable form: @p model
     * must have `frozen` set (freeze() it first, or deployModel()
     * did) — a scheme never mutates a const model, so an unfrozen
     * one is a fatal() usage error, not a silent freeze.
     */
    SnipScheme(const SnipModel &model, SnipRuntimeConfig cfg = {},
               bool charge_overheads = true);

    SchemeKind kind() const override
    {
        return chargeOverheads_ ? SchemeKind::Snip
                                : SchemeKind::NoOverheads;
    }
    Decision decide(const games::Game &game,
                    const events::EventObject &ev,
                    const games::HandlerExecution &truth) override;
    void observe(const games::HandlerExecution &truth) override;

    /** The frozen table lookups are served from (inspection). */
    const FrozenTable &frozen() const { return *frozen_; }
    /** False after a watchdog clear (overlay-only fallback). */
    bool frozenActive() const { return frozenActive_; }
    /** Per-frozen-entry hit counts, indexed by entry ordinal. */
    const std::vector<uint64_t> &hitCounts() const
    {
        return hitCounts_;
    }
    /** Entries accumulated by online fill (overlay layout). */
    size_t overlayEntries() const { return overlay_.entryCount(); }
    /** Bytes of the deployed layout(s) serving lookups now. */
    uint64_t deployedTableBytes() const;
    /** Export `table.*` gauges for the layout serving lookups. */
    void recordTableStats(obs::Registry &reg) const;

    /** Audits performed so far. */
    uint64_t auditsRun() const { return auditsRun_; }
    /** Audits that caught a wrong table output. */
    uint64_t auditsFailed() const { return auditsFailed_; }
    /** Times the watchdog cleared the table. */
    uint64_t tableClears() const { return tableClears_; }

  private:
    const SnipModel &model_;
    SnipRuntimeConfig cfg_;
    bool chargeOverheads_;

    /** Immutable deployed arena (shared with the model). */
    std::shared_ptr<const FrozenTable> frozen_;
    /** Mutable online-fill overlay (frozen's selections). */
    MemoTable overlay_;
    /** Cleared by the watchdog: lookups become overlay-only. */
    bool frozenActive_ = true;
    /** Dense per-entry hit counters (frozen entry ordinals). */
    std::vector<uint64_t> hitCounts_;

    /** Watchdog state. */
    uint64_t hitCounter_ = 0;
    uint64_t auditsRun_ = 0;
    uint64_t auditsFailed_ = 0;
    uint64_t tableClears_ = 0;
    uint32_t windowAudits_ = 0;
    uint32_t windowFailures_ = 0;
    bool auditPending_ = false;
    std::vector<events::FieldValue> auditOutputs_;

    /** Pre-resolved counters (null when cfg_.obs is null). */
    obs::Counter *obsAudits_ = nullptr;
    obs::Counter *obsAuditFailures_ = nullptr;
    obs::Counter *obsTableClears_ = nullptr;
    obs::Counter *obsOnlineInserts_ = nullptr;

    /** Reusable gather buffers: zero-allocation lookups. */
    LookupScratch scratch_;
    /** observe()'s projection of the record, shared by the frozen
     *  duplicate check and the overlay insert; reused per event. */
    ProjectedKey observedKey_;

    /** Shared ctor tail: overlay selections, hit counters, obs. */
    void initRuntime();
};

/** Construct a scheme by kind (Snip/NoOverheads need a model). */
std::unique_ptr<Scheme> makeScheme(SchemeKind kind,
                                   SnipModel *model = nullptr);

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_SCHEME_H
