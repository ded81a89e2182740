#include "core/scheme.h"

#include "util/logging.h"

namespace snip {
namespace core {

const char *
schemeName(SchemeKind k)
{
    switch (k) {
      case SchemeKind::Baseline: return "Baseline";
      case SchemeKind::MaxCpu: return "Max CPU";
      case SchemeKind::MaxIp: return "Max IP";
      case SchemeKind::Snip: return "SNIP";
      case SchemeKind::NoOverheads: return "No Overheads";
    }
    return "?";
}

Decision
BaselineScheme::decide(const games::Game &, const events::EventObject &,
                       const games::HandlerExecution &)
{
    return {};
}

Decision
MaxCpuScheme::decide(const games::Game &, const events::EventObject &,
                     const games::HandlerExecution &truth)
{
    Decision d;
    d.charge_lookup = false;
    if (seen_.count(truth.necessary_hash))
        d.cpu_skip_fraction = truth.maxcpu_fraction;
    return d;
}

void
MaxCpuScheme::observe(const games::HandlerExecution &truth)
{
    seen_.insert(truth.necessary_hash);
}

Decision
MaxIpScheme::decide(const games::Game &, const events::EventObject &ev,
                    const games::HandlerExecution &)
{
    Decision d;
    d.charge_lookup = false;
    // IP results (rendered tiles, decoded blocks) are reusable only
    // when the triggering event object repeats exactly. The insert
    // belongs to observe(): decide() alone learns nothing, so only
    // fully processed events become reusable.
    pendingHash_ = events::hashFields(ev.fields);
    hasPending_ = true;
    if (seen_.count(pendingHash_))
        d.skip_ips = true;
    return d;
}

void
MaxIpScheme::observe(const games::HandlerExecution &)
{
    if (hasPending_) {
        seen_.insert(pendingHash_);
        hasPending_ = false;
    }
}

namespace {

/** Freeze the model (idempotent) and hand back the shared arena. */
std::shared_ptr<const FrozenTable>
frozenOf(SnipModel &model)
{
    if (!model.table && !model.frozen)
        util::fatal("SnipScheme: model has no table");
    model.freeze();
    return model.frozen;
}

/** Const models must already be deployable (frozen set). */
std::shared_ptr<const FrozenTable>
frozenOf(const SnipModel &model)
{
    if (!model.frozen)
        util::fatal("SnipScheme: const model is not frozen "
                    "(call freeze() before constructing)");
    return model.frozen;
}

}  // namespace

SnipScheme::SnipScheme(SnipModel &model, SnipRuntimeConfig cfg,
                       bool charge_overheads)
    : model_(model), cfg_(cfg), chargeOverheads_(charge_overheads),
      frozen_(frozenOf(model)), overlay_(frozen_->schema())
{
    initRuntime();
}

SnipScheme::SnipScheme(const SnipModel &model, SnipRuntimeConfig cfg,
                       bool charge_overheads)
    : model_(model), cfg_(cfg), chargeOverheads_(charge_overheads),
      frozen_(frozenOf(model)), overlay_(frozen_->schema())
{
    initRuntime();
}

void
SnipScheme::initRuntime()
{
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        events::EventType type = static_cast<events::EventType>(t);
        auto selected = frozen_->selectedVector(type);
        if (!selected.empty())
            overlay_.setSelected(type, std::move(selected));
    }
    hitCounts_.assign(frozen_->entryCount(), 0);
    if (cfg_.obs) {
        obsAudits_ = &cfg_.obs->counter("decide.audits");
        obsAuditFailures_ =
            &cfg_.obs->counter("decide.audit_failures");
        obsTableClears_ = &cfg_.obs->counter("decide.table_clears");
        obsOnlineInserts_ =
            &cfg_.obs->counter("decide.online_inserts");
    }
}

Decision
SnipScheme::decide(const games::Game &game, const events::EventObject &ev,
                   const games::HandlerExecution &)
{
    Decision d;
    d.charge_lookup = chargeOverheads_;
    auditPending_ = false;
    d.lookup_ran = true;

    // Frozen-first lookup with the overlay consulted only on a miss.
    // The scan is equivalent to the old single-table scan: frozen
    // buckets hold the profile entries in their original insertion
    // order and overlay buckets the online-filled ones that would
    // have followed them, and the shared gather cost (the type's
    // selected bytes, charged by both lookups) is counted once. Both
    // layouts hold the same selections, so the event's subkey and
    // gather are computed once and shared.
    uint64_t subkey =
        eventSubkey(frozen_->selectedSet(ev.type), ev.fields);
    bool hit = false;
    if (frozenActive_) {
        FrozenLookup fres = frozen_->lookup(ev, subkey, game, scratch_);
        d.lookup_bytes = fres.bytes_scanned;
        d.lookup_candidates = fres.candidates;
        if (fres.hit) {
            hit = true;
            ++hitCounts_[fres.entry_ordinal];
            d.outputs.resize(fres.nout);
            for (uint32_t i = 0; i < fres.nout; ++i)
                d.outputs[i] = {fres.out_ids[i],
                                fres.out_values[i]};
        } else if (overlay_.entryCount(ev.type) > 0) {
            // A frozen probe that found a bucket has gathered this
            // event; an empty-bucket early-out has not.
            MemoLookup ores = overlay_.lookup(ev, subkey, game, scratch_,
                                              fres.candidates > 0);
            // The overlay's gather cost is already covered by the
            // frozen lookup's charge; count only the extra scan
            // volume, clamped at zero (an empty-bucket early-out can
            // charge less than the shared gather cost).
            uint64_t sel = overlay_.selectedBytes(ev.type);
            d.lookup_bytes += ores.bytes_scanned > sel
                                  ? ores.bytes_scanned - sel
                                  : 0;
            d.lookup_candidates += ores.candidates;
            if (ores.hit) {
                hit = true;
                d.outputs = ores.entry->outputs;
            }
        }
    } else {
        MemoLookup ores =
            overlay_.lookup(ev, subkey, game, scratch_, false);
        d.lookup_bytes = ores.bytes_scanned;
        d.lookup_candidates = ores.candidates;
        if (ores.hit) {
            hit = true;
            d.outputs = ores.entry->outputs;
        }
    }

    d.lookup_hit = hit;
    if (hit) {
        // Audit watchdog: periodically let a would-be hit run at
        // full cost so the table's output can be checked against
        // ground truth in observe().
        if (cfg_.audit_every > 0 &&
            ++hitCounter_ % cfg_.audit_every == 0) {
            auditPending_ = true;
            d.audited = true;
            auditOutputs_ = std::move(d.outputs);
            d.outputs.clear();
            return d;  // processed fully; observe() compares
        }
        d.shortcircuit = true;
    }
    return d;
}

void
SnipScheme::observe(const games::HandlerExecution &truth)
{
    if (auditPending_) {
        auditPending_ = false;
        ++auditsRun_;
        ++windowAudits_;
        if (obsAudits_)
            obsAudits_->add(1);
        if (auditOutputs_ != truth.outputs) {
            ++auditsFailed_;
            ++windowFailures_;
            if (obsAuditFailures_)
                obsAuditFailures_->add(1);
        }
        if (windowAudits_ >= cfg_.audit_window) {
            double rate = static_cast<double>(windowFailures_) /
                          static_cast<double>(windowAudits_);
            if (rate > cfg_.audit_clear_threshold) {
                // Deactivate the immutable frozen layout and drop
                // the overlay's entries (its selections survive, so
                // online fill keeps working until the next
                // re-learn). The frozen arena itself is shared and
                // never mutated.
                frozenActive_ = false;
                overlay_.clear();
                ++tableClears_;
                if (obsTableClears_)
                    obsTableClears_->add(1);
                util::warn("snip watchdog: audited error rate %.1f%% "
                           "exceeded %.1f%%; table cleared",
                           rate * 100.0,
                           cfg_.audit_clear_threshold * 100.0);
            }
            windowAudits_ = 0;
            windowFailures_ = 0;
        }
    }
    if (cfg_.online_fill) {
        // Entries the frozen table already memoizes would be
        // deduplicated by the old single-table insert; skip them so
        // the overlay holds only genuinely new observations. One
        // projection serves both layouts (same selections). The
        // counter tracks actual overlay growth — a skipped or
        // deduplicated insert is not an online insert.
        SelectedSet sel = frozen_->selectedSet(truth.type);
        if (sel.size == 0)
            return;  // type not deployed
        projectRecord(sel, truth.inputs, observedKey_);
        bool in_frozen = frozenActive_ &&
                         frozen_->contains(truth.type, observedKey_);
        if (!in_frozen &&
            overlay_.insertKey(truth.type, observedKey_,
                               truth.outputs) &&
            obsOnlineInserts_)
            obsOnlineInserts_->add(1);
    }
}

uint64_t
SnipScheme::deployedTableBytes() const
{
    uint64_t n = overlay_.totalBytes();
    if (frozenActive_)
        n += frozen_->totalBytes();
    return n;
}

void
SnipScheme::recordTableStats(obs::Registry &reg) const
{
    if (frozenActive_)
        frozen_->recordStats(reg);
    else
        overlay_.recordStats(reg);
    reg.gauge("table.overlay_entries")
        .set(static_cast<double>(overlay_.entryCount()));
}

std::unique_ptr<Scheme>
makeScheme(SchemeKind kind, SnipModel *model)
{
    switch (kind) {
      case SchemeKind::Baseline:
        return std::make_unique<BaselineScheme>();
      case SchemeKind::MaxCpu:
        return std::make_unique<MaxCpuScheme>();
      case SchemeKind::MaxIp:
        return std::make_unique<MaxIpScheme>();
      case SchemeKind::Snip:
      case SchemeKind::NoOverheads:
        if (!model)
            util::fatal("makeScheme(%s) requires a SnipModel",
                        schemeName(kind));
        return std::make_unique<SnipScheme>(
            *model, SnipRuntimeConfig{},
            kind == SchemeKind::Snip);
    }
    util::panic("makeScheme: bad kind");
}

}  // namespace core
}  // namespace snip
