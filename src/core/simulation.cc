#include "core/simulation.h"

#include <algorithm>
#include <array>

#include "core/output_diff.h"
#include "events/binder.h"
#include "events/sensor_manager.h"
#include "trace/recorder.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {

double
SessionStats::coverageInstr() const
{
    return instr_total
               ? static_cast<double>(instr_skipped) /
                     static_cast<double>(instr_total)
               : 0.0;
}

double
SessionStats::coverageIpWork() const
{
    return ip_work_total > 0 ? ip_work_skipped / ip_work_total : 0.0;
}

double
SessionStats::errorFieldRate() const
{
    return output_fields_total
               ? static_cast<double>(output_fields_wrong) /
                     static_cast<double>(output_fields_total)
               : 0.0;
}

namespace {

/**
 * One unit of the delivery stream: either a block of same-frame
 * events (in time order) or a frame boundary.
 */
struct GenItem {
    enum class Kind : uint8_t { Block, FrameEnd };
    Kind kind = Kind::Block;
    /** Block: the events, in delivery order. */
    std::vector<events::EventObject> events;
    /** FrameEnd: the frame boundary time and its advance delta. */
    double frame_end = 0.0;
    double dt = 0.0;
};

/**
 * Sensor-side event generation, as an iterator: draws the jittered
 * per-mix arrivals and the event objects frame by frame, in blocks
 * bounded by the frame, then one FrameEnd item per frame. Per event,
 * makeEvent() then the arrival-jitter draw. Generation never depends
 * on handler processing, so the stream is a pure function of (game
 * params, seed, duration) and the block size only changes how it is
 * cut.
 */
class EventGen
{
  public:
    /** @p game must already be reset(); @p block >= 1. */
    EventGen(games::Game &game, const SimulationConfig &cfg,
             uint32_t block);

    /**
     * Produce the next item into @p item (reusing its storage).
     * Returns false when the session's final frame has been
     * emitted.
     */
    bool next(GenItem &item);

  private:
    games::Game &game_;
    const SimulationConfig &cfg_;
    uint32_t block_;
    util::Rng rng_;
    /** Per-mix-entry next arrival times (jittered periodic). */
    std::vector<double> next_at_;
    double frame_dt_;
    double now_ = 0.0;
    double frame_end_ = 0.0;
    bool in_frame_ = false;
    bool done_ = false;
};

/**
 * Framework dispatch, scheme decision, handler execution (or its
 * short-circuit) and all SoC charging/accounting, in delivery order:
 * per-event processing, the per-frame background load + IP sleep
 * policy + SoC advance, and the end-of-session accounting.
 */
class SessionBody
{
  public:
    SessionBody(games::Game &game, Scheme &scheme,
                const SimulationConfig &cfg);

    /** Deliver one event through the full path, in stream order. */
    void processEvent(const events::EventObject &ev);

    /** Frame boundary: background load, sleep policy, advance. */
    void frameEnd(double frame_end, double dt);

    /** End-of-session result + obs totals. Call exactly once. */
    SessionResult finalize();

  private:
    games::Game &game_;
    Scheme &scheme_;
    const SimulationConfig &cfg_;

    soc::Soc soc_;
    events::SensorManager sensorMgr_;
    events::BinderChannel binder_;
    trace::EventRecorder recorder_;
    SessionStats stats_;

    /** Per-IP last-use clock for the sleep policy. */
    std::array<double, soc::kNumIpKinds> ipLastUse_;

    /** Pre-resolved obs handles (null when observability is off). */
    struct ObsHandles {
        obs::Counter *events = nullptr;
        obs::Counter *frames = nullptr;
        obs::Counter *useless = nullptr;
        obs::Counter *lookups = nullptr;
        obs::Counter *hits = nullptr;
        obs::Counter *misses = nullptr;
        obs::Counter *bytes = nullptr;
        obs::Counter *candidates = nullptr;
        obs::Counter *shortcircuit = nullptr;
        obs::Counter *full = nullptr;
        obs::Counter *audited = nullptr;
        obs::Counter *err_sc = nullptr;
        obs::Counter *err_temp = nullptr;
        obs::Counter *err_hist = nullptr;
        obs::Counter *err_ext = nullptr;
        util::Log2Histogram *bytes_hist = nullptr;
    } oc_;
};

EventGen::EventGen(games::Game &game, const SimulationConfig &cfg,
                   uint32_t block)
    : game_(game), cfg_(cfg), block_(block),
      rng_(util::mixCombine(cfg.seed, util::fnv1a(game.name()))),
      frame_dt_(1.0 / game.params().frame_rate)
{
    const auto &mix = game_.params().mix;
    next_at_.resize(mix.size());
    for (size_t i = 0; i < mix.size(); ++i)
        next_at_[i] = rng_.uniformReal() / mix[i].rate_hz;
}

bool
EventGen::next(GenItem &item)
{
    if (done_)
        return false;
    if (!in_frame_) {
        if (now_ >= cfg_.duration_s) {
            done_ = true;
            return false;
        }
        frame_end_ = std::min(now_ + frame_dt_, cfg_.duration_s);
        in_frame_ = true;
    }

    // Collect the next block of events arriving within this frame,
    // in time order across mix entries. Rng consumption order is
    // the sequential loop's: makeEvent, then the arrival draw, per
    // event.
    const auto &mix = game_.params().mix;
    item.events.clear();
    while (item.events.size() < block_) {
        size_t best = SIZE_MAX;
        for (size_t i = 0; i < mix.size(); ++i) {
            if (next_at_[i] < frame_end_ &&
                (best == SIZE_MAX || next_at_[i] < next_at_[best]))
                best = i;
        }
        if (best == SIZE_MAX)
            break;
        item.events.push_back(
            game_.makeEvent(mix[best].type, next_at_[best], rng_));
        next_at_[best] +=
            rng_.uniformReal(0.7, 1.3) / mix[best].rate_hz;
    }
    if (!item.events.empty()) {
        item.kind = GenItem::Kind::Block;
        return true;
    }

    item.kind = GenItem::Kind::FrameEnd;
    item.frame_end = frame_end_;
    item.dt = frame_end_ - now_;
    now_ = frame_end_;
    in_frame_ = false;
    return true;
}

SessionBody::SessionBody(games::Game &game, Scheme &scheme,
                         const SimulationConfig &cfg)
    : game_(game), scheme_(scheme), cfg_(cfg), soc_(cfg.model),
      sensorMgr_(soc_), binder_(soc_), recorder_(game.name())
{
    soc_.setInUse(true);
    if (cfg_.record_events) {
        binder_.setTap([this](const events::EventObject &ev) {
            recorder_.onEvent(ev);
        });
    }
    ipLastUse_.fill(0.0);

    // Pre-resolved obs handles: name lookup happens once here, so
    // each record point on the event path costs one null-check
    // branch when observability is off and a pointer bump when on.
    if (cfg_.obs) {
        obs::Registry &r = *cfg_.obs;
        oc_.events = &r.counter("session.events");
        oc_.frames = &r.counter("session.frames");
        oc_.useless = &r.counter("session.useless_events");
        oc_.lookups = &r.counter("lookup.lookups");
        oc_.hits = &r.counter("lookup.hits");
        oc_.misses = &r.counter("lookup.misses");
        oc_.bytes = &r.counter("lookup.bytes");
        oc_.candidates = &r.counter("lookup.candidates");
        oc_.shortcircuit = &r.counter("decide.shortcircuit");
        oc_.full = &r.counter("decide.full");
        oc_.audited = &r.counter("decide.audited");
        oc_.err_sc = &r.counter("decide.err.shortcircuits");
        oc_.err_temp = &r.counter("decide.err.temp_only");
        oc_.err_hist = &r.counter("decide.err.history");
        oc_.err_ext = &r.counter("decide.err.extern");
        oc_.bytes_hist = &r.histogram("lookup.bytes_hist");
    }
}

void
SessionBody::processEvent(const events::EventObject &ev)
{
    double at = ev.timestamp;
    sensorMgr_.deliver(ev);
    binder_.transfer(ev);

    games::HandlerExecution truth = game_.process(ev);
    Decision d = scheme_.decide(game_, ev, truth);

    ++stats_.events;
    stats_.instr_total += truth.cpu_instructions;
    stats_.ip_work_total += truth.ipWorkUnits();
    stats_.output_fields_total +=
        static_cast<uint64_t>(truth.outputs.size());
    if (truth.useless)
        ++stats_.useless_events;

    if (oc_.events) {
        oc_.events->add(1);
        if (truth.useless)
            oc_.useless->add(1);
        if (d.lookup_ran) {
            oc_.lookups->add(1);
            (d.lookup_hit ? oc_.hits : oc_.misses)->add(1);
            oc_.bytes->add(d.lookup_bytes);
            oc_.candidates->add(d.lookup_candidates);
            oc_.bytes_hist->add(static_cast<double>(d.lookup_bytes));
        }
        if (d.audited)
            oc_.audited->add(1);
        else if (d.shortcircuit)
            oc_.shortcircuit->add(1);
        else
            oc_.full->add(1);
    }

    if (d.lookup_bytes > 0 && d.charge_lookup) {
        uint64_t instr =
            cfg_.lookup_instr_base +
            static_cast<uint64_t>(
                cfg_.lookup_instr_per_byte *
                static_cast<double>(d.lookup_bytes));
        double before = soc_.cpu().dynamicEnergy() +
                        soc_.memory().dynamicEnergy();
        soc_.executeCpu(instr, soc::CpuCluster::Big);
        soc_.accessMemory(d.lookup_bytes);
        stats_.lookup_energy_j += soc_.cpu().dynamicEnergy() +
                                  soc_.memory().dynamicEnergy() -
                                  before;
    }
    stats_.lookup_bytes += d.lookup_bytes;
    stats_.lookup_candidates += d.lookup_candidates;

    if (d.shortcircuit) {
        ++stats_.shortcircuits;
        stats_.instr_skipped += truth.cpu_instructions;
        stats_.ip_work_skipped += truth.ipWorkUnits();
        game_.applyOutputs(d.outputs);
        OutputDiff diff =
            diffOutputs(d.outputs, truth.outputs, game_.schema());
        stats_.output_fields_wrong += diff.fields_wrong;
        if (diff.anyWrong()) {
            ++stats_.erroneous_shortcircuits;
            if (diff.wrong_extern)
                ++stats_.err_extern;
            else if (diff.wrong_history)
                ++stats_.err_history;
            else
                ++stats_.err_temp_only;
            if (oc_.err_sc) {
                oc_.err_sc->add(1);
                if (diff.wrong_extern)
                    oc_.err_ext->add(1);
                else if (diff.wrong_history)
                    oc_.err_hist->add(1);
                else
                    oc_.err_temp->add(1);
            }
        }
        return;
    }

    // Full (or partially skipped) processing.
    uint64_t skipped = static_cast<uint64_t>(
        static_cast<double>(truth.cpu_instructions) *
        d.cpu_skip_fraction);
    stats_.instr_skipped += skipped;
    soc_.executeCpu(truth.cpu_instructions - skipped,
                    soc::CpuCluster::Big);
    soc_.accessMemory(truth.memory_bytes);
    if (d.skip_ips) {
        stats_.ip_work_skipped += truth.ipWorkUnits();
    } else {
        for (const auto &c : truth.ip_calls) {
            soc_.invokeIp(c.kind, c.work_units);
            ipLastUse_[static_cast<int>(c.kind)] = at;
        }
    }
    if (truth.useless)
        stats_.useless_instr_executed +=
            truth.cpu_instructions - skipped;
    game_.applyOutputs(truth.outputs);
    scheme_.observe(truth);
}

void
SessionBody::frameEnd(double frame_end, double dt)
{
    // Per-frame background load (composition, UI animation, audio
    // stream, game-loop tick on the little cluster).
    const games::GameParams &gp = game_.params();
    soc_.invokeIp(soc::IpKind::Display, gp.frame_display_units);
    ipLastUse_[static_cast<int>(soc::IpKind::Display)] = frame_end;
    if (gp.frame_gpu_units > 0) {
        soc_.invokeIp(soc::IpKind::Gpu, gp.frame_gpu_units);
        ipLastUse_[static_cast<int>(soc::IpKind::Gpu)] = frame_end;
    }
    if (gp.audio_units_per_s > 0) {
        soc_.invokeIp(soc::IpKind::Audio,
                      gp.audio_units_per_s * (1.0 / gp.frame_rate));
        ipLastUse_[static_cast<int>(soc::IpKind::Audio)] = frame_end;
    }
    soc_.executeCpu(static_cast<uint64_t>(gp.frame_cpu_minstr * 1e6),
                    soc::CpuCluster::Little);

    // IP sleep policy: gate blocks idle longer than the scheme's
    // timeout. The display never gates while the screen is on.
    double timeout = scheme_.ipSleepTimeout();
    for (int k = 0; k < soc::kNumIpKinds; ++k) {
        auto kind = static_cast<soc::IpKind>(k);
        if (kind == soc::IpKind::Display)
            continue;
        if (frame_end - ipLastUse_[k] > timeout)
            soc_.ip(kind).setSleeping(true);
    }

    soc_.advance(dt);
    if (oc_.frames)
        oc_.frames->add(1);
}

SessionResult
SessionBody::finalize()
{
    SessionResult result{soc_.report(), stats_, recorder_.trace()};

    if (cfg_.obs) {
        // End-of-session totals and derived rates. When registries
        // of several sessions are merged, counters stay additive;
        // the rate gauges are last-writer and should be recomputed
        // from the merged counters (see DESIGN.md).
        obs::Registry &r = *cfg_.obs;
        r.counter("session.instr_total").add(stats_.instr_total);
        r.counter("session.instr_skipped").add(stats_.instr_skipped);
        r.counter("session.output_fields")
            .add(stats_.output_fields_total);
        r.counter("session.output_fields_wrong")
            .add(stats_.output_fields_wrong);
        r.gauge("session.duration_s").set(cfg_.duration_s);
        r.gauge("session.energy_j").set(result.report.total());
        r.gauge("session.lookup_energy_j")
            .set(stats_.lookup_energy_j);
        uint64_t looked = oc_.hits->value() + oc_.misses->value();
        r.gauge("session.hit_rate")
            .set(looked ? static_cast<double>(oc_.hits->value()) /
                              static_cast<double>(looked)
                        : 0.0);
        r.gauge("session.error_field_rate")
            .set(stats_.errorFieldRate());
        r.gauge("session.coverage_instr")
            .set(stats_.coverageInstr());
    }
    return result;
}

}  // namespace

SessionResult
runSession(games::Game &game, Scheme &scheme,
           const SimulationConfig &cfg)
{
    if (cfg.duration_s <= 0)
        util::fatal("runSession: non-positive duration %f",
                    cfg.duration_s);

    game.reset();
    EventGen gen(game, cfg, std::max<uint32_t>(1, scheme.batchBlock()));
    SessionBody body(game, scheme, cfg);

    // Per block, the scheme's prepareBatch hint, then the per-event
    // stage.
    GenItem item;
    while (gen.next(item)) {
        if (item.kind == GenItem::Kind::Block) {
            if (item.events.size() > 1)
                scheme.prepareBatch(
                    {item.events.data(), item.events.size()});
            for (const auto &ev : item.events)
                body.processEvent(ev);
        } else {
            body.frameEnd(item.frame_end, item.dt);
        }
    }
    return body.finalize();
}

util::Power
idlePhonePower(const soc::EnergyModel &model)
{
    // The paper's "idle phone" reference (~20 h) is a device that is
    // on — screen lit at the launcher, radios up — but not playing:
    // display refresh plus background OS work, no game processing.
    soc::Soc soc(model);
    soc.setInUse(true);
    for (int k = 0; k < soc::kNumIpKinds; ++k) {
        if (static_cast<soc::IpKind>(k) != soc::IpKind::Display)
            soc.ip(static_cast<soc::IpKind>(k)).setSleeping(true);
    }
    // One simulated minute of 60 fps launcher idling.
    const double frame_dt = 1.0 / 60.0;
    for (int f = 0; f < 3600; ++f) {
        soc.invokeIp(soc::IpKind::Display, 1.0);
        soc.executeCpu(1'500'000, soc::CpuCluster::Little);
        if (f % 30 == 0)
            soc.executeCpu(6'000'000, soc::CpuCluster::Little);
        soc.accessMemory(200'000);
        soc.advance(frame_dt);
    }
    return soc.report().averagePower();
}

}  // namespace core
}  // namespace snip
