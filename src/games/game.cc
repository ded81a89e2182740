#include "games/game.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/bytes.h"
#include "util/logging.h"

namespace snip {
namespace games {

namespace {

// Salts decorrelating the deterministic draws inside process().
constexpr uint64_t kSaltUseless = 0x075e1e55ULL;
constexpr uint64_t kSaltPattern = 0x09a77e24ULL;
constexpr uint64_t kSaltScore = 0x05c042eaULL;
constexpr uint64_t kSaltDelta = 0x0de17a00ULL;
constexpr uint64_t kSaltExtIn = 0x0e871a10ULL;
constexpr uint64_t kSaltExtOut = 0x0e871a20ULL;
constexpr uint64_t kSaltCost = 0x0c057c05ULL;
constexpr uint64_t kSaltWhich = 0x0071c400ULL;
constexpr uint64_t kSaltTempOnly = 0x007e3b01ULL;

/** Value of a field within an event object; panics when absent. */
uint64_t
eventValue(const events::EventObject &ev, events::FieldId fid)
{
    const events::FieldValue *fv = events::findField(ev.fields, fid);
    if (!fv)
        util::panic("event %s missing field id %u",
                    events::eventTypeName(ev.type), fid);
    return fv->value;
}

}  // namespace

Game::Game(GameParams params)
    : params_(std::move(params))
{
    if (params_.name.empty())
        util::fatal("Game: empty name");
    if (params_.mix.empty())
        util::fatal("game %s: empty event mix", params_.name.c_str());
    if (params_.handlers.size() != params_.mix.size())
        util::fatal("game %s: %zu handlers for %zu mix entries",
                    params_.name.c_str(), params_.handlers.size(),
                    params_.mix.size());
    handlerIdx_.fill(-1);
    buildSchema();
    state_.build(params_.history_fields);
}

void
Game::buildSchema()
{
    // History fields first: input side ("h.<name>") and output side
    // ("o.<name>") bind to the same state slot.
    std::unordered_map<std::string, uint32_t> hist_idx;
    for (size_t i = 0; i < params_.history_fields.size(); ++i) {
        auto &d = params_.history_fields[i];
        if (hist_idx.count(d.name))
            util::fatal("game %s: duplicate history field %s",
                        params_.name.c_str(), d.name.c_str());
        d.in_fid = schema_.addInput("h." + d.name,
                                    events::InputCategory::History,
                                    d.size_bytes);
        d.out_fid = schema_.addOutput("o." + d.name,
                                      events::OutputCategory::History,
                                      d.size_bytes);
        hist_idx[d.name] = static_cast<uint32_t>(i);
    }

    std::unordered_map<std::string, events::FieldId> extern_in;
    for (const auto &name : params_.extern_fields) {
        extern_in[name] = schema_.addInput(
            "x." + name, events::InputCategory::Extern,
            params_.extern_bytes);
    }

    auto hist_index = [&](const std::string &name) -> uint32_t {
        auto it = hist_idx.find(name);
        if (it == hist_idx.end())
            util::fatal("game %s: unknown history field %s",
                        params_.name.c_str(), name.c_str());
        return it->second;
    };
    const auto &hist = params_.history_fields;
    auto zipf_index = [&](uint32_t cardinality) -> uint32_t {
        auto it = std::find(zipfCards_.begin(), zipfCards_.end(),
                            cardinality);
        if (it != zipfCards_.end())
            return static_cast<uint32_t>(it - zipfCards_.begin());
        zipfCards_.push_back(cardinality);
        return static_cast<uint32_t>(zipfCards_.size() - 1);
    };
    noiseZipf_ = zipf_index(params_.user.noise_pool);

    handlerIds_.resize(params_.handlers.size());
    for (size_t h = 0; h < params_.handlers.size(); ++h) {
        HandlerSpec &spec = params_.handlers[h];
        if (spec.type != params_.mix[h].type)
            util::fatal("game %s: handler %zu type mismatch with mix",
                        params_.name.c_str(), h);
        int ti = static_cast<int>(spec.type);
        if (handlerIdx_[ti] != -1)
            util::fatal("game %s: duplicate handler for %s",
                        params_.name.c_str(),
                        events::eventTypeName(spec.type));
        handlerIdx_[ti] = static_cast<int>(h);

        const char *tn = events::eventTypeName(spec.type);
        HandlerIds &ids = handlerIds_[h];

        uint32_t size_sum = 0;
        for (auto &efs : spec.event_fields) {
            efs.fid = schema_.addInput(
                std::string(tn) + "." + efs.name,
                events::InputCategory::Event, efs.size_bytes);
            size_sum += efs.size_bytes;
            if (efs.cardinality < 2)
                util::fatal("game %s: field %s.%s cardinality < 2",
                            params_.name.c_str(), tn, efs.name.c_str());
            ids.zipf.push_back(efs.necessary ? zipf_index(efs.cardinality)
                                             : kNone);
        }
        if (size_sum != events::eventObjectBytes(spec.type))
            util::fatal("game %s: %s event fields sum to %u B, object "
                        "is %u B", params_.name.c_str(), tn, size_sum,
                        events::eventObjectBytes(spec.type));

        for (uint32_t j = 0; j < spec.max_history_blocks; ++j) {
            ids.blocks.push_back(schema_.addInput(
                std::string(tn) + ".blk" + std::to_string(j),
                events::InputCategory::History,
                spec.history_block_bytes));
        }
        for (uint32_t j = 0; j < spec.temp_outputs; ++j) {
            ids.temp_out.push_back(schema_.addOutput(
                std::string(tn) + ".t" + std::to_string(j),
                events::OutputCategory::Temp, 16));
        }
        if (!spec.extern_output.empty()) {
            ids.extern_out = schema_.addOutput(
                std::string(tn) + ".xo." + spec.extern_output,
                events::OutputCategory::Extern, 256);
        }

        // Resolve and validate cross-references.
        for (const auto &n : spec.necessary_history) {
            uint32_t i = hist_index(n);
            if (hist[i].isAccumulator())
                util::fatal("game %s: necessary_history %s is an "
                            "accumulator", params_.name.c_str(),
                            n.c_str());
            ids.necessary_hist.push_back(i);
        }
        for (const auto &n : spec.scoring_history) {
            uint32_t i = hist_index(n);
            if (!hist[i].isAccumulator())
                util::fatal("game %s: scoring_history %s is not an "
                            "accumulator", params_.name.c_str(),
                            n.c_str());
            ids.scoring_hist.push_back(i);
        }
        for (const auto &n : spec.history_outputs)
            ids.hist_out.push_back(hist_index(n));
        if (!spec.complexity_field.empty()) {
            ids.complexity = hist_index(spec.complexity_field);
            ids.complexity_is_necessary =
                std::find(ids.necessary_hist.begin(),
                          ids.necessary_hist.end(),
                          ids.complexity) != ids.necessary_hist.end();
        }
        if (!spec.plateau_history_field.empty()) {
            ids.plateau = hist_index(spec.plateau_history_field);
            const auto &d = hist[ids.plateau];
            if (d.isAccumulator())
                util::fatal("game %s: plateau field %s is an "
                            "accumulator", params_.name.c_str(),
                            d.name.c_str());
            for (size_t k = 0; k < spec.event_fields.size(); ++k) {
                const auto &efs = spec.event_fields[k];
                if (efs.name == spec.plateau_event_field && efs.necessary)
                    ids.plateau_event = static_cast<uint32_t>(k);
            }
            if (ids.plateau_event == kNone)
                util::fatal("game %s: plateau event field %s missing "
                            "or not necessary", params_.name.c_str(),
                            spec.plateau_event_field.c_str());
            if (std::find(ids.necessary_hist.begin(),
                          ids.necessary_hist.end(),
                          ids.plateau) == ids.necessary_hist.end())
                util::fatal("game %s: plateau history field %s must "
                            "be in necessary_history",
                            params_.name.c_str(),
                            spec.plateau_history_field.c_str());
        }
        if (!spec.extern_field.empty()) {
            auto it = extern_in.find(spec.extern_field);
            if (it == extern_in.end())
                util::fatal("game %s: unknown extern field %s",
                            params_.name.c_str(),
                            spec.extern_field.c_str());
            ids.extern_in = it->second;
        }
    }

    blockOf_.assign(schema_.size(), kNone);
    for (const auto &ids : handlerIds_)
        for (uint32_t j = 0; j < ids.blocks.size(); ++j)
            blockOf_[ids.blocks[j]] = j;
    zipfCdfs_.resize(zipfCards_.size());
}

double
Game::totalEventRate() const
{
    double total = 0.0;
    for (const auto &m : params_.mix)
        total += m.rate_hz;
    return total;
}

size_t
Game::handlerIndex(events::EventType t) const
{
    int idx = handlerIdx_[static_cast<int>(t)];
    if (idx < 0)
        util::panic("game %s: no handler for %s", params_.name.c_str(),
                    events::eventTypeName(t));
    return static_cast<size_t>(idx);
}

const HandlerSpec &
Game::handler(events::EventType t) const
{
    return params_.handlers[handlerIndex(t)];
}

uint64_t
Game::typeSalt(events::EventType t) const
{
    return util::mixCombine(params_.salt,
                            0x7717e000ULL + static_cast<uint64_t>(t));
}

const std::vector<double> &
Game::zipfCdf(uint32_t index)
{
    std::vector<double> &cdf = zipfCdfs_[index];
    if (!cdf.empty())
        return cdf;
    uint32_t cardinality = zipfCards_[index];
    cdf.resize(cardinality);
    double acc = 0.0;
    for (uint32_t r = 0; r < cardinality; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1),
                              params_.user.zipf_s);
        cdf[r] = acc;
    }
    for (auto &v : cdf)
        v /= acc;
    return cdf;
}

events::EventObject
Game::makeEvent(events::EventType t, double now, util::Rng &rng)
{
    size_t h = handlerIndex(t);
    const HandlerSpec &spec = params_.handlers[h];
    const HandlerIds &ids = handlerIds_[h];
    GenMemory &mem = genMem_[static_cast<int>(t)];

    events::EventObject ev;
    ev.type = t;
    ev.seq = seq_++;
    ev.timestamp = now;

    if (mem.valid && rng.chance(params_.user.exact_repeat_prob)) {
        ev.fields = mem.fields;  // finger held still: exact repeat
        return ev;
    }

    bool burst = mem.valid && rng.chance(params_.user.burst_continue_prob);

    // Two shared micro-context latents drive all noise fields; see
    // UserModelParams::noise_pool.
    auto zipf_draw = [&](uint32_t index) -> uint64_t {
        const auto &cdf = zipfCdf(index);
        uint32_t cardinality = zipfCards_[index];
        double r = rng.uniformReal();
        auto pos = std::lower_bound(cdf.begin(), cdf.end(), r);
        uint64_t v = static_cast<uint64_t>(pos - cdf.begin());
        return v >= cardinality ? cardinality - 1 : v;
    };
    uint64_t latent[2] = {zipf_draw(noiseZipf_), zipf_draw(noiseZipf_)};

    size_t noise_idx = 0;
    ev.fields.reserve(spec.event_fields.size());
    for (size_t k = 0; k < spec.event_fields.size(); ++k) {
        const EventFieldSpec &efs = spec.event_fields[k];
        uint64_t value;
        if (efs.necessary) {
            value = burst ? events::findField(mem.fields, efs.fid)->value
                          : zipf_draw(ids.zipf[k]);
        } else {
            value = util::mixCombine(
                efs.fid, latent[noise_idx++ % 2]);
        }
        ev.fields.push_back({efs.fid, value});
    }
    events::canonicalize(ev.fields);
    mem.valid = true;
    mem.fields = ev.fields;
    return ev;
}

HandlerExecution
Game::process(const events::EventObject &ev) const
{
    int idx = handlerIdx_[static_cast<int>(ev.type)];
    if (idx < 0)
        util::panic("game %s: process() for unhandled type %s",
                    params_.name.c_str(), events::eventTypeName(ev.type));
    const HandlerSpec &spec = params_.handlers[static_cast<size_t>(idx)];
    const HandlerIds &ids = handlerIds_[static_cast<size_t>(idx)];

    const auto &hist = params_.history_fields;
    const uint64_t type_salt = typeSalt(ev.type);

    HandlerExecution ex;
    ex.type = ev.type;
    ex.seq = ev.seq;
    // Upper bounds of what the sections below append.
    ex.inputs.reserve(ev.fields.size() + ids.necessary_hist.size() +
                      ids.blocks.size() + ids.scoring_hist.size() + 2);
    ex.inputs.assign(ev.fields.begin(), ev.fields.end());
    ex.outputs.reserve(ids.temp_out.size() + ids.scoring_hist.size() + 2);

    // --- Necessary-input vector (the ground truth PFI must find) ---
    std::vector<uint64_t> vals;
    vals.reserve(1 + spec.event_fields.size() + ids.necessary_hist.size() +
                 ids.scoring_hist.size());
    vals.push_back(type_salt);
    for (const auto &efs : spec.event_fields) {
        if (efs.necessary)
            vals.push_back(util::mixCombine(efs.fid,
                                            eventValue(ev, efs.fid)));
    }
    for (uint32_t i : ids.necessary_hist) {
        const auto &d = hist[i];
        uint64_t v = state_.get(d.in_fid);
        ex.inputs.push_back({d.in_fid, v});
        vals.push_back(util::mixCombine(d.in_fid, v));
    }
    uint64_t vhash = util::hashWords(vals);
    // necessary_hash continues this FNV-1a pass over the words the
    // scoring branch appends (FNV-1a has no finalizer).
    const size_t vhash_words = vals.size();

    // --- Unnecessary reads: complexity, context blocks, extern ---
    uint64_t complexity = 0;
    if (ids.complexity != kNone) {
        const auto &d = hist[ids.complexity];
        complexity = state_.get(d.in_fid);
        if (!ids.complexity_is_necessary)
            ex.inputs.push_back({d.in_fid, complexity});
        uint32_t blocks = d.buckets
            ? static_cast<uint32_t>(complexity * spec.max_history_blocks /
                                    d.buckets)
            : 0;
        if (spec.max_history_blocks > 0 && blocks == 0)
            blocks = 1;  // even a bare scene has one context block
        blocks = std::min<uint32_t>(blocks, spec.max_history_blocks);
        for (uint32_t j = 0; j < blocks; ++j)
            ex.inputs.push_back({ids.blocks[j], state_.blockContent(j)});
    }
    if (ids.extern_in != events::kInvalidField &&
        util::mixCombine(vhash, kSaltExtIn) % 1000000 <
            spec.extern_per_million) {
        events::FieldId xf = ids.extern_in;
        ex.inputs.push_back({xf, util::mixCombine(params_.salt, xf)});
    }

    // --- Useless (no-op) decision: deterministic in the combo ---
    bool useless = false;
    if (ids.plateau != kNone) {
        const auto &d = hist[ids.plateau];
        const auto &efs = spec.event_fields[ids.plateau_event];
        uint64_t hv = state_.get(d.in_fid);
        uint64_t evv = eventValue(ev, efs.fid);
        if (d.buckets && hv == d.buckets - 1 &&
            evv * 4 >= 3ull * efs.cardinality)
            useless = true;
    }
    useless = useless ||
        util::mixCombine(vhash, kSaltUseless) % 10000 <
            spec.useless_per_myriad;
    ex.useless = useless;

    bool state_changed = false;
    if (!useless) {
        uint64_t pattern = util::mixCombine(vhash, kSaltPattern) %
                           std::max<uint32_t>(1, spec.output_cardinality);
        uint64_t pkey = util::mixCombine(type_salt, pattern + 1);
        bool scoring = util::mixCombine(vhash, kSaltScore) % 100 <
                       spec.scoring_per_cent;
        scoring = scoring && !ids.scoring_hist.empty();
        ex.scoring = scoring;

        for (events::FieldId tf : ids.temp_out)
            ex.outputs.push_back({tf, util::mixCombine(pkey, tf)});
        // Some reactions are render/haptic-only (Out.Temp) and leave
        // the state untouched; otherwise a single event advances
        // only one piece of game state (a tile, the stretch, the
        // detected plane). Both choices, like the written value, are
        // deterministic functions of the necessary-input combo. The
        // written value derives from a *coarsened* pattern so that
        // distinct reactions can share the same state effect while
        // differing in their transient output.
        bool temp_only = util::mixCombine(vhash, kSaltTempOnly) % 100 <
                         spec.temp_only_per_cent;
        if (!ids.hist_out.empty() && !temp_only) {
            size_t which = util::mixCombine(vhash, kSaltWhich) %
                           ids.hist_out.size();
            const auto &d = hist[ids.hist_out[which]];
            uint64_t coarse = util::mixCombine(type_salt, pattern / 4 + 1);
            uint64_t value = util::mixCombine(coarse, d.out_fid);
            ex.outputs.push_back({d.out_fid, value});
            state_changed |= state_.wouldChange(d.out_fid, value);
        }
        if (scoring) {
            uint32_t k = 0;
            for (uint32_t i : ids.scoring_hist) {
                const auto &d = hist[i];
                uint64_t cur = state_.get(d.in_fid);
                ex.inputs.push_back({d.in_fid, cur});
                vals.push_back(util::mixCombine(d.in_fid, cur));
                uint64_t u = util::mixCombine(vhash, kSaltDelta + k++);
                ex.outputs.push_back({d.out_fid, cur + 1 + u % 50});
                state_changed = true;
            }
            if (ids.extern_out != events::kInvalidField &&
                util::mixCombine(vhash, kSaltExtOut) % 5 == 0) {
                ex.outputs.push_back(
                    {ids.extern_out,
                     util::mixCombine(pkey, ids.extern_out)});
            }
        }
    }
    ex.necessary_hash = util::fnv1a(
        vals.data() + vhash_words,
        (vals.size() - vhash_words) * sizeof(uint64_t), vhash);
    ex.state_changed = state_changed;

    // --- Cost model (deterministic in combo + complexity) ---
    uint64_t cu = util::mixCombine(vhash, kSaltCost);
    double spread = 1.0 - spec.minstr_spread +
        2.0 * spec.minstr_spread *
            (static_cast<double>(cu % 1024) / 1024.0);
    double scale = spread *
        (1.0 + spec.complexity_cost_factor *
                   static_cast<double>(complexity)) *
        (ex.scoring ? 1.3 : 1.0);
    ex.cpu_instructions =
        static_cast<uint64_t>(spec.minstr_mean * scale * 1e6);
    ex.ip_calls.reserve(spec.ip_calls.size());
    for (const auto &c : spec.ip_calls)
        ex.ip_calls.push_back({c.kind, c.work_units * scale});
    uint64_t input_bytes = schema_.bytesOf(ex.inputs);
    ex.memory_bytes = static_cast<uint64_t>(
        spec.mem_bytes_factor * static_cast<double>(input_bytes)) +
        ex.cpu_instructions / 16;
    ex.maxcpu_fraction = spec.maxcpu_repeat_fraction;

    events::canonicalize(ex.inputs);
    events::canonicalize(ex.outputs);
    return ex;
}

void
Game::applyOutputs(const std::vector<events::FieldValue> &outputs)
{
    for (const auto &fv : outputs)
        state_.apply(fv.id, fv.value);
}

std::vector<events::FieldId>
Game::necessaryInputIds(events::EventType t) const
{
    size_t h = handlerIndex(t);
    const HandlerSpec &spec = params_.handlers[h];
    const HandlerIds &hids = handlerIds_[h];
    std::vector<events::FieldId> ids;
    for (const auto &efs : spec.event_fields)
        if (efs.necessary)
            ids.push_back(efs.fid);
    for (uint32_t i : hids.necessary_hist)
        ids.push_back(params_.history_fields[i].in_fid);
    for (uint32_t i : hids.scoring_hist)
        ids.push_back(params_.history_fields[i].in_fid);
    std::sort(ids.begin(), ids.end());
    return ids;
}

bool
Game::gatherInputValue(events::FieldId fid, uint64_t &value) const
{
    if (state_.tryGet(fid, value))
        return true;
    if (fid < blockOf_.size() && blockOf_[fid] != kNone) {
        value = state_.blockContent(blockOf_[fid]);
        return true;
    }
    const auto &d = schema_.def(fid);
    if (d.side == events::FieldSide::Input &&
        d.in_cat == events::InputCategory::Extern) {
        value = util::mixCombine(params_.salt, fid);
        return true;
    }
    return false;
}

void
Game::reset()
{
    state_.reset();
    for (auto &m : genMem_)
        m.valid = false;
    seq_ = 0;
}

}  // namespace games
}  // namespace snip
