#include "games/game.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
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

/** FNV-1a offset basis: util::fnv1a's default seed. */
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/**
 * One 64-bit word into a running FNV-1a: the same bytes, in memory
 * order, that util::fnv1a hashes for a word array.
 */
inline uint64_t
fnvWord(uint64_t h, uint64_t w)
{
    unsigned char b[sizeof w];
    std::memcpy(b, &w, sizeof w);
    for (unsigned char c : b) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Whether @p v is in canonical (non-decreasing id) order. */
[[maybe_unused]] bool
idSorted(const std::vector<events::FieldValue> &v)
{
    return std::is_sorted(v.begin(), v.end(),
                          [](const events::FieldValue &a,
                             const events::FieldValue &b) {
                              return a.id < b.id;
                          });
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
        if (!spec.complexity_field.empty())
            ids.complexity = hist_index(spec.complexity_field);
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

        // Compiled layout: the history reads in the order a handler
        // makes them (necessary, complexity, scoring), sorted by id;
        // the complexity field is read once when it is also
        // necessary. Each entry goes in after those with an equal id,
        // which is what a stable sort of the reads gives.
        ids.type_salt = typeSalt(spec.type);
        ids.hash_seed = fnvWord(kFnvOffset, ids.type_salt);
        ids.hist_in.reserve(ids.necessary_hist.size() + 1 +
                            ids.scoring_hist.size());
        auto hist_input = [&](uint32_t i, HistRole role) {
            events::FieldId fid = hist[i].in_fid;
            auto at = std::upper_bound(
                ids.hist_in.begin(), ids.hist_in.end(), fid,
                [](events::FieldId f, const HistInput &e) {
                    return f < e.fid;
                });
            ids.hist_in.insert(at, {fid, hist[i].size_bytes, role});
        };
        for (uint32_t i : ids.necessary_hist)
            hist_input(i, HistRole::Necessary);
        if (ids.complexity != kNone &&
            std::find(ids.necessary_hist.begin(), ids.necessary_hist.end(),
                      ids.complexity) == ids.necessary_hist.end())
            hist_input(ids.complexity, HistRole::Complexity);
        for (uint32_t i : ids.scoring_hist)
            hist_input(i, HistRole::Scoring);
        ids.scoring_out.reserve(ids.scoring_hist.size());
        for (uint32_t k = 0; k < ids.scoring_hist.size(); ++k) {
            const auto &d = hist[ids.scoring_hist[k]];
            auto at = std::upper_bound(
                ids.scoring_out.begin(), ids.scoring_out.end(), d.out_fid,
                [](events::FieldId f, const ScoringOutput &e) {
                    return f < e.out_fid;
                });
            ids.scoring_out.insert(at, {d.in_fid, d.out_fid, k});
        }
        ids.max_inputs = ids.hist_in.size() + spec.event_fields.size() +
                         ids.blocks.size() + 1;
        ids.max_outputs = ids.scoring_out.size() + ids.temp_out.size() + 2;
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

void
Game::makeEvent(events::EventType t, double now, util::Rng &rng,
                events::EventObject &ev)
{
    size_t h = handlerIndex(t);
    const HandlerSpec &spec = params_.handlers[h];
    const HandlerIds &ids = handlerIds_[h];
    GenMemory &mem = genMem_[static_cast<int>(t)];

    ev.type = t;
    ev.seq = seq_++;
    ev.timestamp = now;

    if (mem.valid && rng.chance(params_.user.exact_repeat_prob)) {
        ev.fields = mem.fields;  // finger held still: exact repeat
        return;
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

    // Event field ids were registered in spec order, so writing by
    // position emits the canonical layout (a burst's memory has the
    // same layout).
    size_t noise_idx = 0;
    ev.fields.resize(spec.event_fields.size());
    for (size_t k = 0; k < spec.event_fields.size(); ++k) {
        const EventFieldSpec &efs = spec.event_fields[k];
        uint64_t value;
        if (efs.necessary) {
            value = burst ? mem.fields[k].value : zipf_draw(ids.zipf[k]);
        } else {
            value = util::mixCombine(
                efs.fid, latent[noise_idx++ % 2]);
        }
        ev.fields[k] = {efs.fid, value};
    }
    assert(idSorted(ev.fields));
    mem.valid = true;
    mem.fields = ev.fields;
}

events::EventObject
Game::makeEvent(events::EventType t, double now, util::Rng &rng)
{
    events::EventObject ev;
    makeEvent(t, now, rng, ev);
    return ev;
}

util::Status
Game::checkEvent(const events::EventObject &ev) const
{
    int ti = static_cast<int>(ev.type);
    if (ti < 0 || ti >= events::kNumEventTypes || handlerIdx_[ti] < 0)
        return util::Status::Errorf("game %s: event seq %llu has "
                                    "unhandled type %d",
                                    params_.name.c_str(),
                                    static_cast<unsigned long long>(
                                        ev.seq), ti);
    const HandlerSpec &spec =
        params_.handlers[static_cast<size_t>(handlerIdx_[ti])];
    const char *tn = events::eventTypeName(ev.type);
    if (ev.fields.size() != spec.event_fields.size())
        return util::Status::Errorf(
            "game %s: %s event seq %llu has %zu fields, its layout "
            "has %zu", params_.name.c_str(), tn,
            static_cast<unsigned long long>(ev.seq), ev.fields.size(),
            spec.event_fields.size());
    for (size_t k = 0; k < ev.fields.size(); ++k) {
        if (ev.fields[k].id != spec.event_fields[k].fid)
            return util::Status::Errorf(
                "game %s: %s event seq %llu field %zu has id %u, its "
                "layout has %u", params_.name.c_str(), tn,
                static_cast<unsigned long long>(ev.seq), k,
                ev.fields[k].id, spec.event_fields[k].fid);
    }
    return util::Status::Ok();
}

void
Game::process(const events::EventObject &ev, HandlerExecution &ex) const
{
    int idx = handlerIdx_[static_cast<int>(ev.type)];
    if (idx < 0)
        util::panic("game %s: process() for unhandled type %s",
                    params_.name.c_str(), events::eventTypeName(ev.type));
    const HandlerSpec &spec = params_.handlers[static_cast<size_t>(idx)];
    const HandlerIds &ids = handlerIds_[static_cast<size_t>(idx)];
    const auto &hist = params_.history_fields;

    // --- Necessary-input hash (the ground truth PFI must find) ---
    // One running FNV-1a over the type salt (hash_seed), the
    // necessary event fields and the necessary history fields; the
    // scoring branch continues it into necessary_hash. In.Event
    // values are read by position, after one id compare each.
    const size_t nfields = spec.event_fields.size();
    if (ev.fields.size() != nfields)
        util::panic("event %s has %zu fields, its layout has %zu",
                    events::eventTypeName(ev.type), ev.fields.size(),
                    nfields);
    uint64_t vhash = ids.hash_seed;
    for (size_t k = 0; k < nfields; ++k) {
        const EventFieldSpec &efs = spec.event_fields[k];
        if (ev.fields[k].id != efs.fid)
            util::panic("event %s missing field id %u",
                        events::eventTypeName(ev.type), efs.fid);
        if (efs.necessary)
            vhash = fnvWord(vhash, util::mixCombine(
                                       efs.fid, ev.fields[k].value));
    }
    for (uint32_t i : ids.necessary_hist) {
        events::FieldId fid = hist[i].in_fid;
        vhash = fnvWord(vhash, util::mixCombine(fid, state_.get(fid)));
    }

    // --- Unnecessary reads: complexity, context blocks, extern ---
    uint64_t complexity = 0;
    uint32_t blocks = 0;
    if (ids.complexity != kNone) {
        const auto &d = hist[ids.complexity];
        complexity = state_.get(d.in_fid);
        blocks = d.buckets
            ? static_cast<uint32_t>(complexity * spec.max_history_blocks /
                                    d.buckets)
            : 0;
        if (spec.max_history_blocks > 0 && blocks == 0)
            blocks = 1;  // even a bare scene has one context block
        blocks = std::min<uint32_t>(blocks, spec.max_history_blocks);
    }
    bool extern_read = ids.extern_in != events::kInvalidField &&
        util::mixCombine(vhash, kSaltExtIn) % 1000000 <
            spec.extern_per_million;

    // --- Useless (no-op) decision: deterministic in the combo ---
    bool useless = false;
    if (ids.plateau != kNone) {
        const auto &d = hist[ids.plateau];
        const auto &efs = spec.event_fields[ids.plateau_event];
        uint64_t hv = state_.get(d.in_fid);
        uint64_t evv = ev.fields[ids.plateau_event].value;
        if (d.buckets && hv == d.buckets - 1 &&
            evv * 4 >= 3ull * efs.cardinality)
            useless = true;
    }
    useless = useless ||
        util::mixCombine(vhash, kSaltUseless) % 10000 <
            spec.useless_per_myriad;

    ex.type = ev.type;
    ex.seq = ev.seq;
    ex.useless = useless;
    ex.scoring = false;
    // Reserving the handler's largest record bounds the growth of
    // reused storage by the number of handlers, not by the events.
    ex.outputs.clear();
    ex.outputs.reserve(ids.max_outputs);
    uint64_t necessary_hash = vhash;
    bool state_changed = false;
    if (!useless) {
        uint64_t pattern = util::mixCombine(vhash, kSaltPattern) %
                           std::max<uint32_t>(1, spec.output_cardinality);
        uint64_t pkey = util::mixCombine(ids.type_salt, pattern + 1);
        bool scoring = util::mixCombine(vhash, kSaltScore) % 100 <
                       spec.scoring_per_cent;
        scoring = scoring && !ids.scoring_hist.empty();
        ex.scoring = scoring;

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
        events::FieldValue write;
        if (!ids.hist_out.empty() && !temp_only) {
            size_t which = util::mixCombine(vhash, kSaltWhich) %
                           ids.hist_out.size();
            const auto &d = hist[ids.hist_out[which]];
            uint64_t coarse =
                util::mixCombine(ids.type_salt, pattern / 4 + 1);
            write = {d.out_fid, util::mixCombine(coarse, d.out_fid)};
            state_changed = state_.wouldChange(write.id, write.value);
        }

        // Out.History in id order: the scoring writes, with the
        // state write ahead of any scoring write to the same id.
        if (scoring) {
            for (uint32_t i : ids.scoring_hist) {
                events::FieldId fid = hist[i].in_fid;
                necessary_hash = fnvWord(
                    necessary_hash,
                    util::mixCombine(fid, state_.get(fid)));
            }
            for (const ScoringOutput &so : ids.scoring_out) {
                if (write.id != events::kInvalidField &&
                    write.id <= so.out_fid) {
                    ex.outputs.push_back(write);
                    write.id = events::kInvalidField;
                }
                uint64_t u = util::mixCombine(vhash, kSaltDelta + so.k);
                ex.outputs.push_back(
                    {so.out_fid, state_.get(so.in_fid) + 1 + u % 50});
            }
            state_changed = true;
        }
        if (write.id != events::kInvalidField)
            ex.outputs.push_back(write);
        for (events::FieldId tf : ids.temp_out)
            ex.outputs.push_back({tf, util::mixCombine(pkey, tf)});
        if (scoring && ids.extern_out != events::kInvalidField &&
            util::mixCombine(vhash, kSaltExtOut) % 5 == 0) {
            ex.outputs.push_back(
                {ids.extern_out, util::mixCombine(pkey, ids.extern_out)});
        }
    }
    ex.necessary_hash = necessary_hash;
    ex.state_changed = state_changed;

    // --- Inputs in id order: history, extern, event, blocks ---
    ex.inputs.clear();
    ex.inputs.reserve(ids.max_inputs);
    uint64_t input_bytes = 0;
    for (const HistInput &hi : ids.hist_in) {
        if (hi.role == HistRole::Scoring && !ex.scoring)
            continue;
        ex.inputs.push_back({hi.fid, state_.get(hi.fid)});
        input_bytes += hi.size_bytes;
    }
    if (extern_read) {
        events::FieldId xf = ids.extern_in;
        ex.inputs.push_back({xf, util::mixCombine(params_.salt, xf)});
        input_bytes += params_.extern_bytes;
    }
    ex.inputs.insert(ex.inputs.end(), ev.fields.begin(), ev.fields.end());
    input_bytes += events::eventObjectBytes(ev.type);
    for (uint32_t j = 0; j < blocks; ++j)
        ex.inputs.push_back({ids.blocks[j], state_.blockContent(j)});
    input_bytes += static_cast<uint64_t>(blocks) * spec.history_block_bytes;
    assert(idSorted(ex.inputs));
    assert(idSorted(ex.outputs));

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
    ex.ip_calls.clear();
    ex.ip_calls.reserve(spec.ip_calls.size());
    for (const auto &c : spec.ip_calls)
        ex.ip_calls.push_back({c.kind, c.work_units * scale});
    ex.memory_bytes = static_cast<uint64_t>(
        spec.mem_bytes_factor * static_cast<double>(input_bytes)) +
        ex.cpu_instructions / 16;
    ex.maxcpu_fraction = spec.maxcpu_repeat_fraction;
}

HandlerExecution
Game::process(const events::EventObject &ev) const
{
    HandlerExecution ex;
    process(ev, ex);
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
