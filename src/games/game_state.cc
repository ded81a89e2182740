#include "games/game_state.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace games {

void
GameState::build(const std::vector<HistoryFieldDecl> &decls)
{
    events::FieldId in_end = 0, out_end = 0;
    for (const auto &d : decls) {
        if (d.in_fid == events::kInvalidField ||
            d.out_fid == events::kInvalidField) {
            util::panic("GameState::build: field %s has unbound ids",
                        d.name.c_str());
        }
        in_end = std::max(in_end, d.in_fid + 1);
        out_end = std::max(out_end, d.out_fid + 1);
    }
    slots_.assign(in_end, Slot{});
    outToIn_.assign(out_end, events::kInvalidField);
    boundedOrder_.clear();
    epoch_ = 0;
    for (const auto &d : decls) {
        uint64_t init = d.buckets ? d.init % d.buckets : d.init;
        slots_[d.in_fid] = Slot{init, d.buckets, true, init};
        outToIn_[d.out_fid] = d.in_fid;
        if (!d.isAccumulator())
            boundedOrder_.push_back(d.in_fid);
    }
    std::sort(boundedOrder_.begin(), boundedOrder_.end());
    fp_ = computeFingerprint();
    refreshedFp_ = fp_;
}

uint64_t
GameState::get(events::FieldId in_fid) const
{
    if (!isSlot(in_fid))
        util::panic("GameState::get: unknown history field id %u", in_fid);
    return slots_[in_fid].value;
}

bool
GameState::tryGet(events::FieldId in_fid, uint64_t &value) const
{
    if (!isSlot(in_fid))
        return false;
    value = slots_[in_fid].value;
    return true;
}

bool
GameState::apply(events::FieldId out_fid, uint64_t value)
{
    events::FieldId in_fid = inputOf(out_fid);
    if (in_fid == events::kInvalidField)
        return false;  // Out.Temp / Out.Extern: not state.
    Slot &slot = slots_[in_fid];
    uint64_t stored = slot.buckets ? value % slot.buckets : value;
    if (slot.value == stored)
        return false;
    slot.value = stored;
    ++epoch_;
    fp_ = computeFingerprint();
    if (epoch_ % kBlockRefreshPeriod == 0)
        refreshedFp_ = fp_;
    return true;
}

bool
GameState::isHistoryOutput(events::FieldId out_fid) const
{
    return inputOf(out_fid) != events::kInvalidField;
}

bool
GameState::wouldChange(events::FieldId out_fid, uint64_t value) const
{
    events::FieldId in_fid = inputOf(out_fid);
    if (in_fid == events::kInvalidField)
        return false;
    const Slot &slot = slots_[in_fid];
    uint64_t stored = slot.buckets ? value % slot.buckets : value;
    return slot.value != stored;
}

uint64_t
GameState::boundedFingerprint() const
{
    return fp_;
}

uint64_t
GameState::computeFingerprint() const
{
    uint64_t h = 0xf19e0000ULL;
    for (events::FieldId fid : boundedOrder_)
        h = util::mixCombine(h,
                             util::mixCombine(fid, slots_[fid].value));
    return h;
}

uint64_t
GameState::blockContent(uint32_t index) const
{
    return util::mixCombine(refreshedFp_, 0xb10c0000ULL + index);
}

void
GameState::reset()
{
    for (auto &slot : slots_)
        slot.value = slot.init;
    epoch_ = 0;
    fp_ = computeFingerprint();
    refreshedFp_ = fp_;
}

}  // namespace games
}  // namespace snip
