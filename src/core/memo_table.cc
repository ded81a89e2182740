#include "core/memo_table.h"

#include <algorithm>

#include "core/frozen_table.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {

uint64_t
eventSubkey(SelectedSet sel,
            const std::vector<events::FieldValue> &fields)
{
    uint64_t h = 0xe4e27000ULL;
    for (uint32_t i = 0; i < sel.size; ++i) {
        if (!sel.is_event[i])
            continue;
        events::FieldId fid = sel.ids[i];
        const events::FieldValue *fv = events::findField(fields, fid);
        // Mix an explicit presence bit instead of a sentinel value:
        // a missing field must never hash like any real value
        // (UINT64_MAX is legitimate field content).
        uint64_t present = fv ? 1 : 0;
        uint64_t v = fv ? fv->value : 0;
        h = util::mixCombine(
            h, util::mixCombine(fid, util::mixCombine(present, v)));
    }
    return h;
}

void
gatherSelected(SelectedSet sel, const events::EventObject &ev,
               const games::Game &game, LookupScratch &scratch)
{
    // resize only grows capacity the first time a type this wide is
    // gathered.
    scratch.values.resize(sel.size);
    scratch.present.resize(sel.size);
    for (uint32_t i = 0; i < sel.size; ++i) {
        events::FieldId fid = sel.ids[i];
        if (sel.is_event[i]) {
            const events::FieldValue *fv =
                events::findField(ev.fields, fid);
            scratch.present[i] = fv != nullptr;
            scratch.values[i] = fv ? fv->value : 0;
        } else {
            uint64_t v = 0;
            scratch.present[i] = game.gatherInputValue(fid, v);
            scratch.values[i] = v;
        }
    }
}

void
projectRecord(SelectedSet sel,
              const std::vector<events::FieldValue> &inputs,
              ProjectedKey &key)
{
    // The two-pointer projection below requires inputs sorted by id;
    // records from non-canonical producers get a sorted local copy
    // (an unsorted record must not silently drop key fields).
    const std::vector<events::FieldValue> *in = &inputs;
    std::vector<events::FieldValue> sorted;
    if (!std::is_sorted(inputs.begin(), inputs.end(),
                        [](const events::FieldValue &a,
                           const events::FieldValue &b) {
                            return a.id < b.id;
                        })) {
        sorted = inputs;
        events::canonicalize(sorted);
        in = &sorted;
    }

    key.fields.clear();
    key.slots.clear();
    uint32_t si = 0;
    for (const auto &fv : *in) {
        while (si < sel.size && sel.ids[si] < fv.id)
            ++si;
        if (si < sel.size && sel.ids[si] == fv.id) {
            key.fields.push_back(fv);
            key.slots.push_back(si);
        }
    }
    key.subkey = eventSubkey(sel, *in);
}

MemoTable::MemoTable(const events::FieldSchema &schema)
    : schema_(schema)
{
}

void
MemoTable::setSelected(events::EventType type,
                       std::vector<events::FieldId> selected)
{
    TypeTable &tt = types_[static_cast<int>(type)];
    if (tt.entries)
        util::fatal("MemoTable::setSelected(%s) after inserts; clear() "
                    "first", events::eventTypeName(type));
    std::sort(selected.begin(), selected.end());
    tt.selected = std::move(selected);
    tt.selected_is_event.clear();
    tt.selected_bytes = 0;
    for (events::FieldId fid : tt.selected) {
        const auto &d = schema_.def(fid);
        tt.selected_bytes += d.size_bytes;
        tt.selected_is_event.push_back(
            d.side == events::FieldSide::Input &&
            d.in_cat == events::InputCategory::Event);
    }
}

const std::vector<events::FieldId> &
MemoTable::selected(events::EventType type) const
{
    return types_[static_cast<int>(type)].selected;
}

uint64_t
MemoTable::selectedBytes(events::EventType type) const
{
    return types_[static_cast<int>(type)].selected_bytes;
}

void
MemoTable::insert(const games::HandlerExecution &rec)
{
    projectRecord(selectedSet(rec.type), rec.inputs, insertScratch_);
    insertKey(rec.type, insertScratch_, rec.outputs);
}

bool
MemoTable::insertKey(events::EventType type, const ProjectedKey &key,
                     const std::vector<events::FieldValue> &outputs)
{
    TypeTable &tt = types_[static_cast<int>(type)];
    if (tt.selected.empty())
        return false;  // type not deployed

    auto &bucket = tt.buckets[key.subkey];
    for (const auto &e : bucket) {
        if (e.key_fields == key.fields)
            return false;  // already memoized (append-only semantics)
    }
    MemoEntry entry;
    entry.key_fields = key.fields;
    entry.key_slots = key.slots;
    entry.outputs = outputs;
    uint64_t bytes = 0;
    for (const auto &fv : entry.key_fields)
        bytes += schema_.def(fv.id).size_bytes;
    for (const auto &fv : entry.outputs)
        bytes += schema_.def(fv.id).size_bytes;
    entry.entry_bytes = static_cast<uint32_t>(bytes);
    tt.bytes += bytes + kEntryHeaderBytes;
    ++tt.entries;
    bucket.push_back(std::move(entry));
    return true;
}

MemoLookup
MemoTable::lookup(const events::EventObject &ev, uint64_t subkey,
                  const games::Game &game, LookupScratch &scratch,
                  bool gathered) const
{
    const TypeTable &tt = types_[static_cast<int>(ev.type)];
    MemoLookup res;
    if (tt.selected.empty())
        return res;

    // Gathering the necessary inputs costs their size even when the
    // table has no candidates (they must be loaded to compare).
    res.bytes_scanned = tt.selected_bytes;

    auto it = tt.buckets.find(subkey);
    if (it == tt.buckets.end())
        return res;

    if (!gathered)
        gatherSelected(tt.selectedSet(), ev, game, scratch);
    for (const MemoEntry &e : it->second) {
        ++res.candidates;
        res.bytes_scanned += e.entry_bytes + kEntryHeaderBytes;
        bool match = true;
        size_t nk = e.key_fields.size();
        for (size_t j = 0; j < nk; ++j) {
            uint32_t slot = e.key_slots[j];
            if (!scratch.present[slot] ||
                scratch.values[slot] != e.key_fields[j].value) {
                match = false;
                break;
            }
        }
        if (match) {
            res.hit = true;
            res.entry = &e;
            return res;
        }
    }
    return res;
}

std::shared_ptr<const FrozenTable>
MemoTable::freeze() const
{
    return FrozenTable::freeze(*this);
}

void
MemoTable::visitEntries(
    events::EventType type,
    const std::function<void(uint64_t, const MemoEntry &)> &fn) const
{
    const TypeTable &tt = types_[static_cast<int>(type)];
    std::vector<uint64_t> subkeys;
    subkeys.reserve(tt.buckets.size());
    for (const auto &kv : tt.buckets)
        subkeys.push_back(kv.first);
    std::sort(subkeys.begin(), subkeys.end());
    for (uint64_t sk : subkeys)
        for (const MemoEntry &e : tt.buckets.at(sk))
            fn(sk, e);
}

void
MemoTable::mergeFrom(const MemoTable &other)
{
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        events::EventType type = static_cast<events::EventType>(t);
        other.visitEntries(
            type, [&](uint64_t, const MemoEntry &e) {
                games::HandlerExecution rec;
                rec.type = type;
                rec.inputs = e.key_fields;  // already canonical order
                rec.outputs = e.outputs;
                insert(rec);
            });
    }
}

size_t
MemoTable::entryCount() const
{
    size_t n = 0;
    for (const auto &tt : types_)
        n += tt.entries;
    return n;
}

size_t
MemoTable::entryCount(events::EventType type) const
{
    return types_[static_cast<int>(type)].entries;
}

uint64_t
MemoTable::totalBytes() const
{
    uint64_t n = 0;
    for (const auto &tt : types_)
        n += tt.bytes;
    return n;
}

void
MemoTable::recordStats(obs::Registry &reg) const
{
    uint64_t selected_bytes = 0;
    uint64_t configured = 0;
    for (const auto &tt : types_) {
        if (tt.selected.empty())
            continue;
        ++configured;
        selected_bytes += tt.selected_bytes;
    }
    reg.gauge("table.entries")
        .set(static_cast<double>(entryCount()));
    reg.gauge("table.bytes").set(static_cast<double>(totalBytes()));
    reg.gauge("table.selected_bytes")
        .set(static_cast<double>(selected_bytes));
    reg.gauge("table.types_configured")
        .set(static_cast<double>(configured));
    reg.gauge("table.layout").set(0.0);
}

void
MemoTable::clear()
{
    for (auto &tt : types_) {
        tt.buckets.clear();
        tt.entries = 0;
        tt.bytes = 0;
    }
}

}  // namespace core
}  // namespace snip
