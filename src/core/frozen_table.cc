#include "core/frozen_table.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace snip {
namespace core {

namespace {

/** Fixed arena header: magic, version, total_size, ntypes,
 *  total_entries, total_bytes. */
constexpr size_t kHeaderBytes = 32;
/** Per-type directory record: 4 u32 + 2 u64 scalars + 10 u32
 *  offsets (see writeArena for the field order). */
constexpr size_t kTypeRecBytes = 72;
/** Index slot: u64 subkey + u32 begin + u32 count. */
constexpr size_t kSlotBytes = 16;

uint32_t
readU32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

uint64_t
readU64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

void
writeU32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, 4);
}

void
writeU64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, 8);
}

size_t
align8(size_t off)
{
    return (off + 7) & ~size_t{7};
}

/** One type's gathered build-side data, pre-layout. */
struct TypeBuild {
    int type = 0;
    std::vector<events::FieldId> selected;
    std::vector<uint8_t> is_event;
    uint64_t selected_bytes = 0;
    uint64_t type_bytes = 0;
    /** Canonical-order entries grouped into buckets. */
    std::vector<uint64_t> bucket_subkeys;
    std::vector<uint32_t> bucket_begin;
    std::vector<uint32_t> bucket_count;
    std::vector<uint32_t> key_off;  // prefix, [nentries + 1]
    std::vector<uint32_t> out_off;
    std::vector<uint32_t> key_slots;
    std::vector<uint64_t> key_values;
    std::vector<events::FieldId> out_ids;
    std::vector<uint64_t> out_values;
    std::vector<uint32_t> entry_bytes;
    uint32_t capacity = 0;
};

}  // namespace

std::shared_ptr<const FrozenTable>
FrozenTable::freeze(const MemoTable &table)
{
    const events::FieldSchema &schema = table.schema();

    std::vector<TypeBuild> builds;
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        events::EventType type = static_cast<events::EventType>(t);
        const auto &selected = table.selected(type);
        if (selected.empty())
            continue;
        TypeBuild b;
        b.type = t;
        b.selected = selected;
        b.selected_bytes = table.selectedBytes(type);
        for (events::FieldId fid : selected) {
            const auto &d = schema.def(fid);
            b.is_event.push_back(
                d.side == events::FieldSide::Input &&
                d.in_cat == events::InputCategory::Event);
        }
        b.key_off.push_back(0);
        b.out_off.push_back(0);
        uint64_t prev_subkey = 0;
        uint32_t nentries = 0;
        table.visitEntries(type, [&](uint64_t subkey,
                                     const MemoEntry &e) {
            if (b.bucket_subkeys.empty() || subkey != prev_subkey) {
                b.bucket_subkeys.push_back(subkey);
                b.bucket_begin.push_back(nentries);
                b.bucket_count.push_back(0);
                prev_subkey = subkey;
            }
            ++b.bucket_count.back();
            for (size_t k = 0; k < e.key_fields.size(); ++k) {
                b.key_slots.push_back(e.key_slots[k]);
                b.key_values.push_back(e.key_fields[k].value);
            }
            for (const auto &fv : e.outputs) {
                b.out_ids.push_back(fv.id);
                b.out_values.push_back(fv.value);
            }
            b.key_off.push_back(
                static_cast<uint32_t>(b.key_slots.size()));
            b.out_off.push_back(
                static_cast<uint32_t>(b.out_ids.size()));
            b.entry_bytes.push_back(e.entry_bytes);
            b.type_bytes +=
                e.entry_bytes + MemoTable::kEntryHeaderBytes;
            ++nentries;
        });
        // Load factor <= 0.5: capacity = smallest power of two >=
        // max(4, 2 x buckets). Deterministic, so the arena is a pure
        // function of the canonical entry order.
        b.capacity = 4;
        while (b.capacity <
               2 * static_cast<uint32_t>(b.bucket_subkeys.size()))
            b.capacity <<= 1;
        builds.push_back(std::move(b));
    }

    // Pass 1: layout. Every u64 array lands on an 8-aligned offset
    // (the arena base itself is always 8-aligned in memory).
    size_t off = kHeaderBytes + builds.size() * kTypeRecBytes;
    struct TypeOffsets {
        uint32_t selected, flags, index, key_off, out_off, key_slots,
            key_values, out_ids, out_values, entry_bytes;
    };
    std::vector<TypeOffsets> offsets(builds.size());
    for (size_t i = 0; i < builds.size(); ++i) {
        const TypeBuild &b = builds[i];
        TypeOffsets &o = offsets[i];
        size_t nsel = b.selected.size();
        size_t ne = b.entry_bytes.size();
        o.selected = static_cast<uint32_t>(off);
        off += nsel * 4;
        o.flags = static_cast<uint32_t>(off);
        off = align8(off + nsel);
        o.index = static_cast<uint32_t>(off);
        off += static_cast<size_t>(b.capacity) * kSlotBytes;
        o.key_off = static_cast<uint32_t>(off);
        off += (ne + 1) * 4;
        o.out_off = static_cast<uint32_t>(off);
        off = align8(off + (ne + 1) * 4);
        o.key_values = static_cast<uint32_t>(off);
        off += b.key_values.size() * 8;
        o.out_values = static_cast<uint32_t>(off);
        off += b.out_values.size() * 8;
        o.key_slots = static_cast<uint32_t>(off);
        off += b.key_slots.size() * 4;
        o.out_ids = static_cast<uint32_t>(off);
        off += b.out_ids.size() * 4;
        o.entry_bytes = static_cast<uint32_t>(off);
        off = align8(off + ne * 4);
    }
    size_t total_size = off;

    // Pass 2: fill. u64-backed storage keeps the base 8-aligned.
    auto ft = std::shared_ptr<FrozenTable>(new FrozenTable());
    ft->owned_.assign((total_size + 7) / 8, 0);
    uint8_t *base = reinterpret_cast<uint8_t *>(ft->owned_.data());

    uint64_t total_entries = 0, total_bytes = 0;
    for (const TypeBuild &b : builds) {
        total_entries += b.entry_bytes.size();
        total_bytes += b.type_bytes;
    }
    writeU32(base + 0, kFrozenMagic);
    writeU32(base + 4, kFrozenVersion);
    writeU32(base + 8, static_cast<uint32_t>(total_size));
    writeU32(base + 12, static_cast<uint32_t>(builds.size()));
    writeU64(base + 16, total_entries);
    writeU64(base + 24, total_bytes);

    for (size_t i = 0; i < builds.size(); ++i) {
        const TypeBuild &b = builds[i];
        const TypeOffsets &o = offsets[i];
        uint8_t *rec = base + kHeaderBytes + i * kTypeRecBytes;
        writeU32(rec + 0, static_cast<uint32_t>(b.type));
        writeU32(rec + 4, static_cast<uint32_t>(b.selected.size()));
        writeU32(rec + 8, b.capacity);
        writeU32(rec + 12,
                 static_cast<uint32_t>(b.entry_bytes.size()));
        writeU64(rec + 16, b.selected_bytes);
        writeU64(rec + 24, b.type_bytes);
        writeU32(rec + 32, o.selected);
        writeU32(rec + 36, o.flags);
        writeU32(rec + 40, o.index);
        writeU32(rec + 44, o.key_off);
        writeU32(rec + 48, o.out_off);
        writeU32(rec + 52, o.key_slots);
        writeU32(rec + 56, o.key_values);
        writeU32(rec + 60, o.out_ids);
        writeU32(rec + 64, o.out_values);
        writeU32(rec + 68, o.entry_bytes);

        for (size_t k = 0; k < b.selected.size(); ++k) {
            writeU32(base + o.selected + k * 4, b.selected[k]);
            base[o.flags + k] = b.is_event[k];
        }
        // Buckets placed in ascending-subkey order with linear
        // probing: a deterministic function of the bucket set.
        uint32_t mask = b.capacity - 1;
        for (size_t bk = 0; bk < b.bucket_subkeys.size(); ++bk) {
            uint32_t slot =
                static_cast<uint32_t>(b.bucket_subkeys[bk]) & mask;
            while (readU32(base + o.index + slot * kSlotBytes + 12))
                slot = (slot + 1) & mask;
            uint8_t *s = base + o.index + slot * kSlotBytes;
            writeU64(s, b.bucket_subkeys[bk]);
            writeU32(s + 8, b.bucket_begin[bk]);
            writeU32(s + 12, b.bucket_count[bk]);
        }
        for (size_t k = 0; k < b.key_off.size(); ++k)
            writeU32(base + o.key_off + k * 4, b.key_off[k]);
        for (size_t k = 0; k < b.out_off.size(); ++k)
            writeU32(base + o.out_off + k * 4, b.out_off[k]);
        for (size_t k = 0; k < b.key_slots.size(); ++k)
            writeU32(base + o.key_slots + k * 4, b.key_slots[k]);
        for (size_t k = 0; k < b.key_values.size(); ++k)
            writeU64(base + o.key_values + k * 8, b.key_values[k]);
        for (size_t k = 0; k < b.out_ids.size(); ++k)
            writeU32(base + o.out_ids + k * 4, b.out_ids[k]);
        for (size_t k = 0; k < b.out_values.size(); ++k)
            writeU64(base + o.out_values + k * 8, b.out_values[k]);
        for (size_t k = 0; k < b.entry_bytes.size(); ++k)
            writeU32(base + o.entry_bytes + k * 4, b.entry_bytes[k]);
    }

    ft->data_ = base;
    ft->size_ = total_size;
    ft->schema_ = schema;
    util::Status st = ft->decode(schema);
    if (!st.ok())
        util::panic("FrozenTable::freeze produced an invalid arena: "
                    "%s", st.message().c_str());
    return ft;
}

util::Result<std::shared_ptr<const FrozenTable>>
FrozenTable::attach(const uint8_t *data, size_t size,
                    std::shared_ptr<const void> owner,
                    const events::FieldSchema &schema)
{
    auto ft = std::shared_ptr<FrozenTable>(new FrozenTable());
    if (reinterpret_cast<uintptr_t>(data) % 8 == 0) {
        ft->data_ = data;
        ft->size_ = size;
        ft->owner_ = std::move(owner);
    } else {
        // Misaligned backing buffer: one aligned copy, still no
        // per-entry work.
        ft->owned_.assign((size + 7) / 8, 0);
        std::memcpy(ft->owned_.data(), data, size);
        ft->data_ = reinterpret_cast<uint8_t *>(ft->owned_.data());
        ft->size_ = size;
    }
    ft->schema_ = schema;
    util::Status st = ft->decode(schema);
    if (!st.ok())
        return st;
    return util::Result<std::shared_ptr<const FrozenTable>>(
        std::shared_ptr<const FrozenTable>(std::move(ft)));
}

util::Status
FrozenTable::decode(const events::FieldSchema &schema)
{
    const uint8_t *base = data_;
    const size_t size = size_;
    if (size < kHeaderBytes)
        return util::Status::Error("frozen: truncated header");
    if (readU32(base) != kFrozenMagic)
        return util::Status::Errorf("frozen: bad magic 0x%08x",
                                    readU32(base));
    if (readU32(base + 4) != kFrozenVersion)
        return util::Status::Errorf("frozen: unsupported version %u",
                                    readU32(base + 4));
    if (readU32(base + 8) != size)
        return util::Status::Errorf(
            "frozen: arena size %u does not match section size %zu",
            readU32(base + 8), size);
    uint32_t ntypes = readU32(base + 12);
    if (ntypes > events::kNumEventTypes)
        return util::Status::Errorf("frozen: %u types out of range",
                                    ntypes);
    if (kHeaderBytes + static_cast<size_t>(ntypes) * kTypeRecBytes >
        size)
        return util::Status::Error("frozen: truncated directory");
    uint64_t total_entries = readU64(base + 16);
    uint64_t total_bytes = readU64(base + 24);

    // A span check: count elements of elem bytes at off, all inside
    // the arena and aligned for the typed view over them (the view
    // reinterprets the bytes directly, so misalignment would be UB).
    auto span = [&](uint64_t off, uint64_t count, uint64_t elem,
                    uint64_t align) {
        return off <= size && count <= (size - off) / elem &&
               off % align == 0;
    };

    uint64_t sum_entries = 0, sum_bytes = 0;
    int prev_type = -1;
    uint32_t entry_base = 0;
    for (uint32_t i = 0; i < ntypes; ++i) {
        const uint8_t *rec = base + kHeaderBytes + i * kTypeRecBytes;
        uint32_t type = readU32(rec + 0);
        if (type >= events::kNumEventTypes ||
            static_cast<int>(type) <= prev_type)
            return util::Status::Errorf(
                "frozen: bad or out-of-order type %u", type);
        prev_type = static_cast<int>(type);

        TypeView tv;
        tv.nselected = readU32(rec + 4);
        tv.capacity = readU32(rec + 8);
        tv.nentries = readU32(rec + 12);
        tv.selected_bytes = readU64(rec + 16);
        tv.type_bytes = readU64(rec + 24);
        tv.entry_base = entry_base;
        uint32_t o_selected = readU32(rec + 32);
        uint32_t o_flags = readU32(rec + 36);
        uint32_t o_index = readU32(rec + 40);
        uint32_t o_key_off = readU32(rec + 44);
        uint32_t o_out_off = readU32(rec + 48);
        uint32_t o_key_slots = readU32(rec + 52);
        uint32_t o_key_values = readU32(rec + 56);
        uint32_t o_out_ids = readU32(rec + 60);
        uint32_t o_out_values = readU32(rec + 64);
        uint32_t o_entry_bytes = readU32(rec + 68);

        if (tv.nselected == 0)
            return util::Status::Errorf(
                "frozen: type %u with empty selection", type);
        if (tv.capacity == 0 ||
            (tv.capacity & (tv.capacity - 1)) != 0)
            return util::Status::Errorf(
                "frozen: type %u index capacity %u not a power of "
                "two", type, tv.capacity);
        if (!span(o_selected, tv.nselected, 4, 4) ||
            !span(o_flags, tv.nselected, 1, 1) ||
            !span(o_index, tv.capacity, kSlotBytes, 8) ||
            !span(o_key_off, tv.nentries + 1ull, 4, 4) ||
            !span(o_out_off, tv.nentries + 1ull, 4, 4) ||
            !span(o_entry_bytes, tv.nentries, 4, 4))
            return util::Status::Errorf(
                "frozen: type %u arrays out of bounds", type);
        tv.selected = reinterpret_cast<const events::FieldId *>(
            base + o_selected);
        tv.is_event = base + o_flags;
        tv.index = base + o_index;
        tv.key_off =
            reinterpret_cast<const uint32_t *>(base + o_key_off);
        tv.out_off =
            reinterpret_cast<const uint32_t *>(base + o_out_off);
        tv.entry_bytes = reinterpret_cast<const uint32_t *>(
            base + o_entry_bytes);

        // Selected set: ascending input-side ids whose sizes sum to
        // selected_bytes, flags matching the schema's categories.
        events::FieldId prev = events::kInvalidField;
        uint64_t sel_bytes = 0;
        for (uint32_t k = 0; k < tv.nselected; ++k) {
            events::FieldId fid = tv.selected[k];
            if (fid >= schema.size())
                return util::Status::Errorf(
                    "frozen: selected id %u out of schema range",
                    fid);
            const auto &d = schema.def(fid);
            if (d.side != events::FieldSide::Input)
                return util::Status::Errorf(
                    "frozen: selected id %u not an input", fid);
            if (prev != events::kInvalidField && fid <= prev)
                return util::Status::Error(
                    "frozen: selected ids not strictly ascending");
            prev = fid;
            sel_bytes += d.size_bytes;
            bool is_event =
                d.in_cat == events::InputCategory::Event;
            if ((tv.is_event[k] != 0) != is_event)
                return util::Status::Errorf(
                    "frozen: selected id %u category flag mismatch",
                    fid);
        }
        if (sel_bytes != tv.selected_bytes)
            return util::Status::Errorf(
                "frozen: type %u selected_bytes mismatch", type);

        // Prefix-offset arrays: start at 0, nondecreasing; their
        // totals size the key/output arrays.
        if (tv.key_off[0] != 0 || tv.out_off[0] != 0)
            return util::Status::Error(
                "frozen: entry offsets do not start at 0");
        for (uint32_t e = 0; e < tv.nentries; ++e) {
            if (tv.key_off[e + 1] < tv.key_off[e] ||
                tv.out_off[e + 1] < tv.out_off[e])
                return util::Status::Error(
                    "frozen: entry offsets not monotonic");
        }
        uint32_t nkeys = tv.key_off[tv.nentries];
        uint32_t nouts = tv.out_off[tv.nentries];
        if (!span(o_key_slots, nkeys, 4, 4) ||
            !span(o_key_values, nkeys, 8, 8) ||
            !span(o_out_ids, nouts, 4, 4) ||
            !span(o_out_values, nouts, 8, 8))
            return util::Status::Errorf(
                "frozen: type %u entry storage out of bounds", type);
        tv.key_slots =
            reinterpret_cast<const uint32_t *>(base + o_key_slots);
        tv.key_values =
            reinterpret_cast<const uint64_t *>(base + o_key_values);
        tv.out_ids = reinterpret_cast<const events::FieldId *>(
            base + o_out_ids);
        tv.out_values =
            reinterpret_cast<const uint64_t *>(base + o_out_values);

        for (uint32_t k = 0; k < nkeys; ++k)
            if (tv.key_slots[k] >= tv.nselected)
                return util::Status::Error(
                    "frozen: key slot out of selected range");
        for (uint32_t k = 0; k < nouts; ++k) {
            events::FieldId fid = tv.out_ids[k];
            if (fid >= schema.size() ||
                schema.def(fid).side != events::FieldSide::Output)
                return util::Status::Errorf(
                    "frozen: bad output field id %u", fid);
        }

        // Index slots: occupied slots (count > 0) must point at
        // in-range entry runs that tile [0, nentries) exactly.
        uint64_t indexed = 0;
        for (uint32_t s = 0; s < tv.capacity; ++s) {
            const uint8_t *slot = tv.index + s * kSlotBytes;
            uint32_t begin = readU32(slot + 8);
            uint32_t count = readU32(slot + 12);
            if (count == 0)
                continue;
            ++tv.buckets;
            if (begin > tv.nentries ||
                count > tv.nentries - begin)
                return util::Status::Error(
                    "frozen: index slot out of entry range");
            indexed += count;
        }
        if (indexed != tv.nentries)
            return util::Status::Errorf(
                "frozen: type %u index covers %llu of %u entries",
                type, static_cast<unsigned long long>(indexed),
                tv.nentries);
        if (2ull * tv.buckets > tv.capacity)
            return util::Status::Errorf(
                "frozen: type %u index overloaded", type);

        uint64_t modeled = 0;
        for (uint32_t e = 0; e < tv.nentries; ++e)
            modeled +=
                tv.entry_bytes[e] + MemoTable::kEntryHeaderBytes;
        if (modeled != tv.type_bytes)
            return util::Status::Errorf(
                "frozen: type %u byte accounting mismatch", type);

        sum_entries += tv.nentries;
        sum_bytes += tv.type_bytes;
        if (sum_entries > UINT32_MAX)
            return util::Status::Error("frozen: entry count overflow");
        entry_base += tv.nentries;
        types_[type] = tv;
    }
    if (sum_entries != total_entries || sum_bytes != total_bytes)
        return util::Status::Error(
            "frozen: header totals mismatch");
    total_entries_ = total_entries;
    total_bytes_ = total_bytes;
    return util::Status::Ok();
}

bool
FrozenTable::probe(const TypeView &tv, uint64_t subkey,
                   uint32_t *begin, uint32_t *count) const
{
    uint32_t mask = tv.capacity - 1;
    uint32_t i = static_cast<uint32_t>(subkey) & mask;
    for (uint32_t step = 0; step < tv.capacity; ++step) {
        const uint8_t *slot = tv.index + i * kSlotBytes;
        uint32_t c = readU32(slot + 12);
        if (c == 0)
            return false;
        if (readU64(slot) == subkey) {
            *begin = readU32(slot + 8);
            *count = c;
            return true;
        }
        i = (i + 1) & mask;
    }
    return false;  // crafted full index: bounded, clean miss
}

FrozenLookup
FrozenTable::lookup(const events::EventObject &ev, uint64_t subkey,
                    const games::Game &game,
                    LookupScratch &scratch) const
{
    const TypeView &tv = types_[static_cast<int>(ev.type)];
    FrozenLookup res;
    if (tv.nselected == 0)
        return res;

    // Same accounting as MemoTable::lookup: gathering the selected
    // inputs costs their size even when no candidates exist.
    res.bytes_scanned = tv.selected_bytes;
    uint32_t begin = 0, count = 0;
    if (!probe(tv, subkey, &begin, &count))
        return res;

    gatherSelected(tv.selectedSet(), ev, game, scratch);
    // One adjacent run of entries; keys are flat parallel arrays.
    for (uint32_t e = begin; e < begin + count; ++e) {
        ++res.candidates;
        res.bytes_scanned +=
            tv.entry_bytes[e] + MemoTable::kEntryHeaderBytes;
        bool match = true;
        for (uint32_t k = tv.key_off[e]; k < tv.key_off[e + 1];
             ++k) {
            uint32_t slot = tv.key_slots[k];
            if (!scratch.present[slot] ||
                scratch.values[slot] != tv.key_values[k]) {
                match = false;
                break;
            }
        }
        if (match) {
            res.hit = true;
            res.entry_ordinal = tv.entry_base + e;
            res.nout = tv.out_off[e + 1] - tv.out_off[e];
            res.out_ids = tv.out_ids + tv.out_off[e];
            res.out_values = tv.out_values + tv.out_off[e];
            return res;
        }
    }
    return res;
}

bool
FrozenTable::contains(events::EventType type,
                      const ProjectedKey &key) const
{
    const TypeView &tv = types_[static_cast<int>(type)];
    if (tv.nselected == 0)
        return false;

    // MemoTable::insertKey's duplicate check, against the bucket's
    // flat key arrays.
    uint32_t begin = 0, count = 0;
    if (!probe(tv, key.subkey, &begin, &count))
        return false;
    for (uint32_t e = begin; e < begin + count; ++e) {
        uint32_t nk = tv.key_off[e + 1] - tv.key_off[e];
        if (nk != key.slots.size())
            continue;
        bool same = true;
        for (uint32_t k = 0; k < nk; ++k) {
            uint32_t off = tv.key_off[e] + k;
            if (tv.key_slots[off] != key.slots[k] ||
                tv.key_values[off] != key.fields[k].value) {
                same = false;
                break;
            }
        }
        if (same)
            return true;
    }
    return false;
}

void
FrozenTable::visitRecords(
    const std::function<void(const games::HandlerExecution &)> &fn)
    const
{
    for (int t = 0; t < events::kNumEventTypes; ++t) {
        const TypeView &tv = types_[t];
        if (tv.nselected == 0)
            continue;
        for (uint32_t e = 0; e < tv.nentries; ++e) {
            games::HandlerExecution rec;
            rec.type = static_cast<events::EventType>(t);
            for (uint32_t k = tv.key_off[e]; k < tv.key_off[e + 1];
                 ++k)
                rec.inputs.push_back(
                    {tv.selected[tv.key_slots[k]],
                     tv.key_values[k]});
            for (uint32_t k = tv.out_off[e]; k < tv.out_off[e + 1];
                 ++k)
                rec.outputs.push_back(
                    {tv.out_ids[k], tv.out_values[k]});
            fn(rec);
        }
    }
}

size_t
FrozenTable::entryCount(events::EventType type) const
{
    return types_[static_cast<int>(type)].nentries;
}

uint64_t
FrozenTable::selectedBytes(events::EventType type) const
{
    return types_[static_cast<int>(type)].selected_bytes;
}

std::vector<events::FieldId>
FrozenTable::selectedVector(events::EventType type) const
{
    const TypeView &tv = types_[static_cast<int>(type)];
    return std::vector<events::FieldId>(
        tv.selected, tv.selected + tv.nselected);
}

size_t
FrozenTable::maxSelected() const
{
    size_t n = 0;
    for (const auto &tv : types_)
        n = std::max<size_t>(n, tv.nselected);
    return n;
}

uint32_t
FrozenTable::indexCapacity(events::EventType type) const
{
    return types_[static_cast<int>(type)].capacity;
}

uint32_t
FrozenTable::bucketCount(events::EventType type) const
{
    return types_[static_cast<int>(type)].buckets;
}

double
FrozenTable::indexLoadFactor() const
{
    uint64_t used = 0, cap = 0;
    for (const auto &tv : types_) {
        if (tv.nselected == 0)
            continue;
        used += tv.buckets;
        cap += tv.capacity;
    }
    return cap ? static_cast<double>(used) /
                     static_cast<double>(cap)
               : 0.0;
}

void
FrozenTable::recordStats(obs::Registry &reg) const
{
    uint64_t selected_bytes = 0;
    uint64_t configured = 0;
    for (const auto &tv : types_) {
        if (tv.nselected == 0)
            continue;
        ++configured;
        selected_bytes += tv.selected_bytes;
    }
    reg.gauge("table.entries")
        .set(static_cast<double>(entryCount()));
    reg.gauge("table.bytes").set(static_cast<double>(totalBytes()));
    reg.gauge("table.selected_bytes")
        .set(static_cast<double>(selected_bytes));
    reg.gauge("table.types_configured")
        .set(static_cast<double>(configured));
    reg.gauge("table.layout").set(1.0);
    reg.gauge("table.index_load_factor").set(indexLoadFactor());
}

}  // namespace core
}  // namespace snip
