#include "core/model_codec.h"

#include <bit>
#include <set>

#include "trace/trace_log.h"
#include "util/crc32.h"

namespace snip {
namespace core {

namespace {

/** Minimum encoded sizes, used to sanity-bound decoded counts. */
constexpr uint64_t kMinFieldDefBytes = 10;  // len + side + cat + size
constexpr uint64_t kMinTypeModelBytes = 49; // fixed TypeModel scalars
constexpr uint64_t kMinFieldIdBytes = 4;

void
encodeSchema(const events::FieldSchema &schema, util::ByteBuffer &buf)
{
    buf.putU32(static_cast<uint32_t>(schema.size()));
    for (const auto &d : schema.defs()) {
        buf.putString(d.name);
        buf.putU8(static_cast<uint8_t>(d.side));
        buf.putU8(d.side == events::FieldSide::Input
                      ? static_cast<uint8_t>(d.in_cat)
                      : static_cast<uint8_t>(d.out_cat));
        buf.putU32(d.size_bytes);
    }
}

util::Status
decodeSchema(util::ByteReader &r, events::FieldSchema *schema)
{
    uint32_t n = r.u32();
    if (!r.fits(n, kMinFieldDefBytes))
        return util::Status::Error("model: truncated schema");
    std::set<std::string> names;
    for (uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        uint8_t side = r.u8();
        uint8_t cat = r.u8();
        uint32_t size_bytes = r.u32();
        if (!r.ok())
            return util::Status::Error("model: truncated schema");
        if (name.empty() || !names.insert(name).second)
            return util::Status::Errorf(
                "model: bad schema field name at index %u", i);
        if (side > 1 || cat > 2 || size_bytes == 0)
            return util::Status::Errorf(
                "model: bad schema field '%s'", name.c_str());
        if (side == static_cast<uint8_t>(events::FieldSide::Input))
            schema->addInput(
                name, static_cast<events::InputCategory>(cat),
                size_bytes);
        else
            schema->addOutput(
                name, static_cast<events::OutputCategory>(cat),
                size_bytes);
    }
    return util::Status::Ok();
}

/** Validate a decoded field-id list: in-schema, on the right side,
 *  strictly ascending (the canonical order every encoder emits). */
util::Status
checkFieldIds(const std::vector<events::FieldId> &ids,
              const events::FieldSchema &schema,
              events::FieldSide side, const char *what)
{
    events::FieldId prev = events::kInvalidField;
    for (events::FieldId id : ids) {
        if (id >= schema.size())
            return util::Status::Errorf("model: %s id %u out of "
                                        "schema range", what, id);
        if (schema.def(id).side != side)
            return util::Status::Errorf("model: %s id %u on wrong "
                                        "side", what, id);
        if (prev != events::kInvalidField && id <= prev)
            return util::Status::Errorf("model: %s ids not strictly "
                                        "ascending", what);
        prev = id;
    }
    return util::Status::Ok();
}

util::Status
decodeFieldIds(util::ByteReader &r,
               std::vector<events::FieldId> *ids, const char *what)
{
    uint32_t n = r.u32();
    if (!r.fits(n, kMinFieldIdBytes))
        return util::Status::Errorf("model: truncated %s list", what);
    ids->clear();
    ids->reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        ids->push_back(r.u32());
    return util::Status::Ok();
}

/** Package offset where the payload starts (after the header). */
constexpr size_t kPayloadPackageOffset = 12;

/**
 * Encode the payload head: game name, schema snapshot, per-type
 * selection metadata and the has-table flag. The table section
 * follows it (see packModel()).
 */
void
encodeHead(const SnipModel &model, util::ByteBuffer &buf)
{
    buf.putString(model.game);

    encodeSchema(model.frozen ? model.frozen->schema()
                              : events::FieldSchema(),
                 buf);

    buf.putU32(static_cast<uint32_t>(model.types.size()));
    for (const auto &t : model.types) {
        buf.putU8(static_cast<uint8_t>(t.type));
        buf.putU64(t.records);
        buf.putU32(static_cast<uint32_t>(t.selection.selected.size()));
        for (events::FieldId fid : t.selection.selected)
            buf.putU32(fid);
        buf.putU64(t.selection.selected_bytes);
        buf.putU64(std::bit_cast<uint64_t>(t.selection.full_error));
        buf.putU64(t.selection.full_bytes);
        buf.putU64(
            std::bit_cast<uint64_t>(t.selection.selected_error));
        buf.putU64(
            std::bit_cast<uint64_t>(t.selection.selected_hit_rate));
    }

    buf.putU8(model.frozen ? 1 : 0);
}

/**
 * Decode the payload head (encodeHead()): game name, schema snapshot,
 * per-type selection metadata and the has-table flag.
 */
util::Status
decodeHead(util::ByteReader &r, SnipModel *model,
           events::FieldSchema *schema, bool *has_table)
{
    model->game = r.str();

    util::Status st = decodeSchema(r, schema);
    if (!st.ok())
        return st;

    uint32_t ntypes = r.u32();
    if (!r.fits(ntypes, kMinTypeModelBytes))
        return util::Status::Error("model: truncated type list");
    std::set<uint8_t> seen_types;
    for (uint32_t i = 0; i < ntypes; ++i) {
        TypeModel tm;
        uint8_t type = r.u8();
        if (r.ok() && (type >= events::kNumEventTypes ||
                       !seen_types.insert(type).second))
            return util::Status::Errorf(
                "model: bad or duplicate event type %u", type);
        tm.type = static_cast<events::EventType>(type);
        tm.records = r.u64();
        st = decodeFieldIds(r, &tm.selection.selected, "selection");
        if (!st.ok())
            return st;
        tm.selection.selected_bytes = r.u64();
        tm.selection.full_error = std::bit_cast<double>(r.u64());
        tm.selection.full_bytes = r.u64();
        tm.selection.selected_error = std::bit_cast<double>(r.u64());
        tm.selection.selected_hit_rate =
            std::bit_cast<double>(r.u64());
        if (!r.ok())
            return util::Status::Error("model: truncated type entry");
        st = checkFieldIds(tm.selection.selected, *schema,
                           events::FieldSide::Input, "selection");
        if (!st.ok())
            return st;
        model->types.push_back(std::move(tm));
    }

    uint8_t flag = r.u8();
    if (!r.ok())
        return util::Status::Error("model: truncated table flag");
    if (flag > 1)
        return util::Status::Errorf("model: bad table flag %u", flag);
    *has_table = flag != 0;
    return util::Status::Ok();
}

/**
 * Decode the v2 "SNPF" section: pad length + zero pad + the frozen
 * arena, which must fill the payload exactly. The returned view
 * borrows the bytes of @p pkg and keeps it alive.
 */
util::Status
decodeArenaV2(const std::shared_ptr<util::ByteBuffer> &pkg,
              util::ByteReader &r, size_t payload_end,
              const events::FieldSchema &schema,
              std::shared_ptr<const FrozenTable> *out)
{
    util::ByteBuffer &buf = *pkg;
    uint32_t pad = r.u32();
    if (!r.ok())
        return util::Status::Error("model: truncated arena pad");
    if (pad >= 8)
        return util::Status::Errorf("model: bad arena pad %u", pad);
    for (uint32_t i = 0; i < pad; ++i) {
        uint8_t b = r.u8();
        if (!r.ok())
            return util::Status::Error("model: truncated arena pad");
        if (b != 0)
            return util::Status::Error(
                "model: nonzero arena pad byte");
    }
    if (buf.cursor() % 8 != 0)
        return util::Status::Error("model: arena not 8-aligned");
    if (buf.cursor() > payload_end)
        return util::Status::Error("model: truncated arena");
    size_t len = payload_end - buf.cursor();
    auto view = FrozenTable::attach(
        buf.data().data() + buf.cursor(), len, pkg, schema);
    if (!view.ok())
        return view.status();
    r.skip(len);
    *out = std::move(view.value());
    return util::Status::Ok();
}

}  // namespace

void
packModel(const SnipModel &model, util::ByteBuffer &out)
{
    // Only the small head goes through a side buffer; the arena,
    // which dominates the package, is copied into @p out once.
    util::ByteBuffer head;
    encodeHead(model, head);
    size_t payload_len = head.size();
    uint32_t pad = 0;
    if (model.frozen) {
        // The v2 "SNPF" section: the frozen arena verbatim, preceded
        // by a u32 pad length + zero pad bytes chosen so the arena
        // starts 8-aligned *within the package*. The pad is a pure
        // function of the head size, so re-serialization stays
        // byte-identical.
        size_t arena_pkg_off = kPayloadPackageOffset + head.size() + 4;
        pad = static_cast<uint32_t>((8 - arena_pkg_off % 8) % 8);
        payload_len += 4 + pad + model.frozen->arenaSize();
    }

    out.reserve(out.size() + kPayloadPackageOffset + payload_len + 4);
    out.putU32(kModelMagic);
    out.putU32(kModelVersion);
    out.putU32(static_cast<uint32_t>(payload_len));
    size_t payload_off = out.size();
    out.putBytes(head.data().data(), head.size());
    if (model.frozen) {
        out.putU32(pad);
        for (uint32_t i = 0; i < pad; ++i)
            out.putU8(0);
        out.putBytes(model.frozen->arenaData(),
                     model.frozen->arenaSize());
    }
    out.putU32(util::crc32(out.data().data() + payload_off,
                           payload_len));
}

util::Status
inspectPackage(util::ByteBuffer &buf, PackageInfo *info)
{
    buf.rewind();
    util::ByteReader r(buf);
    uint32_t magic = r.u32();
    info->version = r.u32();
    info->payload_bytes = r.u32();
    if (!r.ok())
        return util::Status::Error("model: truncated header");
    if (magic != kModelMagic)
        return util::Status::Errorf("model: bad magic 0x%08x", magic);
    if (buf.remaining() != info->payload_bytes + 4ull)
        return util::Status::Errorf(
            "model: payload length %u does not match package size",
            info->payload_bytes);
    const uint8_t *payload = buf.data().data() + buf.cursor();
    uint32_t computed = util::crc32(payload, info->payload_bytes);
    const uint8_t *footer = payload + info->payload_bytes;
    info->crc = static_cast<uint32_t>(footer[0]) |
                static_cast<uint32_t>(footer[1]) << 8 |
                static_cast<uint32_t>(footer[2]) << 16 |
                static_cast<uint32_t>(footer[3]) << 24;
    info->crc_ok = computed == info->crc;
    return util::Status::Ok();
}

util::Result<SnipModel>
deployModel(std::shared_ptr<util::ByteBuffer> pkg)
{
    if (!pkg)
        return util::Status::Error("model: null package");
    PackageInfo info;
    util::Status st = inspectPackage(*pkg, &info);
    if (!st.ok())
        return st;
    if (info.version != kModelVersion)
        return util::Status::Errorf(
            "model: unsupported version %u (expected %u)",
            info.version, kModelVersion);
    if (!info.crc_ok)
        return util::Status::Errorf(
            "model: CRC mismatch (stored 0x%08x): corrupt payload",
            info.crc);

    size_t payload_end = pkg->cursor() + info.payload_bytes;
    util::ByteReader r(*pkg);
    SnipModel model;
    events::FieldSchema schema;
    bool has_table = false;
    st = decodeHead(r, &model, &schema, &has_table);
    if (!st.ok())
        return st;
    if (has_table) {
        // Zero-copy deploy: the FrozenTable is a validated view over
        // the package bytes, kept alive by sharing ownership of the
        // buffer itself. No per-entry work, no table rebuild.
        st = decodeArenaV2(pkg, r, payload_end, schema, &model.frozen);
        if (!st.ok())
            return st;
    }
    if (pkg->cursor() != payload_end)
        return util::Status::Error(
            "model: trailing bytes in payload");
    return model;
}

util::Result<SnipModel>
unpackModel(const util::ByteBuffer &buf)
{
    return deployModel(std::make_shared<util::ByteBuffer>(buf));
}

util::Status
saveModel(const SnipModel &model, const std::string &path)
{
    util::ByteBuffer buf;
    packModel(model, buf);
    return trace::saveBuffer(buf, path);
}

util::Result<SnipModel>
loadModel(const std::string &path)
{
    auto buf = std::make_shared<util::ByteBuffer>();
    util::Status st = trace::loadBuffer(path, buf.get());
    if (!st.ok())
        return st;
    return deployModel(std::move(buf));
}

uint64_t
packedModelBytes(const SnipModel &model)
{
    util::ByteBuffer buf;
    packModel(model, buf);
    return buf.size();
}

}  // namespace core
}  // namespace snip
