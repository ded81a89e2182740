#include "ml/table_predictor.h"

#include <algorithm>

#include "util/logging.h"

namespace snip {
namespace ml {

size_t
TablePredictor::probe(uint64_t key) const
{
    if (fslots_.empty())
        return SIZE_MAX;
    size_t mask = fslots_.size() - 1;
    size_t idx = static_cast<size_t>(key) & mask;
    for (size_t step = 0; step < fslots_.size(); ++step) {
        uint32_t v = fslots_[idx];
        if (v == 0)
            return SIZE_MAX;
        if (fkeys_[v - 1] == key)
            return static_cast<size_t>(v - 1);
        idx = (idx + 1) & mask;
    }
    return SIZE_MAX;
}

TablePredictor::Hit
TablePredictor::find(uint64_t key) const
{
    Hit h;
    size_t e = probe(key);
    if (e != SIZE_MAX) {
        h.hit = true;
        h.label = flabels_[e];
        h.repr = freprs_[e];
        return h;
    }
    if (delta_.empty())
        return h;
    auto it = delta_.find(key);
    if (it != delta_.end()) {
        h.hit = true;
        h.label = it->second.majority_label;
        h.repr = it->second.representative_row;
    }
    return h;
}

std::vector<uint64_t>
TablePredictor::rowKeys(const DatasetView &ds,
                        const std::vector<size_t> &cols)
{
    std::vector<uint64_t> keys(ds.numRows(), kKeySeed);
    for (size_t c : cols) {
        const uint64_t *v = ds.columnData(c);
        for (size_t r = 0; r < keys.size(); ++r)
            keys[r] += keyTerm(c, v[r]);
    }
    return keys;
}

void
TablePredictor::dropColumnKeys(const DatasetView &ds, size_t col,
                               std::span<const uint64_t> keys,
                               std::span<uint64_t> out)
{
    if (keys.size() != ds.numRows() || out.size() != ds.numRows())
        util::panic("TablePredictor::dropColumnKeys: %zu keys and %zu "
                    "outputs for %zu rows",
                    keys.size(), out.size(), ds.numRows());
    const uint64_t *v = ds.columnData(col);
    for (size_t r = 0; r < keys.size(); ++r)
        out[r] = keys[r] - keyTerm(col, v[r]);
}

std::span<const uint64_t>
TablePredictor::keysFor(const DatasetView &ds) const
{
    if (keys_.size() != ds.numRows())
        util::panic("TablePredictor: %zu row keys for a dataset of "
                    "%zu rows",
                    keys_.size(), ds.numRows());
    return keys_;
}

bool
TablePredictor::isKeyColumn(size_t col) const
{
    return std::find(cols_.begin(), cols_.end(), col) != cols_.end();
}

uint64_t
TablePredictor::keyOfRow(const DatasetView &ds, size_t row,
                         size_t override_col,
                         uint64_t override_value) const
{
    uint64_t key = keysFor(ds)[row];
    if (!isKeyColumn(override_col))
        return key;
    return key - keyTerm(override_col, ds.value(row, override_col)) +
           keyTerm(override_col, override_value);
}

TablePredictor::TrainingRows
TablePredictor::trainingRows(const DatasetView &ds,
                             std::vector<size_t> rows)
{
    // Weight and first row per label. The pick below breaks every
    // tie by label, so the map's iteration order does not matter.
    struct Tally {
        uint64_t weight;
        size_t first;
    };
    std::unordered_map<uint64_t, Tally> tallies;
    for (size_t row : rows)
        tallies.try_emplace(ds.label(row), Tally{0, row})
            .first->second.weight += ds.weight(row);

    TrainingRows out;
    uint64_t best_w = 0;
    for (const auto &[label, t] : tallies) {
        if (t.weight > best_w ||
            (t.weight == best_w && best_w > 0 &&
             label < out.fallbackLabel_)) {
            best_w = t.weight;
            out.fallbackLabel_ = label;
            out.fallbackRow_ = t.first;
        }
    }
    out.rows_ = std::move(rows);
    return out;
}

void
TablePredictor::train(const DatasetView &ds,
                      const std::vector<size_t> &feature_cols)
{
    std::vector<size_t> rows(ds.numRows());
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i] = i;
    ownedKeys_ = rowKeys(ds, feature_cols);
    trainOnRows(ds, feature_cols, trainingRows(ds, std::move(rows)),
                ownedKeys_);
}

void
TablePredictor::trainOnRows(const DatasetView &ds,
                            const std::vector<size_t> &feature_cols,
                            const TrainingRows &training,
                            std::span<const uint64_t> row_keys)
{
    const std::vector<size_t> &rows = training.rows();
    keys_ = row_keys;
    keysFor(ds);  // panics on a length mismatch
    cols_ = feature_cols;
    delta_.clear();

    // Tally by sorting (key, label, position in rows): each key's
    // records form one run, split into one sub-run per label in
    // ascending label order with the earliest row first. The
    // majority is the heaviest label (the smallest one on a tie) and
    // its representative the first row in rows order that carries
    // it; runs come out in ascending key order, the frozen layout.
    struct Record {
        uint64_t key;
        uint64_t label;
        size_t pos;
    };
    std::vector<Record> recs(rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        recs[i] = Record{row_keys[rows[i]], ds.label(rows[i]), i};
    std::sort(recs.begin(), recs.end(),
              [](const Record &a, const Record &b) {
                  if (a.key != b.key)
                      return a.key < b.key;
                  if (a.label != b.label)
                      return a.label < b.label;
                  return a.pos < b.pos;
              });

    fkeys_.clear();
    flabels_.clear();
    freprs_.clear();
    fdistinct_.clear();
    uint64_t trained_weight = 0, ambiguous_weight = 0;
    for (size_t i = 0; i < recs.size();) {
        uint64_t key = recs[i].key;
        Entry e;
        uint64_t best_w = 0, key_weight = 0;
        while (i < recs.size() && recs[i].key == key) {
            uint64_t lbl = recs[i].label;
            size_t first = recs[i].pos;
            uint64_t w = 0;
            for (; i < recs.size() && recs[i].key == key &&
                   recs[i].label == lbl;
                 ++i)
                w += ds.weight(rows[recs[i].pos]);
            if (w > best_w) {
                best_w = w;
                e.majority_label = lbl;
                e.representative_row = rows[first];
            }
            ++e.distinct_labels;
            key_weight += w;
        }
        trained_weight += key_weight;
        if (e.distinct_labels > 1)
            ambiguous_weight += key_weight;
        fkeys_.push_back(key);
        flabels_.push_back(e.majority_label);
        freprs_.push_back(e.representative_row);
        fdistinct_.push_back(e.distinct_labels);
    }
    ambiguousWeightFraction_ =
        trained_weight ? static_cast<double>(ambiguous_weight) /
                             static_cast<double>(trained_weight)
                       : 0.0;

    // The global fallback comes with the rows (see TrainingRows).
    fallbackLabel_ = training.fallbackLabel();
    fallbackRow_ = training.fallbackRow();

    // Freeze: the flat entry columns above plus a power-of-two
    // open-addressing slot index (load factor <= 0.5), the deployed
    // FrozenTable shape. Lookups from here on are one probe + column
    // reads, no node allocation or pointer chasing.
    size_t n = fkeys_.size();
    size_t cap = 4;
    while (cap < 2 * n)
        cap <<= 1;
    fslots_.assign(cap, 0);
    size_t mask = cap - 1;
    for (size_t i = 0; i < n; ++i) {
        size_t idx = static_cast<size_t>(fkeys_[i]) & mask;
        while (fslots_[idx] != 0)
            idx = (idx + 1) & mask;
        fslots_[idx] = static_cast<uint32_t>(i + 1);
    }
}

uint64_t
TablePredictor::predict(const DatasetView &ds, size_t row,
                        size_t override_col,
                        uint64_t override_value) const
{
    Hit h = find(keyOfRow(ds, row, override_col, override_value));
    return h.hit ? h.label : fallbackLabel_;
}

void
TablePredictor::predictRows(const DatasetView &ds, size_t row_begin,
                            size_t row_end, uint64_t *out_labels,
                            size_t override_col,
                            const uint64_t *override_values) const
{
    // One probe per row with no virtual hop per row; the PFI inner
    // loop spends its time here. A permuted key column swaps one
    // term of the stored key, O(1) per row.
    std::span<const uint64_t> keys = keysFor(ds);
    if (!isKeyColumn(override_col)) {
        for (size_t r = row_begin; r < row_end; ++r) {
            Hit h = find(keys[r]);
            out_labels[r - row_begin] = h.hit ? h.label : fallbackLabel_;
        }
        return;
    }
    if (override_values == nullptr)
        util::panic("TablePredictor::predictRows: override_col without "
                    "override_values");
    const uint64_t *colv = ds.columnData(override_col);
    for (size_t r = row_begin; r < row_end; ++r) {
        uint64_t key = keys[r] - keyTerm(override_col, colv[r]) +
                       keyTerm(override_col, override_values[r]);
        Hit h = find(key);
        out_labels[r - row_begin] = h.hit ? h.label : fallbackLabel_;
    }
}

size_t
TablePredictor::predictRow(const DatasetView &ds, size_t row,
                           size_t override_col,
                           uint64_t override_value) const
{
    Hit h = find(keyOfRow(ds, row, override_col, override_value));
    return h.hit ? h.repr : fallbackRow_;
}

bool
TablePredictor::lookupLabel(const DatasetView &ds, size_t row,
                            uint64_t &label) const
{
    Hit h = find(keysFor(ds)[row]);
    if (!h.hit)
        return false;
    label = h.label;
    return true;
}

void
TablePredictor::insertRow(const DatasetView &ds, size_t row)
{
    // Online inserts never touch the frozen arrays; first-wins
    // semantics across both layers (frozen keys shadow the delta).
    uint64_t key = keysFor(ds)[row];
    if (probe(key) != SIZE_MAX || delta_.count(key))
        return;
    Entry e;
    e.majority_label = ds.label(row);
    e.representative_row = row;
    e.distinct_labels = 1;
    delta_[key] = e;
}

uint64_t
TablePredictor::fingerprint() const
{
    uint64_t h = util::mixCombine(0x7ab1ef9ULL, fkeys_.size());
    for (size_t c : cols_)
        h = util::mixCombine(h, c);
    for (size_t i = 0; i < fkeys_.size(); ++i) {
        h = util::mixCombine(h, fkeys_[i]);
        h = util::mixCombine(h, flabels_[i]);
        h = util::mixCombine(h, static_cast<uint64_t>(freprs_[i]));
    }
    h = util::mixCombine(h, fallbackLabel_);
    h = util::mixCombine(h, static_cast<uint64_t>(fallbackRow_));
    std::vector<uint64_t> dkeys;
    dkeys.reserve(delta_.size());
    for (const auto &kv : delta_)
        dkeys.push_back(kv.first);
    std::sort(dkeys.begin(), dkeys.end());
    for (uint64_t k : dkeys) {
        const Entry &e = delta_.at(k);
        h = util::mixCombine(h, k);
        h = util::mixCombine(h, e.majority_label);
        h = util::mixCombine(
            h, static_cast<uint64_t>(e.representative_row));
    }
    return h ? h : 1;
}

double
TablePredictor::meanLabelsPerKey() const
{
    size_t n = fkeys_.size() + delta_.size();
    if (n == 0)
        return 0.0;
    double sum = 0.0;
    for (uint32_t d : fdistinct_)
        sum += d;
    for (const auto &kv : delta_)
        sum += kv.second.distinct_labels;
    return sum / static_cast<double>(n);
}

}  // namespace ml
}  // namespace snip
