/**
 * @file
 * Exact-match table predictor: the learned model *is* a lookup
 * table keyed on the selected feature values; each key maps to the
 * majority output signature seen for that key in training. This is
 * precisely the structure SNIP deploys to the phone, so measuring
 * its error under feature trimming measures deployed behaviour.
 */

#ifndef SNIP_ML_TABLE_PREDICTOR_H
#define SNIP_ML_TABLE_PREDICTOR_H

#include <span>
#include <unordered_map>

#include "ml/predictor.h"
#include "util/rng.h"

namespace snip {
namespace ml {

/**
 * Majority-vote exact-match table over selected features.
 *
 * A row's key over the key columns C is the wrapping sum
 * kKeySeed + sum over c in C of keyTerm(c, value(row, c)). Because
 * the key is additive, dropping a column from every key or replacing
 * one column's value (a PFI permutation) is one subtraction and one
 * addition per row instead of a rehash of all |C| columns. Keys are
 * computed by the caller (rowKeys / dropColumnKeys) into an array
 * indexed by dataset row, which the predictor borrows from
 * trainOnRows on and reads for every lookup, the way a DatasetView
 * borrows its storage. Lookups therefore address rows of the
 * dataset the keys were computed from.
 */
class TablePredictor : public Predictor
{
  public:
    /** Key of a row over no columns. */
    static constexpr uint64_t kKeySeed = 0x5eedf00d5eedULL;

    /** Contribution of column @p col holding @p value to a row key. */
    static uint64_t keyTerm(size_t col, uint64_t value)
    {
        return util::mixCombine(col, value);
    }

    /** Key of every row of @p ds over @p cols, from scratch. */
    static std::vector<uint64_t>
    rowKeys(const DatasetView &ds, const std::vector<size_t> &cols);

    /**
     * Keys over a column set minus @p col, given @p keys over the
     * set: out[r] = keys[r] - keyTerm(col, value(r, col)). @p out may
     * alias @p keys. Both hold one key per row of @p ds.
     */
    static void dropColumnKeys(const DatasetView &ds, size_t col,
                               std::span<const uint64_t> keys,
                               std::span<uint64_t> out);

    /**
     * The rows one training reads, with the global fallback over
     * them: the label carrying the most weight summed over the rows
     * (the smallest label on a tie) and, as its representative, the
     * first row in rows order that holds it. There is no fallback
     * (kNoLabel, SIZE_MAX) when no row carries weight. The fallback
     * depends only on the rows, never on the key columns, so a
     * selector that retrains on one row set under many column sets
     * computes it once. Only trainingRows() builds one, so the
     * fallback always belongs to its rows; it must be trained with
     * the dataset it was built from.
     */
    class TrainingRows
    {
      public:
        const std::vector<size_t> &rows() const { return rows_; }
        uint64_t fallbackLabel() const { return fallbackLabel_; }
        size_t fallbackRow() const { return fallbackRow_; }

      private:
        friend class TablePredictor;
        TrainingRows() = default;

        std::vector<size_t> rows_;
        uint64_t fallbackLabel_ = kNoLabel;
        size_t fallbackRow_ = SIZE_MAX;
    };

    /** @p rows of @p ds with their fallback (see TrainingRows). */
    static TrainingRows trainingRows(const DatasetView &ds,
                                     std::vector<size_t> rows);

    TablePredictor() = default;
    /** Not copyable: the copy would borrow the source's key array. */
    TablePredictor(const TablePredictor &) = delete;
    TablePredictor &operator=(const TablePredictor &) = delete;

    /** Computes and owns the row keys, then trains on every row. */
    void train(const DatasetView &ds,
               const std::vector<size_t> &feature_cols) override;

    /**
     * Train on a row subset (for held-out evaluation), taking the
     * global fallback from @p training. @p row_keys holds the key
     * over @p feature_cols of every row of @p ds (not only of the
     * training rows) and is borrowed until the next train: every
     * later lookup reads it, so it must outlive them unchanged.
     * Every call that takes a dataset panics unless the key array
     * has exactly ds.numRows() entries.
     */
    void trainOnRows(const DatasetView &ds,
                     const std::vector<size_t> &feature_cols,
                     const TrainingRows &training,
                     std::span<const uint64_t> row_keys);

    uint64_t predict(const DatasetView &ds, size_t row,
                     size_t override_col = SIZE_MAX,
                     uint64_t override_value = 0) const override;

    size_t predictRow(const DatasetView &ds, size_t row,
                      size_t override_col = SIZE_MAX,
                      uint64_t override_value = 0) const override;

    void predictRows(const DatasetView &ds, size_t row_begin,
                     size_t row_end, uint64_t *out_labels,
                     size_t override_col = SIZE_MAX,
                     const uint64_t *override_values =
                         nullptr) const override;

    /**
     * Strict lookup: true (and the majority label) only when the
     * row's key exists in the trained table — a deployment "hit".
     * Misses fall back to full processing and are therefore not
     * errors, the distinction the feature selector relies on.
     */
    bool lookupLabel(const DatasetView &ds, size_t row,
                     uint64_t &label) const;

    /**
     * Online insert: add the row's key -> label mapping unless the
     * key already exists (append-only, first wins — the deployed
     * table's semantics between cloud re-learns).
     */
    void insertRow(const DatasetView &ds, size_t row);

    /** Number of distinct keys in the trained table. */
    size_t tableRows() const { return fkeys_.size() + delta_.size(); }

    /**
     * Number of distinct labels observed under a key averaged over
     * keys — > 1 means the selected features are ambiguous (the
     * Fig. 8a "more than one possible output" situation).
     */
    double meanLabelsPerKey() const;

    /** Fraction of training weight under keys with > 1 label. */
    double ambiguousWeightFraction() const
    {
        return ambiguousWeightFraction_;
    }

    /**
     * Content hash over the full table state (see Predictor):
     * covers the frozen columns, the fallback, AND the online delta
     * (sorted by key), since insertRow() changes predictions too.
     */
    uint64_t fingerprint() const override;

  private:
    struct Entry {
        uint64_t majority_label = kNoLabel;
        size_t representative_row = SIZE_MAX;
        uint32_t distinct_labels = 0;
    };

    /** The bound key array; panics unless it covers @p ds. */
    std::span<const uint64_t> keysFor(const DatasetView &ds) const;
    /** True when @p col is one of the trained key columns. */
    bool isKeyColumn(size_t col) const;
    /**
     * Key of @p row, with the value of @p override_col replaced by
     * @p override_value when that column is a key column (otherwise
     * the override is ignored).
     */
    uint64_t keyOfRow(const DatasetView &ds, size_t row,
                      size_t override_col, uint64_t override_value) const;

    /** Frozen-table probe: entry index for @p key, or SIZE_MAX. */
    size_t probe(uint64_t key) const;
    struct Hit {
        bool hit = false;
        uint64_t label = kNoLabel;
        size_t repr = SIZE_MAX;
    };
    /** Probe frozen then delta; the PFI inner loop lives here. */
    Hit find(uint64_t key) const;

    std::vector<size_t> cols_;
    /** Per-row keys over cols_, borrowed (or ownedKeys_, via train). */
    std::span<const uint64_t> keys_;
    std::vector<uint64_t> ownedKeys_;

    /**
     * The trained table is frozen after trainOnRows into the same
     * shape the runtime deploys (core::FrozenTable): a power-of-two
     * open-addressing slot array over flat entry columns, probed
     * with one index hit + linear scan and zero allocation. Online
     * insertRow() keys land in the small delta_ map instead — the
     * frozen arrays stay immutable between re-trains.
     */
    std::vector<uint64_t> fkeys_;        // entry keys, ascending
    std::vector<uint64_t> flabels_;      // majority label per entry
    std::vector<size_t> freprs_;         // representative row
    std::vector<uint32_t> fdistinct_;    // distinct labels per key
    std::vector<uint32_t> fslots_;       // entry index + 1; 0 = empty
    std::unordered_map<uint64_t, Entry> delta_;
    uint64_t fallbackLabel_ = kNoLabel;
    size_t fallbackRow_ = SIZE_MAX;
    double ambiguousWeightFraction_ = 0.0;
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_TABLE_PREDICTOR_H
