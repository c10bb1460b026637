#ifndef SQLFLOW_SQL_BATCH_H_
#define SQLFLOW_SQL_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace sqlflow::sql {

// ---------------------------------------------------------------------------
// Columnar batch layer
// ---------------------------------------------------------------------------
// The vectorized executor (sql/vec_exec.cc) processes rows in fixed-size
// windows. Within a window each expression evaluates to one VecCol: a
// typed value vector plus a packed null bitmap. A column whose window
// values are not uniformly typed (or whose evaluation could raise an
// error or have a side effect) is marked kBail, and the whole window
// re-evaluates through the scalar EvaluateExpr path — semantics never
// fork, vectorization only accelerates.

/// Rows per execution window. Large enough to amortize dispatch, small
/// enough that a window of doubles + bitmap stays L1/L2-resident.
inline constexpr size_t kBatchCapacity = 1024;

/// Packed validity bitmap: bit set ⇒ the value at that position is NULL.
/// (Null-bits rather than valid-bits: freshly Reset state means "no
/// NULLs", which is the overwhelmingly common case for key columns.)
class NullBitmap {
 public:
  void Reset(size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
    null_count_ = 0;
  }
  void SetNull(size_t i) {
    uint64_t& w = words_[i >> 6];
    uint64_t bit = uint64_t{1} << (i & 63);
    if ((w & bit) == 0) {
      w |= bit;
      ++null_count_;
    }
  }
  bool IsNull(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  bool AnyNull() const { return null_count_ > 0; }
  bool AllNull() const { return null_count_ == size_; }
  size_t null_count() const { return null_count_; }
  size_t size() const { return size_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t null_count_ = 0;
};

/// One expression's values over a window. Exactly one typed vector is
/// populated, per `tag`; NULL positions carry a zero placeholder there
/// and are flagged in `nulls`.
struct VecCol {
  enum class Tag {
    kBail,    // not vectorizable for this window — use the scalar path
    kNull,    // every value NULL (typed vectors empty)
    kInt,     // int64 values
    kDouble,  // double values
    kString,  // pointers into stable row / literal storage
    kBool,    // 0/1 values
  };

  Tag tag = Tag::kBail;
  size_t size = 0;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<const std::string*> strs;
  std::vector<uint8_t> bools;
  NullBitmap nulls;

  void ResetBail() {
    tag = Tag::kBail;
    size = 0;
  }

  /// Prepares an all-NULL column of n values.
  void ResetNull(size_t n) {
    tag = Tag::kNull;
    size = n;
    nulls.Reset(n);
    for (size_t i = 0; i < n; ++i) nulls.SetNull(i);
  }

  /// Starts an empty typed column; append values with PushValue.
  void ResetTyped(Tag t, size_t capacity) {
    tag = t;
    size = 0;
    ints.clear();
    dbls.clear();
    strs.clear();
    bools.clear();
    nulls.Reset(capacity);
    switch (t) {
      case Tag::kInt:
        ints.reserve(capacity);
        break;
      case Tag::kDouble:
        dbls.reserve(capacity);
        break;
      case Tag::kString:
        strs.reserve(capacity);
        break;
      case Tag::kBool:
        bools.reserve(capacity);
        break;
      default:
        break;
    }
  }

  bool IsNull(size_t i) const { return nulls.IsNull(i); }

  /// Reconstructs the Value at position i (same type and payload the
  /// scalar evaluator would produce).
  Value At(size_t i) const {
    if (nulls.IsNull(i)) return Value::Null();
    switch (tag) {
      case Tag::kInt:
        return Value::Integer(ints[i]);
      case Tag::kDouble:
        return Value::Double(dbls[i]);
      case Tag::kString:
        return Value::String(*strs[i]);
      case Tag::kBool:
        return Value::Boolean(bools[i] != 0);
      default:
        return Value::Null();
    }
  }
};

/// Loads window values from a sequence of Values (e.g. one scope column
/// across the window's rows). The callback yields the i-th Value.
/// Returns false — leaving `out` as kBail — when the non-NULL values are
/// not uniformly typed (integer and double do not mix: arithmetic and
/// comparison semantics differ between the exact-integer and double
/// paths).
template <typename ValueAt>
bool LoadVecCol(size_t n, const ValueAt& value_at, VecCol* out) {
  out->tag = VecCol::Tag::kNull;
  out->size = n;
  out->ints.clear();
  out->dbls.clear();
  out->strs.clear();
  out->bools.clear();
  out->nulls.Reset(n);
  for (size_t i = 0; i < n; ++i) {
    const Value& v = value_at(i);
    switch (v.type()) {
      case ValueType::kNull:
        out->nulls.SetNull(i);
        switch (out->tag) {
          case VecCol::Tag::kInt:
            out->ints.push_back(0);
            break;
          case VecCol::Tag::kDouble:
            out->dbls.push_back(0.0);
            break;
          case VecCol::Tag::kString:
            out->strs.push_back(nullptr);
            break;
          case VecCol::Tag::kBool:
            out->bools.push_back(0);
            break;
          default:
            break;  // still kNull: backfilled on first typed value
        }
        continue;
      case ValueType::kInteger:
        if (out->tag == VecCol::Tag::kNull) {
          out->tag = VecCol::Tag::kInt;
          out->ints.assign(i, 0);  // backfill leading NULL placeholders
        } else if (out->tag != VecCol::Tag::kInt) {
          out->ResetBail();
          return false;
        }
        out->ints.push_back(v.integer());
        continue;
      case ValueType::kDouble:
        if (out->tag == VecCol::Tag::kNull) {
          out->tag = VecCol::Tag::kDouble;
          out->dbls.assign(i, 0.0);
        } else if (out->tag != VecCol::Tag::kDouble) {
          out->ResetBail();
          return false;
        }
        out->dbls.push_back(v.dbl());
        continue;
      case ValueType::kString:
        if (out->tag == VecCol::Tag::kNull) {
          out->tag = VecCol::Tag::kString;
          out->strs.assign(i, nullptr);
        } else if (out->tag != VecCol::Tag::kString) {
          out->ResetBail();
          return false;
        }
        out->strs.push_back(&v.str());
        continue;
      case ValueType::kBoolean:
        if (out->tag == VecCol::Tag::kNull) {
          out->tag = VecCol::Tag::kBool;
          out->bools.assign(i, 0);
        } else if (out->tag != VecCol::Tag::kBool) {
          out->ResetBail();
          return false;
        }
        out->bools.push_back(v.boolean() ? 1 : 0);
        continue;
    }
    out->ResetBail();
    return false;
  }
  return true;
}

/// One window of columnar data flowing through the pipeline: typed
/// column vectors plus the selection vector of still-live positions.
/// Operators filter by compacting `selection`, never by moving column
/// data.
struct Batch {
  size_t rows = 0;
  std::vector<VecCol> columns;
  std::vector<uint32_t> selection;  // live positions, ascending

  void ResetIdentity(size_t n) {
    rows = n;
    selection.resize(n);
    for (size_t i = 0; i < n; ++i) selection[i] = static_cast<uint32_t>(i);
  }
};

/// Compacts `batch.selection` to the positions where `keep` (indexed by
/// position, not selection ordinal) is true. Returns surviving count.
size_t CompactSelection(Batch* batch, const std::vector<uint8_t>& keep);

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_BATCH_H_
