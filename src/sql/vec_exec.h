#ifndef SQLFLOW_SQL_VEC_EXEC_H_
#define SQLFLOW_SQL_VEC_EXEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"
#include "sql/batch.h"
#include "sql/eval.h"
#include "sql/explain.h"

namespace sqlflow::sql {

// ---------------------------------------------------------------------------
// Vectorized SELECT pipeline — data model
// ---------------------------------------------------------------------------
// The batch executor never materializes combined join rows. A relation is
// a set of *sides* (base-table row storage borrowed in place, or rows
// owned by a derived/view evaluation) plus one slot vector per side: row
// r of the relation is the concatenation of sides[s].rows[slots[s][r]]
// for every side. LEFT OUTER padding stores kNullSlot, which reads as
// NULL in every column of that side. Filtering compacts the slot
// vectors; column data never moves.

/// Slot sentinel for LEFT OUTER padding (no matching right row).
inline constexpr uint32_t kNullSlot = 0xFFFFFFFFu;

/// Stable NULL value for padded-slot reads.
const Value& VecNullValue();

/// One storage side of a relation. `rows` points at borrowed storage
/// (base table) or at `owned` (derived table / view result).
struct VecSide {
  const std::vector<Row>* rows = nullptr;
  std::vector<Row> owned;
  size_t width = 0;

  void BorrowRows(const std::vector<Row>* r, size_t w) {
    rows = r;
    width = w;
  }
  void OwnRows(std::vector<Row> r, size_t w) {
    owned = std::move(r);
    rows = &owned;
    width = w;
  }
};

/// A (possibly joined) FROM scope in columnar form. `sides` are
/// non-owning pointers: the caller keeps the VecSide storage alive
/// (sides are shared between a scope and the per-window probe relation
/// during joins).
struct VecRelation {
  std::vector<ScopeColumnRef> columns;
  std::vector<const VecSide*> sides;
  std::vector<std::vector<uint32_t>> slots;  // parallel to sides
  std::vector<uint32_t> col_side;            // per scope column
  std::vector<uint32_t> col_offset;

  size_t row_count() const { return slots.empty() ? 0 : slots[0].size(); }

  void AddSide(const VecSide* side, const std::string& qualifier,
               const std::vector<ScopeColumnRef>& side_columns) {
    uint32_t s = static_cast<uint32_t>(sides.size());
    sides.push_back(side);
    slots.emplace_back();
    for (size_t i = 0; i < side_columns.size(); ++i) {
      columns.push_back(side_columns[i]);
      col_side.push_back(s);
      col_offset.push_back(static_cast<uint32_t>(i));
    }
    (void)qualifier;
  }

  /// The value of scope column `col` in relation row `row`, by reference
  /// into side storage (or the shared NULL for padded slots).
  const Value& AtRef(size_t row, size_t col) const {
    uint32_t side = col_side[col];
    uint32_t slot = slots[side][row];
    if (slot == kNullSlot) return VecNullValue();
    return (*sides[side]->rows)[slot][col_offset[col]];
  }

  /// Materializes one full relation row.
  Row MaterializeRow(size_t row) const {
    Row out;
    out.reserve(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) out.push_back(AtRef(row, c));
    return out;
  }
};

/// One evaluation window over a relation: rows [start, start+count).
struct VecWindow {
  const VecRelation* rel = nullptr;
  size_t start = 0;
  size_t count = 0;
  const Params* params = nullptr;
};

/// Scope-column ordinal for a column reference, mirroring the
/// executor's ScopeBinding resolution. -1 ⇒ not found, -2 ⇒ ambiguous
/// (kernels bail either way; the scalar fallback then raises the exact
/// error).
int FindVecColumn(const VecRelation& rel, const std::string& qualifier,
                  const std::string& name);

/// Vectorized expression kernel. Returns true and fills `out` when the
/// whole window can be evaluated with provably EvaluateExpr-identical
/// results and *no possibility of an evaluation error or side effect*;
/// returns false (out reset to kBail) otherwise, and the caller must
/// re-evaluate the window row-at-a-time through EvaluateExpr.
bool TryVecEval(const Expr& e, const VecWindow& w, VecCol* out);

/// Row-at-a-time fallback binding over a columnar relation; Resolve
/// reproduces ScopeBinding byte-for-byte (case-insensitive match,
/// ambiguity and not-found messages).
class VecRowBinding : public RowBinding {
 public:
  explicit VecRowBinding(const VecRelation* rel) : rel_(rel) {}

  void set_row(size_t row) { row_ = row; }

  Result<Value> Resolve(const std::string& qualifier,
                        const std::string& column) const override;

 private:
  const VecRelation* rel_;
  size_t row_ = 0;
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_VEC_EXEC_H_
