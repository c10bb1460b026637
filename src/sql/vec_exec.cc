#include "sql/vec_exec.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "sql/executor.h"
#include "sql/key_hash.h"
#include "sql/planner.h"
#include "sql/profile.h"
#include "sql/result_set.h"
#include "sql/table.h"

// ---------------------------------------------------------------------------
// Vectorized SELECT pipeline
// ---------------------------------------------------------------------------
// This file implements Executor::ExecuteSelectCore, the one SELECT body:
// FROM resolution → joins → WHERE → projection/aggregation → DISTINCT →
// ORDER BY → LIMIT, processed in kBatchCapacity-row windows over a
// columnar relation. Every window is all-or-nothing: a kernel either
// evaluates the whole window with provably identical results and no
// possible error/side effect, or the window re-runs through the scalar
// EvaluateExpr path. The semantics are those of a row-at-a-time
// evaluation — results, error messages, error ordering and side effects
// — and the test-side reference evaluator (tests/reference_select.h)
// is the oracle the fuzzer holds the pipeline to.

namespace sqlflow::sql {

const Value& VecNullValue() {
  static const Value kNull = Value::Null();
  return kNull;
}

int FindVecColumn(const VecRelation& rel, const std::string& qualifier,
                  const std::string& name) {
  int found = -1;
  for (size_t i = 0; i < rel.columns.size(); ++i) {
    const ScopeColumnRef& sc = rel.columns[i];
    if (!qualifier.empty() && !EqualsIgnoreCase(sc.qualifier, qualifier)) {
      continue;
    }
    if (!EqualsIgnoreCase(sc.name, name)) continue;
    if (found >= 0) return -2;  // ambiguous
    found = static_cast<int>(i);
  }
  return found;
}

Result<Value> VecRowBinding::Resolve(const std::string& qualifier,
                                     const std::string& column) const {
  int found = -1;
  for (size_t i = 0; i < rel_->columns.size(); ++i) {
    const ScopeColumnRef& sc = rel_->columns[i];
    if (!qualifier.empty() && !EqualsIgnoreCase(sc.qualifier, qualifier)) {
      continue;
    }
    if (!EqualsIgnoreCase(sc.name, column)) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference '" +
                                     column + "'");
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound(
        "no column '" +
        (qualifier.empty() ? column : qualifier + "." + column) +
        "' in scope");
  }
  return rel_->AtRef(row_, static_cast<size_t>(found));
}

// ---------------------------------------------------------------------------
// Expression kernels
// ---------------------------------------------------------------------------

namespace {

using Tag = VecCol::Tag;

void BroadcastValue(const Value& v, size_t n, VecCol* out) {
  switch (v.type()) {
    case ValueType::kNull:
      out->ResetNull(n);
      return;
    case ValueType::kInteger:
      out->ResetTyped(Tag::kInt, n);
      out->ints.assign(n, v.integer());
      out->size = n;
      return;
    case ValueType::kDouble:
      out->ResetTyped(Tag::kDouble, n);
      out->dbls.assign(n, v.dbl());
      out->size = n;
      return;
    case ValueType::kBoolean:
      out->ResetTyped(Tag::kBool, n);
      out->bools.assign(n, v.boolean() ? 1 : 0);
      out->size = n;
      return;
    case ValueType::kString:
      out->ResetTyped(Tag::kString, n);
      out->strs.assign(n, &v.str());
      out->size = n;
      return;
  }
  out->ResetBail();
}

bool IsNumericTag(Tag t) { return t == Tag::kInt || t == Tag::kDouble; }

/// Total-order rank matching Value::Compare's TypeRank (no kNull: raw
/// compares only run on non-null elements).
int TagRank(Tag t) {
  switch (t) {
    case Tag::kBool:
      return 1;
    case Tag::kInt:
    case Tag::kDouble:
      return 2;
    case Tag::kString:
      return 3;
    default:
      return 0;
  }
}

double DblAt(const VecCol& c, size_t i) {
  return c.tag == Tag::kInt ? static_cast<double>(c.ints[i]) : c.dbls[i];
}

/// Value::Compare over two non-null column elements (raw total order —
/// BETWEEN and IN semantics, never an error).
int RawCompare(const VecCol& a, size_t i, const VecCol& b, size_t j) {
  int ra = TagRank(a.tag);
  int rb = TagRank(b.tag);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.tag) {
    case Tag::kBool: {
      bool x = a.bools[i] != 0;
      bool y = b.bools[j] != 0;
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case Tag::kInt:
      if (b.tag == Tag::kInt) {
        int64_t x = a.ints[i];
        int64_t y = b.ints[j];
        return x == y ? 0 : (x < y ? -1 : 1);
      }
      [[fallthrough]];
    case Tag::kDouble: {
      double x = DblAt(a, i);
      double y = DblAt(b, j);
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case Tag::kString: {
      const std::string& x = *a.strs[i];
      const std::string& y = *b.strs[j];
      return x.compare(y) == 0 ? 0 : (x < y ? -1 : 1);
    }
    default:
      return 0;
  }
}

/// Value::Compare between a non-null column element and a non-null Value.
int RawCompareValue(const VecCol& a, size_t i, const Value& v) {
  int ra = TagRank(a.tag);
  int rb = 0;
  switch (v.type()) {
    case ValueType::kBoolean:
      rb = 1;
      break;
    case ValueType::kInteger:
    case ValueType::kDouble:
      rb = 2;
      break;
    case ValueType::kString:
      rb = 3;
      break;
    default:
      rb = 0;
      break;
  }
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.tag) {
    case Tag::kBool: {
      bool x = a.bools[i] != 0;
      bool y = v.boolean();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case Tag::kInt:
      if (v.type() == ValueType::kInteger) {
        int64_t x = a.ints[i];
        int64_t y = v.integer();
        return x == y ? 0 : (x < y ? -1 : 1);
      }
      [[fallthrough]];
    case Tag::kDouble: {
      double x = DblAt(a, i);
      double y = v.type() == ValueType::kInteger
                     ? static_cast<double>(v.integer())
                     : v.dbl();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case Tag::kString: {
      const std::string& x = *a.strs[i];
      const std::string& y = v.str();
      return x.compare(y) == 0 ? 0 : (x < y ? -1 : 1);
    }
    default:
      return 0;
  }
}

/// Kleene truth for AND/OR operands: AsBoolean coercion for bool/int/
/// double tags (never errors); strings are rejected by the caller.
/// Returns false when the element is NULL (unknown).
bool KnownBool(const VecCol& c, size_t i, bool* out) {
  if (c.IsNull(i)) return false;
  switch (c.tag) {
    case Tag::kBool:
      *out = c.bools[i] != 0;
      return true;
    case Tag::kInt:
      *out = c.ints[i] != 0;
      return true;
    case Tag::kDouble:
      *out = c.dbls[i] != 0.0;
      return true;
    default:
      return false;
  }
}

bool VecArithmetic(BinaryOp op, const VecCol& a, const VecCol& b, size_t n,
                   VecCol* out) {
  // Arithmetic() checks NULL before types: an all-NULL operand makes the
  // result all-NULL no matter what the other side holds.
  if (a.tag == Tag::kNull || b.tag == Tag::kNull) {
    out->ResetNull(n);
    return true;
  }
  // A non-numeric operand could raise "arithmetic on non-numeric values"
  // wherever both sides are non-NULL; leave those windows to the scalar
  // path rather than proving per-element safety.
  if (!IsNumericTag(a.tag) || !IsNumericTag(b.tag)) return false;
  bool both_int = a.tag == Tag::kInt && b.tag == Tag::kInt;
  bool divmod = op == BinaryOp::kDiv || op == BinaryOp::kMod;
  if (both_int) {
    out->ResetTyped(Tag::kInt, n);
    out->ints.resize(n, 0);
    out->size = n;
    for (size_t i = 0; i < n; ++i) {
      if (a.IsNull(i) || b.IsNull(i)) {
        out->nulls.SetNull(i);
        continue;
      }
      int64_t x = a.ints[i];
      int64_t y = b.ints[i];
      if (divmod && y == 0) return false;  // "division by zero" possible
      switch (op) {
        case BinaryOp::kAdd:
          out->ints[i] = x + y;
          break;
        case BinaryOp::kSub:
          out->ints[i] = x - y;
          break;
        case BinaryOp::kMul:
          out->ints[i] = x * y;
          break;
        case BinaryOp::kDiv:
          out->ints[i] = x / y;
          break;
        case BinaryOp::kMod:
          out->ints[i] = x % y;
          break;
        default:
          return false;
      }
    }
    return true;
  }
  out->ResetTyped(Tag::kDouble, n);
  out->dbls.resize(n, 0.0);
  out->size = n;
  for (size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) {
      out->nulls.SetNull(i);
      continue;
    }
    double x = DblAt(a, i);
    double y = DblAt(b, i);
    if (divmod && y == 0.0) return false;
    switch (op) {
      case BinaryOp::kAdd:
        out->dbls[i] = x + y;
        break;
      case BinaryOp::kSub:
        out->dbls[i] = x - y;
        break;
      case BinaryOp::kMul:
        out->dbls[i] = x * y;
        break;
      case BinaryOp::kDiv:
        out->dbls[i] = x / y;
        break;
      case BinaryOp::kMod:
        out->dbls[i] = std::fmod(x, y);
        break;
      default:
        return false;
    }
  }
  return true;
}

bool VecComparison(BinaryOp op, const VecCol& a, const VecCol& b, size_t n,
                   VecCol* out) {
  // Comparison() checks NULL first: an all-NULL operand ⇒ all-NULL.
  if (a.tag == Tag::kNull || b.tag == Tag::kNull) {
    out->ResetNull(n);
    return true;
  }
  // Combinations that could coerce (numeric↔string via AsDouble) or
  // raise "cannot compare X with Y" (bool vs anything else) stay scalar.
  bool comparable = (IsNumericTag(a.tag) && IsNumericTag(b.tag)) ||
                    (a.tag == Tag::kString && b.tag == Tag::kString) ||
                    (a.tag == Tag::kBool && b.tag == Tag::kBool);
  if (!comparable) return false;
  out->ResetTyped(Tag::kBool, n);
  out->bools.resize(n, 0);
  out->size = n;
  bool both_int = a.tag == Tag::kInt && b.tag == Tag::kInt;
  for (size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) {
      out->nulls.SetNull(i);
      continue;
    }
    int cmp;
    if (both_int) {
      int64_t x = a.ints[i];
      int64_t y = b.ints[i];
      cmp = x == y ? 0 : (x < y ? -1 : 1);
    } else if (a.tag == Tag::kString) {
      const std::string& x = *a.strs[i];
      const std::string& y = *b.strs[i];
      cmp = x.compare(y) == 0 ? 0 : (x < y ? -1 : 1);
    } else if (a.tag == Tag::kBool) {
      bool x = a.bools[i] != 0;
      bool y = b.bools[i] != 0;
      cmp = x == y ? 0 : (x < y ? -1 : 1);
    } else {
      double x = DblAt(a, i);
      double y = DblAt(b, i);
      cmp = x == y ? 0 : (x < y ? -1 : 1);
    }
    bool v = false;
    switch (op) {
      case BinaryOp::kEq:
        v = cmp == 0;
        break;
      case BinaryOp::kNotEq:
        v = cmp != 0;
        break;
      case BinaryOp::kLt:
        v = cmp < 0;
        break;
      case BinaryOp::kLtEq:
        v = cmp <= 0;
        break;
      case BinaryOp::kGt:
        v = cmp > 0;
        break;
      case BinaryOp::kGtEq:
        v = cmp >= 0;
        break;
      default:
        return false;
    }
    out->bools[i] = v ? 1 : 0;
  }
  return true;
}

}  // namespace

bool TryVecEval(const Expr& e, const VecWindow& w, VecCol* out) {
  const size_t n = w.count;
  out->ResetBail();
  switch (e.kind) {
    case ExprKind::kLiteral:
      BroadcastValue(e.literal, n, out);
      return out->tag != Tag::kBail;
    case ExprKind::kParameter: {
      // Mirrors EvaluateExpr's parameter resolution; an unbound
      // parameter (an EvaluateExpr error) bails so the scalar pass
      // raises it.
      if (w.params == nullptr) return false;
      const Value* found = nullptr;
      if (!e.param_name.empty()) {
        auto it = w.params->named.find(e.param_name);
        if (it != w.params->named.end()) found = &it->second;
      }
      if (found == nullptr && e.param_index >= 0 &&
          static_cast<size_t>(e.param_index) <
              w.params->positional.size()) {
        found = &w.params->positional[static_cast<size_t>(e.param_index)];
      }
      if (found == nullptr) return false;
      BroadcastValue(*found, n, out);
      return out->tag != Tag::kBail;
    }
    case ExprKind::kColumnRef: {
      int idx = FindVecColumn(*w.rel, e.table_qualifier, e.column_name);
      if (idx < 0) return false;  // missing/ambiguous ⇒ scalar error path
      size_t col = static_cast<size_t>(idx);
      return LoadVecCol(
          n,
          [&](size_t i) -> const Value& {
            return w.rel->AtRef(w.start + i, col);
          },
          out);
    }
    case ExprKind::kUnary: {
      VecCol child;
      if (!TryVecEval(*e.children[0], w, &child)) return false;
      switch (e.unary_op) {
        case UnaryOp::kNot: {
          // AsBoolean never errors for bool/int/double; strings can.
          if (child.tag == Tag::kNull) {
            out->ResetNull(n);
            return true;
          }
          if (child.tag == Tag::kString) return false;
          out->ResetTyped(Tag::kBool, n);
          out->bools.resize(n, 0);
          out->size = n;
          for (size_t i = 0; i < n; ++i) {
            bool b;
            if (!KnownBool(child, i, &b)) {
              out->nulls.SetNull(i);
              continue;
            }
            out->bools[i] = b ? 0 : 1;
          }
          return true;
        }
        case UnaryOp::kNegate: {
          if (child.tag == Tag::kNull) {
            out->ResetNull(n);
            return true;
          }
          if (child.tag == Tag::kInt) {
            out->ResetTyped(Tag::kInt, n);
            out->ints.resize(n, 0);
            out->size = n;
            for (size_t i = 0; i < n; ++i) {
              if (child.IsNull(i)) {
                out->nulls.SetNull(i);
                continue;
              }
              out->ints[i] = -child.ints[i];
            }
            return true;
          }
          if (child.tag == Tag::kDouble) {
            out->ResetTyped(Tag::kDouble, n);
            out->dbls.resize(n, 0.0);
            out->size = n;
            for (size_t i = 0; i < n; ++i) {
              if (child.IsNull(i)) {
                out->nulls.SetNull(i);
                continue;
              }
              out->dbls[i] = -child.dbls[i];
            }
            return true;
          }
          return false;  // bool/string negation stays scalar
        }
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull: {
          bool want_null = e.unary_op == UnaryOp::kIsNull;
          out->ResetTyped(Tag::kBool, n);
          out->bools.resize(n, 0);
          out->size = n;
          for (size_t i = 0; i < n; ++i) {
            out->bools[i] = (child.IsNull(i) == want_null) ? 1 : 0;
          }
          return true;
        }
      }
      return false;
    }
    case ExprKind::kBinary: {
      if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
        // Both operands evaluate eagerly here; safe because successful
        // kernels are pure and error-free, so skipping EvaluateExpr's
        // short-circuit is unobservable.
        VecCol a;
        VecCol b;
        if (!TryVecEval(*e.children[0], w, &a)) return false;
        if (!TryVecEval(*e.children[1], w, &b)) return false;
        if (a.tag == Tag::kString || b.tag == Tag::kString) {
          return false;  // AsBoolean on strings can error
        }
        bool is_and = e.binary_op == BinaryOp::kAnd;
        out->ResetTyped(Tag::kBool, n);
        out->bools.resize(n, 0);
        out->size = n;
        for (size_t i = 0; i < n; ++i) {
          bool av = false;
          bool bv = false;
          bool a_known = KnownBool(a, i, &av);
          bool b_known = KnownBool(b, i, &bv);
          if (a_known && is_and && !av) {
            out->bools[i] = 0;
          } else if (a_known && !is_and && av) {
            out->bools[i] = 1;
          } else if (b_known && is_and && !bv) {
            out->bools[i] = 0;
          } else if (b_known && !is_and && bv) {
            out->bools[i] = 1;
          } else if (!a_known || !b_known) {
            out->nulls.SetNull(i);
          } else {
            out->bools[i] = is_and ? 1 : 0;
          }
        }
        return true;
      }
      VecCol a;
      VecCol b;
      if (!TryVecEval(*e.children[0], w, &a)) return false;
      if (!TryVecEval(*e.children[1], w, &b)) return false;
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return VecArithmetic(e.binary_op, a, b, n, out);
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          return VecComparison(e.binary_op, a, b, n, out);
        case BinaryOp::kLike: {
          // LIKE via AsString never errors, but non-string operands
          // would need materialized conversions; keep those scalar.
          if (a.tag == Tag::kNull || b.tag == Tag::kNull) {
            out->ResetNull(n);
            return true;
          }
          if (a.tag != Tag::kString || b.tag != Tag::kString) return false;
          out->ResetTyped(Tag::kBool, n);
          out->bools.resize(n, 0);
          out->size = n;
          for (size_t i = 0; i < n; ++i) {
            if (a.IsNull(i) || b.IsNull(i)) {
              out->nulls.SetNull(i);
              continue;
            }
            out->bools[i] = LikeMatch(*a.strs[i], *b.strs[i]) ? 1 : 0;
          }
          return true;
        }
        default:
          // kConcat produces owned strings the column layout cannot
          // hold; anything else is unexpected — scalar path either way.
          return false;
      }
    }
    case ExprKind::kBetween: {
      // BETWEEN uses raw Value::Compare (never errors, any types).
      VecCol v;
      VecCol lo;
      VecCol hi;
      if (!TryVecEval(*e.children[0], w, &v)) return false;
      if (!TryVecEval(*e.children[1], w, &lo)) return false;
      if (!TryVecEval(*e.children[2], w, &hi)) return false;
      out->ResetTyped(Tag::kBool, n);
      out->bools.resize(n, 0);
      out->size = n;
      bool all_int = v.tag == Tag::kInt && lo.tag == Tag::kInt &&
                     hi.tag == Tag::kInt;
      for (size_t i = 0; i < n; ++i) {
        if (v.IsNull(i) || lo.IsNull(i) || hi.IsNull(i)) {
          out->nulls.SetNull(i);
          continue;
        }
        bool in_range;
        if (all_int) {
          int64_t x = v.ints[i];
          in_range = x >= lo.ints[i] && x <= hi.ints[i];
        } else {
          in_range = RawCompare(v, i, lo, i) >= 0 &&
                     RawCompare(v, i, hi, i) <= 0;
        }
        out->bools[i] = (e.negated ? !in_range : in_range) ? 1 : 0;
      }
      return true;
    }
    case ExprKind::kInList: {
      if (e.subquery != nullptr) return false;  // runs a nested SELECT
      // Literal-only lists evaluate without errors or side effects; any
      // computed item stays scalar.
      for (size_t i = 1; i < e.children.size(); ++i) {
        if (e.children[i]->kind != ExprKind::kLiteral) return false;
      }
      VecCol probe;
      if (!TryVecEval(*e.children[0], w, &probe)) return false;
      out->ResetTyped(Tag::kBool, n);
      out->bools.resize(n, 0);
      out->size = n;
      for (size_t i = 0; i < n; ++i) {
        if (probe.IsNull(i)) {
          out->nulls.SetNull(i);
          continue;
        }
        bool matched = false;
        bool saw_null = false;
        for (size_t k = 1; k < e.children.size(); ++k) {
          const Value& item = e.children[k]->literal;
          if (item.is_null()) {
            saw_null = true;
            continue;
          }
          if (RawCompareValue(probe, i, item) == 0) {
            matched = true;
            break;
          }
        }
        if (matched) {
          out->bools[i] = e.negated ? 0 : 1;
        } else if (saw_null) {
          out->nulls.SetNull(i);
        } else {
          out->bools[i] = e.negated ? 1 : 0;
        }
      }
      return true;
    }
    default:
      // kFunctionCall (may error / NEXTVAL side effect), kCase (lazy
      // branch evaluation), kSubquery/kExists (nested execution), kStar
      // (always an error outside COUNT(*)): scalar path only.
      return false;
  }
}

// ---------------------------------------------------------------------------
// Batched aggregation
// ---------------------------------------------------------------------------

namespace {

/// Integer fast path: one non-null int element, no DISTINCT.
void FeedInt(AggState* st, AggKind kind, int64_t x) {
  ++st->count;
  switch (kind) {
    case AggKind::kMin:
    case AggKind::kMax: {
      if (!st->have) {
        st->acc = Value::Integer(x);
        st->have = true;
        break;
      }
      if (st->acc.type() == ValueType::kInteger) {
        int64_t cur = st->acc.integer();
        if (kind == AggKind::kMin ? x < cur : x > cur) {
          st->acc = Value::Integer(x);
        }
      } else {
        Value v = Value::Integer(x);
        bool better = kind == AggKind::kMin ? v.Compare(st->acc) < 0
                                            : v.Compare(st->acc) > 0;
        if (better) st->acc = std::move(v);
      }
      break;
    }
    case AggKind::kSum:
    case AggKind::kAvg:
      st->sum_i += x;
      st->sum_d += static_cast<double>(x);
      break;
    default:
      break;
  }
}

bool VecIsTrue(const VecCol& col, size_t i) {
  return col.tag == Tag::kBool && !col.IsNull(i) && col.bools[i] != 0;
}

/// Slots 0..n-1: every row of a side, in storage order.
std::vector<uint32_t> IdentitySlots(size_t n) {
  std::vector<uint32_t> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = static_cast<uint32_t>(i);
  return slots;
}

/// True when evaluating this subtree has an observable count of
/// evaluations: scalar/EXISTS subqueries (cursor metrics, NEXTVAL inside
/// them) and NEXTVAL itself. Windowed aggregation evaluates arguments
/// ahead of their group's turn and keeps going past a group's error, so
/// such aggregate arguments are evaluated group by group instead.
bool EvalCountObservable(const Expr& e) {
  if (e.kind == ExprKind::kSubquery || e.kind == ExprKind::kExists) {
    return true;
  }
  if (e.kind == ExprKind::kFunctionCall && e.function_name == "NEXTVAL") {
    return true;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && EvalCountObservable(*c)) return true;
  }
  return e.case_else != nullptr && EvalCountObservable(*e.case_else);
}

}  // namespace

// ---------------------------------------------------------------------------
// SELECT core
// ---------------------------------------------------------------------------

Result<ResultSet> Executor::ExecuteSelectCore(const SelectStatement& sel,
                                              const Params& params,
                                              const StatementPlan* plan) {
  db_->NotePlanChoice(PlanChoice::kBatch);
  ExecProfile* prof = db_->exec_profile();

  // Side storage must outlive the relation (deque: stable addresses).
  std::deque<VecSide> side_store;
  VecRelation scope;
  bool first_ref = true;
  bool order_by_presorted = false;

  // --- 1. FROM scope ------------------------------------------------------
  if (sel.from.empty()) {
    // SELECT without FROM: one row of no columns.
    side_store.emplace_back();
    side_store.back().OwnRows({Row{}}, 0);
    scope.AddSide(&side_store.back(), "", {});
    scope.slots[0] = {0};
  }
  for (size_t ref_index = 0; ref_index < sel.from.size(); ++ref_index) {
    const TableRef& ref = sel.from[ref_index];
    const std::string& qual =
        ref.alias.empty() ? ref.table_name : ref.alias;
    std::vector<ScopeColumnRef> right_cols;
    side_store.emplace_back();
    VecSide& right_side = side_store.back();
    std::vector<uint32_t> right_slots;
    Table* table = ref.derived == nullptr
                       ? db_->catalog().FindTable(ref.table_name)
                       : nullptr;
    if (table != nullptr) {
      for (const ColumnDef& col : table->schema().columns()) {
        right_cols.push_back({qual, col.name});
      }
    }
    if (table == nullptr) {
      std::vector<Row> rows;
      SQLFLOW_RETURN_IF_ERROR(
          ExecuteSubqueryRef(ref, qual, params, &right_cols, &rows));
      right_side.OwnRows(std::move(rows), right_cols.size());
      right_slots = IdentitySlots(right_side.rows->size());
    } else if (db_->NeedsSnapshotRead(*table)) {
      // Version state is live on this table: own exactly the rows this
      // connection's snapshot admits — other transactions' pending
      // writes hidden, later commits hidden, own writes and stashed
      // pre-images resolved. Index lookups, pushdown and presorting read
      // raw row slots, so they disengage for this reference.
      right_side.OwnRows(
          table->SnapshotRows(db_->ReaderTxnId(), db_->SnapshotTs()),
          right_cols.size());
      right_slots = IdentitySlots(right_side.rows->size());
      obs::MetricsRegistry::Global()
          .GetCounter("sql.mvcc.snapshot_scan")
          .Increment();
      if (first_ref) db_->NotePlanChoice(PlanChoice::kScan);
      if (prof != nullptr) {
        ExecProfileOp& op =
            prof->Add("SNAPSHOT", table->schema().table_name());
        op.rows_in = table->row_count();
        op.rows_out = right_slots.size();
        op.loops = 1;
      }
    } else {
      right_side.BorrowRows(&table->rows(), right_cols.size());
      std::optional<ResolvedAccess> resolved;
      std::vector<size_t> pushed_slots;
      bool pushed = false;
      // A single-base-table SELECT can satisfy sargable WHERE conjuncts
      // through an index instead of scanning the whole table (and its
      // ORDER BY through index order). The full WHERE still runs over
      // the candidates below, so collisions and residual conjuncts are
      // re-checked. Base tables joined to others instead get their
      // single-table conjuncts pushed below the join.
      if (first_ref && sel.from.size() == 1) {
        std::vector<size_t> order_cols;
        bool order_desc = false;
        bool have_order = OrderBySargColumns(sel, qual, table->schema(),
                                             &order_cols, &order_desc);
        resolved = ResolveCandidates(table, qual, sel.where.get(), plan,
                                     params,
                                     have_order ? &order_cols : nullptr,
                                     order_desc);
        if (resolved.has_value() && resolved->key_ordered) {
          order_by_presorted = true;
        }
      } else if (TryPushdownSlots(table, qual, sel, ref_index, params,
                                  &pushed_slots)) {
        pushed = true;
      } else if (first_ref) {
        db_->NotePlanChoice(PlanChoice::kScan);
      }
      if (resolved.has_value() || pushed) {
        const std::vector<size_t>& slots =
            resolved.has_value() ? resolved->slots : pushed_slots;
        right_slots.reserve(slots.size());
        for (size_t slot : slots) {
          right_slots.push_back(static_cast<uint32_t>(slot));
        }
      } else {
        right_slots = IdentitySlots(table->row_count());
        // The single-table path records its access op (including a
        // scan) inside ResolveCandidates; joined refs that neither
        // pushed nor resolved record their scan here.
        if (prof != nullptr && !(first_ref && sel.from.size() == 1)) {
          ExecProfileOp& op =
              prof->Add("SCAN", table->schema().table_name());
          op.rows_in = op.rows_out = right_slots.size();
          op.loops = 1;
        }
      }
    }
    db_->MutableStats()->rows_read += right_slots.size();
    if (first_ref) {
      scope.AddSide(&right_side, qual, right_cols);
      scope.slots[0] = std::move(right_slots);
      first_ref = false;
      continue;
    }

    // --- join step --------------------------------------------------------
    const size_t left_width = scope.columns.size();
    const size_t left_rows = scope.row_count();
    const size_t right_rows = right_slots.size();
    const size_t prev_sides = scope.sides.size();
    std::vector<ScopeColumnRef> combined_cols = scope.columns;
    combined_cols.insert(combined_cols.end(), right_cols.begin(),
                         right_cols.end());

    const int64_t join_start = prof != nullptr ? obs::NowNanos() : 0;
    const size_t join_rows_in = left_rows + right_rows;
    std::vector<std::pair<size_t, size_t>> key_pairs;
    bool hash_join = db_->optimizer_enabled() &&
                     ref.join_condition != nullptr &&
                     (ref.join_type == JoinType::kInner ||
                      ref.join_type == JoinType::kLeftOuter);
    if (hash_join) {
      key_pairs = ExtractEquiJoinKeys(*ref.join_condition, combined_cols,
                                      left_width);
      hash_join = !key_pairs.empty();
    }
    // Key pairs are (left combined ordinal, right-relative ordinal).
    std::optional<JoinCandidates> candidates;
    if (hash_join) {
      candidates.emplace(
          left_rows, right_rows, key_pairs.size(),
          [&](size_t r, size_t k) -> const Value& {
            return scope.AtRef(r, key_pairs[k].first);
          },
          [&](size_t r, size_t k) -> const Value& {
            return (*right_side.rows)[right_slots[r]][key_pairs[k].second];
          });
      hash_join = candidates->comparable();
    }
    if (hash_join) {
      db_->NotePlanChoice(PlanChoice::kHashJoin);
    } else if (ref.join_condition != nullptr) {
      db_->NotePlanChoice(PlanChoice::kScan);
    }

    // Output slot vectors (previous sides + the new right side).
    std::vector<std::vector<uint32_t>> out_slots(prev_sides + 1);

    // Streaming pair evaluation: candidate (li, ri) pairs flow through
    // kBatchCapacity windows in nested-loop emission order; LEFT OUTER
    // padding is inserted when a left row closes unmatched.
    VecRelation probe;
    probe.columns = combined_cols;
    probe.sides = scope.sides;
    probe.sides.push_back(&right_side);
    probe.slots.assign(prev_sides + 1, {});
    probe.col_side = scope.col_side;
    probe.col_offset = scope.col_offset;
    for (size_t i = 0; i < right_cols.size(); ++i) {
      probe.col_side.push_back(static_cast<uint32_t>(prev_sides));
      probe.col_offset.push_back(static_cast<uint32_t>(i));
    }

    VecRowBinding probe_binding(&probe);
    EvalContext probe_ctx;
    probe_ctx.binding = &probe_binding;
    probe_ctx.params = &params;
    probe_ctx.database = db_;

    std::vector<size_t> pair_li;
    std::vector<size_t> pair_ri;
    pair_li.reserve(kBatchCapacity);
    pair_ri.reserve(kBatchCapacity);
    std::vector<uint8_t> matched(ref.join_type == JoinType::kLeftOuter
                                     ? left_rows
                                     : 0,
                                 0);
    size_t open_li = 0;  // left rows < open_li are fully emitted
    uint64_t join_windows = 0;
    VecCol cond_col;

    auto emit_pair = [&](size_t li, size_t ri) {
      for (size_t s = 0; s < prev_sides; ++s) {
        out_slots[s].push_back(scope.slots[s][li]);
      }
      out_slots[prev_sides].push_back(right_slots[ri]);
    };
    auto close_through = [&](size_t next_li) {
      // Left rows in [open_li, next_li) have no pairs left; pad the
      // unmatched ones (LEFT OUTER) in order.
      if (ref.join_type != JoinType::kLeftOuter) {
        open_li = next_li;
        return;
      }
      for (; open_li < next_li; ++open_li) {
        if (matched[open_li]) continue;
        for (size_t s = 0; s < prev_sides; ++s) {
          out_slots[s].push_back(scope.slots[s][open_li]);
        }
        out_slots[prev_sides].push_back(kNullSlot);
      }
    };
    auto flush_pairs = [&]() -> Status {
      const size_t count = pair_li.size();
      if (count == 0) return Status::OK();
      ++join_windows;
      std::vector<uint8_t> keep(count, 1);
      if (ref.join_condition != nullptr) {
        for (size_t s = 0; s < prev_sides; ++s) {
          probe.slots[s].clear();
          probe.slots[s].reserve(count);
        }
        probe.slots[prev_sides].clear();
        probe.slots[prev_sides].reserve(count);
        for (size_t p = 0; p < count; ++p) {
          for (size_t s = 0; s < prev_sides; ++s) {
            probe.slots[s].push_back(scope.slots[s][pair_li[p]]);
          }
          probe.slots[prev_sides].push_back(right_slots[pair_ri[p]]);
        }
        VecWindow w{&probe, 0, count, &params};
        if (TryVecEval(*ref.join_condition, w, &cond_col)) {
          for (size_t p = 0; p < count; ++p) {
            keep[p] = VecIsTrue(cond_col, p) ? 1 : 0;
          }
        } else {
          for (size_t p = 0; p < count; ++p) {
            probe_binding.set_row(p);
            SQLFLOW_ASSIGN_OR_RETURN(
                Value cond, EvaluateExpr(*ref.join_condition, probe_ctx));
            keep[p] = IsTrue(cond) ? 1 : 0;
          }
        }
      }
      for (size_t p = 0; p < count; ++p) {
        size_t li = pair_li[p];
        close_through(li);
        if (!keep[p]) continue;
        if (!matched.empty()) matched[li] = 1;
        emit_pair(li, pair_ri[p]);
      }
      pair_li.clear();
      pair_ri.clear();
      return Status::OK();
    };
    auto push_pair = [&](size_t li, size_t ri) -> Status {
      pair_li.push_back(li);
      pair_ri.push_back(ri);
      if (pair_li.size() >= kBatchCapacity) return flush_pairs();
      return Status::OK();
    };

    if (hash_join) {
      for (size_t li = 0; li < left_rows; ++li) {
        SQLFLOW_RETURN_IF_ERROR(candidates->ForEach(
            li, [&](size_t ri) { return push_pair(li, ri); }));
      }
    } else {
      for (size_t li = 0; li < left_rows; ++li) {
        for (size_t ri = 0; ri < right_rows; ++ri) {
          Status s = push_pair(li, ri);
          if (!s.ok()) return s;
        }
      }
    }
    {
      Status s = flush_pairs();
      if (!s.ok()) return s;
    }
    close_through(left_rows);

    if (prof != nullptr) {
      std::string op_name = hash_join ? "HASH JOIN" : "NESTED LOOP";
      if (ref.join_type == JoinType::kLeftOuter) op_name += " LEFT OUTER";
      ExecProfileOp& op = prof->Add(
          std::move(op_name), ref.join_condition != nullptr
                                  ? ref.join_condition->ToString()
                                  : "cross");
      op.rows_in = join_rows_in;
      op.rows_out = out_slots[0].size();
      op.loops = 1;
      op.batches = join_windows;
      op.elapsed_ns = obs::NowNanos() - join_start;
    }

    scope.columns = std::move(combined_cols);
    scope.sides.push_back(&right_side);
    scope.col_side.clear();
    scope.col_offset.clear();
    scope.col_side = probe.col_side;
    scope.col_offset = probe.col_offset;
    scope.slots = std::move(out_slots);
  }

  const size_t scope_rows = scope.row_count();
  VecRowBinding scalar_binding(&scope);
  EvalContext scalar_ctx;
  scalar_ctx.binding = &scalar_binding;
  scalar_ctx.params = &params;
  scalar_ctx.database = db_;

  // --- 2. WHERE -----------------------------------------------------------
  if (sel.where != nullptr) {
    const int64_t filter_start = prof != nullptr ? obs::NowNanos() : 0;
    const size_t filter_rows_in = scope_rows;
    std::vector<std::vector<uint32_t>> kept(scope.sides.size());
    uint64_t filter_windows = 0;
    VecCol cond_col;
    Batch window;
    std::vector<uint8_t> keep;
    for (size_t start = 0; start < scope_rows; start += kBatchCapacity) {
      const size_t count = std::min(kBatchCapacity, scope_rows - start);
      ++filter_windows;
      keep.assign(count, 0);
      VecWindow w{&scope, start, count, &params};
      if (TryVecEval(*sel.where, w, &cond_col)) {
        for (size_t i = 0; i < count; ++i) {
          keep[i] = VecIsTrue(cond_col, i) ? 1 : 0;
        }
      } else {
        for (size_t i = 0; i < count; ++i) {
          scalar_binding.set_row(start + i);
          SQLFLOW_ASSIGN_OR_RETURN(Value cond,
                                   EvaluateExpr(*sel.where, scalar_ctx));
          keep[i] = IsTrue(cond) ? 1 : 0;
        }
      }
      window.ResetIdentity(count);
      CompactSelection(&window, keep);
      for (uint32_t pos : window.selection) {
        const size_t r = start + pos;
        for (size_t s = 0; s < scope.sides.size(); ++s) {
          kept[s].push_back(scope.slots[s][r]);
        }
      }
    }
    scope.slots = std::move(kept);
    if (prof != nullptr) {
      ExecProfileOp& op = prof->Add("FILTER", sel.where->ToString());
      op.rows_in = filter_rows_in;
      op.rows_out = scope.row_count();
      op.loops = 1;
      op.batches = filter_windows;
      op.elapsed_ns = obs::NowNanos() - filter_start;
    }
  }
  const size_t filtered_rows = scope.row_count();

  // --- 3–4. Output columns; grouped or plain projection -----------------
  SQLFLOW_ASSIGN_OR_RETURN(SelectShape shape, ShapeSelect(sel, scope.columns));
  const std::vector<SelectOutput>& outputs = shape.outputs;
  const std::vector<int>& order_output_index = shape.order_output_index;
  const bool grouped = shape.grouped;
  std::vector<SortableRow> produced;

  const int64_t agg_start =
      (prof != nullptr && grouped) ? obs::NowNanos() : 0;
  uint64_t agg_windows = 0;
  if (grouped) {
    const std::vector<const Expr*>& agg_nodes = shape.aggs;
    const size_t num_aggs = agg_nodes.size();

    // 4a. Partition rows into groups (one pass, every key evaluated
    // before any aggregate argument).
    std::vector<uint32_t> group_of_row(filtered_rows, 0);
    std::vector<size_t> group_rep;   // first row of each group
    std::vector<int64_t> group_size;
    size_t num_groups = 0;
    if (sel.group_by.empty()) {
      num_groups = 1;
      group_rep.push_back(filtered_rows > 0 ? 0 : SIZE_MAX);
      group_size.push_back(static_cast<int64_t>(filtered_rows));
    } else {
      // Keys hash and compare straight from the key columns; a key Row
      // is built only when a row opens a new group.
      KeyHashTable group_index;
      std::vector<Row> group_keys;
      const size_t G = sel.group_by.size();
      std::vector<VecCol> key_cols(G);
      std::vector<uint8_t> key_vec(G, 0);
      Row scalar_keys(G);
      for (size_t start = 0; start < filtered_rows;
           start += kBatchCapacity) {
        const size_t count = std::min(kBatchCapacity, filtered_rows - start);
        VecWindow w{&scope, start, count, &params};
        for (size_t j = 0; j < G; ++j) {
          key_vec[j] = TryVecEval(*sel.group_by[j], w, &key_cols[j]) ? 1 : 0;
        }
        for (size_t i = 0; i < count; ++i) {
          const size_t r = start + i;
          uint64_t hash = 0;
          for (size_t j = 0; j < G; ++j) {
            if (!key_vec[j]) {
              scalar_binding.set_row(r);
              SQLFLOW_ASSIGN_OR_RETURN(
                  scalar_keys[j], EvaluateExpr(*sel.group_by[j], scalar_ctx));
            }
            hash = CombineHash(hash, key_vec[j]
                                         ? GroupValueHash(key_cols[j], i)
                                         : GroupValueHash(scalar_keys[j]));
          }
          auto same = [&](uint32_t g) {
            const Row& key = group_keys[g];
            for (size_t j = 0; j < G; ++j) {
              if (key_vec[j] ? !GroupValueEqual(key_cols[j], i, key[j])
                             : !GroupValueEqual(scalar_keys[j], key[j])) {
                return false;
              }
            }
            return true;
          };
          auto [g, inserted] = group_index.FindOrAdd(
              hash, static_cast<uint32_t>(num_groups), same);
          if (inserted) {
            Row key;
            key.reserve(G);
            for (size_t j = 0; j < G; ++j) {
              key.push_back(key_vec[j] ? key_cols[j].At(i) : scalar_keys[j]);
            }
            group_keys.push_back(std::move(key));
            ++num_groups;
            group_rep.push_back(r);
            group_size.push_back(0);
          }
          group_of_row[r] = g;
          ++group_size[g];
        }
      }
    }

    // 4b. Streaming accumulation, kBatchCapacity rows at a time. Skipped
    // for COUNT(*) / argless calls, which read no values, and for
    // arguments whose evaluation count is observable, which 4c evaluates
    // group by group.
    std::vector<AggKind> agg_kinds(num_aggs);
    std::vector<uint8_t> agg_skip(num_aggs, 0);
    std::vector<uint8_t> agg_deferred(num_aggs, 0);
    bool any_accum = false;
    bool any_deferred = false;
    for (size_t a = 0; a < num_aggs; ++a) {
      agg_kinds[a] = AggKindOf(agg_nodes[a]->function_name);
      if (AggregateTakesNoValues(*agg_nodes[a])) {
        agg_skip[a] = 1;
      } else if (EvalCountObservable(*agg_nodes[a]->children[0])) {
        agg_skip[a] = agg_deferred[a] = 1;
        any_deferred = true;
      } else {
        any_accum = true;
      }
    }
    std::vector<AggState> states(num_groups * num_aggs);
    if (any_accum && num_groups > 0) {
      VecCol arg_col;
      for (size_t start = 0; start < filtered_rows;
           start += kBatchCapacity) {
        const size_t count = std::min(kBatchCapacity, filtered_rows - start);
        ++agg_windows;
        for (size_t a = 0; a < num_aggs; ++a) {
          if (agg_skip[a]) continue;
          const Expr& agg = *agg_nodes[a];
          const AggKind kind = agg_kinds[a];
          const bool distinct = agg.distinct_arg;
          VecWindow w{&scope, start, count, &params};
          if (TryVecEval(*agg.children[0], w, &arg_col)) {
            if (arg_col.tag == Tag::kInt && !distinct) {
              for (size_t i = 0; i < count; ++i) {
                if (arg_col.IsNull(i)) continue;
                AggState& st =
                    states[group_of_row[start + i] * num_aggs + a];
                if (st.failed) continue;
                FeedInt(&st, kind, arg_col.ints[i]);
              }
            } else {
              for (size_t i = 0; i < count; ++i) {
                AggState& st =
                    states[group_of_row[start + i] * num_aggs + a];
                if (st.failed) continue;
                FeedValue(&st, kind, distinct, arg_col.At(i));
              }
            }
          } else {
            for (size_t i = 0; i < count; ++i) {
              const size_t r = start + i;
              AggState& st = states[group_of_row[r] * num_aggs + a];
              if (st.failed) continue;
              scalar_binding.set_row(r);
              Result<Value> v = EvaluateExpr(*agg.children[0], scalar_ctx);
              if (!v.ok()) {
                st.failed = true;
                st.error = v.status();
                continue;
              }
              FeedValue(&st, kind, distinct, *v);
            }
          }
        }
      }
    }

    // Rows of each group in input order, for the deferred aggregates.
    std::vector<std::vector<uint32_t>> group_rows(any_deferred ? num_groups
                                                               : 0);
    if (any_deferred) {
      for (size_t r = 0; r < filtered_rows; ++r) {
        group_rows[group_of_row[r]].push_back(static_cast<uint32_t>(r));
      }
    }

    // 4c. Finalize groups in first-seen order. Per group, each aggregate
    // in tree order (a deferred one evaluating its argument over the
    // group's rows, stopping at the first error), then HAVING and the
    // outputs: every effect and the first error land in the order of a
    // row-at-a-time evaluation.
    for (size_t g = 0; g < num_groups; ++g) {
      std::map<const Expr*, Value> agg_values;
      for (size_t a = 0; a < num_aggs; ++a) {
        const Expr& agg = *agg_nodes[a];
        AggState& st = states[g * num_aggs + a];
        if (agg_deferred[a]) {
          for (uint32_t r : group_rows[g]) {
            scalar_binding.set_row(r);
            SQLFLOW_ASSIGN_OR_RETURN(
                Value v, EvaluateExpr(*agg.children[0], scalar_ctx));
            FeedValue(&st, agg_kinds[a], agg.distinct_arg, v);
            if (st.failed) break;
          }
        }
        SQLFLOW_ASSIGN_OR_RETURN(agg_values[&agg],
                                 FinishAggregate(agg, st, group_size[g]));
      }

      VecRowBinding rep_binding(&scope);
      rep_binding.set_row(group_rep[g]);
      SQLFLOW_RETURN_IF_ERROR(EmitGroup(
          sel, shape, params, agg_values,
          group_size[g] == 0 ? nullptr : &rep_binding,
          [&](size_t i) -> const Value& {
            return scope.AtRef(group_rep[g], i);
          },
          &produced));
    }
  } else {
    // Plain projection: per-window kernels per output column, scalar
    // fallback per bailed column in row-major order
    // (vectorized columns are pure, so precomputing them cannot reorder
    // observable effects).
    const size_t O = outputs.size();
    const size_t K = sel.order_by.size();
    std::vector<VecCol> out_cols(O);
    std::vector<uint8_t> out_vec(O, 0);
    std::vector<VecCol> key_cols(K);
    std::vector<uint8_t> key_vec(K, 0);
    produced.reserve(filtered_rows);
    for (size_t start = 0; start < filtered_rows; start += kBatchCapacity) {
      const size_t count = std::min(kBatchCapacity, filtered_rows - start);
      VecWindow w{&scope, start, count, &params};
      for (size_t o = 0; o < O; ++o) {
        if (outputs[o].expr == nullptr) continue;
        out_vec[o] = TryVecEval(*outputs[o].expr, w, &out_cols[o]) ? 1 : 0;
      }
      for (size_t k = 0; k < K; ++k) {
        if (order_output_index[k] >= 0) continue;
        key_vec[k] =
            TryVecEval(*sel.order_by[k].expr, w, &key_cols[k]) ? 1 : 0;
      }
      for (size_t i = 0; i < count; ++i) {
        const size_t r = start + i;
        SortableRow out_row;
        out_row.output.reserve(O);
        for (size_t o = 0; o < O; ++o) {
          const SelectOutput& out = outputs[o];
          if (out.expr == nullptr) {
            out_row.output.push_back(scope.AtRef(r, out.scope_index));
          } else if (out_vec[o]) {
            out_row.output.push_back(out_cols[o].At(i));
          } else {
            scalar_binding.set_row(r);
            SQLFLOW_ASSIGN_OR_RETURN(Value v,
                                     EvaluateExpr(*out.expr, scalar_ctx));
            out_row.output.push_back(std::move(v));
          }
        }
        for (size_t k = 0; k < K; ++k) {
          if (order_output_index[k] >= 0) {
            out_row.sort_keys.push_back(
                out_row.output[static_cast<size_t>(order_output_index[k])]);
          } else if (key_vec[k]) {
            out_row.sort_keys.push_back(key_cols[k].At(i));
          } else {
            scalar_binding.set_row(r);
            SQLFLOW_ASSIGN_OR_RETURN(
                Value v, EvaluateExpr(*sel.order_by[k].expr, scalar_ctx));
            out_row.sort_keys.push_back(std::move(v));
          }
        }
        produced.push_back(std::move(out_row));
      }
    }
  }
  if (prof != nullptr && grouped) {
    RecordAggregate(sel, filtered_rows, produced.size(), agg_windows,
                    agg_start);
  }
  return FinishSelect(sel, shape, order_by_presorted, std::move(produced));
}

}  // namespace sqlflow::sql
