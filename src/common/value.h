#ifndef SQLFLOW_COMMON_VALUE_H_
#define SQLFLOW_COMMON_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>

#include "common/status.h"

namespace sqlflow {

/// Scalar SQL / process-variable types shared by every sqlflow layer.
enum class ValueType {
  kNull = 0,
  kBoolean,
  kInteger,  // 64-bit signed
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar value: the unit of data exchanged between
/// the SQL engine, XML RowSets, DataSets, and workflow variables.
///
/// Semantics follow SQL: NULL compares as unknown in expressions (the SQL
/// executor handles that); `Equals`/`Compare` here implement *total*
/// ordering with NULL < everything, which storage and tests rely on.
class Value {
 public:
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool v) { return Value(ValueType::kBoolean, v); }
  static Value Integer(int64_t v) { return Value(ValueType::kInteger, v); }
  static Value Double(double v) { return Value(ValueType::kDouble, v); }
  static Value String(std::string v) {
    return Value(ValueType::kString, std::move(v));
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  /// Typed accessors. Calling the wrong accessor is a programming error;
  /// use the As*() coercions for dynamically typed inputs.
  bool boolean() const { return std::get<bool>(payload_); }
  int64_t integer() const { return std::get<int64_t>(payload_); }
  double dbl() const { return std::get<double>(payload_); }
  const std::string& str() const { return std::get<std::string>(payload_); }

  /// Coercions with SQL-ish semantics (string "12" → 12, bool → 0/1...).
  Result<int64_t> AsInteger() const;
  Result<double> AsDouble() const;
  Result<bool> AsBoolean() const;
  /// Never fails: NULL renders as "" here; use ToString() for display.
  std::string AsString() const;

  /// Display form: NULL, TRUE/FALSE, numbers, or the raw string.
  std::string ToString() const;

  /// Total-order equality (NULL == NULL). Numeric types compare by value
  /// across int/double.
  bool Equals(const Value& other) const;
  /// Total order: NULL < booleans < numbers < strings; -1/0/+1.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Equals(other); }

 private:
  using Payload = std::variant<std::monostate, bool, int64_t, double,
                               std::string>;

  template <typename T>
  Value(ValueType type, T payload)
      : type_(type), payload_(std::move(payload)) {}

  ValueType type_;
  Payload payload_;
};

/// Debug form: the type name and the value — `INTEGER 5`, `STRING "a"`,
/// `BOOLEAN TRUE`, `NULL`. Named PrintTo so googletest finds it by
/// argument-dependent lookup and prints a failed Value or Row comparison
/// readably instead of as raw object bytes.
void PrintTo(const Value& value, std::ostream* os);

}  // namespace sqlflow

#endif  // SQLFLOW_COMMON_VALUE_H_
