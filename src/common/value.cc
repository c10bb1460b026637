#include "common/value.h"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace sqlflow {

namespace {

// Rank used by Compare() for cross-type total ordering.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBoolean:
      return 1;
    case ValueType::kInteger:
    case ValueType::kDouble:
      return 2;  // numbers compare with each other
    case ValueType::kString:
      return 3;
  }
  return 4;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBoolean:
      return "BOOLEAN";
    case ValueType::kInteger:
      return "INTEGER";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Result<int64_t> Value::AsInteger() const {
  switch (type_) {
    case ValueType::kInteger:
      return integer();
    case ValueType::kDouble:
      return static_cast<int64_t>(dbl());
    case ValueType::kBoolean:
      return static_cast<int64_t>(boolean() ? 1 : 0);
    case ValueType::kString: {
      const std::string& s = str();
      char* end = nullptr;
      long long v = std::strtoll(s.c_str(), &end, 10);
      if (end == s.c_str() || *end != '\0') {
        return Status::TypeError("cannot convert '" + s + "' to INTEGER");
      }
      return static_cast<int64_t>(v);
    }
    case ValueType::kNull:
      return Status::TypeError("cannot convert NULL to INTEGER");
  }
  return Status::Internal("bad value type");
}

Result<double> Value::AsDouble() const {
  switch (type_) {
    case ValueType::kDouble:
      return dbl();
    case ValueType::kInteger:
      return static_cast<double>(integer());
    case ValueType::kBoolean:
      return boolean() ? 1.0 : 0.0;
    case ValueType::kString: {
      const std::string& s = str();
      char* end = nullptr;
      double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0') {
        return Status::TypeError("cannot convert '" + s + "' to DOUBLE");
      }
      return v;
    }
    case ValueType::kNull:
      return Status::TypeError("cannot convert NULL to DOUBLE");
  }
  return Status::Internal("bad value type");
}

Result<bool> Value::AsBoolean() const {
  switch (type_) {
    case ValueType::kBoolean:
      return boolean();
    case ValueType::kInteger:
      return integer() != 0;
    case ValueType::kDouble:
      return dbl() != 0.0;
    case ValueType::kString: {
      const std::string& s = str();
      if (s == "true" || s == "TRUE" || s == "1") return true;
      if (s == "false" || s == "FALSE" || s == "0") return false;
      return Status::TypeError("cannot convert '" + s + "' to BOOLEAN");
    }
    case ValueType::kNull:
      return Status::TypeError("cannot convert NULL to BOOLEAN");
  }
  return Status::Internal("bad value type");
}

std::string Value::AsString() const {
  switch (type_) {
    case ValueType::kNull:
      return "";
    case ValueType::kBoolean:
      return boolean() ? "true" : "false";
    case ValueType::kInteger:
      return std::to_string(integer());
    case ValueType::kDouble:
      return FormatDouble(dbl());
    case ValueType::kString:
      return str();
  }
  return "";
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBoolean:
      return boolean() ? "TRUE" : "FALSE";
    default:
      return AsString();
  }
}

bool Value::Equals(const Value& other) const { return Compare(other) == 0; }

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type_);
  int rb = TypeRank(other.type_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBoolean: {
      bool a = boolean();
      bool b = other.boolean();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kInteger:
    case ValueType::kDouble: {
      // Mixed numeric comparison goes through double; exact for the
      // magnitudes the workloads use.
      if (type_ == ValueType::kInteger &&
          other.type_ == ValueType::kInteger) {
        int64_t a = integer();
        int64_t b = other.integer();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      double a = type_ == ValueType::kInteger
                     ? static_cast<double>(integer())
                     : dbl();
      double b = other.type_ == ValueType::kInteger
                     ? static_cast<double>(other.integer())
                     : other.dbl();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kString:
      return str().compare(other.str()) == 0
                 ? 0
                 : (str() < other.str() ? -1 : 1);
  }
  return 0;
}

void PrintTo(const Value& value, std::ostream* os) {
  if (value.is_null()) {
    *os << "NULL";
    return;
  }
  *os << ValueTypeName(value.type()) << ' ';
  if (value.type() == ValueType::kString) {
    *os << std::quoted(value.str());
  } else {
    *os << value.ToString();
  }
}

}  // namespace sqlflow
