#include <gtest/gtest.h>

#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "common/value.h"

namespace sqlflow {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("no table 'T'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "no table 'T'");
  EXPECT_EQ(st.ToString(), "NotFound: no table 'T'");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("m").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::SyntaxError("m").code(), StatusCode::kSyntaxError);
  EXPECT_EQ(Status::TypeError("m").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::ConstraintError("m").code(),
            StatusCode::kConstraintError);
  EXPECT_EQ(Status::Unsupported("m").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::ExecutionError("m").code(),
            StatusCode::kExecutionError);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

// --- Result ------------------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value(), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(Result<int>(ParsePositive(3)).value_or(9), 3);
  EXPECT_EQ(Result<int>(ParsePositive(-3)).value_or(9), 9);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

Result<int> Doubled(int x) {
  SQLFLOW_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(-4).ok());
}

// --- Value --------------------------------------------------------------------

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Integer(42).integer(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).dbl(), 1.5);
  EXPECT_EQ(Value::String("abc").str(), "abc");
  EXPECT_TRUE(Value::Boolean(true).boolean());
}

TEST(ValueTest, AsIntegerCoercions) {
  EXPECT_EQ(*Value::Integer(7).AsInteger(), 7);
  EXPECT_EQ(*Value::Double(7.9).AsInteger(), 7);
  EXPECT_EQ(*Value::String("12").AsInteger(), 12);
  EXPECT_EQ(*Value::Boolean(true).AsInteger(), 1);
  EXPECT_FALSE(Value::String("12x").AsInteger().ok());
  EXPECT_FALSE(Value::Null().AsInteger().ok());
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(*Value::Integer(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(*Value::String("2.5").AsDouble(), 2.5);
  EXPECT_FALSE(Value::String("").AsDouble().ok());
}

TEST(ValueTest, AsBooleanCoercions) {
  EXPECT_TRUE(*Value::String("true").AsBoolean());
  EXPECT_FALSE(*Value::String("0").AsBoolean());
  EXPECT_TRUE(*Value::Integer(5).AsBoolean());
  EXPECT_FALSE(Value::String("maybe").AsBoolean().ok());
}

TEST(ValueTest, AsStringNeverFails) {
  EXPECT_EQ(Value::Null().AsString(), "");
  EXPECT_EQ(Value::Integer(-3).AsString(), "-3");
  EXPECT_EQ(Value::Boolean(false).AsString(), "false");
}

TEST(ValueTest, EqualsAcrossNumericTypes) {
  EXPECT_TRUE(Value::Integer(2).Equals(Value::Double(2.0)));
  EXPECT_FALSE(Value::Integer(2).Equals(Value::String("2")));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
}

TEST(ValueTest, TotalOrder) {
  // NULL < booleans < numbers < strings.
  EXPECT_LT(Value::Null().Compare(Value::Boolean(false)), 0);
  EXPECT_LT(Value::Boolean(true).Compare(Value::Integer(0)), 0);
  EXPECT_LT(Value::Integer(99).Compare(Value::String("")), 0);
  EXPECT_GT(Value::Integer(3).Compare(Value::Integer(2)), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
}

// --- string_util ---------------------------------------------------------------

TEST(ValueTest, PrintsTypeAndValueForTestFailures) {
  EXPECT_EQ(::testing::PrintToString(Value::Null()), "NULL");
  EXPECT_EQ(::testing::PrintToString(Value::Boolean(true)), "BOOLEAN TRUE");
  EXPECT_EQ(::testing::PrintToString(Value::Integer(5)), "INTEGER 5");
  EXPECT_EQ(::testing::PrintToString(Value::Double(1.5)), "DOUBLE 1.5");
  EXPECT_EQ(::testing::PrintToString(Value::String("a \"b\"")),
            "STRING \"a \\\"b\\\"\"");
  // Rows (vectors of values) print element by element.
  EXPECT_EQ(::testing::PrintToString(
                std::vector<Value>{Value::Integer(1), Value::String("x")}),
            "{ INTEGER 1, STRING \"x\" }");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToUpperAscii("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("ItemID", "ITEMID"));
  EXPECT_FALSE(EqualsIgnoreCase("ItemID", "ItemIDs"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(Split("abc", ',').size(), 1u);
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("memdb://x", "memdb://"));
  EXPECT_FALSE(StartsWith("mem", "memdb://"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a{T}b{T}", "{T}", "x"), "axbx");
  EXPECT_EQ(ReplaceAll("abc", "{T}", "x"), "abc");
  EXPECT_EQ(ReplaceAll("aaa", "a", "aa"), "aaaaaa");
}

// Property-style sweep: round-trip Value through string for integers.
class ValueRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ValueRoundTripTest, IntegerThroughString) {
  int64_t n = GetParam();
  Value v = Value::Integer(n);
  Result<int64_t> back = Value::String(v.AsString()).AsInteger();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ValueRoundTripTest,
                         ::testing::Values(0, 1, -1, 42, -9999999,
                                           1234567890123LL,
                                           -1234567890123LL));

}  // namespace
}  // namespace sqlflow
