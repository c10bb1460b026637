#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace sqlflow::xpath {
namespace {

class XPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xml::Parse(R"(
      <RowSet columns="ItemID,Qty">
        <Row num="1"><ItemID>10</ItemID><Qty>8</Qty></Row>
        <Row num="2"><ItemID>20</ItemID><Qty>2</Qty></Row>
        <Row num="3"><ItemID>30</ItemID><Qty>5</Qty></Row>
      </RowSet>)");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = *doc;
  }

  XPathValue Eval(const std::string& expr) {
    auto v = EvaluateXPath(expr, doc_, env_);
    EXPECT_TRUE(v.ok()) << expr << " → " << v.status().ToString();
    return v.ok() ? *v : XPathValue();
  }

  xml::NodePtr doc_;
  EvalEnv env_;
};

TEST_F(XPathTest, ChildStep) {
  EXPECT_EQ(Eval("Row").nodes().size(), 3u);
  EXPECT_EQ(Eval("Row/ItemID").nodes().size(), 3u);
  EXPECT_EQ(Eval("NoSuch").nodes().size(), 0u);
}

TEST_F(XPathTest, AbsolutePathMatchesRootElement) {
  EXPECT_EQ(Eval("/RowSet/Row").nodes().size(), 3u);
  EXPECT_EQ(Eval("/RowSet/Row[1]/ItemID").ToStringValue(), "10");
}

TEST_F(XPathTest, PositionalPredicates) {
  EXPECT_EQ(Eval("Row[1]/ItemID").ToStringValue(), "10");
  EXPECT_EQ(Eval("Row[3]/ItemID").ToStringValue(), "30");
  EXPECT_EQ(Eval("Row[9]").nodes().size(), 0u);
  EXPECT_EQ(Eval("Row[last()]/ItemID").ToStringValue(), "30");
  EXPECT_EQ(Eval("Row[position() > 1]").nodes().size(), 2u);
}

TEST_F(XPathTest, ValuePredicates) {
  EXPECT_EQ(Eval("Row[Qty > 4]").nodes().size(), 2u);
  EXPECT_EQ(Eval("Row[ItemID = 20]/Qty").ToStringValue(), "2");
  EXPECT_EQ(Eval("Row[@num='2']/ItemID").ToStringValue(), "20");
  EXPECT_EQ(Eval("Row[Qty > 1][Qty < 6]").nodes().size(), 2u);
}

TEST_F(XPathTest, AttributeAxis) {
  EXPECT_EQ(Eval("Row[1]/@num").ToStringValue(), "1");
  EXPECT_EQ(Eval("@columns").ToStringValue(), "ItemID,Qty");
  EXPECT_EQ(Eval("@nope").nodes().size(), 0u);
}

TEST_F(XPathTest, Wildcards) {
  EXPECT_EQ(Eval("Row[1]/*").nodes().size(), 2u);
  EXPECT_EQ(Eval("*").nodes().size(), 3u);
}

TEST_F(XPathTest, DescendantOrSelf) {
  EXPECT_EQ(Eval("//ItemID").nodes().size(), 3u);
  EXPECT_EQ(Eval("//Qty[. > 4]").nodes().size(), 2u);
}

TEST_F(XPathTest, ParentAndSelf) {
  EXPECT_EQ(Eval("Row[1]/ItemID/..").nodes().size(), 1u);
  EXPECT_EQ(Eval(".").nodes().size(), 1u);
  EXPECT_EQ(Eval("./Row").nodes().size(), 3u);
}

TEST_F(XPathTest, TextNodeTest) {
  EXPECT_EQ(Eval("Row[1]/ItemID/text()").ToStringValue(), "10");
}

TEST_F(XPathTest, CoreFunctions) {
  EXPECT_DOUBLE_EQ(Eval("count(Row)").ToNumber(), 3.0);
  EXPECT_EQ(Eval("concat('a', 'b', 1)").ToStringValue(), "ab1");
  EXPECT_TRUE(Eval("contains('hello', 'ell')").ToBool());
  EXPECT_TRUE(Eval("starts-with('hello', 'he')").ToBool());
  EXPECT_DOUBLE_EQ(Eval("string-length('abcd')").ToNumber(), 4.0);
  EXPECT_TRUE(Eval("not(false())").ToBool());
  EXPECT_TRUE(Eval("true()").ToBool());
  EXPECT_FALSE(Eval("false()").ToBool());
  EXPECT_EQ(Eval("normalize-space('  a   b ')").ToStringValue(), "a b");
  EXPECT_EQ(Eval("substring('12345', 2, 3)").ToStringValue(), "234");
  EXPECT_EQ(Eval("substring('12345', 2)").ToStringValue(), "2345");
  EXPECT_EQ(Eval("name(Row[1])").ToStringValue(), "Row");
  EXPECT_EQ(Eval("string(123)").ToStringValue(), "123");
  EXPECT_DOUBLE_EQ(Eval("number('42')").ToNumber(), 42.0);
  EXPECT_TRUE(Eval("boolean(Row)").ToBool());
}

TEST_F(XPathTest, NumericFunctions) {
  EXPECT_DOUBLE_EQ(Eval("sum(Row/Qty)").ToNumber(), 15.0);
  EXPECT_DOUBLE_EQ(Eval("sum(NoSuch)").ToNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Eval("floor(2.7)").ToNumber(), 2.0);
  EXPECT_DOUBLE_EQ(Eval("ceiling(2.1)").ToNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("round(2.5)").ToNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("round(-2.5)").ToNumber(), -2.0);  // toward +inf
  EXPECT_FALSE(EvaluateXPath("sum(5)", doc_, env_).ok());
}

TEST_F(XPathTest, StringSplittingFunctions) {
  EXPECT_EQ(Eval("substring-before('a=b', '=')").ToStringValue(), "a");
  EXPECT_EQ(Eval("substring-after('a=b', '=')").ToStringValue(), "b");
  EXPECT_EQ(Eval("substring-before('ab', '=')").ToStringValue(), "");
  EXPECT_EQ(Eval("substring-after('ab', '=')").ToStringValue(), "");
  EXPECT_EQ(Eval("translate('abcabc', 'abc', 'xy')").ToStringValue(),
            "xyxy");
}

TEST_F(XPathTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(Eval("1 + 2 * 3").ToNumber(), 7.0);
  EXPECT_DOUBLE_EQ(Eval("10 div 4").ToNumber(), 2.5);
  EXPECT_DOUBLE_EQ(Eval("10 mod 3").ToNumber(), 1.0);
  EXPECT_DOUBLE_EQ(Eval("-(2 + 3)").ToNumber(), -5.0);
  EXPECT_DOUBLE_EQ(Eval("Row[1]/Qty + Row[2]/Qty").ToNumber(), 10.0);
}

TEST_F(XPathTest, Comparisons) {
  EXPECT_TRUE(Eval("1 < 2").ToBool());
  EXPECT_TRUE(Eval("2 <= 2").ToBool());
  EXPECT_TRUE(Eval("'a' = 'a'").ToBool());
  EXPECT_TRUE(Eval("'a' != 'b'").ToBool());
  EXPECT_TRUE(Eval("Row/Qty = 8").ToBool());    // existential
  EXPECT_TRUE(Eval("Row/Qty > 7").ToBool());
  EXPECT_FALSE(Eval("Row/Qty > 8").ToBool());
}

TEST_F(XPathTest, LogicalOperatorsShortCircuit) {
  EXPECT_TRUE(Eval("true() or 1 div 0 > 0").ToBool());
  EXPECT_FALSE(Eval("false() and 1 div 0 > 0").ToBool());
}

TEST_F(XPathTest, Union) {
  EXPECT_EQ(Eval("Row[1] | Row[2]").nodes().size(), 2u);
  EXPECT_EQ(Eval("Row[1] | Row[1]").nodes().size(), 1u);  // dedup
}

TEST_F(XPathTest, Variables) {
  env_.variable_resolver =
      [this](const std::string& name) -> Result<XPathValue> {
    if (name == "doc") return XPathValue::NodeSet({doc_});
    if (name == "n") return XPathValue::Number(2);
    if (name == "s") return XPathValue::String("20");
    return Status::NotFound("no variable " + name);
  };
  EXPECT_EQ(Eval("$doc/Row").nodes().size(), 3u);
  EXPECT_EQ(Eval("$doc/Row[$n]/ItemID").ToStringValue(), "20");
  EXPECT_TRUE(Eval("$doc/Row/ItemID = $s").ToBool());
  EXPECT_FALSE(EvaluateXPath("$missing", doc_, env_).ok());
}

TEST_F(XPathTest, VariableWithImmediatePredicate) {
  env_.variable_resolver =
      [this](const std::string&) -> Result<XPathValue> {
    return XPathValue::NodeSet({doc_});
  };
  EXPECT_EQ(Eval("$v[1]/Row[2]/Qty").ToStringValue(), "2");
}

TEST_F(XPathTest, ExtensionFunctionRegistry) {
  FunctionRegistry registry;
  ASSERT_TRUE(registry
                  .Register("my:twice",
                            [](const std::vector<XPathValue>& args)
                                -> Result<XPathValue> {
                              return XPathValue::Number(
                                  args[0].ToNumber() * 2);
                            })
                  .ok());
  EXPECT_FALSE(registry.Register("my:twice", nullptr).ok());
  env_.functions = &registry;
  EXPECT_DOUBLE_EQ(Eval("my:twice(21)").ToNumber(), 42.0);
  EXPECT_EQ(registry.FunctionNames().size(), 1u);
}

TEST_F(XPathTest, UnknownFunctionIsError) {
  auto v = EvaluateXPath("no:such(1)", doc_, env_);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST_F(XPathTest, SelectHelpers) {
  auto nodes = SelectNodes("Row", doc_, env_);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 3u);
  auto one = SelectSingleNode("Row[2]", doc_, env_);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)->GetAttribute("num").value_or(""), "2");
  EXPECT_FALSE(SelectSingleNode("NoSuch", doc_, env_).ok());
  EXPECT_FALSE(SelectNodes("1 + 1", doc_, env_).ok());
}

TEST_F(XPathTest, ValueConversions) {
  EXPECT_EQ(XPathValue::Number(3).ToStringValue(), "3");
  EXPECT_EQ(XPathValue::Number(3.5).ToStringValue(), "3.5");
  EXPECT_EQ(XPathValue::Boolean(true).ToStringValue(), "true");
  EXPECT_TRUE(std::isnan(XPathValue::String("abc").ToNumber()));
  EXPECT_DOUBLE_EQ(XPathValue::String(" 42 ").ToNumber(), 42.0);
  EXPECT_FALSE(XPathValue::String("").ToBool());
  EXPECT_TRUE(XPathValue::String("x").ToBool());
  EXPECT_FALSE(XPathValue::Number(0).ToBool());
  EXPECT_FALSE(XPathValue::NodeSet({}).ToBool());
}

TEST_F(XPathTest, SyntaxErrors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("Row[").ok());
  EXPECT_FALSE(ParseXPath("fn(1,").ok());
  EXPECT_FALSE(ParseXPath("'unterminated").ok());
  EXPECT_FALSE(ParseXPath("$").ok());
  EXPECT_FALSE(ParseXPath("a !! b").ok());
}

TEST_F(XPathTest, PathOverScalarIsTypeError) {
  env_.variable_resolver =
      [](const std::string&) -> Result<XPathValue> {
    return XPathValue::Number(5);
  };
  EXPECT_FALSE(EvaluateXPath("$x/Row", doc_, env_).ok());
}

// Parameterized: Row[k]/ItemID values across the whole document. The
// expected value is a std::string so the discovered test names print it
// by value, not as a pointer that changes from run to run.
class RowIndexTest
    : public ::testing::TestWithParam<std::pair<int, std::string>> {};

TEST_P(RowIndexTest, IndexedAccess) {
  auto doc = xml::Parse(
      "<R><Row><V>10</V></Row><Row><V>20</V></Row><Row><V>30</V></Row>"
      "<Row><V>40</V></Row></R>");
  ASSERT_TRUE(doc.ok());
  auto [index, expected] = GetParam();
  auto v = EvaluateXPath(
      "Row[" + std::to_string(index) + "]/V", *doc, EvalEnv());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToStringValue(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RowIndexTest,
    ::testing::Values(std::make_pair(1, std::string("10")),
                      std::make_pair(2, std::string("20")),
                      std::make_pair(3, std::string("30")),
                      std::make_pair(4, std::string("40"))));

}  // namespace
}  // namespace sqlflow::xpath
