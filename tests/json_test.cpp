#include <gtest/gtest.h>

#include "util/json.hpp"

namespace ios {
namespace {

TEST(Json, ScalarRoundtrip) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(-3.5).dump(), "-3.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  const JsonValue v("a\"b\\c\nd\te");
  const std::string dumped = v.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(JsonValue::parse(dumped).as_string(), v.as_string());
}

TEST(Json, ArrayAndObjectBuilders) {
  JsonValue arr = JsonValue::array();
  arr.push_back(1).push_back("two").push_back(JsonValue(true));
  EXPECT_EQ(arr.dump(), "[1,\"two\",true]");

  JsonValue obj = JsonValue::object();
  obj.set("b", 2).set("a", 1);
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");  // keys sorted
}

TEST(Json, NestedRoundtrip) {
  JsonValue root = JsonValue::object();
  JsonValue inner = JsonValue::array();
  inner.push_back(JsonValue::object().set("x", 1.25));
  inner.push_back(nullptr);
  root.set("items", std::move(inner));
  root.set("count", 2);

  const JsonValue parsed = JsonValue::parse(root.dump());
  EXPECT_EQ(parsed.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(
      parsed.at("items").as_array()[0].at("x").as_number(), 1.25);
  EXPECT_TRUE(parsed.at("items").as_array()[1].is_null());
}

TEST(Json, ParseWhitespaceTolerant) {
  const JsonValue v = JsonValue::parse("  {\n\t\"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(Json, ParseNumbers) {
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(JsonValue::parse("0").as_int(), 0);
  EXPECT_EQ(JsonValue::parse("9007199254740992").as_int(),
            9007199254740992ll);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
  // A number consumes its whole token: these once parsed as 2, 100000,
  // 1.5 and {"workers": 2}.
  EXPECT_THROW(JsonValue::parse("2-1"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1e5e5"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1.5.5"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(R"({"workers": 2-1})"), std::runtime_error);
}

TEST(Json, KindMismatchThrows) {
  const JsonValue v(1.0);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(v.at("x"), std::runtime_error);
  const JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.at("missing"), std::runtime_error);
  EXPECT_FALSE(obj.contains("missing"));
}

TEST(Json, UnicodeEscapeParsing) {
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, FileRoundtrip) {
  const std::string path = ::testing::TempDir() + "/ios_json_test.json";
  write_file(path, "{\"k\":7}");
  EXPECT_EQ(JsonValue::parse(read_file(path)).at("k").as_int(), 7);
  EXPECT_THROW(read_file("/nonexistent/dir/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace ios
