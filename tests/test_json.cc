// Tests for util/json: the minimal parser behind the merge subcommand and
// shard artifacts, the escaping shared by every JSON writer, and the
// exact-double round trip the artifacts rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "util/json.h"

namespace fairsched {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_EQ(parse_json("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_DOUBLE_EQ(parse_json("3.5").as_double(), 3.5);
  EXPECT_EQ(parse_json("-42").as_int(), -42);
  EXPECT_EQ(parse_json("18446744073709551615").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("  -2.5E-1 ").as_double(), -0.25);
}

TEST(Json, ParsesContainers) {
  const JsonValue doc = parse_json(
      "{\"a\": [1, 2, 3], \"b\": {\"nested\": true}, \"c\": \"x\"}");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.at("a").items().size(), 3u);
  EXPECT_EQ(doc.at("a").items()[2].as_int(), 3);
  EXPECT_TRUE(doc.at("b").at("nested").as_bool());
  EXPECT_EQ(doc.at("c").as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), std::invalid_argument);
  // Field order is preserved for tooling that cares.
  EXPECT_EQ(doc.fields()[0].first, "a");
  EXPECT_EQ(parse_json("[]").items().size(), 0u);
  EXPECT_EQ(parse_json("{}").fields().size(), 0u);
}

TEST(Json, TypeErrorsNameTheExpectedKind) {
  try {
    parse_json("[1]").as_string();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected string"),
              std::string::npos);
  }
  EXPECT_THROW(parse_json("\"x\"").as_double(), std::invalid_argument);
  EXPECT_THROW(parse_json("1.5").as_int(), std::invalid_argument);
  EXPECT_THROW(parse_json("-1").as_uint(), std::invalid_argument);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2",
        "{\"a\": 1,}", "nan", "+1", "01a", "\"\\q\"", "\"\\u12g4\""}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, EscapeAndParseRoundTripStrings) {
  const std::string nasty = "quote\" back\\slash\nnew\tline\x01ctrl";
  const std::string doc =
      std::string("\"").append(json_escape(nasty)).append("\"");
  EXPECT_EQ(parse_json(doc).as_string(), nasty);
}

TEST(Json, ExactDoubleRoundTripsBitForBit) {
  for (double v : {0.0, -0.0, 1.0 / 3.0, 1e-300, -1.7976931348623157e308,
                   0.1, 123456789.123456789, 5e-324}) {
    const std::string text = json_exact_double(v);
    const double back = parse_json(text).as_double();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << text;
  }
}

}  // namespace
}  // namespace fairsched
