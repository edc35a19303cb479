#include "util/json.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace spmap {
namespace {

TEST(Json, Scalars) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_DOUBLE_EQ(Json(3.5).as_double(), 3.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, TypeErrorsThrow) {
  EXPECT_THROW(Json(1.0).as_string(), Error);
  EXPECT_THROW(Json("x").as_double(), Error);
  EXPECT_THROW(Json(1.5).as_int(), Error);
  EXPECT_THROW(Json().at("k"), Error);
}

TEST(Json, AsIntRejectsOutOfRange) {
  // [-2^63, 2^63) is where the conversion to int64_t is defined; outside
  // it the cast would be undefined behaviour, so as_int refuses.
  EXPECT_EQ(Json(-0x1p63).as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json(0x1p62).as_int(), std::int64_t{1} << 62);
  EXPECT_THROW(Json(0x1p63).as_int(), Error);
  EXPECT_THROW(Json::parse("9223372036854775808").as_int(), Error);
  EXPECT_THROW(Json(1e300).as_int(), Error);
  EXPECT_THROW(Json(-1e300).as_int(), Error);
  EXPECT_THROW(Json::parse("1e999").as_int(), Error);  // parses to inf
  EXPECT_THROW(Json(std::nan("")).as_int(), Error);
}

TEST(Json, ObjectSetAndAt) {
  Json o = Json::object();
  o.set("a", 1);
  o.set("b", "two");
  o.set("a", 3);  // overwrite
  EXPECT_EQ(o.at("a").as_int(), 3);
  EXPECT_EQ(o.at("b").as_string(), "two");
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("c"));
  EXPECT_THROW(o.at("c"), Error);
}

TEST(Json, RoundTripCompact) {
  Json o = Json::object();
  o.set("name", "series-parallel");
  o.set("count", 17);
  o.set("ratio", 0.25);
  o.set("flag", false);
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(Json(nullptr));
  arr.push_back("x\"y\\z");
  o.set("items", std::move(arr));

  const Json parsed = Json::parse(o.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "series-parallel");
  EXPECT_EQ(parsed.at("count").as_int(), 17);
  EXPECT_DOUBLE_EQ(parsed.at("ratio").as_double(), 0.25);
  EXPECT_FALSE(parsed.at("flag").as_bool());
  const auto& items = parsed.at("items").as_array();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].as_int(), 1);
  EXPECT_TRUE(items[1].is_null());
  EXPECT_EQ(items[2].as_string(), "x\"y\\z");
}

TEST(Json, ParseWhitespaceAndNesting) {
  const Json v = Json::parse(R"(  { "a" : [ { "b" : [ 1 , 2 ] } ] }  )");
  EXPECT_EQ(v.at("a").as_array()[0].at("b").as_array()[1].as_int(), 2);
}

TEST(Json, ParseNegativeAndExponent) {
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_double(), -250.0);
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("{} extra"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

TEST(Json, NegativeZeroRoundTrips) {
  // Regression: the integral fast path printed -0.0 as "0", losing the
  // sign bit on a round trip.
  const Json neg(-0.0);
  EXPECT_EQ(neg.dump(), "-0");
  const Json back = Json::parse(neg.dump());
  EXPECT_EQ(back.as_double(), 0.0);
  EXPECT_TRUE(std::signbit(back.as_double()));
  EXPECT_EQ(back.dump(), neg.dump());  // idempotent
  // Positive zero is unaffected.
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_FALSE(std::signbit(Json::parse("0").as_double()));
}

TEST(Json, SubnormalsRoundTrip) {
  // Regression: std::stod throws out_of_range on glibc's ERANGE for
  // subnormal results, so a dumped denormal could not be parsed back.
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double subnormal = 3.1234e-310;  // between denorm_min and DBL_MIN
  for (const double d : {denorm_min, -denorm_min, subnormal, -subnormal}) {
    const std::string text = Json(d).dump();
    const Json back = Json::parse(text);
    EXPECT_EQ(back.as_double(), d) << text;
    EXPECT_EQ(back.dump(), text) << "dump must be idempotent";
  }
  EXPECT_EQ(Json::parse("5e-324").as_double(), denorm_min);
  // Underflow below the smallest subnormal parses as (signed) zero, the
  // nearest double — not an error.
  EXPECT_EQ(Json::parse("1e-999").as_double(), 0.0);
  EXPECT_TRUE(std::signbit(Json::parse("-1e-999").as_double()));
}

TEST(Json, HugeMagnitudesRoundTrip) {
  const double dbl_max = std::numeric_limits<double>::max();
  const double dbl_min_normal = std::numeric_limits<double>::min();
  for (const double d : {1e308, -1e308, dbl_max, -dbl_max, 1e-308, -1e-308,
                         dbl_min_normal, -dbl_min_normal}) {
    const std::string text = Json(d).dump();
    const Json back = Json::parse(text);
    EXPECT_EQ(back.as_double(), d) << text;
    EXPECT_EQ(back.dump(), text) << "dump must be idempotent";
  }
  // Values beyond the double range overflow to infinity: a parse error,
  // because dumped documents never contain them (non-finite prints null).
  EXPECT_THROW(Json::parse("1e999"), Error);
  EXPECT_THROW(Json::parse("-1e999"), Error);
  // Non-finite values keep printing as null.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

/// The number formatter the fast path replaced, verbatim: the smallest
/// p in 1..17 whose `%.{p}g` parses back exactly. The oracle of the
/// byte-identity test below.
std::string reference_number(double d) {
  char buf[32];
  if (!std::isfinite(d)) return "null";
  if (d == 0.0 && std::signbit(d)) return "-0";
  if (std::nearbyint(d) == d && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

TEST(Json, NumberFormattingIsByteIdenticalToThePrintfSearch) {
  std::vector<double> values;
  // Random bit patterns: every exponent, NaN/inf patterns included.
  std::mt19937_64 bits(20240229);
  for (int i = 0; i < 150000; ++i) {
    values.push_back(std::bit_cast<double>(bits()));
  }
  // Random subnormals (biased exponent 0), both signs.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t pattern = bits() & 0x800fffffffffffffULL;
    values.push_back(std::bit_cast<double>(pattern));
  }
  // Short decimals, the common case in committed files (0.7, 12.25).
  std::uniform_int_distribution<int> mantissa(1, 99999);
  std::uniform_int_distribution<int> exponent(-12, 12);
  for (int i = 0; i < 30000; ++i) {
    const std::string text = std::to_string(mantissa(bits)) + "e" +
                             std::to_string(exponent(bits));
    values.push_back(std::strtod(text.c_str(), nullptr));
  }
  // Every power of two and its neighbours: at a binade boundary the
  // rounding interval is asymmetric, the classic shortest-digits trap.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {std::nextafter(p, 0.0), p,
                           std::nextafter(p, HUGE_VAL)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // Powers of ten and their neighbours (exponent-width changes, 1e+100).
  for (int e = -323; e <= 308; ++e) {
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    for (const double v : {std::nextafter(p, 0.0), p,
                           std::nextafter(p, HUGE_VAL)}) {
      values.push_back(v);
    }
  }
  // to_chars' own shortest spelling of 1e-4 is "1e-04"; %g's is "0.0001".
  values.push_back(0.0001);
  values.push_back(1e-4);
  values.push_back(1e-5);
  values.push_back(0.7);
  values.push_back(1.0 / 3.0);
  // Both sides of the integral fast path's 1e15 bound.
  for (const double v : {999999999999999.0, 1e15 - 0.5, 1e15, 1e15 + 1.0,
                         1e15 + 2.0, 9007199254740992.0, 1e16, 1e21}) {
    values.push_back(v);
    values.push_back(-v);
  }
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::max());
  ASSERT_GE(values.size(), 200000u);

  std::size_t mismatches = 0;
  for (const double d : values) {
    const std::string expected = reference_number(d);
    const std::string actual = Json(d).dump();
    if (actual != expected) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(d)
                      << ": dump " << actual << ", expected " << expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
  EXPECT_EQ(Json(0.0001).dump(), "0.0001");
}

TEST(Json, PrettyDumpParses) {
  Json o = Json::object();
  o.set("x", 1);
  Json a = Json::array();
  a.push_back(2);
  o.set("y", std::move(a));
  const std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const Json back = Json::parse(pretty);
  EXPECT_EQ(back.at("x").as_int(), 1);
}

}  // namespace
}  // namespace spmap
