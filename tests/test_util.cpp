#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "util/fraction.hpp"
#include "util/prng.hpp"
#include "util/json_row.hpp"
#include "util/table.hpp"

namespace dsp {
namespace {

TEST(Fraction, NormalizesSignAndGcd) {
  const Fraction f(6, -8);
  EXPECT_EQ(f.num(), -3);
  EXPECT_EQ(f.den(), 4);
}

TEST(Fraction, ZeroHasDenominatorOne) {
  const Fraction f(0, 17);
  EXPECT_EQ(f.num(), 0);
  EXPECT_EQ(f.den(), 1);
}

TEST(Fraction, RejectsZeroDenominator) {
  EXPECT_THROW(Fraction(1, 0), InvalidInput);
}

TEST(Fraction, Arithmetic) {
  const Fraction a(1, 4);
  const Fraction b(1, 6);
  EXPECT_EQ(a + b, Fraction(5, 12));
  EXPECT_EQ(a - b, Fraction(1, 12));
  EXPECT_EQ(a * b, Fraction(1, 24));
  EXPECT_EQ(a / b, Fraction(3, 2));
  EXPECT_EQ(-a, Fraction(-1, 4));
}

TEST(Fraction, ComparisonAcrossSigns) {
  EXPECT_LT(Fraction(-1, 2), Fraction(1, 3));
  EXPECT_LT(Fraction(1, 3), Fraction(1, 2));
  EXPECT_GE(Fraction(2, 4), Fraction(1, 2));
}

TEST(Fraction, FloorCeil) {
  EXPECT_EQ(Fraction(7, 2).floor(), 3);
  EXPECT_EQ(Fraction(7, 2).ceil(), 4);
  EXPECT_EQ(Fraction(-7, 2).floor(), -4);
  EXPECT_EQ(Fraction(-7, 2).ceil(), -3);
  EXPECT_EQ(Fraction(6, 2).floor(), 3);
  EXPECT_EQ(Fraction(6, 2).ceil(), 3);
}

TEST(Fraction, MixedIntegerOps) {
  const Fraction f(5, 4);
  EXPECT_EQ(f * 4, Fraction(5, 1));
  EXPECT_EQ(f + 1, Fraction(9, 4));
}

TEST(Fraction, FloorCeilMul) {
  EXPECT_EQ(floor_mul(10, Fraction(5, 4)), 12);
  EXPECT_EQ(ceil_mul(10, Fraction(5, 4)), 13);
  EXPECT_EQ(floor_mul(8, Fraction(5, 4)), 10);
  EXPECT_EQ(ceil_mul(8, Fraction(5, 4)), 10);
  EXPECT_EQ(floor_mul(-10, Fraction(5, 4)), -13);
  EXPECT_EQ(ceil_mul(-10, Fraction(5, 4)), -12);
}

TEST(Fraction, LargeValueProductsDoNotOverflowAfterReduction) {
  const Fraction big(1'000'000'000'000LL, 3);
  const Fraction tiny(3, 1'000'000'000'000LL);
  EXPECT_EQ(big * tiny, Fraction(1, 1));
}

TEST(Fraction, StreamsHumanReadably) {
  std::ostringstream oss;
  oss << Fraction(5, 4) << ' ' << Fraction(3, 1);
  EXPECT_EQ(oss.str(), "5/4 3");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngSpawn, StreamsAreIndependentOfDrawPosition) {
  Rng a(555);
  Rng b(555);
  (void)b.uniform(0, 1000);  // advance b only
  // spawn depends on (seed, stream), not on how much was drawn.
  Rng child_a = a.spawn(3);
  Rng child_b = b.spawn(3);
  EXPECT_EQ(child_a.uniform(0, 1 << 30), child_b.uniform(0, 1 << 30));
  // Distinct streams diverge (overwhelmingly likely under SplitMix64).
  Rng other = a.spawn(4);
  bool differs = false;
  Rng again = a.spawn(3);
  for (int i = 0; i < 8; ++i) {
    if (other.uniform(0, 1 << 30) != again.uniform(0, 1 << 30)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Table, PrintsHeaderAndRows) {
  Table t({"algo", "ratio"});
  t.begin_row().cell("greedy").cell(1.5, 2);
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("algo"), std::string::npos);
  EXPECT_NE(out.find("greedy"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.begin_row().cell(std::int64_t{1}).cell(std::int64_t{2});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(Require, ThrowsWithMessage) {
  try {
    DSP_REQUIRE(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidInput& e) {
    EXPECT_STREQ(e.what(), "value was 42");
  }
}

TEST(JsonRow, PrintsFieldsInInsertionOrder) {
  std::ostringstream os;
  JsonRow().field("a", 1).field("b", "x").field("c", 1.5).print(os);
  EXPECT_EQ(os.str(), "{\"a\":1,\"b\":\"x\",\"c\":1.5}\n");
}

TEST(JsonRow, EscapesUntrustedStringValues) {
  // Instance names and file paths flow into rows; quotes, backslashes and
  // control characters must come out as valid JSON.
  std::ostringstream os;
  JsonRow().field("name", "day \"A\"\\night\n\x01").print(os);
  EXPECT_EQ(os.str(),
            "{\"name\":\"day \\\"A\\\"\\\\night\\n\\u0001\"}\n");
}

}  // namespace
}  // namespace dsp
