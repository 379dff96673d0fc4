/**
 * @file
 * Unit tests for the support layer: formatting, RNG, tables and
 * string helpers, plus the exact sample store the histogram tests
 * use as their oracle (tests/samples.h).
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "samples.h"
#include "support/diag.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"

namespace dms {
namespace {

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("a%db", 7), "a7b");
    EXPECT_EQ(strfmt("%s-%s", "x", "y"), "x-y");
    EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
}

TEST(Strfmt, EmptyAndLong)
{
    EXPECT_EQ(strfmt("%s", ""), "");
    std::string big(500, 'z');
    EXPECT_EQ(strfmt("%s", big.c_str()), big);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng r(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = r.range(3, 6);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, SingletonRange)
{
    Rng r(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.range(5, 5), 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 4000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.03);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, PickWeightedRespectsWeights)
{
    Rng r(17);
    std::vector<double> w{0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 6000; ++i)
        ++counts[r.pickWeighted(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[2], counts[1]);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0,
                0.5);
}

TEST(Rng, ForkIndependent)
{
    Rng a(21);
    Rng fork = a.fork();
    EXPECT_NE(a.next(), fork.next());
}

TEST(Table, AsciiAlignsColumns)
{
    Table t("demo");
    t.header({"a", "bee"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    std::string s = t.ascii();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bee"), std::string::npos);
}

TEST(Table, CsvRoundTrip)
{
    Table t("");
    t.header({"x", "y"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "x,y\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3), "3");
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.256), "25.6%");
}

TEST(Strings, Split)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(Strings, JoinAndTrim)
{
    EXPECT_EQ(join({"a", "b"}, "+"), "a+b");
    EXPECT_EQ(join({}, "+"), "");
    EXPECT_EQ(trim("  x y\t"), "x y");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, ParseInt)
{
    int v = -1;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt(" 7 ", v));
    EXPECT_EQ(v, 7);
    EXPECT_FALSE(parseInt("x", v));
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("3x", v));
    // The strtol grammar: a '+', leading zeros and "-0" are fine;
    // no whitespace after the sign, no second sign.
    EXPECT_TRUE(parseInt("+5", v));
    EXPECT_EQ(v, 5);
    EXPECT_TRUE(parseInt("\t007\r", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseInt("-0", v));
    EXPECT_EQ(v, 0);
    EXPECT_FALSE(parseInt("+ 5", v));
    EXPECT_FALSE(parseInt("+-5", v));
    EXPECT_FALSE(parseInt("-5", v));
    EXPECT_FALSE(parseInt("2147483648", v));
    // Every byte must be consumed: nothing hides behind a NUL.
    v = -1;
    EXPECT_FALSE(parseInt(std::string("5\0junk", 6), v));
    EXPECT_FALSE(parseInt(std::string("5\0", 2), v));
    EXPECT_FALSE(parseInt(std::string("\0" "5", 2), v));
    EXPECT_EQ(v, -1);
}

TEST(Strings, ParseU64)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("007", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ULL);
    // Digits only: no sign, no whitespace anywhere, no overflow.
    v = 3;
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("-1", v));
    EXPECT_FALSE(parseU64("\t-5", v));
    EXPECT_FALSE(parseU64("+5", v));
    EXPECT_FALSE(parseU64(" 5", v));
    EXPECT_FALSE(parseU64("5 ", v));
    EXPECT_FALSE(parseU64("5x", v));
    EXPECT_FALSE(parseU64("18446744073709551616", v));
    EXPECT_FALSE(parseU64("99999999999999999999999", v));
    EXPECT_FALSE(parseU64(std::string("5\0" "1", 3), v));
    EXPECT_EQ(v, 3u);
}

TEST(Strings, ParseSignedInt)
{
    int v = 0;
    EXPECT_TRUE(parseSignedInt("-17", v));
    EXPECT_EQ(v, -17);
    EXPECT_TRUE(parseSignedInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseSignedInt(" -3 ", v));
    EXPECT_EQ(v, -3);
    EXPECT_FALSE(parseSignedInt("-", v));
    EXPECT_FALSE(parseSignedInt("-3x", v));
    EXPECT_FALSE(parseSignedInt("", v));
    // Overflow in both directions is rejected, not clamped.
    EXPECT_FALSE(parseSignedInt("99999999999999", v));
    EXPECT_FALSE(parseSignedInt("-99999999999999", v));
    EXPECT_TRUE(parseSignedInt("-2147483648", v));
    EXPECT_EQ(v, -2147483647 - 1);
    EXPECT_FALSE(parseSignedInt("-2147483649", v));
    EXPECT_FALSE(parseSignedInt("+-3", v));
    EXPECT_FALSE(parseSignedInt(std::string("-3\0" "9", 4), v));
    EXPECT_FALSE(parseSignedInt(std::string("-\0" "3", 3), v));
}

TEST(Samples, PercentilesNearestRank)
{
    Samples s;
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    for (int i = 100; i >= 1; --i)
        s.add(i); // 1..100, reverse insertion order
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

} // namespace
} // namespace dms
