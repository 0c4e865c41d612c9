// Utilities: RNG determinism, zipf skew, stats, math helpers, table/CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/types.h"

namespace fcc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    lo |= (v == 3);
    hi |= (v == 7);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Zipf, SkewsTowardsLowIndices) {
  ZipfSampler z(1000, 0.9, Rng(3));
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) head += (z.next() < 10);
  // With theta=0.9 the top-10 of 1000 categories should carry far more than
  // the uniform 1% of mass.
  EXPECT_GT(head, n / 20);
}

TEST(Zipf, StaysInRange) {
  ZipfSampler z(50, 0.99, Rng(4));
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.next(), 50u);
}

TEST(MathUtil, CeilDivAndAlign) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(align_up(10, 8), 16);
  EXPECT_EQ(align_up(16, 8), 16);
}

TEST(MathUtil, Pow2AndPopcount) {
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(63));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_EQ(popcount64(0xFFULL), 8);
  EXPECT_EQ(popcount64(0), 0);
}

TEST(MathUtil, RelDiff) {
  EXPECT_NEAR(rel_diff(100.0, 90.0), 0.1, 1e-12);
  EXPECT_EQ(rel_diff(0.0, 0.0), 0.0);
}

TEST(Table, RendersAllCells) {
  AsciiTable t({"config", "time"});
  t.add_row({"a", "1.0"});
  t.add_row({"bb", "2.25"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("config"), std::string::npos);
  EXPECT_NE(out.find("2.25"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/fcc_test_csv.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.row(1, 2.5);
    w.row("s", 3);
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "x,y");
  EXPECT_EQ(l2, "1,2.5");
  EXPECT_EQ(l3, "s,3");
  std::remove(path.c_str());
}

TEST(Types, UnitConversions) {
  EXPECT_EQ(us_to_ns(2.0), 2000);
  EXPECT_EQ(ms_to_ns(1.5), 1500000);
  EXPECT_DOUBLE_EQ(gbit_per_s_to_bytes_per_ns(200.0), 25.0);
  EXPECT_DOUBLE_EQ(gb_per_s_to_bytes_per_ns(80.0), 80.0);
}

}  // namespace
}  // namespace fcc
