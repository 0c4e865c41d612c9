// Utilities: RNG determinism, stats, table/CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
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

}  // namespace
}  // namespace fcc
