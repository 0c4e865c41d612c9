// Trace recorder: span bookkeeping, Chrome JSON shape, ASCII rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace.h"

namespace fcc::sim {
namespace {

TEST(Trace, DisabledTraceDropsEverything) {
  Trace t(false);
  t.add_span({"a", "compute", 0, 0, 0, 10});
  t.add_instant({"b", "comm", 0, 0, 5});
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.instants().empty());
}

TEST(Trace, RecordsSpansAndInstants) {
  Trace t;
  t.add_span({"pool", "compute", 1, 2, 100, 200});
  t.add_instant({"put", "comm", 1, 2, 150});
  ASSERT_EQ(t.spans().size(), 1u);
  ASSERT_EQ(t.instants().size(), 1u);
  EXPECT_EQ(t.spans()[0].name, "pool");
  EXPECT_EQ(t.instants()[0].at, 150);
}

TEST(Trace, ChromeJsonIsWellFormedish) {
  Trace t;
  t.add_span({"k\"ernel", "compute", 0, 1, 0, 1000});
  t.add_instant({"flag", "comm", 0, 1, 500});
  // Times past 1 ms and 1 s keep every ns; control characters escape.
  t.add_span({"late", "compute", 0, 1, 1'234'567'891, 1'234'567'892});
  t.add_span({"fig15", "comm", 0, 1, 9'844'982, 9'846'000});
  t.add_span({"tab\there", "c\x01t", 0, 1, 0, 1});
  t.add_instant({"flag", "comm", 0, 1, 12'000'000'007});
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string s = os.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("k\\\"ernel"), std::string::npos);  // escaped quote
  EXPECT_NE(s.find(R"("ts":0.000,"dur":1.000})"), std::string::npos);
  EXPECT_NE(s.find(R"("ts":0.500})"), std::string::npos);
  EXPECT_NE(s.find(R"("ts":1234567.891,"dur":0.001})"), std::string::npos);
  EXPECT_NE(s.find(R"("ts":9844.982,"dur":1.018})"), std::string::npos);
  EXPECT_NE(s.find(R"("ts":12000000.007})"), std::string::npos);
  EXPECT_NE(s.find(R"("name":"tab\u0009here")"), std::string::npos);
  EXPECT_NE(s.find(R"("cat":"c\u0001t")"), std::string::npos);
  // No raw control character: only the record separators are newlines.
  for (const char c : s) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

TEST(Trace, AsciiRendersOneRowPerTrack) {
  Trace t;
  t.add_span({"a", "compute", 0, 0, 0, 50});
  t.add_span({"b", "compute", 0, 1, 50, 100});
  t.add_instant({"p", "comm", 0, 0, 25});
  std::ostringstream os;
  Trace::AsciiOptions opts;
  opts.width = 20;
  t.render_ascii(os, opts);
  const std::string s = os.str();
  // Two track rows plus a header line.
  EXPECT_NE(s.find("p00/t000"), std::string::npos);
  EXPECT_NE(s.find("p00/t001"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);  // instant marker
  EXPECT_NE(s.find('c'), std::string::npos);  // span glyph = category initial
}

TEST(Trace, AsciiEmptyTraceDoesNotCrash) {
  Trace t;
  std::ostringstream os;
  t.render_ascii(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Trace, ClearResets) {
  Trace t;
  t.add_span({"a", "c", 0, 0, 0, 1});
  t.clear();
  EXPECT_TRUE(t.spans().empty());
}

}  // namespace
}  // namespace fcc::sim
