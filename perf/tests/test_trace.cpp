#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench/trace.h"

namespace {

perf::Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start_us,
                std::int64_t end_us, std::uint32_t tid = 1) {
  perf::Span s;
  s.id = id;
  s.parent = parent;
  s.layer = "test";
  s.name = "span";
  s.start_ns = start_us * 1000;
  s.end_ns = end_us * 1000;
  s.tid = tid;
  return s;
}

TEST(SelfTime, SubtractsNestedChildren) {
  // root [0,100) with child [10,40) which has grandchild [20,30).
  const auto self = perf::self_times(
      {span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30)});
  EXPECT_NEAR(self[0], 70e-6, 1e-12); // grandchild is not the root's child
  EXPECT_NEAR(self[1], 20e-6, 1e-12);
  EXPECT_NEAR(self[2], 10e-6, 1e-12);
}

TEST(SelfTime, MergesOverlappingCrossThreadChildren) {
  // Children on two other threads overlap ([10,50) and [30,70)) and one
  // runs past the parent's end ([90,120) clipped to [90,100)).
  const auto self =
      perf::self_times({span(1, 0, 0, 100, 1), span(2, 1, 10, 50, 2),
                        span(3, 1, 30, 70, 3), span(4, 1, 90, 120, 2)});
  EXPECT_NEAR(self[0], (100 - 60 - 10) * 1e-6, 1e-12);
  EXPECT_NEAR(self[1], 40e-6, 1e-12);
}

TEST(SelfTime, ChildlessSpanIsAllSelf) {
  const auto self = perf::self_times({span(7, 0, 5, 9)});
  EXPECT_NEAR(self[0], 4e-6, 1e-12);
}

TEST(Tracer, RecordsCrossThreadChildrenAndWritesChromeJson) {
  perf::Tracer tracer(true);
  std::uint64_t root_id = 0;
  {
    perf::ScopedSpan root(tracer, "workload", "root");
    root_id = root.id();
    std::thread t([&] {
      perf::ScopedSpan child(tracer, "net", "child", root.id(), 42);
    });
    t.join();
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, root_id); // the child closed first
  EXPECT_EQ(spans[0].rid, 42u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
  EXPECT_EQ(tracer.durations("net", "child").size(), 1u);

  const std::string path = ::testing::TempDir() + "perf_trace_test.json";
  tracer.write_chrome_json(path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"cat\":\"net\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, DisabledRecordsNothing) {
  perf::Tracer tracer(false);
  {
    perf::ScopedSpan s(tracer, "a", "b");
    EXPECT_EQ(s.id(), 0u);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

} // namespace
