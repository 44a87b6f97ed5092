// Tests for the util substrate: RNG determinism and distribution sanity,
// table rendering, env parsing, error macros, the timer and the huge-page
// advice of UninitVector's allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/env.h"
#include "util/error.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/uninit.h"

using bro::Rng;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.below(17), 17u);
  // range() inclusive bounds.
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Table, RendersAlignedColumns) {
  bro::Table t({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_row({"yy", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a  | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| yy | 22          |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongCellCount) {
  bro::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::runtime_error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(bro::Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(bro::Table::fmt(2.0, 0), "2");
  EXPECT_EQ(bro::Table::pct(0.1234, 1), "12.3%");
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("BRO_TEST_ENV_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(bro::env_double("BRO_TEST_ENV_D", 1.0), 2.5);
  ::setenv("BRO_TEST_ENV_D", "junk", 1);
  EXPECT_DOUBLE_EQ(bro::env_double("BRO_TEST_ENV_D", 1.0), 1.0);
  ::unsetenv("BRO_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(bro::env_double("BRO_TEST_ENV_D", 1.0), 1.0);

  ::setenv("BRO_TEST_ENV_L", "42", 1);
  EXPECT_EQ(bro::env_long("BRO_TEST_ENV_L", 7), 42);
  ::unsetenv("BRO_TEST_ENV_L");
  EXPECT_EQ(bro::env_long("BRO_TEST_ENV_L", 7), 7);
}

TEST(Env, RejectsTrailingGarbageAndOverflow) {
  // strtod/strtol happily parse a numeric prefix; the wrappers must not —
  // "3abc" as 3 silently misconfigures a bench.
  ::setenv("BRO_TEST_ENV_D", "1.5x", 1);
  EXPECT_DOUBLE_EQ(bro::env_double("BRO_TEST_ENV_D", 9.0), 9.0);
  ::setenv("BRO_TEST_ENV_D", "1e999", 1); // ERANGE overflow
  EXPECT_DOUBLE_EQ(bro::env_double("BRO_TEST_ENV_D", 9.0), 9.0);
  ::setenv("BRO_TEST_ENV_D", " 2.5 ", 1); // trailing whitespace is fine
  EXPECT_DOUBLE_EQ(bro::env_double("BRO_TEST_ENV_D", 9.0), 2.5);
  ::unsetenv("BRO_TEST_ENV_D");

  ::setenv("BRO_TEST_ENV_L", "3abc", 1);
  EXPECT_EQ(bro::env_long("BRO_TEST_ENV_L", 7), 7);
  ::setenv("BRO_TEST_ENV_L", "999999999999999999999999", 1); // ERANGE
  EXPECT_EQ(bro::env_long("BRO_TEST_ENV_L", 7), 7);
  ::setenv("BRO_TEST_ENV_L", "42 ", 1);
  EXPECT_EQ(bro::env_long("BRO_TEST_ENV_L", 7), 42);
  ::unsetenv("BRO_TEST_ENV_L");
}

TEST(Error, CheckMacrosThrowWithContext) {
  try {
    BRO_CHECK_MSG(1 == 2, "context " << 99);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("context 99"), std::string::npos);
  }
  EXPECT_NO_THROW(BRO_CHECK(2 == 2));
}

TEST(Timer, MeasuresElapsedTime) {
  bro::Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += i;
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Histogram, LinearBucketsAndPercentiles) {
  auto h = bro::Histogram::linear(0.0, 10.0, 10); // bounds 1, 2, ..., 10
  for (int v = 1; v <= 100; ++v) h.add(v * 0.1);  // 0.1 .. 10.0, uniform
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 5.05, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // Uniform over (0, 10] with unit buckets: p50 lands in the (4, 5] bucket.
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 10.0);
}

TEST(Histogram, OverflowReportsObservedMax) {
  auto h = bro::Histogram::linear(0.0, 1.0, 4);
  h.add(0.5);
  h.add(123.0); // overflow bucket
  EXPECT_EQ(h.counts().back(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(99), 123.0);
}

TEST(Histogram, ExponentialBoundsCoverRange) {
  auto h = bro::Histogram::exponential(1e-6, 1.0, 10.0);
  const auto& b = h.upper_bounds();
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_GE(b.back(), 1.0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

TEST(Histogram, EmptyIsZero) {
  auto h = bro::Histogram::linear(0.0, 1.0, 2);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, MergeCombinesCounts) {
  auto a = bro::Histogram::linear(0.0, 10.0, 10);
  auto b = bro::Histogram::linear(0.0, 10.0, 10);
  a.add(1.5);
  b.add(7.5);
  b.add(20.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.5);
  // Mismatched shapes are rejected loudly.
  auto c = bro::Histogram::linear(0.0, 5.0, 10);
  EXPECT_THROW(a.merge(c), std::runtime_error);
}

TEST(Histogram, SummaryMentionsPercentiles) {
  auto h = bro::Histogram::exponential(1e-6, 10.0, 2.0);
  h.add(0.001);
  h.add(0.002);
  const std::string s = h.summary();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p95="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
  EXPECT_NE(s.find("max="), std::string::npos);
}

namespace {

/// The THPeligible field of the /proc/self/smaps mapping that holds `p`,
/// or -1 when no mapping holds it.
int thp_eligible(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi; // a mapping's header line
    } else if (inside && line.rfind("THPeligible:", 0) == 0) {
      return std::stoi(line.substr(12));
    }
  }
  return -1;
}

/// The bracketed transparent-huge-page mode ("always", "madvise" or
/// "never"), or "" where the kernel has none.
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  std::getline(in, modes);
  const auto open = modes.find('['), close = modes.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return modes.substr(open + 1, close - open - 1);
}

} // namespace

TEST(UninitVector, LargeArraysAreAdvisedOntoHugePages) {
  const std::string mode = thp_mode();
  if (mode.empty() || mode == "never")
    GTEST_SKIP() << "transparent huge pages are off";
  using Values = bro::util::UninitVector<double>;
  const Values large(bro::util::kHugePageBytes / sizeof(double));
  EXPECT_EQ(thp_eligible(large.data() + large.size() / 2), 1);
  // Under "always" every mapping is eligible; under "madvise" only the
  // advised ones are.
  if (mode == "madvise") {
    const Values small((std::size_t{1} << 20) / sizeof(double));
    EXPECT_EQ(thp_eligible(small.data() + small.size() / 2), 0);
  }
}
