#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bench/stats.h"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i); // unsorted on purpose
  return v;
}

TEST(NearestRank, PicksTheSampleAtCeilRank) {
  const auto v = one_to(10);
  EXPECT_EQ(perf::percentile(v, 50), 5);  // rank ceil(5.0) = 5
  EXPECT_EQ(perf::percentile(v, 51), 6);  // rank ceil(5.1) = 6
  EXPECT_EQ(perf::percentile(v, 90), 9);
  EXPECT_EQ(perf::percentile(v, 100), 10);
  EXPECT_EQ(perf::percentile(v, 1), 1);   // rank clamps up to 1
  EXPECT_EQ(perf::percentile({42.0}, 99), 42);
}

TEST(NearestRank, ExactRanksDoNotRoundUp) {
  // 99% of 1000 is rank 990 exactly; float noise must not push it to 991.
  EXPECT_EQ(perf::percentile(one_to(1000), 99), 990);
  EXPECT_EQ(perf::percentile(one_to(100), 90), 90);
  EXPECT_EQ(perf::percentile(one_to(300), 99), 297);
}

TEST(NearestRank, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(perf::percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(perf::percentile({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(perf::percentile({1.0}, 100.5), std::invalid_argument);
}

TEST(SupportedPercentile, NeedsTenSamplesAboveTheRank) {
  EXPECT_EQ(perf::highest_supported_percentile(0), 0);
  EXPECT_EQ(perf::highest_supported_percentile(19), 0);
  EXPECT_EQ(perf::highest_supported_percentile(20), 50);
  EXPECT_EQ(perf::highest_supported_percentile(99), 50);
  EXPECT_EQ(perf::highest_supported_percentile(100), 90);
  EXPECT_EQ(perf::highest_supported_percentile(999), 90);
  EXPECT_EQ(perf::highest_supported_percentile(1000), 99);
  EXPECT_EQ(perf::highest_supported_percentile(50000), 99);
}

TEST(Tail, ReportsTheSupportedPercentile) {
  const auto t = perf::tail(one_to(1000));
  EXPECT_EQ(t.n, 1000u);
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(perf::tail(one_to(150)).value, 135); // p90: rank 135

  const auto few = perf::tail(one_to(7));
  EXPECT_EQ(few.pct, 0);
  EXPECT_EQ(few.value, 7); // the maximum when no percentile is supported
  EXPECT_EQ(perf::percentile_label(99), "99");
}

} // namespace
