#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mmrfd {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SampleSet, PercentilesExactOnSmallSet) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 50.0);
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(90.0), 9.0);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SampleSet, AddAfterQueryStillSorted) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);  // after a query that sorted the samples
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

}  // namespace
}  // namespace mmrfd
