// Tests of the benchmark's own logic: the percentile rule, seeded request
// streams, and span self-time arithmetic.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace cyclerank {
namespace e2ebench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> out;
  for (size_t i = n; i > 0; --i) out.push_back(static_cast<double>(i));
  return out;  // descending, so Percentile must sort
}

TEST(PercentileTest, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_EQ(NearestRank(1000, 9900), 990u);
  auto p99 = Percentile(Ramp(1000), 9900);
  ASSERT_TRUE(p99.ok()) << p99.status().ToString();
  EXPECT_EQ(*p99, 990.0);  // ten samples (991..1000) lie beyond it

  auto short_p99 = Percentile(Ramp(999), 9900);
  ASSERT_FALSE(short_p99.ok());
  EXPECT_EQ(short_p99.status().code(), StatusCode::kFailedPrecondition);

  auto p50 = Percentile(Ramp(20), 5000);
  ASSERT_TRUE(p50.ok());
  EXPECT_EQ(*p50, 10.0);
  EXPECT_FALSE(Percentile(Ramp(19), 5000).ok());
  EXPECT_FALSE(Percentile({}, 5000).ok());
}

TEST(PercentileTest, WindowedP99IsTheMedianOverWindows) {
  // Five windows of 1000: p99 of a 1..1000 ramp is 990; one window holds a
  // stall episode (all samples slow), one a partial tail that is ignored.
  std::vector<double> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) samples.push_back(w == 2 ? 1e6 : i + w);
  }
  for (int i = 0; i < 999; ++i) samples.push_back(1e9);
  auto p99 = WindowedPercentile(samples, 9900);
  ASSERT_TRUE(p99.ok()) << p99.status().ToString();
  // Window p99s: 990, 991, 1e6, 993, 994 -> median 993.
  EXPECT_EQ(*p99, 993.0);
  EXPECT_FALSE(WindowedPercentile(std::vector<double>(999, 1.0), 9900).ok());
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0}), 2.5);
}

TEST(PercentileTest, MedianOfPartsRefusesWhenAPartIsRefused) {
  auto median = MedianOf({4.0, 1.0, 9.0});
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(*median, 4.0);
  EXPECT_FALSE(MedianOf({}).ok());
  EXPECT_FALSE(MedianOf({1.0, Percentile(Ramp(19), 5000), 2.0}).ok());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

TEST(PlanTest, SameSeedGivesByteIdenticalStream) {
  for (Workload w : {Workload::kCompareCold, Workload::kExploreHot,
                     Workload::kUploadChurn}) {
    auto a = MakePlan(w, 7, 1.0);
    auto b = MakePlan(w, 7, 1.0);
    auto c = MakePlan(w, 8, 1.0);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << WorkloadName(w);
    EXPECT_EQ(RenderPlan(*a), RenderPlan(*b)) << WorkloadName(w);
    EXPECT_NE(RenderPlan(*a), RenderPlan(*c)) << WorkloadName(w);
    EXPECT_GE(a->NumComparisons(), kMinOperations);
    EXPECT_GE(a->NumUploads(), kProbeUploads);
  }
  EXPECT_EQ(UploadBody(7, 3), UploadBody(7, 3));
  EXPECT_NE(UploadBody(7, 3), UploadBody(8, 3));
  EXPECT_NE(UploadBody(7, 3), UploadBody(7, 4));
}

TEST(PlanTest, StreamIsPinnedAcrossBuilds) {
  // upload_churn's stream and bodies depend on the seed alone (no catalog
  // data), so their bytes are pinned: a change here changes the benchmark.
  auto plan = MakePlan(Workload::kUploadChurn, 1, 1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Fnv1a(RenderPlan(*plan)), 0xed80dc2a3b118ce6ULL);
  EXPECT_EQ(Fnv1a(UploadBody(1, 0)), 0x7b649fbe82a1b1d2ULL);
}

TEST(PlanTest, RunsAreNeverTooShortForP99) {
  for (Workload w : {Workload::kCompareCold, Workload::kExploreHot,
                     Workload::kUploadChurn}) {
    EXPECT_EQ(OperationsFor(w, 0.1), kMinOperations) << WorkloadName(w);
  }
  EXPECT_EQ(OperationsFor(Workload::kUploadChurn, 30), 1080u);
  auto plan = MakePlan(Workload::kCompareCold, 1, 30);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumComparisons(), 2010u);
  EXPECT_EQ(plan->NumUploads(), kProbeUploads);
}

TEST(PlanTest, ProbesAreSpreadThroughTheStream) {
  // 1000 comparisons and 500 probes: a probe after every second
  // comparison, the last one closing the stream.
  auto plan = MakePlan(Workload::kCompareCold, 1, 1.0);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1500u);
  for (size_t s = 0; s < plan->steps.size(); ++s) {
    EXPECT_EQ(plan->steps[s].IsProbe(), s % 3 == 2) << s;
  }
  EXPECT_EQ(plan->steps.back().upload, int64_t{499});
  // upload_churn's uploads belong to its iterations, not probes.
  auto churn = MakePlan(Workload::kUploadChurn, 1, 1.0);
  ASSERT_TRUE(churn.ok());
  for (const Step& step : churn->steps) {
    EXPECT_FALSE(step.IsProbe());
    EXPECT_EQ(step.comparisons.size(), 2u);
  }
}

TEST(PlanTest, UploadBodyIsWikiSized) {
  const std::string body = UploadBody(1, 0);
  size_t edges = 0;
  for (char c : body) edges += c == '\n';
  EXPECT_GT(edges, 20000u);
  EXPECT_LT(edges, 30000u);
  EXPECT_GT(body.size(), 180u * 1024);
  EXPECT_LT(body.size(), 260u * 1024);
}

Span At(int64_t start, int64_t end, int64_t parent) {
  return Span{"s", start, end, parent, 1};
}

TEST(TraceTest, SelfTimeSubtractsChildCoverage) {
  const std::vector<Span> spans = {
      At(0, 100, -1),   // 0: root
      At(10, 30, 0),    // 1: child
      At(20, 50, 0),    // 2: child overlapping 1: [10, 50) covered once
      At(90, 120, 0),   // 3: child running past the root: clipped to 100
      At(12, 18, 1),    // 4: grandchild: counts against 1, not the root
      At(200, 210, -1), // 5: a second root, no children
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 10);
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer off(false);
  { ScopedSpan span(&off, "x", 1); }
  off.Record(At(0, 1, -1));
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    ScopedSpan root(&on, "root", 9);
    ScopedSpan child(&on, "child", 9, root.id());
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].request_id, 9u);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
  EXPECT_EQ(on.DurationsMs("child").size(), 1u);
}

}  // namespace
}  // namespace e2ebench
}  // namespace cyclerank
