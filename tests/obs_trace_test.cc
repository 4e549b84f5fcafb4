#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace ppm::obs {
namespace {

TEST(TraceSpanTest, RecordsOneEvent) {
  Tracer tracer;
  {
    const TraceSpan span = tracer.StartSpan("work");
    EXPECT_GE(span.ElapsedSeconds(), 0.0);
  }
  ASSERT_EQ(tracer.events().size(), 1u);
  const TraceEvent& event = tracer.events()[0];
  EXPECT_EQ(event.name, "work");
  EXPECT_EQ(event.depth, 0u);
  EXPECT_TRUE(tracer.HasSpan("work"));
  EXPECT_FALSE(tracer.HasSpan("other"));
}

TEST(TraceSpanTest, NestingTracksDepth) {
  Tracer tracer;
  {
    const TraceSpan outer = tracer.StartSpan("outer");
    {
      const TraceSpan inner = tracer.StartSpan("inner");
      const TraceSpan innermost = tracer.StartSpan("innermost");
    }
    const TraceSpan sibling = tracer.StartSpan("sibling");
  }
  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.events()[0].depth, 0u);  // outer
  EXPECT_EQ(tracer.events()[1].depth, 1u);  // inner
  EXPECT_EQ(tracer.events()[2].depth, 2u);  // innermost
  EXPECT_EQ(tracer.events()[3].depth, 1u);  // sibling, after inner closed
}

TEST(TraceSpanTest, EndIsIdempotentAndFreezesElapsed) {
  Tracer tracer;
  TraceSpan span = tracer.StartSpan("once");
  span.End();
  const double frozen = span.ElapsedSeconds();
  span.End();
  EXPECT_EQ(span.ElapsedSeconds(), frozen);
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(TraceSpanTest, MoveTransfersOwnership) {
  Tracer tracer;
  TraceSpan a = tracer.StartSpan("moved");
  TraceSpan b = std::move(a);
  b.End();
  // Ending the moved-from span must not close the event twice or crash.
  a.End();  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(tracer.events().size(), 1u);
}

TEST(TraceSpanTest, SpanOrphanedByClearIsANoOp) {
  Tracer tracer;
  TraceSpan span = tracer.StartSpan("orphan");
  tracer.Clear();
  // New generation starts; the old span may not touch recycled slots.
  const TraceSpan fresh = tracer.StartSpan("fresh");
  span.End();
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].name, "fresh");
  EXPECT_EQ(tracer.events()[0].dur_us, 0u);  // Still open.
}

TEST(TraceSpanTest, ElapsedSecondsGrowsWhileOpen) {
  Tracer tracer;
  const TraceSpan span = tracer.StartSpan("live");
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(span.ElapsedSeconds(), 0.0);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer tracer;
  {
    const TraceSpan outer = tracer.StartSpan("mine");
    const TraceSpan inner = tracer.StartSpan("f1_scan");
  }
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"mine\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"f1_scan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
}

TEST(TracerTest, EmptyTracerSerializesEmptyArray) {
  Tracer tracer;
  EXPECT_EQ(tracer.ToChromeTraceJson(), "[]");
}

TEST(TracerTest, ClearDropsEvents) {
  Tracer tracer;
  tracer.StartSpan("gone").End();
  EXPECT_EQ(tracer.events().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.ToChromeTraceJson(), "[]");
}

TEST(TracerTest, StartTimesAreMonotonic) {
  Tracer tracer;
  tracer.StartSpan("first").End();
  tracer.StartSpan("second").End();
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_LE(tracer.events()[0].start_us, tracer.events()[1].start_us);
}

TEST(TracerTest, WriteChromeTraceCreatesFile) {
  Tracer tracer;
  tracer.StartSpan("io").End();
  const std::string path = testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), tracer.ToChromeTraceJson() + "\n");
}

TEST(TracerTest, WriteToBadPathFails) {
  Tracer tracer;
  EXPECT_FALSE(tracer.WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST(TracerTest, SpansPastTheCapAreTimedButNotRecorded) {
  Tracer tracer;
  for (size_t i = 0; i < Tracer::kMaxEvents; ++i) {
    tracer.StartSpan("kept").End();
  }
  const Counter dropped =
      MetricsRegistry::Global().GetCounter("ppm.trace.dropped");
  const uint64_t dropped_before = dropped.value();
  TraceSpan extra = tracer.StartSpan("dropped");
  EXPECT_GE(extra.ElapsedSeconds(), 0.0);
  extra.End();
  const double frozen = extra.ElapsedSeconds();
  EXPECT_EQ(extra.ElapsedSeconds(), frozen);
  EXPECT_EQ(tracer.events().size(), Tracer::kMaxEvents);
  EXPECT_FALSE(tracer.HasSpan("dropped"));
  EXPECT_EQ(dropped.value(), dropped_before + 1);

  tracer.Clear();
  tracer.StartSpan("after_clear").End();
  EXPECT_TRUE(tracer.HasSpan("after_clear"));
}

TEST(TracerTest, GlobalIsStable) {
  EXPECT_EQ(&Tracer::Global(), &Tracer::Global());
}

}  // namespace
}  // namespace ppm::obs
