/// \file trace_test.cc
/// \brief TraceCollector / TraceSpan: recording, nesting, thread ids,
/// Chrome-trace export, and concurrent append safety (exercised under TSAN
/// by the CI sanitizer pass).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace dl2sql {
namespace {

/// Every test owns the global collector for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(TraceCollector::Global().enabled());
  {
    TraceSpan span("test", "quiet");
  }
  EXPECT_EQ(TraceCollector::Global().EventCount(), 0);
}

TEST_F(TraceTest, EnabledSpansRecordNameCategoryArgs) {
  TraceCollector::Global().SetEnabled(true);
  {
    TraceSpan span("cat", "outer", "\"k\":1");
  }
  auto events = TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_STREQ(events[0].category, "cat");
  EXPECT_EQ(events[0].args, "\"k\":1");
  EXPECT_GE(events[0].duration_us, 0);
}

TEST_F(TraceTest, SpansNestWithDepthAndContainment) {
  TraceCollector::Global().SetEnabled(true);
  {
    TraceSpan outer("test", "outer");
    {
      TraceSpan inner("test", "inner");
    }
  }
  auto events = TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Both spans can start in the same microsecond, so locate by name rather
  // than relying on Snapshot's start-time ordering.
  const TraceEvent& outer = events[0].name == "outer" ? events[0] : events[1];
  const TraceEvent& inner = events[0].name == "inner" ? events[0] : events[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, outer.depth + 1);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);
}

TEST_F(TraceTest, MacroRecordsSpan) {
  TraceCollector::Global().SetEnabled(true);
  {
    DL2SQL_TRACE_SPAN("test", "via_macro");
    DL2SQL_TRACE_SPAN("test", "with_args", "\"n\":42");
  }
  auto events = TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  std::set<std::string> names{events[0].name, events[1].name};
  EXPECT_TRUE(names.count("via_macro"));
  EXPECT_TRUE(names.count("with_args"));
}

TEST_F(TraceTest, SpanStartedWhileDisabledStaysQuiet) {
  // The enabled check happens at construction; flipping the switch mid-span
  // must not produce a half-initialized event.
  TraceSpan span("test", "race");
  TraceCollector::Global().SetEnabled(true);
  // span destructs here with active_ == false.
  EXPECT_EQ(TraceCollector::Global().EventCount(), 0);
}

TEST_F(TraceTest, ThreadsGetDistinctCompactIds) {
  const int32_t main_id = TraceCollector::CurrentThreadId();
  int32_t other_id = main_id;
  std::thread t([&] { other_id = TraceCollector::CurrentThreadId(); });
  t.join();
  EXPECT_NE(main_id, other_id);
  // Stable per thread.
  EXPECT_EQ(TraceCollector::CurrentThreadId(), main_id);
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  TraceCollector::Global().SetEnabled(true);
  {
    TraceSpan a("phase", "alpha", "\"rows\":10");
    TraceSpan b("phase", "beta \"quoted\"\n");
  }
  const std::string json = TraceCollector::Global().ToChromeTraceJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  // Quotes and newlines in names must be escaped, never raw.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // Balanced braces/brackets (events contain no nested arrays).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceTest, WriteChromeTraceProducesLoadableFile) {
  TraceCollector::Global().SetEnabled(true);
  {
    TraceSpan span("io", "file_span");
  }
  const std::string path = ::testing::TempDir() + "trace_test_out.json";
  ASSERT_TRUE(TraceCollector::Global().WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, TraceCollector::Global().ToChromeTraceJson());
  EXPECT_NE(content.find("file_span"), std::string::npos);
}

TEST_F(TraceTest, SummaryAggregatesPerName) {
  TraceCollector::Global().SetEnabled(true);
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("agg", "repeated");
  }
  {
    TraceSpan span("agg", "single");
  }
  const std::string summary = TraceCollector::Global().SummaryJson();
  EXPECT_NE(summary.find("\"repeated\""), std::string::npos);
  EXPECT_NE(summary.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(summary.find("\"single\""), std::string::npos);
  EXPECT_NE(summary.find("\"total_us\""), std::string::npos);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsRecording) {
  TraceCollector::Global().SetEnabled(true);
  {
    TraceSpan span("test", "before");
  }
  ASSERT_EQ(TraceCollector::Global().EventCount(), 1);
  TraceCollector::Global().Clear();
  EXPECT_EQ(TraceCollector::Global().EventCount(), 0);
  {
    TraceSpan span("test", "after");
  }
  EXPECT_EQ(TraceCollector::Global().EventCount(), 1);
}

TEST_F(TraceTest, ConcurrentSpansFromManyThreadsAllArrive) {
  // TSAN coverage: per-thread buffers appended from workers while the main
  // thread snapshots concurrently.
  TraceCollector::Global().SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("mt", "worker_span",
                       "\"t\":" + std::to_string(t));
      }
    });
  }
  go.store(true);
  // Snapshot concurrently with the appends — must be data-race free.
  for (int i = 0; i < 10; ++i) (void)TraceCollector::Global().Snapshot();
  for (auto& t : threads) t.join();
  EXPECT_EQ(TraceCollector::Global().EventCount(), kThreads * kSpansPerThread);
  auto events = TraceCollector::Global().Snapshot();
  std::set<int32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace dl2sql
