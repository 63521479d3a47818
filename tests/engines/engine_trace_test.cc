/// \file engine_trace_test.cc
/// \brief End-to-end trace capture across the three inference strategies:
/// one collaborative query per engine must yield a valid Chrome trace whose
/// spans nest engine phase -> plan node -> morsel / NN layer.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/trace.h"
#include "workload/testbed.h"

namespace dl2sql::workload {
namespace {

using engines::CollaborativeEngine;
using engines::QueryCost;

class EngineTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedOptions options;
    options.dataset.video_rows = 300;
    options.dataset.keyframe_size = 8;
    options.dataset.seed = 99;
    options.model_base_channels = 2;
    options.histogram_samples = 16;
    auto tb = Testbed::Create(options);
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    testbed_ = std::move(tb).ValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  void SetUp() override {
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Clear();
  }

  /// Runs one collaborative query on `engine` with tracing on and returns
  /// the captured events.
  static std::vector<TraceEvent> CaptureQuery(CollaborativeEngine* engine,
                                              const std::string& sql) {
    TraceCollector::Global().Clear();
    TraceCollector::Global().SetEnabled(true);
    QueryCost cost;
    auto r = engine->ExecuteCollaborative(sql, &cost);
    TraceCollector::Global().SetEnabled(false);
    EXPECT_TRUE(r.ok()) << engine->name() << ": " << r.status().ToString();
    return TraceCollector::Global().Snapshot();
  }

  static const TraceEvent* FindQuerySpan(const std::vector<TraceEvent>& events,
                                         const std::string& name) {
    for (const TraceEvent& e : events) {
      if (std::strcmp(e.category, "engine") == 0 && e.name == name) return &e;
    }
    return nullptr;
  }

  /// True when `e` starts inside the `outer` span's [start, end) window.
  static bool InWindow(const TraceEvent& e, const TraceEvent& outer) {
    return e.start_us >= outer.start_us &&
           e.start_us <= outer.start_us + outer.duration_us;
  }

  /// A span of `category` lexically nested under `outer`: same thread,
  /// deeper, inside the window.
  static bool HasNestedSpan(const std::vector<TraceEvent>& events,
                            const TraceEvent& outer, const char* category) {
    for (const TraceEvent& e : events) {
      if (std::strcmp(e.category, category) == 0 && e.tid == outer.tid &&
          e.depth > outer.depth && InWindow(e, outer)) {
        return true;
      }
    }
    return false;
  }

  /// A span of `category` anywhere in the query window — pool morsels run on
  /// worker threads, so they appear on their own timeline rows.
  static bool HasSpanInWindow(const std::vector<TraceEvent>& events,
                              const TraceEvent& outer, const char* category) {
    for (const TraceEvent& e : events) {
      if (std::strcmp(e.category, category) == 0 && InWindow(e, outer)) {
        return true;
      }
    }
    return false;
  }

  static void ExpectValidChromeJson(const std::string& json) {
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
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
      ASSERT_GE(braces, 0);
      ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_string);
  }

  static Testbed* testbed_;
};

Testbed* EngineTraceTest::testbed_ = nullptr;

TEST_F(EngineTraceTest, IndependentEngineTraceNestsPhases) {
  QueryParams p;
  p.selectivity = 0.05;
  const auto events = CaptureQuery(testbed_->independent(), MakeType1Query(p));
  const TraceEvent* query = FindQuerySpan(events, "independent.query");
  ASSERT_NE(query, nullptr);
  // Engine phase -> relational plan node on the driving thread.
  EXPECT_TRUE(HasNestedSpan(events, *query, "db"));
  // Relational work ran in morsels and model inference traced per NN layer.
  EXPECT_TRUE(HasSpanInWindow(events, *query, "pool"));
  EXPECT_TRUE(HasSpanInWindow(events, *query, "nn"));
  ExpectValidChromeJson(TraceCollector::Global().ToChromeTraceJson());
}

TEST_F(EngineTraceTest, UdfEngineTraceNestsPhases) {
  QueryParams p;
  p.selectivity = 0.05;
  const auto events = CaptureQuery(testbed_->udf(), MakeType1Query(p));
  const TraceEvent* query = FindQuerySpan(events, "udf.query");
  ASSERT_NE(query, nullptr);
  EXPECT_TRUE(HasNestedSpan(events, *query, "db"));
  EXPECT_TRUE(HasSpanInWindow(events, *query, "pool"));
  // The in-database UDF calls the model per tuple batch: NN layer spans.
  EXPECT_TRUE(HasSpanInWindow(events, *query, "nn"));
  ExpectValidChromeJson(TraceCollector::Global().ToChromeTraceJson());
}

TEST_F(EngineTraceTest, Dl2SqlEngineTraceNestsPhases) {
  QueryParams p;
  p.selectivity = 0.05;
  const auto events = CaptureQuery(testbed_->dl2sql(), MakeType1Query(p));
  const TraceEvent* query = FindQuerySpan(events, "dl2sql.query");
  ASSERT_NE(query, nullptr);
  EXPECT_TRUE(HasNestedSpan(events, *query, "db"));
  EXPECT_TRUE(HasSpanInWindow(events, *query, "pool"));
  // DL2SQL lowers inference to relational SQL — no nn spans, by design:
  // model math appears as plan-node and morsel spans instead.
  EXPECT_FALSE(HasSpanInWindow(events, *query, "nn"));
  ExpectValidChromeJson(TraceCollector::Global().ToChromeTraceJson());
}

TEST_F(EngineTraceTest, QuerySpanDepthsFormAHierarchy) {
  QueryParams p;
  p.selectivity = 0.05;
  const auto events = CaptureQuery(testbed_->udf(), MakeType1Query(p));
  const TraceEvent* query = FindQuerySpan(events, "udf.query");
  ASSERT_NE(query, nullptr);
  // The engine span is the root of its thread's hierarchy: nothing on that
  // thread within the window sits above it.
  for (const TraceEvent& e : events) {
    if (e.tid == query->tid && InWindow(e, *query) && &e != query) {
      EXPECT_GT(e.depth, query->depth) << e.name;
    }
  }
}

}  // namespace
}  // namespace dl2sql::workload
