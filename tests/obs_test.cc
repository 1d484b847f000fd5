// Observability layer tests: metrics registry concurrency, Chrome-trace span
// recording/nesting under multi-threaded hammering, the per-op autograd
// profiler against a hand-timed two-op graph, and the end-to-end export path
// a trained UrclTrainer produces.
//
// All obs state is process-global, so every test runs under a fixture that
// saves/restores the configuration and wipes trace rings, profiler shards
// and registry counters between tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "common/stopwatch.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "exec/plan.h"
#include "obs/facade.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/learning.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace urcl {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — enough to validate the exporters' output without a
// third-party dependency. Accepts what ChromeTraceJson / ToJson / ProfilerJson
// emit: objects, arrays, strings (with escapes), numbers, booleans, null.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const Json& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole input; sets *ok to false on any syntax error or
  // trailing garbage.
  Json Parse(bool* ok) {
    *ok = true;
    ok_ = true;
    pos_ = 0;
    Json value = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) ok_ = false;
    *ok = ok_;
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    ok_ = false;
    return false;
  }
  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::string(literal).size();
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    ok_ = false;
    return false;
  }

  Json ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      ok_ = false;
      return Json{};
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't') {
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = true;
      ConsumeLiteral("true");
      return v;
    }
    if (c == 'f') {
      Json v;
      v.type = Json::Type::kBool;
      ConsumeLiteral("false");
      return v;
    }
    if (c == 'n') {
      ConsumeLiteral("null");
      return Json{};
    }
    return ParseNumber();
  }

  Json ParseObject() {
    Json v;
    v.type = Json::Type::kObject;
    Consume('{');
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return v;
    }
    while (ok_) {
      Json key = ParseString();
      Consume(':');
      v.object[key.str] = ParseValue();
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume('}');
      break;
    }
    return v;
  }

  Json ParseArray() {
    Json v;
    v.type = Json::Type::kArray;
    Consume('[');
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return v;
    }
    while (ok_) {
      v.array.push_back(ParseValue());
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume(']');
      break;
    }
    return v;
  }

  Json ParseString() {
    Json v;
    v.type = Json::Type::kString;
    if (!Consume('"')) return v;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': pos_ += 4; c = '?'; break;  // names here are ASCII
          default: c = e; break;
        }
      }
      v.str.push_back(c);
    }
    if (!Consume('"')) ok_ = false;
    return v;
  }

  Json ParseNumber() {
    Json v;
    v.type = Json::Type::kNumber;
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      ok_ = false;
      return v;
    }
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Json ParseJsonOrDie(const std::string& text) {
  bool ok = false;
  Json v = JsonParser(text).Parse(&ok);
  EXPECT_TRUE(ok) << "invalid JSON: " << text.substr(0, 200);
  return v;
}

// ---------------------------------------------------------------------------
// Fixture: isolate the process-global obs state per test.
// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = obs::Current();
    obs::Configure(obs::ObsConfig{});  // everything off
    obs::ClearTrace();
    obs::ResetProfiler();
    obs::MetricsRegistry::Get().ResetCounters();
  }
  void TearDown() override {
    obs::Configure(saved_);
    obs::ClearTrace();
    obs::ResetProfiler();
    obs::MetricsRegistry::Get().ResetCounters();
  }

  obs::ObsConfig saved_;
};

// ---------------------------------------------------------------------------
// Switchboard
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ConfigureSetsAndClearsEachFlagIndependently) {
  EXPECT_FALSE(obs::MetricsEnabled());
  EXPECT_FALSE(obs::TraceEnabled());
  EXPECT_FALSE(obs::ProfilerEnabled());

  obs::ObsConfig config;
  config.metrics = true;
  obs::Configure(config);
  EXPECT_TRUE(obs::MetricsEnabled());
  EXPECT_FALSE(obs::TraceEnabled());

  config.metrics = false;
  config.trace = true;
  config.profiler = true;
  obs::Configure(config);
  EXPECT_FALSE(obs::MetricsEnabled());
  EXPECT_TRUE(obs::TraceEnabled());
  EXPECT_TRUE(obs::ProfilerEnabled());

  const obs::ObsConfig current = obs::Current();
  EXPECT_FALSE(current.metrics);
  EXPECT_TRUE(current.trace);
  EXPECT_TRUE(current.profiler);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterConcurrentAddsSumExactly) {
  obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter("test.obs.hammered_counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(ObsTest, GaugeConcurrentAddsAreLossless) {
  obs::Gauge& gauge = obs::MetricsRegistry::Get().GetGauge("test.obs.hammered_gauge");
  gauge.Set(0.0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), static_cast<double>(kThreads * kPerThread));
}

TEST_F(ObsTest, HistogramBucketsObservationsExactlyUnderConcurrency) {
  obs::Histogram& histogram =
      obs::MetricsRegistry::Get().GetHistogram("test.obs.hammered_histogram", {1.0, 10.0, 100.0});
  histogram.Reset();
  // Each thread observes the same fixed set, so per-bucket totals are exact
  // multiples regardless of interleaving.
  const std::vector<double> values = {0.5, 1.0, 5.0, 10.0, 50.0, 1000.0};
  constexpr int kThreads = 8;
  constexpr int kRounds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, &values] {
      for (int round = 0; round < kRounds; ++round) {
        for (const double v : values) histogram.Observe(v);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::Histogram::Snapshot snap = histogram.Snap();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  constexpr uint64_t kMultiplier = kThreads * kRounds;
  EXPECT_EQ(snap.bucket_counts[0], 2 * kMultiplier);  // 0.5, 1.0 (inclusive edge)
  EXPECT_EQ(snap.bucket_counts[1], 2 * kMultiplier);  // 5.0, 10.0
  EXPECT_EQ(snap.bucket_counts[2], 1 * kMultiplier);  // 50.0
  EXPECT_EQ(snap.bucket_counts[3], 1 * kMultiplier);  // 1000.0 -> +Inf
  EXPECT_EQ(snap.count, 6 * kMultiplier);
  EXPECT_DOUBLE_EQ(snap.sum, 1066.5 * static_cast<double>(kMultiplier));
}

TEST_F(ObsTest, ExponentialBucketsGrowByFactor) {
  const std::vector<double> bounds = obs::ExponentialBuckets(1000.0, 4.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1000.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4000.0);
  EXPECT_DOUBLE_EQ(bounds[4], 256000.0);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST_F(ObsTest, RegistryExportsJsonAndPrometheus) {
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("test.obs.export_counter").Add(42);
  registry.GetGauge("test.obs.export_gauge").Set(2.5);
  registry.GetHistogram("test.obs.export_histogram", {1.0, 2.0}).Observe(1.5);

  const Json json = ParseJsonOrDie(registry.ToJson());
  ASSERT_TRUE(json.Has("counters"));
  EXPECT_DOUBLE_EQ(json.At("counters").At("test.obs.export_counter").number, 42.0);
  EXPECT_DOUBLE_EQ(json.At("gauges").At("test.obs.export_gauge").number, 2.5);
  const Json& histogram = json.At("histograms").At("test.obs.export_histogram");
  EXPECT_DOUBLE_EQ(histogram.At("count").number, 1.0);

  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("test_obs_export_counter 42"), std::string::npos);
  EXPECT_NE(prom.find("test_obs_export_gauge 2.5"), std::string::npos);
  EXPECT_NE(prom.find("test_obs_export_histogram"), std::string::npos);
  // Dots never leak into the Prometheus names.
  EXPECT_EQ(prom.find("test.obs"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledTraceRecordsNoEvents) {
  ASSERT_FALSE(obs::TraceEnabled());
  for (int i = 0; i < 100; ++i) {
    URCL_TRACE_SCOPE("should_not_appear");
    URCL_TRACE_SCOPE("nested", i);
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  const Json trace = ParseJsonOrDie(obs::ChromeTraceJson());
  for (const Json& event : trace.At("traceEvents").array) {
    EXPECT_NE(event.At("ph").str, "X");  // metadata rows only
  }
}

// Collected view of one "X" event for nesting checks.
struct SpanEvent {
  std::string name;
  double ts_us = 0.0;
  double end_us = 0.0;
};

TEST_F(ObsTest, EightThreadHammerProducesProperlyNestedSpansPerThread) {
  obs::ObsConfig config;
  config.trace = true;
  obs::Configure(config);

  constexpr int kThreads = 8;
  constexpr int kIterations = 200;  // 3 spans each; well under ring capacity
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::SetThreadName("hammer-" + std::to_string(t));
      for (int i = 0; i < kIterations; ++i) {
        URCL_TRACE_SCOPE("outer");
        {
          URCL_TRACE_SCOPE("middle", i);
          URCL_TRACE_SCOPE("inner");
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(obs::TraceEventCount(), static_cast<size_t>(kThreads * kIterations * 3));

  const Json trace = ParseJsonOrDie(obs::ChromeTraceJson());
  EXPECT_EQ(trace.At("otherData").At("dropped_events").number, 0.0);

  std::map<int, std::vector<SpanEvent>> by_tid;
  std::map<int, std::string> thread_names;
  for (const Json& event : trace.At("traceEvents").array) {
    const int tid = static_cast<int>(event.At("tid").number);
    if (event.At("ph").str == "M") {
      thread_names[tid] = event.At("args").At("name").str;
    } else if (event.At("ph").str == "X") {
      SpanEvent span;
      span.name = event.At("name").str;
      span.ts_us = event.At("ts").number;
      span.end_us = span.ts_us + event.At("dur").number;
      by_tid[tid].push_back(span);
    }
  }

  int hammer_threads_seen = 0;
  for (auto& [tid, spans] : by_tid) {
    if (thread_names[tid].rfind("hammer-", 0) != 0) continue;  // e.g. pool workers
    ++hammer_threads_seen;
    ASSERT_EQ(spans.size(), static_cast<size_t>(kIterations * 3)) << thread_names[tid];

    // Sorted by start (outermost first on ties), every span must nest: it
    // either starts after the enclosing span ends, or ends within it.
    std::sort(spans.begin(), spans.end(), [](const SpanEvent& a, const SpanEvent& b) {
      if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
      return a.end_us > b.end_us;
    });
    constexpr double kEpsUs = 0.01;  // ns->us double rounding slack
    std::vector<SpanEvent> stack;
    for (const SpanEvent& span : spans) {
      while (!stack.empty() && span.ts_us >= stack.back().end_us - kEpsUs) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(span.end_us, stack.back().end_us + kEpsUs)
            << span.name << " straddles " << stack.back().name << " in " << thread_names[tid];
      }
      stack.push_back(span);
    }
    // Span names survived the ring (including the indexed form).
    EXPECT_EQ(spans.front().name, "outer");
    bool saw_indexed = false;
    for (const SpanEvent& span : spans) saw_indexed |= span.name == "middle_7";
    EXPECT_TRUE(saw_indexed);
  }
  EXPECT_EQ(hammer_threads_seen, kThreads);
}

TEST_F(ObsTest, RingOverflowDropsOldestAndCountsThem) {
  obs::ObsConfig config;
  config.trace = true;
  obs::Configure(config);

  // The shrunken capacity only applies to rings created afterwards, so the
  // spans must come from a brand-new thread.
  obs::SetTraceRingCapacity(8);
  std::thread recorder([] {
    obs::SetThreadName("tiny-ring");
    for (int i = 0; i < 20; ++i) {
      URCL_TRACE_SCOPE("overflow", i);
    }
  });
  recorder.join();
  obs::SetTraceRingCapacity(65536);  // restore the default for later rings

  const Json trace = ParseJsonOrDie(obs::ChromeTraceJson());
  EXPECT_EQ(trace.At("otherData").At("dropped_events").number, 12.0);
  // The ring keeps the newest 8 events: overflow_12 .. overflow_19.
  std::vector<std::string> kept;
  for (const Json& event : trace.At("traceEvents").array) {
    if (event.At("ph").str == "X" && event.At("name").str.rfind("overflow_", 0) == 0) {
      kept.push_back(event.At("name").str);
    }
  }
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept.front(), "overflow_12");
  EXPECT_EQ(kept.back(), "overflow_19");
}

// ---------------------------------------------------------------------------
// Per-op autograd profiler
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledProfilerRecordsNothing) {
  ASSERT_FALSE(obs::ProfilerEnabled());
  autograd::Variable a(Tensor::Ones(Shape{4, 4}), true);
  autograd::Variable loss = autograd::Sum(autograd::MatMul(a, a));
  loss.Backward();
  EXPECT_TRUE(obs::ProfilerSnapshot().empty());
}

TEST_F(ObsTest, ProfilerAccountsTwoOpGraphAgainstWallClock) {
  obs::ObsConfig config;
  config.profiler = true;
  obs::Configure(config);

  autograd::Variable a(Tensor::Ones(Shape{64, 64}), true);
  autograd::Variable b(Tensor::Full(Shape{64, 64}, 0.5f), true);
  const Stopwatch wall;
  autograd::Variable product = autograd::MatMul(a, b);
  autograd::Variable loss = autograd::Sum(product);
  loss.Backward();
  const int64_t wall_ns = wall.ElapsedNs();

  const std::map<std::string, obs::OpProfile> snapshot = obs::ProfilerSnapshot();
  ASSERT_TRUE(snapshot.count("matmul"));
  ASSERT_TRUE(snapshot.count("sum"));
  const obs::OpProfile& matmul = snapshot.at("matmul");
  const obs::OpProfile& sum = snapshot.at("sum");

  EXPECT_EQ(matmul.forward_calls, 1u);
  EXPECT_EQ(matmul.backward_calls, 1u);
  EXPECT_EQ(matmul.forward_bytes, 64u * 64u * sizeof(float));   // output tensor
  EXPECT_EQ(matmul.backward_bytes, 64u * 64u * sizeof(float));  // upstream grad
  EXPECT_EQ(sum.forward_calls, 1u);
  EXPECT_EQ(sum.backward_calls, 1u);
  EXPECT_EQ(sum.forward_bytes, sizeof(float));  // scalar output

  // Profiled time is a sub-interval of the hand-timed window.
  int64_t profiled_ns = 0;
  for (const auto& [name, profile] : snapshot) {
    EXPECT_GE(profile.forward_ns, 0) << name;
    EXPECT_GE(profile.backward_ns, 0) << name;
    profiled_ns += profile.forward_ns + profile.backward_ns;
  }
  EXPECT_GT(profiled_ns, 0);
  EXPECT_LE(profiled_ns, wall_ns);

  // Reset empties the shards.
  obs::ResetProfiler();
  EXPECT_TRUE(obs::ProfilerSnapshot().empty());
}

TEST_F(ObsTest, ProfilerAttributesDelegatingOpsToTheInnerOp) {
  obs::ObsConfig config;
  config.profiler = true;
  obs::Configure(config);

  // Neg delegates to MulScalar: its time lands on mul_scalar (no phantom
  // "neg" row).
  autograd::Variable x(Tensor::Ones(Shape{8}), true);
  autograd::Variable y = autograd::Neg(x);
  ASSERT_TRUE(y.IsValid());
  const std::map<std::string, obs::OpProfile> snapshot = obs::ProfilerSnapshot();
  EXPECT_EQ(snapshot.count("neg"), 0u);
  ASSERT_TRUE(snapshot.count("mul_scalar"));
  EXPECT_EQ(snapshot.at("mul_scalar").forward_calls, 1u);
}

TEST_F(ObsTest, ProfilerJsonParsesAndMatchesSnapshot) {
  obs::ObsConfig config;
  config.profiler = true;
  obs::Configure(config);

  autograd::Variable a(Tensor::Ones(Shape{4, 4}), true);
  autograd::Variable loss = autograd::Sum(autograd::Relu(a));
  loss.Backward();

  const Json json = ParseJsonOrDie(obs::ProfilerJson());
  ASSERT_TRUE(json.Has("ops"));
  ASSERT_TRUE(json.At("ops").Has("relu"));
  const Json& relu = json.At("ops").At("relu");
  EXPECT_DOUBLE_EQ(relu.At("forward").At("calls").number, 1.0);
  EXPECT_DOUBLE_EQ(relu.At("forward").At("bytes").number, 4.0 * 4.0 * sizeof(float));
  EXPECT_DOUBLE_EQ(relu.At("backward").At("calls").number, 1.0);
}

TEST_F(ObsTest, ProfilerChargesPlanReplaysToTheOpCells) {
  // Capture unprofiled, then profile one replay: every thunk runs through its
  // op's definition, so each op records exactly one call per direction.
  autograd::Variable w(Tensor::Full(Shape{8, 8}, 0.25f), /*requires_grad=*/true);
  const Tensor x = Tensor::Ones(Shape{4, 8});
  exec::CompiledPlan::CaptureResult captured = exec::CompiledPlan::Capture(
      {x},
      [&] { return autograd::Sum(autograd::Tanh(autograd::MatMul(autograd::Variable(x), w))); },
      /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;
  ASSERT_TRUE(obs::ProfilerSnapshot().empty());

  obs::ObsConfig config;
  config.profiler = true;
  obs::Configure(config);
  captured.plan->BindInputs({x});
  captured.plan->RunForward();
  captured.plan->RunBackward();

  const std::map<std::string, obs::OpProfile> snapshot = obs::ProfilerSnapshot();
  EXPECT_EQ(snapshot.size(), 3u);
  for (const char* op : {"matmul", "tanh", "sum"}) {
    ASSERT_TRUE(snapshot.count(op)) << op;
    EXPECT_EQ(snapshot.at(op).forward_calls, 1u) << op;
    EXPECT_EQ(snapshot.at(op).backward_calls, 1u) << op;
  }
  EXPECT_EQ(snapshot.at("matmul").forward_bytes, 4u * 8u * sizeof(float));
}

TEST_F(ObsTest, ProfilerRecordsTheSameGateChainRowsOnTapeAndPlan) {
  // The gated-TCN chain Mul(Tanh(x + b1), Sigmoid(y + b2)) with trainable
  // biases: a plan replay records exactly the rows, call counts and bytes of
  // a tape run, in each direction.
  const Shape shape{2, 3, 4, 5};
  const Tensor x = Tensor::Full(shape, 0.3f);
  const Tensor y = Tensor::Full(shape, -0.2f);
  const autograd::Variable b1(Tensor::Full(Shape{1, 3, 1, 1}, 0.1f), /*requires_grad=*/true);
  const autograd::Variable b2(Tensor::Full(Shape{1, 3, 1, 1}, -0.4f), /*requires_grad=*/true);
  const auto build = [&] {
    const autograd::Variable t = autograd::Tanh(autograd::Add(autograd::Variable(x), b1));
    const autograd::Variable s = autograd::Sigmoid(autograd::Add(autograd::Variable(y), b2));
    return autograd::Sum(autograd::Mul(t, s));
  };
  exec::CompiledPlan::CaptureResult captured =
      exec::CompiledPlan::Capture({x, y}, build, /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;

  obs::ObsConfig config;
  config.profiler = true;
  obs::Configure(config);
  build().Backward();
  const std::map<std::string, obs::OpProfile> tape = obs::ProfilerSnapshot();
  obs::ResetProfiler();
  b1.ZeroGrad();  // as before every step: a replay starts from zero gradients
  b2.ZeroGrad();
  captured.plan->BindInputs({x, y});
  captured.plan->RunForward();
  captured.plan->RunBackward();
  const std::map<std::string, obs::OpProfile> plan = obs::ProfilerSnapshot();

  EXPECT_EQ(tape.size(), 5u);  // add, tanh, sigmoid, mul, sum
  ASSERT_EQ(plan.size(), tape.size());
  for (const auto& [op, row] : tape) {
    ASSERT_TRUE(plan.count(op)) << op;
    const obs::OpProfile& replay = plan.at(op);
    EXPECT_EQ(replay.forward_calls, row.forward_calls) << op;
    EXPECT_EQ(replay.forward_bytes, row.forward_bytes) << op;
    EXPECT_EQ(replay.backward_calls, row.backward_calls) << op;
    EXPECT_EQ(replay.backward_bytes, row.backward_bytes) << op;
  }
}

// ---------------------------------------------------------------------------
// End to end: a real training run exports a nested trace and a Prometheus
// snapshot covering every instrumented subsystem.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TrainedTrainerExportsNestedTraceAndSubsystemMetrics) {
  obs::ObsConfig config;
  config.metrics = true;
  config.trace = true;
  obs::Configure(config);

  const data::DatasetPreset preset = data::MetrLaPreset();
  data::TrafficConfig traffic = preset.MakeTrafficConfig(8, 10, 7);
  traffic.steps_per_day = 48;  // half resolution keeps the test fast
  data::SyntheticTraffic generator(traffic);
  const Tensor series = generator.GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(normalizer.Transform(series), preset.MakeWindowConfig());
  data::StreamSplitter stream(dataset, data::StreamConfig{});

  core::UrclConfig urcl_config;
  urcl_config.encoder.num_nodes = 8;
  urcl_config.encoder.in_channels = 2;
  urcl_config.encoder.input_steps = 12;
  urcl_config.encoder.hidden_channels = 6;
  urcl_config.encoder.latent_channels = 12;
  urcl_config.encoder.num_layers = 2;
  urcl_config.batch_size = 6;
  urcl_config.max_batches_per_epoch = 5;
  urcl_config.buffer_capacity = 32;
  core::UrclTrainer trainer(urcl_config, generator.network());
  trainer.BeginStage(0);
  trainer.TrainStage(stream.Stage(0).train, 1);

  // Trace: the trainer spans nest stage > epoch > step > phases.
  const std::string trace_json = obs::ChromeTraceJson();
  const Json trace = ParseJsonOrDie(trace_json);
  std::map<std::string, int> span_counts;
  for (const Json& event : trace.At("traceEvents").array) {
    if (event.At("ph").str == "X") ++span_counts[event.At("name").str];
  }
  EXPECT_EQ(span_counts["train_stage_0"], 1);
  EXPECT_EQ(span_counts["epoch_0"], 1);
  EXPECT_EQ(span_counts["train_step"], 5);
  EXPECT_EQ(span_counts["forward"], span_counts["train_step"]);
  EXPECT_EQ(span_counts["backward"], span_counts["train_step"]);
  EXPECT_EQ(span_counts["optimizer_step"], span_counts["train_step"]);

  // Metrics: every instrumented subsystem published under its prefix.
  const std::string prom = obs::MetricsRegistry::Get().ToPrometheus();
  for (const char* name : {"urcl_pool_hits", "urcl_runtime_parallel_regions",
                           "urcl_runtime_region_lanes", "urcl_trainer_steps",
                           "urcl_replay_added", "urcl_replay_size"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << "missing " << name << " in:\n" << prom;
  }
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  // Every counted region, caller-only ones included, records its lanes.
  EXPECT_EQ(snapshot.histograms.at("urcl.runtime.region_lanes").count,
            snapshot.counters.at("urcl.runtime.parallel_regions"));
  EXPECT_EQ(snapshot.counters.at("urcl.trainer.steps"), 5u);
  EXPECT_GT(snapshot.counters.at("urcl.replay.added"), 0u);
  EXPECT_EQ(snapshot.histograms.at("urcl.trainer.step_ns").count, 5u);

  // File export: --metrics-out/--trace-out plumbing writes both files.
  const std::string trace_path = ::testing::TempDir() + "obs_test_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "obs_test_metrics.prom";
  obs::SetTraceOutPath(trace_path);
  obs::SetMetricsOutPath(metrics_path);
  std::vector<std::string> errors;
  const std::vector<std::string> written = obs::WriteConfiguredOutputs(&errors);
  obs::SetTraceOutPath("");
  obs::SetMetricsOutPath("");
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(written.size(), 2u);

  std::ifstream trace_file(trace_path);
  ASSERT_TRUE(trace_file.good());
  std::stringstream trace_contents;
  trace_contents << trace_file.rdbuf();
  ParseJsonOrDie(trace_contents.str());

  std::ifstream metrics_file(metrics_path);
  ASSERT_TRUE(metrics_file.good());
  std::stringstream metrics_contents;
  metrics_contents << metrics_file.rdbuf();
  EXPECT_NE(metrics_contents.str().find("urcl_trainer_steps"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Request-scoped trace IDs and flow linking
// ---------------------------------------------------------------------------

TEST_F(ObsTest, MintTraceIdIsNonZeroAndUnique) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = obs::MintTraceId();
    EXPECT_NE(id, 0u);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST_F(ObsTest, TraceFlowBindsAndRestoresCurrentTraceId) {
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  const uint64_t outer = obs::MintTraceId();
  {
    obs::TraceFlow flow(outer);
    EXPECT_EQ(obs::CurrentTraceId(), outer);
    const uint64_t inner = obs::MintTraceId();
    {
      obs::TraceFlow nested(inner);
      EXPECT_EQ(obs::CurrentTraceId(), inner);
    }
    EXPECT_EQ(obs::CurrentTraceId(), outer);  // nested scope restores
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
}

TEST_F(ObsTest, ChromeTraceLinksSpansToTheActiveFlow) {
  obs::ObsConfig config;
  config.trace = true;
  obs::Configure(config);

  const uint64_t trace_id = obs::MintTraceId();
  {
    obs::TraceFlow flow(trace_id);
    { URCL_TRACE_SCOPE("flow.first"); }
    { URCL_TRACE_SCOPE("flow.second"); }
  }
  { URCL_TRACE_SCOPE("no.flow"); }

  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(trace_id));
  const Json trace = ParseJsonOrDie(obs::ChromeTraceJson());
  int tagged_slices = 0;
  int flow_starts = 0;
  int flow_steps = 0;
  for (const Json& event : trace.At("traceEvents").array) {
    const std::string& ph = event.At("ph").str;
    if (ph == "X" && event.Has("args") && event.At("args").Has("trace_id")) {
      EXPECT_EQ(event.At("args").At("trace_id").str, hex);
      EXPECT_NE(event.At("name").str, "no.flow");
      ++tagged_slices;
    }
    if (ph == "s" || ph == "t") {
      EXPECT_EQ(event.At("id").str, hex);
      ph == "s" ? ++flow_starts : ++flow_steps;
    }
  }
  EXPECT_EQ(tagged_slices, 2);
  EXPECT_EQ(flow_starts, 1);  // first occurrence opens the flow
  EXPECT_EQ(flow_steps, 1);   // later spans continue it
}

// ---------------------------------------------------------------------------
// Flight recorder (black box)
// ---------------------------------------------------------------------------

TEST_F(ObsTest, FlightRecorderIsAlwaysOnAndOrdersEventsBySeq) {
  ASSERT_FALSE(obs::MetricsEnabled());  // recording must not depend on the gate
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Clear();

  obs::RecordFlightEvent(obs::FlightEventType::kSnapshotAdmit, 7);
  obs::RecordFlightEvent(obs::FlightEventType::kHotSwap, 7, 6, "v6 -> v7");
  obs::RecordFlightEvent(obs::FlightEventType::kRollback, 7, 6, "error spike");

  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].type, obs::FlightEventType::kSnapshotAdmit);
  EXPECT_EQ(events[0].a, 7);
  EXPECT_EQ(events[2].type, obs::FlightEventType::kRollback);
  EXPECT_STREQ(events[2].detail, "error spike");
  EXPECT_EQ(events[2].b, 6);
}

TEST_F(ObsTest, FlightRecorderPicksUpTheActiveTraceId) {
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Clear();
  const uint64_t trace_id = obs::MintTraceId();
  {
    obs::TraceFlow flow(trace_id);
    obs::RecordFlightEvent(obs::FlightEventType::kDeadlineShed, 1000, 500);
  }
  obs::RecordFlightEvent(obs::FlightEventType::kSnapshotPublish, 1);

  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, trace_id);
  EXPECT_EQ(events[1].trace_id, 0u);
}

TEST_F(ObsTest, FlightRecorderJsonlAndAutoDumpRoundTrip) {
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Clear();
  obs::RecordFlightEvent(obs::FlightEventType::kSnapshotQuarantine, -1, 0,
                         "bad \"weights\"\nline two");
  obs::RecordFlightEvent(obs::FlightEventType::kLameDuck);

  // Every JSONL line is valid JSON with the expected fields.
  std::istringstream lines(recorder.ToJsonl());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    const Json event = ParseJsonOrDie(line);
    EXPECT_TRUE(event.Has("seq"));
    EXPECT_TRUE(event.Has("ts_ns"));
    EXPECT_TRUE(event.Has("type"));
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);

  // AutoDump writes the deterministic per-reason file into the set dir.
  const std::string dir = ::testing::TempDir() + "obs_blackbox_test";
  std::filesystem::create_directories(dir);
  recorder.SetDumpDir(dir);
  const std::string path = recorder.AutoDump("unit");
  recorder.SetDumpDir("");
  EXPECT_EQ(path, dir + "/urcl_blackbox.unit.jsonl");
  EXPECT_EQ(recorder.last_dump_path(), path);
  std::ifstream dump(path);
  ASSERT_TRUE(dump.good());
  std::stringstream contents;
  contents << dump.rdbuf();
  EXPECT_NE(contents.str().find("\"type\":\"snapshot_quarantine\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"type\":\"lame_duck\""), std::string::npos);
  // The escaped detail survives the dump verbatim.
  EXPECT_NE(contents.str().find("bad \\\"weights\\\"\\nline two"), std::string::npos);
}

TEST_F(ObsTest, FlightRecorderRingBoundsMemoryUnderOverflow) {
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Clear();
  const uint64_t before = recorder.events_recorded();
  for (int i = 0; i < 10000; ++i) {
    obs::RecordFlightEvent(obs::FlightEventType::kPlanCompile, i);
  }
  EXPECT_EQ(recorder.events_recorded() - before, 10000u);
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  // Bounded ring: everything recorded is counted, only the tail is retained.
  EXPECT_LE(events.size(), 4096u);
  EXPECT_GT(events.size(), 0u);
  recorder.Clear();
}

// ---------------------------------------------------------------------------
// Prometheus exposition conformance (names, label escaping, histogram edges)
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PrometheusSanitizesHostileMetricNames) {
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("9lives.of-a.metric!name").Add(3);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("_9lives_of_a_metric_name 3"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("9lives.of"), std::string::npos);
}

TEST_F(ObsTest, PrometheusEscapesLabelValues) {
  const std::string name = obs::LabeledName(
      "urcl.test.escaped", {{"msg", "quote\" slash\\ newline\n end"}, {"bad-key!", "v"}});
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetGauge(name).Set(1.0);
  const std::string prom = registry.ToPrometheus();
  // Escapes: \" for quotes, \\ for backslash, \n for newline — and the label
  // key is sanitized like a metric name.
  EXPECT_NE(prom.find("urcl_test_escaped{msg=\"quote\\\" slash\\\\ newline\\n end\","
                      "bad_key_=\"v\"} 1"),
            std::string::npos)
      << prom;
}

TEST_F(ObsTest, PrometheusHistogramEmitsCumulativeBucketsAndInfEdge) {
  auto& registry = obs::MetricsRegistry::Get();
  obs::Histogram& plain = registry.GetHistogram("urcl.test.edges", {1.0, 2.0});
  plain.Reset();
  plain.Observe(1.0);  // == edge: counts into le="1" (Prometheus semantics)
  plain.Observe(1.5);
  plain.Observe(99.0);  // above every bound: +Inf only
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("urcl_test_edges_bucket{le=\"1\"} 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("urcl_test_edges_bucket{le=\"2\"} 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("urcl_test_edges_bucket{le=\"+Inf\"} 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("urcl_test_edges_count 3"), std::string::npos) << prom;
}

TEST_F(ObsTest, PrometheusLabeledHistogramFoldsLabelsBeforeLe) {
  auto& registry = obs::MetricsRegistry::Get();
  const std::string name =
      obs::LabeledName("urcl.test.labeled_hist", {{"stage", "2"}});
  obs::Histogram& labeled = registry.GetHistogram(name, {1.0});
  labeled.Reset();
  labeled.Observe(0.5);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("urcl_test_labeled_hist_bucket{stage=\"2\",le=\"1\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("urcl_test_labeled_hist_bucket{stage=\"2\",le=\"+Inf\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("urcl_test_labeled_hist_count{stage=\"2\"} 1"), std::string::npos)
      << prom;
  // One # TYPE line per family even with labels present.
  EXPECT_EQ(prom.find("# TYPE urcl_test_labeled_hist histogram"),
            prom.rfind("# TYPE urcl_test_labeled_hist histogram"));
}

// ---------------------------------------------------------------------------
// Learning-quality telemetry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, LearningTelemetryComputesForgettingAndBackwardTransfer) {
  obs::LearningTelemetry telemetry;
  EXPECT_TRUE(telemetry.empty());
  // Stage 0 trains to MAE 2.0, then degrades to 3.0 after stage 1, 3.5 after
  // stage 2. Stage 1 trains to 1.5 and *improves* to 1.0 after stage 2.
  telemetry.Record(0, 0, 2.0);
  telemetry.Record(1, 0, 3.0);
  telemetry.Record(1, 1, 1.5);
  telemetry.Record(2, 0, 3.5);
  telemetry.Record(2, 1, 1.0);
  telemetry.Record(2, 2, 4.0);

  EXPECT_EQ(telemetry.latest_trained_stage(), 2);
  EXPECT_DOUBLE_EQ(telemetry.Diagonal(0), 2.0);
  EXPECT_DOUBLE_EQ(telemetry.Latest(0), 3.5);
  EXPECT_DOUBLE_EQ(telemetry.Forgetting(0), 1.5);    // 3.5 - 2.0
  EXPECT_DOUBLE_EQ(telemetry.Forgetting(1), -0.5);   // 1.0 - 1.5 (improved)
  EXPECT_DOUBLE_EQ(telemetry.MeanForgetting(), 0.5);  // (1.5 - 0.5) / 2
  EXPECT_DOUBLE_EQ(telemetry.BackwardTransfer(), -0.5);
  EXPECT_TRUE(std::isnan(telemetry.Forgetting(5)));

  const Json json = ParseJsonOrDie(telemetry.ToJson());
  EXPECT_DOUBLE_EQ(json.At("stages").number, 3.0);
  EXPECT_DOUBLE_EQ(json.At("matrix").At("2").At("0").number, 3.5);
  EXPECT_DOUBLE_EQ(json.At("forgetting").At("0").number, 1.5);
  EXPECT_DOUBLE_EQ(json.At("backward_transfer").number, -0.5);

  obs::ObsConfig config;
  config.metrics = true;
  obs::Configure(config);
  telemetry.ExportGauges();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get().Snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("urcl.learn.forgetting{stage=\"0\"}"), 1.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("urcl.learn.backward_transfer"), -0.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("urcl.learn.stages_trained"), 3.0);
}

TEST_F(ObsTest, ProtocolRunnerFillsLearningTelemetryUnderSeenSoFar) {
  const data::DatasetPreset preset = data::MetrLaPreset();
  data::TrafficConfig traffic = preset.MakeTrafficConfig(6, 10, 7);
  traffic.steps_per_day = 48;
  data::SyntheticTraffic generator(traffic);
  const Tensor series = generator.GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(normalizer.Transform(series), preset.MakeWindowConfig());
  data::StreamConfig stream_config;
  stream_config.num_incremental = 2;
  data::StreamSplitter stream(dataset, stream_config);

  core::UrclConfig urcl_config;
  urcl_config.encoder.num_nodes = 6;
  urcl_config.encoder.in_channels = 2;
  urcl_config.encoder.input_steps = 12;
  urcl_config.encoder.hidden_channels = 4;
  urcl_config.encoder.latent_channels = 8;
  urcl_config.batch_size = 4;
  urcl_config.max_batches_per_epoch = 2;
  urcl_config.buffer_capacity = 16;
  core::UrclTrainer trainer(urcl_config, generator.network());

  obs::LearningTelemetry telemetry;
  core::ProtocolOptions options;
  options.epochs_per_stage = 1;
  options.learning = &telemetry;
  options.learning_json_path = ::testing::TempDir() + "obs_test_learning.json";
  const std::vector<core::StageResult> results =
      core::RunContinualProtocol(trainer, stream, normalizer, 0, options);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(telemetry.latest_trained_stage(), 2);
  // The diagonal and the final row of the matrix are filled for every stage,
  // so forgetting is defined for each earlier stage.
  for (int64_t s = 0; s <= 2; ++s) {
    EXPECT_FALSE(std::isnan(telemetry.Diagonal(s))) << "R[" << s << "][" << s << "]";
    EXPECT_FALSE(std::isnan(telemetry.Latest(s))) << "R[2][" << s << "]";
  }
  EXPECT_FALSE(std::isnan(telemetry.Forgetting(0)));
  EXPECT_FALSE(std::isnan(telemetry.Forgetting(1)));
  std::ifstream json_file(options.learning_json_path);
  ASSERT_TRUE(json_file.good());
  std::stringstream json_contents;
  json_contents << json_file.rdbuf();
  const Json json = ParseJsonOrDie(json_contents.str());
  EXPECT_DOUBLE_EQ(json.At("stages").number, 3.0);
}

// ---------------------------------------------------------------------------
// Facade handles
// ---------------------------------------------------------------------------

TEST_F(ObsTest, FacadeHandlesGateOnMetricsEnabled) {
  obs::CounterHandle counter("urcl.test.facade_counter");
  obs::GaugeHandle gauge("urcl.test.facade_gauge");
  obs::MetricsRegistry::Get().GetCounter("urcl.test.facade_counter").Reset();

  ASSERT_FALSE(obs::MetricsEnabled());
  counter.Add();
  gauge.Set(5.0);
  EXPECT_EQ(counter.Value(), 0u);  // gated off: no mutation

  obs::ObsConfig config;
  config.metrics = true;
  obs::Configure(config);
  counter.Add(2);
  gauge.Set(5.0);
  EXPECT_EQ(counter.Value(), 2u);
  EXPECT_DOUBLE_EQ(gauge.Value(), 5.0);
}

}  // namespace
}  // namespace urcl
