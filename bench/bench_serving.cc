// Closed-loop serving load generator: N client threads fire batched forecast
// queries at a ForecastService while a background UrclTrainer trains through
// two stream stages and hot-swaps weight snapshots into the hub mid-flight.
// Records QPS and latency percentiles (p50/p90/p99 from the
// urcl.serve.latency_ns obs histogram) into BENCH_serving.json, together with
// the serving failure-model counters (deadline sheds, degraded answers,
// rollbacks, quarantined snapshots) so resilience regressions show up in the
// bench record.
//
//   ./bench_serving [--clients 4] [--nodes 12] [--epochs N] [--batches N]
//                   [--publish-every 4] [--deadline-us 0]
//                   [--executor plan|tape] [--out BENCH_serving.json]
//
// --executor selects the inference executor (default: plan).
// Clients time every query themselves and split latencies into steady-state
// vs hot-swap-window samples (a query lands in the swap window when it is the
// client's first on a new model version or when the hub swapped mid-flight),
// so the recorded p99 can be attributed to swap stalls vs the steady serving
// path. In plan mode a hot-swap recompiles nothing: the pooled plans take
// each snapshot's weights as inputs, so the swap window should cost what the
// steady path does.
//
// The run is closed-loop (each client issues its next query as soon as the
// previous one returns) and ends once the trainer finishes both stages; the
// harness then asserts that at least one hot-swap happened while queries
// were in flight and that clients observed more than one model version.
// --deadline-us attaches a latency budget to every query; shed queries put
// the client into jittered exponential backoff (50us doubling to 5ms, +-50%
// jitter, reset on success), so the reported QPS is goodput under overload
// rather than a retry storm.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/normalizer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

// Quantile estimate from a histogram snapshot: finds the bucket holding the
// q-th observation and interpolates linearly inside its bounds (the +Inf
// bucket reports its lower edge; good enough for latency reporting).
double HistogramQuantile(const obs::Histogram::Snapshot& snap, double q) {
  if (snap.count == 0) return 0.0;
  const double target = q * static_cast<double>(snap.count);
  double cumulative = 0.0;
  for (size_t i = 0; i < snap.bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(snap.bucket_counts[i]);
    if (cumulative + in_bucket < target || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    const double lower = i == 0 ? 0.0 : snap.bounds[i - 1];
    if (i >= snap.bounds.size()) return lower;  // +Inf bucket
    const double upper = snap.bounds[i];
    const double fraction = (target - cumulative) / in_bucket;
    return lower + fraction * (upper - lower);
  }
  return snap.bounds.empty() ? 0.0 : snap.bounds.back();
}

// Exact quantile over raw per-query samples (destructive: partially sorts).
double SampleQuantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = static_cast<size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  const int64_t clients = flags.GetInt("clients", 4);
  const int64_t publish_every = flags.GetInt("publish-every", 4);
  const int64_t deadline_us = flags.GetInt("deadline-us", 0);
  const std::string out_path = flags.GetString("out", "BENCH_serving.json");
  URCL_CHECK_GE(clients, 1);
  const std::string executor_name = flags.GetString("executor", "plan");
  URCL_CHECK(executor_name == "plan" || executor_name == "tape")
      << "--executor must be plan or tape, got " << executor_name;
  const exec::ExecutorMode executor =
      executor_name == "plan" ? exec::ExecutorMode::kPlan : exec::ExecutorMode::kTape;
  flags.ExitOnUnreadFlags();

  // The latency histogram lives in the obs registry; make sure it counts.
  obs::ObsConfig obs_config = obs::Current();
  obs_config.metrics = true;
  obs::Configure(obs_config);

  // Two-stage synthetic stream sharing one training-time normalizer.
  data::TrafficConfig traffic;
  traffic.num_nodes = scale.nodes;
  traffic.num_days = 4;
  traffic.steps_per_day = 72;
  traffic.channels = 2;
  traffic.seed = scale.seed;
  data::SyntheticTraffic generator(traffic);
  const Tensor series = generator.GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  const Tensor normalized = normalizer.Transform(series);
  const int64_t steps = normalized.dim(0);
  const data::WindowConfig window{12, 1, 0};
  const Tensor first_half = ops::Slice(normalized, {0, 0, 0},
                                       {steps / 2, traffic.num_nodes, traffic.channels});
  const Tensor second_half = ops::Slice(normalized, {steps / 2, 0, 0},
                                        {steps - steps / 2, traffic.num_nodes, traffic.channels});
  data::StDataset stage0(first_half, window);
  data::StDataset stage1(second_half, window);

  serve::ServiceConfig config;
  config.model.encoder.num_nodes = scale.nodes;
  config.model.encoder.in_channels = traffic.channels;
  config.model.encoder.input_steps = window.input_steps;
  config.model.encoder.hidden_channels = scale.hidden;
  config.model.encoder.latent_channels = scale.latent;
  config.model.encoder.num_layers = 3;
  config.model.output_steps = window.output_steps;
  config.model.max_batches_per_epoch = scale.max_batches_per_epoch;
  config.model.seed = scale.seed;
  config.executor = executor;
  serve::ForecastService service(config, generator.network(), normalizer);

  core::UrclTrainer trainer(config.model, generator.network());
  trainer.SetSnapshotSink(service.SnapshotSink(), publish_every);

  // Pre-assemble a pool of query windows the clients cycle through (the
  // closed loop measures serving, not request construction).
  std::vector<Tensor> query_pool;
  for (int64_t i = 0; i < 16 && i < stage0.NumSamples(); ++i) {
    query_pool.push_back(stage0.MakeBatch({i}).first);
  }
  URCL_CHECK(!query_pool.empty());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> total_queries{0};
  std::atomic<int64_t> total_errors{0};
  std::atomic<int64_t> degraded_responses{0};
  std::atomic<int64_t> backoff_waits{0};
  std::atomic<int64_t> min_version_seen{1 << 30};
  std::atomic<int64_t> max_version_seen{0};
  // Per-query latencies split by swap-window attribution, merged at the end.
  std::mutex samples_mu;
  std::vector<double> steady_latency_ns;
  std::vector<double> swap_window_latency_ns;

  std::thread trainer_thread([&] {
    trainer.BeginStage(0);
    trainer.TrainStage(stage0, scale.epochs);
    trainer.BeginStage(1);
    trainer.TrainStage(stage1, scale.epochs);
    stop.store(true);
  });

  // Hold the clients until the first snapshot is live so the measured window
  // contains served queries only. The deadline keeps a wedged trainer from
  // hanging the bench (exempt from banned-call/clock: load-generator pacing).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (service.hub().Current() == nullptr && !stop.load()) {
    URCL_CHECK(std::chrono::steady_clock::now() < deadline) << "no snapshot within 120s";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const Stopwatch measured;
  std::vector<std::thread> client_threads;
  for (int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      constexpr int64_t kBackoffBaseUs = 50;
      constexpr int64_t kBackoffCapUs = 5000;
      Rng backoff_rng(static_cast<uint64_t>(1000 + c));
      int64_t backoff_us = 0;  // 0 = not backing off
      int64_t i = static_cast<int64_t>(c);
      int64_t last_version = -1;  // model version of this client's last answer
      std::vector<double> local_steady_ns;
      std::vector<double> local_swap_ns;
      bool first = true;  // always issue >= 1 query, even if the trainer wins
      while (first || !stop.load(std::memory_order_relaxed)) {
        first = false;
        core::PredictRequest request;
        request.inputs = query_pool[static_cast<size_t>(i++ % query_pool.size())];
        request.deadline_ns = deadline_us * 1000;
        core::PredictResponse response;
        const int64_t swaps_before = service.hub().swap_count();
        const int64_t query_start_ns = MonotonicNowNs();
        const Status status = service.Predict(request, &response);
        const double query_ns = static_cast<double>(MonotonicNowNs() - query_start_ns);
        if (status.ok()) {
          // Swap window: this client's first answer from a new model version,
          // or the hub swapped while the query was in flight.
          const bool swap_window = response.model_version != last_version ||
                                   service.hub().swap_count() != swaps_before;
          last_version = response.model_version;
          (swap_window ? local_swap_ns : local_steady_ns).push_back(query_ns);
          backoff_us = 0;
          total_queries.fetch_add(1, std::memory_order_relaxed);
          if (response.degraded) degraded_responses.fetch_add(1, std::memory_order_relaxed);
          int64_t seen = min_version_seen.load();
          while (response.model_version < seen &&
                 !min_version_seen.compare_exchange_weak(seen, response.model_version)) {
          }
          seen = max_version_seen.load();
          while (response.model_version > seen &&
                 !max_version_seen.compare_exchange_weak(seen, response.model_version)) {
          }
        } else {
          total_errors.fetch_add(1, std::memory_order_relaxed);
          // Retry pressure (shed or drained queries) backs off with jittered
          // exponential delay so the measured QPS is goodput, not a retry
          // storm; request errors (bad input) would only repeat identically.
          const StatusCode code = status.code();
          if (code == StatusCode::kOverloaded || code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kUnavailable) {
            backoff_us = backoff_us == 0
                             ? kBackoffBaseUs
                             : std::min<int64_t>(backoff_us * 2, kBackoffCapUs);
            const int64_t jittered =
                backoff_rng.UniformInt(backoff_us / 2, backoff_us + backoff_us / 2);
            backoff_waits.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(jittered));
          }
        }
      }
      std::lock_guard<std::mutex> lock(samples_mu);
      steady_latency_ns.insert(steady_latency_ns.end(), local_steady_ns.begin(),
                               local_steady_ns.end());
      swap_window_latency_ns.insert(swap_window_latency_ns.end(), local_swap_ns.begin(),
                                    local_swap_ns.end());
    });
  }

  trainer_thread.join();
  for (std::thread& t : client_threads) t.join();
  const double seconds = static_cast<double>(measured.ElapsedNs()) / 1e9;

  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Get().Snapshot();
  obs::Histogram::Snapshot latency;
  const auto it = metrics.histograms.find("urcl.serve.latency_ns");
  if (it != metrics.histograms.end()) latency = it->second;
  const double qps = seconds > 0.0 ? static_cast<double>(total_queries.load()) / seconds : 0.0;
  const double p50 = HistogramQuantile(latency, 0.50);
  const double p90 = HistogramQuantile(latency, 0.90);
  const double p99 = HistogramQuantile(latency, 0.99);
  const double mean = latency.count > 0 ? latency.sum / static_cast<double>(latency.count) : 0.0;
  const int64_t swaps = service.hub().swap_count();
  const double steady_p50 = SampleQuantile(steady_latency_ns, 0.50);
  const double steady_p99 = SampleQuantile(steady_latency_ns, 0.99);
  const double swap_p50 = SampleQuantile(swap_window_latency_ns, 0.50);
  const double swap_p99 = SampleQuantile(swap_window_latency_ns, 0.99);

  std::printf("serving bench: %lld clients, %.1fs measured, executor=%s\n",
              static_cast<long long>(clients), seconds, executor_name.c_str());
  std::printf("  queries   %lld ok, %lld rejected/errored (%.0f QPS)\n",
              static_cast<long long>(total_queries.load()),
              static_cast<long long>(total_errors.load()), qps);
  std::printf("  latency   p50 %.0f us  p90 %.0f us  p99 %.0f us  mean %.0f us\n", p50 / 1e3,
              p90 / 1e3, p99 / 1e3, mean / 1e3);
  std::printf("  steady    p50 %.0f us  p99 %.0f us  (%lld queries outside swap windows)\n",
              steady_p50 / 1e3, steady_p99 / 1e3,
              static_cast<long long>(steady_latency_ns.size()));
  std::printf("  swap-win  p50 %.0f us  p99 %.0f us  (%lld first-on-version/swap-in-flight; "
              "%lld plan compiles)\n",
              swap_p50 / 1e3, swap_p99 / 1e3,
              static_cast<long long>(swap_window_latency_ns.size()),
              static_cast<long long>(service.plan_compiles()));
  std::printf("  versions  %lld snapshots published, %lld swaps, clients saw v%lld..v%lld\n",
              static_cast<long long>(trainer.snapshots_published()),
              static_cast<long long>(swaps),
              static_cast<long long>(min_version_seen.load()),
              static_cast<long long>(max_version_seen.load()));

  std::printf("  failures  %lld deadline-shed, %lld degraded, %lld rollbacks, "
              "%lld quarantined, %lld backoff waits\n",
              static_cast<long long>(service.deadline_shed()),
              static_cast<long long>(degraded_responses.load()),
              static_cast<long long>(service.rollback_count()),
              static_cast<long long>(service.quarantined_snapshots()),
              static_cast<long long>(backoff_waits.load()));

  // At least one hot-swap must have been observable while clients queried.
  URCL_CHECK_GE(swaps, 2) << "trainer published fewer than two snapshots";
  URCL_CHECK_GT(total_queries.load(), 0) << "no queries served";
  if (executor == exec::ExecutorMode::kPlan) {
    // One query shape: at least one plan, and at most one per concurrent
    // client, however many hot-swaps happened.
    URCL_CHECK_GE(service.plan_compiles(), 1) << "plan executor never compiled";
    URCL_CHECK_LE(service.plan_compiles(), clients)
        << "plan executor compiled more plans than concurrent clients";
  }

  std::ofstream out(out_path);
  URCL_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n"
      << "  \"bench\": \"serving\",\n"
      << "  \"scale\": " << obs::JsonString(scale.name) << ",\n"
      << "  \"executor\": " << obs::JsonString(executor_name) << ",\n"
      << "  \"plan_compiles\": " << service.plan_compiles() << ",\n"
      << "  \"clients\": " << clients << ",\n"
      << "  \"measured_seconds\": " << obs::JsonNumber(seconds) << ",\n"
      << "  \"queries_ok\": " << total_queries.load() << ",\n"
      << "  \"queries_rejected_or_errored\": " << total_errors.load() << ",\n"
      << "  \"qps\": " << obs::JsonNumber(qps) << ",\n"
      << "  \"latency_ns\": {\n"
      << "    \"p50\": " << obs::JsonNumber(p50) << ",\n"
      << "    \"p90\": " << obs::JsonNumber(p90) << ",\n"
      << "    \"p99\": " << obs::JsonNumber(p99) << ",\n"
      << "    \"mean\": " << obs::JsonNumber(mean) << ",\n"
      << "    \"count\": " << latency.count << "\n"
      << "  },\n"
      << "  \"latency_ns_steady\": {\n"
      << "    \"p50\": " << obs::JsonNumber(steady_p50) << ",\n"
      << "    \"p99\": " << obs::JsonNumber(steady_p99) << ",\n"
      << "    \"count\": " << steady_latency_ns.size() << "\n"
      << "  },\n"
      << "  \"latency_ns_swap_window\": {\n"
      << "    \"p50\": " << obs::JsonNumber(swap_p50) << ",\n"
      << "    \"p99\": " << obs::JsonNumber(swap_p99) << ",\n"
      << "    \"count\": " << swap_window_latency_ns.size() << "\n"
      << "  },\n"
      << "  \"snapshots_published\": " << trainer.snapshots_published() << ",\n"
      << "  \"hot_swaps\": " << swaps << ",\n"
      << "  \"min_version_seen\": " << min_version_seen.load() << ",\n"
      << "  \"max_version_seen\": " << max_version_seen.load() << ",\n"
      << "  \"served_queries\": " << service.served_queries() << ",\n"
      << "  \"rejected_queries\": " << service.rejected_queries() << ",\n"
      << "  \"deadline_us\": " << deadline_us << ",\n"
      << "  \"deadline_shed\": " << service.deadline_shed() << ",\n"
      << "  \"degraded_responses\": " << degraded_responses.load() << ",\n"
      << "  \"rollbacks\": " << service.rollback_count() << ",\n"
      << "  \"snapshots_quarantined\": " << service.quarantined_snapshots() << ",\n"
      << "  \"backoff_waits\": " << backoff_waits.load() << ",\n"
      << "  \"context\": {\n";
  // Failure-model context from the obs registry (the `urcl.serve.*` counters
  // the service exports through the obs facade), so the bench record and the
  // Prometheus scrape agree on the incident tally for the run.
  const char* const kContextCounters[] = {
      "urcl.serve.rollbacks", "urcl.serve.snapshots_quarantined",
      "urcl.serve.deadline_shed", "urcl.serve.plan_compiles"};
  for (size_t i = 0; i < 4; ++i) {
    const auto counter_it = metrics.counters.find(kContextCounters[i]);
    const uint64_t value = counter_it != metrics.counters.end() ? counter_it->second : 0;
    out << "    " << obs::JsonString(kContextCounters[i]) << ": " << value
        << (i + 1 < 4 ? ",\n" : "\n");
  }
  out << "  }\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace urcl

int main(int argc, char** argv) { return urcl::Run(argc, argv); }
