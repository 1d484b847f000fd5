// Crash-safety tests: the checkpoint container/rotation formats, per-component
// state round-trips, fault injection, and the end-to-end guarantee that a run
// killed at any point and resumed from disk is bitwise identical to an
// uninterrupted run.
#include "checkpoint/container.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/crc32.h"
#include "checkpoint/manager.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/normalizer.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "nn/optimizer.h"
#include "replay/replay_buffer.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test (gtest TempDir is shared across tests).
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/urcl_ckpt_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(checkpoint::Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(checkpoint::Crc32(std::string("")), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (const char c : data) crc = checkpoint::Crc32Update(crc, &c, 1);
  EXPECT_EQ(crc, checkpoint::Crc32(data));
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

checkpoint::Container MakeTestContainer() {
  checkpoint::Container container;
  container.Add("meta", std::string("\x01\x00\x00\x00", 4));
  container.Add("model", "some binary model payload");
  container.Add("empty", "");
  return container;
}

TEST(ContainerTest, RoundTrip) {
  const checkpoint::Container container = MakeTestContainer();
  checkpoint::Container back;
  ASSERT_TRUE(checkpoint::Container::Parse(container.SerializeToString(), &back).ok());
  ASSERT_EQ(back.sections().size(), 3u);
  EXPECT_EQ(*back.Find("meta"), std::string("\x01\x00\x00\x00", 4));
  EXPECT_EQ(*back.Find("model"), "some binary model payload");
  EXPECT_EQ(*back.Find("empty"), "");
  EXPECT_EQ(back.Find("absent"), nullptr);
}

TEST(ContainerTest, EveryFlippedByteIsRejected) {
  const std::string bytes = MakeTestContainer().SerializeToString();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    checkpoint::Container out;
    const Status status = checkpoint::Container::Parse(corrupt, &out);
    EXPECT_FALSE(status.ok()) << "flipping byte " << i << " went undetected";
  }
}

TEST(ContainerTest, EveryTruncationIsRejected) {
  const std::string bytes = MakeTestContainer().SerializeToString();
  for (size_t len = 0; len < bytes.size(); ++len) {
    checkpoint::Container out;
    EXPECT_FALSE(checkpoint::Container::Parse(bytes.substr(0, len), &out).ok())
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST(ContainerTest, VersionMismatchIsActionable) {
  // Hand-build a container with a future version and a *correct* body CRC, so
  // the version check (not the CRC) is what rejects it.
  std::string bytes = MakeTestContainer().SerializeToString();
  const uint32_t future = 999;
  std::memcpy(bytes.data() + sizeof(uint64_t), &future, sizeof(uint32_t));
  const uint32_t crc = checkpoint::Crc32(
      bytes.data() + sizeof(uint64_t), bytes.size() - sizeof(uint64_t) - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc, sizeof(uint32_t));
  checkpoint::Container out;
  const Status status = checkpoint::Container::Parse(bytes, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version 999"), std::string::npos) << status.message();
}

TEST(ContainerTest, NotACheckpointIsRejected) {
  checkpoint::Container out;
  const Status status = checkpoint::Container::Parse("definitely not a checkpoint", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos) << status.message();
}

TEST(ContainerTest, AtomicWriteLeavesNoTempFile) {
  const std::string dir = ScratchDir("atomic");
  const std::string path = dir + "/state.urcl";
  ASSERT_TRUE(MakeTestContainer().WriteFile(path).ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  checkpoint::Container back;
  EXPECT_TRUE(checkpoint::Container::ReadFile(path, &back).ok());
}

// ---------------------------------------------------------------------------
// Rotation manager
// ---------------------------------------------------------------------------

TEST(ManagerTest, RotationKeepsNewestN) {
  const std::string dir = ScratchDir("rotate");
  checkpoint::CheckpointManager manager({dir, /*retention=*/3, "ckpt"});
  for (int i = 0; i < 5; ++i) {
    checkpoint::Container c;
    c.Add("meta", "save " + std::to_string(i));
    ASSERT_TRUE(manager.Save(c).ok());
  }
  EXPECT_EQ(manager.last_sequence(), 5);
  EXPECT_EQ(manager.ListCheckpoints().size(), 3u);
  checkpoint::Container newest;
  ASSERT_TRUE(manager.LoadNewestValid(&newest, nullptr).ok());
  EXPECT_EQ(*newest.Find("meta"), "save 4");
}

TEST(ManagerTest, CorruptNewestFallsBackToPrevious) {
  const std::string dir = ScratchDir("fallback");
  checkpoint::CheckpointManager manager({dir, 3, "ckpt"});
  for (int i = 0; i < 2; ++i) {
    checkpoint::Container c;
    c.Add("meta", "save " + std::to_string(i));
    ASSERT_TRUE(manager.Save(c).ok());
  }
  // Flip one byte in the middle of the newest file.
  const std::vector<std::string> files = manager.ListCheckpoints();
  ASSERT_EQ(files.size(), 2u);
  {
    std::fstream f(files.back(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char byte = 0;
    f.seekg(20);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(20);
    f.write(&byte, 1);
  }
  checkpoint::Container out;
  std::string diagnostics;
  ASSERT_TRUE(manager.LoadNewestValid(&out, &diagnostics).ok());
  EXPECT_EQ(*out.Find("meta"), "save 0");  // fell back past the corrupted one
  EXPECT_NE(diagnostics.find("rejected"), std::string::npos) << diagnostics;
}

TEST(ManagerTest, EmptyDirectoryIsAnError) {
  const std::string dir = ScratchDir("empty");
  checkpoint::CheckpointManager manager({dir, 3, "ckpt"});
  checkpoint::Container out;
  const Status status = manager.LoadNewestValid(&out, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no valid checkpoint"), std::string::npos);
}

TEST(ManagerTest, ContinuesSequenceAcrossRestart) {
  const std::string dir = ScratchDir("restart");
  {
    checkpoint::CheckpointManager manager({dir, 3, "ckpt"});
    checkpoint::Container c;
    c.Add("meta", "first process");
    ASSERT_TRUE(manager.Save(c).ok());
  }
  checkpoint::CheckpointManager manager({dir, 3, "ckpt"});
  checkpoint::Container c;
  c.Add("meta", "second process");
  ASSERT_TRUE(manager.Save(c).ok());
  EXPECT_EQ(manager.last_sequence(), 2);
  checkpoint::Container newest;
  ASSERT_TRUE(manager.LoadNewestValid(&newest, nullptr).ok());
  EXPECT_EQ(*newest.Find("meta"), "second process");
}

// ---------------------------------------------------------------------------
// Component state round-trips: a restored component must continue its stream
// exactly where the saved one left off.
// ---------------------------------------------------------------------------

TEST(StateRoundTripTest, RngContinuesBitwise) {
  Rng original(123);
  for (int i = 0; i < 57; ++i) original.Uniform();
  const std::string state = original.SaveState();

  Rng restored(999);  // different seed: state must fully override it
  ASSERT_TRUE(restored.LoadState(state));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.engine()(), restored.engine()());
  }
}

TEST(StateRoundTripTest, RngRejectsGarbageState) {
  Rng rng(7);
  const uint64_t next = Rng(7).engine()();
  EXPECT_FALSE(rng.LoadState("not an engine state"));
  EXPECT_EQ(rng.engine()(), next);  // untouched on failure
}

TEST(StateRoundTripTest, AdamContinuesBitwise) {
  Rng rng(5);
  auto make_params = [&rng]() {
    return std::vector<autograd::Variable>{
        autograd::Variable(Tensor::RandomNormal(Shape{3, 4}, rng), true),
        autograd::Variable(Tensor::RandomNormal(Shape{4}, rng), true)};
  };
  auto step = [](nn::Adam& adam, std::vector<autograd::Variable>& params, float scale) {
    adam.ZeroGrad();
    for (autograd::Variable& p : params) {
      p.AccumulateGrad(ops::MulScalar(p.value(), scale));
    }
    adam.Step();
  };

  std::vector<autograd::Variable> params_a = make_params();
  // Same initial values for the b copies.
  std::vector<autograd::Variable> params_b;
  for (const autograd::Variable& p : params_a) {
    params_b.emplace_back(p.value().Clone(), true);
  }

  nn::Adam a(params_a, {.lr = 0.01f});
  for (int i = 0; i < 7; ++i) step(a, params_a, 0.1f + 0.01f * i);

  std::ostringstream saved;
  a.SaveState(saved);
  nn::Adam b(params_b, {.lr = 0.01f});
  for (size_t i = 0; i < params_b.size(); ++i) params_b[i].SetValue(params_a[i].value().Clone());
  ASSERT_TRUE(b.LoadState(saved.str()).ok());
  EXPECT_EQ(b.step_count(), a.step_count());

  for (int i = 0; i < 5; ++i) {
    step(a, params_a, 0.2f);
    step(b, params_b, 0.2f);
    for (size_t j = 0; j < params_a.size(); ++j) {
      const Tensor& ta = params_a[j].value();
      const Tensor& tb = params_b[j].value();
      ASSERT_EQ(std::memcmp(ta.data(), tb.data(),
                            static_cast<size_t>(ta.NumElements()) * sizeof(float)),
                0)
          << "param " << j << " diverged after restored step " << i;
    }
  }
}

TEST(StateRoundTripTest, AdamRejectsMismatchedState) {
  Rng rng(6);
  std::vector<autograd::Variable> params{
      autograd::Variable(Tensor::RandomNormal(Shape{2, 2}, rng), true)};
  nn::Adam a(params, {.lr = 0.01f});
  std::ostringstream saved;
  a.SaveState(saved);

  std::vector<autograd::Variable> other{
      autograd::Variable(Tensor::RandomNormal(Shape{2, 2}, rng), true),
      autograd::Variable(Tensor::RandomNormal(Shape{3}, rng), true)};
  nn::Adam b(other, {.lr = 0.01f});
  const Status status = b.LoadState(saved.str());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("parameters"), std::string::npos) << status.message();
}

replay::ReplayItem MakeItem(Rng& rng, int64_t slot) {
  replay::ReplayItem item;
  item.inputs = Tensor::RandomNormal(Shape{4, 3, 2}, rng);
  item.targets = Tensor::RandomNormal(Shape{1, 3, 1}, rng);
  item.time_slot = slot;
  return item;
}

TEST(StateRoundTripTest, ReplayBufferContinuesBitwise) {
  Rng data_rng(9);
  replay::ReplayBuffer a(8, replay::BufferPolicy::kReservoir, 77);
  // Overfill so the reservoir RNG has advanced.
  std::vector<replay::ReplayItem> inserts;
  for (int64_t i = 0; i < 30; ++i) inserts.push_back(MakeItem(data_rng, i));
  for (const replay::ReplayItem& item : inserts) a.Add(item);

  std::ostringstream saved;
  a.Serialize(saved);
  replay::ReplayBuffer b(8, replay::BufferPolicy::kReservoir, 1);  // different seed
  ASSERT_TRUE(b.Deserialize(saved.str()).ok());

  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.inserted(), a.inserted());
  EXPECT_EQ(b.evictions(), a.evictions());

  // Future evictions must follow the same reservoir stream.
  Rng more_rng(10);
  for (int64_t i = 0; i < 40; ++i) {
    const replay::ReplayItem item = MakeItem(more_rng, 100 + i);
    a.Add(item);
    b.Add(item);
  }
  ASSERT_EQ(b.size(), a.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    const replay::ReplayItem& ia = a.Get(i);
    const replay::ReplayItem& ib = b.Get(i);
    EXPECT_EQ(ia.time_slot, ib.time_slot) << "slot " << i;
    EXPECT_EQ(std::memcmp(ia.inputs.data(), ib.inputs.data(),
                          static_cast<size_t>(ia.inputs.NumElements()) * sizeof(float)),
              0);
  }
}

TEST(StateRoundTripTest, ReplayBufferRejectsCapacityMismatch) {
  Rng rng(4);
  replay::ReplayBuffer a(8, replay::BufferPolicy::kReservoir, 1);
  a.Add(MakeItem(rng, 0));
  std::ostringstream saved;
  a.Serialize(saved);
  replay::ReplayBuffer b(16, replay::BufferPolicy::kReservoir, 1);
  const Status status = b.Deserialize(saved.str());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("capacity"), std::string::npos) << status.message();
}

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Instance().Reset(); }
  void TearDown() override { fault::FaultInjector::Instance().Reset(); }
};

TEST_F(FaultInjectorTest, ParsesFullSpec) {
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  const std::vector<std::string> errors =
      injector.Configure("nan=0.01;inf=0.001;drop=0.05;dup=0.02;seed=9;kill=batch_done:40");
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(injector.enabled());
  EXPECT_DOUBLE_EQ(injector.nan_rate(), 0.01);
  EXPECT_DOUBLE_EQ(injector.inf_rate(), 0.001);
  EXPECT_DOUBLE_EQ(injector.drop_rate(), 0.05);
  EXPECT_DOUBLE_EQ(injector.dup_rate(), 0.02);
}

TEST_F(FaultInjectorTest, ReportsMalformedClauses) {
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  const std::vector<std::string> errors =
      injector.Configure("nan=2.0;bogus=1;kill=oops;drop=0.5");
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(injector.nan_rate(), 0.0);   // rejected clause not applied
  EXPECT_DOUBLE_EQ(injector.drop_rate(), 0.5);  // valid clause still applied
}

TEST_F(FaultInjectorTest, KillPointTriggersOnNthHitThenDisarms) {
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  injector.ArmKill("p", 3, fault::KillMode::kStop);
  EXPECT_FALSE(injector.AtKillPoint("p"));
  EXPECT_FALSE(injector.AtKillPoint("p"));
  EXPECT_TRUE(injector.AtKillPoint("p"));
  EXPECT_FALSE(injector.AtKillPoint("p"));  // disarmed after firing
  EXPECT_EQ(injector.counters().kills, 1);
  EXPECT_FALSE(injector.AtKillPoint("other"));
}

TEST_F(FaultInjectorTest, ExitModeTerminatesWith137) {
  EXPECT_EXIT(
      {
        fault::FaultInjector::Instance().ArmKill("boom", 1, fault::KillMode::kExit);
        fault::FaultInjector::Instance().AtKillPoint("boom");
      },
      ::testing::ExitedWithCode(137), "simulated crash at kill point 'boom'");
}

TEST_F(FaultInjectorTest, InputFaultsCorruptSeries) {
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  ASSERT_TRUE(injector.Configure("nan=0.05;inf=0.02;drop=0.05;seed=11").empty());
  Tensor series = Tensor::Ones(Shape{40, 6, 2});
  data::ApplyInputFaults(&series);
  EXPECT_GT(injector.counters().nan_cells, 0);
  EXPECT_GT(injector.counters().inf_cells, 0);
  EXPECT_GT(injector.counters().dropped_sensors, 0);
  EXPECT_FALSE(series.AllFinite());
}

// ---------------------------------------------------------------------------
// End-to-end crash safety on the URCL training loop
// ---------------------------------------------------------------------------

core::UrclConfig TinyConfig(int64_t nodes) {
  core::UrclConfig config;
  config.encoder.num_nodes = nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = 12;
  config.encoder.hidden_channels = 4;
  config.encoder.latent_channels = 8;
  config.encoder.num_layers = 3;
  config.encoder.adaptive_embedding_dim = 3;
  config.decoder_hidden = 16;
  config.proj_hidden = 8;
  config.batch_size = 4;
  config.max_batches_per_epoch = 4;
  config.buffer_capacity = 32;
  config.replay_sample_count = 2;
  config.rmir_scan_size = 4;
  config.rmir_candidate_pool = 3;
  config.seed = 21;
  return config;
}

struct ProtocolFixture {
  std::unique_ptr<data::SyntheticTraffic> generator;
  data::MinMaxNormalizer normalizer;
  std::unique_ptr<data::StDataset> dataset;
  std::unique_ptr<data::StreamSplitter> stream;
};

ProtocolFixture MakeProtocolFixture(int64_t nodes, uint64_t seed) {
  ProtocolFixture f;
  data::TrafficConfig config;
  config.num_nodes = nodes;
  // Long enough that every stage's test split exceeds one window after the
  // base/incremental and train/val/test splits.
  config.num_days = 6;
  config.steps_per_day = 64;
  config.seed = seed;
  f.generator = std::make_unique<data::SyntheticTraffic>(config);
  Tensor series = f.generator->GenerateSeries();
  f.normalizer = data::MinMaxNormalizer::Fit(series);
  f.dataset = std::make_unique<data::StDataset>(f.normalizer.Transform(series),
                                                data::WindowConfig{12, 1, 0});
  data::StreamConfig stream_config;
  stream_config.num_incremental = 2;
  f.stream = std::make_unique<data::StreamSplitter>(*f.dataset, stream_config);
  return f;
}

core::ProtocolOptions FastProtocol() {
  core::ProtocolOptions options;
  options.epochs_per_stage = 2;
  return options;
}

struct RunOutcome {
  std::vector<float> loss_history;
  Tensor prediction;
};

// The uninterrupted reference: full protocol in one process, checkpointing
// enabled (writing checkpoints must not change the training math).
RunOutcome RunUninterrupted(const ProtocolFixture& f, const std::string& dir) {
  core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
  if (!dir.empty()) {
    trainer.EnableCheckpointing({dir, /*every_steps=*/3, /*retention=*/3});
  }
  core::RunContinualProtocol(trainer, *f.stream, f.normalizer, 0, FastProtocol());
  const auto [x, y] = f.dataset->MakeBatch({0, 5});
  return RunOutcome{trainer.loss_history(), FullForecast(trainer, x)};
}

void ExpectBitwiseEqual(const RunOutcome& a, const RunOutcome& b, const std::string& what) {
  ASSERT_EQ(a.loss_history.size(), b.loss_history.size()) << what;
  for (size_t i = 0; i < a.loss_history.size(); ++i) {
    const float la = a.loss_history[i];
    const float lb = b.loss_history[i];
    ASSERT_EQ(std::memcmp(&la, &lb, sizeof(float)), 0)
        << what << ": loss diverged at step " << i << " (" << la << " vs " << lb << ")";
  }
  ASSERT_EQ(a.prediction.shape(), b.prediction.shape()) << what;
  EXPECT_EQ(std::memcmp(a.prediction.data(), b.prediction.data(),
                        static_cast<size_t>(a.prediction.NumElements()) * sizeof(float)),
            0)
      << what << ": predictions diverged";
}

// One kill scenario: the fault point to fire and the hit it fires on.
struct KillCase {
  const char* point;
  int64_t hits;
};

// gtest lists each case with its printed parameter, and gtest_discover_tests
// turns "/<index>  # GetParam() = batch_done_5" into the ctest name
// ".../batch_done_5". Without this printer the const char* would print as
// its address, which ASLR moves on every run, so the ctest names would change
// from one test discovery to the next.
void PrintTo(const KillCase& c, std::ostream* os) { *os << c.point << "_" << c.hits; }

class KillResumeTest : public ::testing::TestWithParam<KillCase> {
 protected:
  void SetUp() override { fault::FaultInjector::Instance().Reset(); }
  void TearDown() override { fault::FaultInjector::Instance().Reset(); }
};

TEST_P(KillResumeTest, ResumedRunIsBitwiseIdentical) {
  const auto [kill_point, hits] = GetParam();
  ProtocolFixture f = MakeProtocolFixture(6, 31);

  // Scratch names carry the hit count: under parallel ctest the batch_done_5
  // and batch_done_13 cases run as concurrent processes, and a shared dir
  // would let one case's remove_all delete the other's live checkpoints.
  const std::string tag = std::string(kill_point) + "_" + std::to_string(hits);
  const std::string ref_dir = ScratchDir("ref_" + tag);
  const RunOutcome reference = RunUninterrupted(f, ref_dir);
  ASSERT_FALSE(reference.loss_history.empty());

  // Interrupted run: cooperative kill (same crash semantics as _Exit for the
  // on-disk state — the trainer object is discarded, never reused — without
  // forking a child process under gtest).
  const std::string dir = ScratchDir("kill_" + tag);
  {
    fault::FaultInjector::Instance().ArmKill(kill_point, hits, fault::KillMode::kStop);
    core::UrclTrainer victim(TinyConfig(6), f.generator->network());
    victim.EnableCheckpointing({dir, 3, 3});
    core::RunContinualProtocol(victim, *f.stream, f.normalizer, 0, FastProtocol());
    ASSERT_TRUE(victim.TrainingInterrupted()) << "kill point '" << kill_point
                                              << "' never fired; hits=" << hits;
    ASSERT_LT(victim.loss_history().size(), reference.loss_history.size());
  }
  fault::FaultInjector::Instance().Reset();

  // Resume in a "new process": a fresh trainer restored purely from disk.
  core::UrclTrainer resumed(TinyConfig(6), f.generator->network());
  resumed.EnableCheckpointing({dir, 3, 3});
  std::string diagnostics;
  const Status restored = resumed.RestoreFromCheckpointDir(&diagnostics);
  ASSERT_TRUE(restored.ok()) << restored.message() << "\n" << diagnostics;
  core::RunContinualProtocol(resumed, *f.stream, f.normalizer, 0, FastProtocol());
  EXPECT_FALSE(resumed.TrainingInterrupted());

  const auto [x, y] = f.dataset->MakeBatch({0, 5});
  ExpectBitwiseEqual(reference, RunOutcome{resumed.loss_history(), FullForecast(resumed, x)},
                     "kill=" + tag);
}

INSTANTIATE_TEST_SUITE_P(KillPoints, KillResumeTest,
                         ::testing::Values(KillCase{"batch_done", 5}, KillCase{"batch_done", 13},
                                           KillCase{"checkpoint_written", 2},
                                           KillCase{"stage_begin", 2}, KillCase{"stage_end", 1}));

class TrainerCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Instance().Reset(); }
  void TearDown() override { fault::FaultInjector::Instance().Reset(); }
};

TEST_F(TrainerCheckpointTest, CorruptNewestCheckpointFallsBack) {
  ProtocolFixture f = MakeProtocolFixture(6, 31);
  const std::string dir = ScratchDir("trainer_fallback");
  {
    core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
    trainer.EnableCheckpointing({dir, 3, 3});
    core::RunContinualProtocol(trainer, *f.stream, f.normalizer, 0, FastProtocol());
  }
  checkpoint::CheckpointManager manager({dir, 3, "ckpt"});
  const std::vector<std::string> files = manager.ListCheckpoints();
  ASSERT_GE(files.size(), 2u);
  {
    // Flip one payload byte of the newest checkpoint.
    std::fstream file(files.back(), std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const std::streampos size = file.tellg();
    file.seekg(static_cast<std::streamoff>(size) / 2);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(static_cast<std::streamoff>(size) / 2);
    file.write(&byte, 1);
  }
  core::UrclTrainer restored(TinyConfig(6), f.generator->network());
  restored.EnableCheckpointing({dir, 3, 3});
  std::string diagnostics;
  ASSERT_TRUE(restored.RestoreFromCheckpointDir(&diagnostics).ok()) << diagnostics;
  EXPECT_NE(diagnostics.find("CRC mismatch"), std::string::npos) << diagnostics;
}

TEST_F(TrainerCheckpointTest, SeedMismatchIsRejected) {
  ProtocolFixture f = MakeProtocolFixture(6, 31);
  const std::string dir = ScratchDir("seed_mismatch");
  {
    core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
    trainer.EnableCheckpointing({dir, 0, 3});
    trainer.TrainStage(f.stream->Stage(0).train, 1);
  }
  core::UrclConfig other = TinyConfig(6);
  other.seed = 99;
  core::UrclTrainer restored(other, f.generator->network());
  restored.EnableCheckpointing({dir, 0, 3});
  const Status status = restored.RestoreFromCheckpointDir(nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos) << status.message();
}

// A newest checkpoint whose CRCs pass but whose section is cut in half is
// rejected with a diagnostic naming that section, and restore falls back to
// the older checkpoint: the trainer ends in exactly the state a restore of
// that intact checkpoint gives.
TEST_F(TrainerCheckpointTest, TruncatedSectionFallsBackToOlderCheckpoint) {
  ProtocolFixture f = MakeProtocolFixture(6, 31);
  const std::string train_dir = ScratchDir("truncated_train");
  {
    core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
    trainer.EnableCheckpointing({train_dir, 3, 3});
    trainer.TrainStage(f.stream->Stage(0).train, 1);
  }
  checkpoint::Container intact;
  ASSERT_TRUE(checkpoint::CheckpointManager({train_dir, 3, "ckpt"})
                  .LoadNewestValid(&intact, nullptr)
                  .ok());

  // Restores a fresh trainer from `dir` and returns its full state, as the
  // sections of a checkpoint it writes right after.
  const auto restored_state = [&f](const std::string& dir, std::string* diagnostics) {
    core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
    trainer.EnableCheckpointing({dir, 3, 3});
    const Status restored = trainer.RestoreFromCheckpointDir(diagnostics);
    EXPECT_TRUE(restored.ok()) << restored.ToString() << "\n" << *diagnostics;
    EXPECT_TRUE(trainer.SaveFullCheckpoint().ok());
    checkpoint::Container state;
    EXPECT_TRUE(
        checkpoint::CheckpointManager({dir, 3, "ckpt"}).LoadNewestValid(&state, nullptr).ok());
    return state.sections();
  };

  const std::string reference_dir = ScratchDir("truncated_reference");
  ASSERT_TRUE(checkpoint::CheckpointManager({reference_dir, 3, "ckpt"}).Save(intact).ok());
  std::string reference_diagnostics;
  const std::vector<checkpoint::Section> reference =
      restored_state(reference_dir, &reference_diagnostics);
  EXPECT_TRUE(reference_diagnostics.empty()) << reference_diagnostics;

  int case_index = 0;
  for (const std::string section : {"meta", "model", "optimizer", "rng", "buffer"}) {
    SCOPED_TRACE(section);
    checkpoint::Container cut;
    for (const checkpoint::Section& s : intact.sections()) {
      cut.Add(s.name, s.name == section ? s.payload.substr(0, s.payload.size() / 2) : s.payload);
    }
    const std::string dir = ScratchDir("truncated_" + std::to_string(case_index++));
    {
      checkpoint::CheckpointManager manager({dir, 3, "ckpt"});
      ASSERT_TRUE(manager.Save(intact).ok());
      ASSERT_TRUE(manager.Save(cut).ok());  // newest, CRC-valid, one section short
    }
    std::string diagnostics;
    const std::vector<checkpoint::Section> state = restored_state(dir, &diagnostics);
    EXPECT_NE(diagnostics.find(section + " section"), std::string::npos) << diagnostics;
    ASSERT_EQ(state.size(), reference.size());
    for (size_t i = 0; i < state.size(); ++i) {
      EXPECT_EQ(state[i].name, reference[i].name);
      EXPECT_TRUE(state[i].payload == reference[i].payload) << state[i].name << " differs";
    }
  }
}

TEST_F(TrainerCheckpointTest, NanInjectionQuarantinesAndKeepsLossFinite) {
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  ASSERT_TRUE(injector.Configure("drop=0.003;seed=42").empty());
  // GenerateSeries applies the input faults; Fit must shrug off the NaNs.
  ProtocolFixture f = MakeProtocolFixture(6, 31);
  ASSERT_GT(injector.counters().dropped_sensors, 0);

  core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
  trainer.TrainStage(f.stream->Stage(0).train, 2);
  trainer.TrainStage(f.stream->Stage(1).train, 2);
  EXPECT_GT(trainer.quarantined_batches(), 0);
  ASSERT_FALSE(trainer.loss_history().empty())
      << "every batch was quarantined; training never progressed";
  for (const float loss : trainer.loss_history()) {
    ASSERT_TRUE(std::isfinite(loss));
  }
}

TEST_F(TrainerCheckpointTest, DuplicatedBatchesAreCountedAndTrained) {
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  ProtocolFixture f = MakeProtocolFixture(6, 31);
  core::UrclTrainer plain(TinyConfig(6), f.generator->network());
  plain.TrainStage(f.stream->Stage(0).train, 1);

  ASSERT_TRUE(injector.Configure("dup=1.0;seed=3").empty());
  core::UrclTrainer duplicated(TinyConfig(6), f.generator->network());
  duplicated.TrainStage(f.stream->Stage(0).train, 1);
  EXPECT_EQ(duplicated.loss_history().size(), 2 * plain.loss_history().size());
  EXPECT_GT(injector.counters().duplicated_batches, 0);
}

TEST_F(TrainerCheckpointTest, RestoreWithoutEnableIsAnError) {
  ProtocolFixture f = MakeProtocolFixture(6, 31);
  core::UrclTrainer trainer(TinyConfig(6), f.generator->network());
  EXPECT_FALSE(trainer.SaveFullCheckpoint().ok());
  EXPECT_FALSE(trainer.RestoreFromCheckpointDir(nullptr).ok());
}

}  // namespace
}  // namespace urcl
