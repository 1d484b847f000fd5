// Repo lint rules (tools/lint/repo_lint.h): each banned construct and format
// rule is proven to fire on a seeded fixture and to stay quiet on the
// idiomatic equivalent, plus suppression comments, comment/string stripping,
// and the include-guard path derivation.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/layering.h"
#include "tools/lint/repo_lint.h"
#include "tools/lint/source.h"

namespace urcl {
namespace lint {
namespace {

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& finding : findings) rules.push_back(finding.rule);
  return rules;
}

bool Has(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

Options LibraryOptions() {
  Options options;
  options.library_rules = true;
  options.format_rules = true;
  return options;
}

TEST(RepoLintTest, FlagsRandAndSrand) {
  const auto f1 = LintFileContent("src/x.cc", "int v = rand();\n", LibraryOptions());
  EXPECT_TRUE(Has(f1, "banned-call/rand"));
  const auto f2 = LintFileContent("src/x.cc", "srand(42);\n", LibraryOptions());
  EXPECT_TRUE(Has(f2, "banned-call/rand"));
  const auto f3 = LintFileContent("src/x.cc", "std::rand ();\n", LibraryOptions());
  EXPECT_TRUE(Has(f3, "banned-call/rand"));
}

TEST(RepoLintTest, DoesNotFlagRandLookalikes) {
  const auto findings = LintFileContent(
      "src/x.cc",
      "std::mt19937 engine(seed);\n"
      "float r = brand(3);\n"
      "int operand(int x);\n"
      "// rand() only in a comment\n"
      "const char* s = \"rand()\";\n",
      LibraryOptions());
  EXPECT_FALSE(Has(findings, "banned-call/rand")) << FormatFindings(findings);
}

TEST(RepoLintTest, FlagsRawArrayNew) {
  const auto findings =
      LintFileContent("src/x.cc", "float* buf = new float[128];\n", LibraryOptions());
  EXPECT_TRUE(Has(findings, "banned-call/new-array"));
}

TEST(RepoLintTest, DoesNotFlagScalarNewOrMakeShared) {
  const auto findings = LintFileContent(
      "src/x.cc",
      "auto* pool = new BufferPool();\n"
      "auto p = std::make_shared<std::atomic<uint64_t>>(0);\n"
      "arr[new_index] = 1;\n",
      LibraryOptions());
  EXPECT_FALSE(Has(findings, "banned-call/new-array")) << FormatFindings(findings);
}

TEST(RepoLintTest, FlagsBarePrintfButNotStderrVariants) {
  const auto bad = LintFileContent("src/x.cc", "printf(\"%d\", v);\n", LibraryOptions());
  EXPECT_TRUE(Has(bad, "banned-call/printf"));
  const auto ok = LintFileContent(
      "src/x.cc",
      "std::fprintf(stderr, \"%d\", v);\n"
      "std::snprintf(buf, sizeof(buf), \"%d\", v);\n",
      LibraryOptions());
  EXPECT_FALSE(Has(ok, "banned-call/printf")) << FormatFindings(ok);
}

TEST(RepoLintTest, FlagsDirectClockReadsUnlessAllowed) {
  const std::string source = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", source, LibraryOptions()),
                  "banned-call/clock"));
  Options stopwatch = LibraryOptions();
  stopwatch.allow_clock_reads = true;
  EXPECT_FALSE(Has(LintFileContent("src/common/stopwatch.h", source, stopwatch),
                   "banned-call/clock"));
}

TEST(RepoLintTest, ClockRuleCoversNonLibraryTrees) {
  const std::string source = "auto t = std::chrono::steady_clock::now();\n";
  // tests/ and bench/ run without library rules but still ban clock reads.
  Options bench = LibraryOptions();
  bench.library_rules = false;
  EXPECT_TRUE(Has(LintFileContent("bench/bench_x.cc", source, bench), "banned-call/clock"));
  EXPECT_TRUE(Has(LintFileContent("tests/x_test.cc", source, bench), "banned-call/clock"));
  // The serving load generator is the named exemption (pacing deadline).
  Options load_generator = bench;
  load_generator.allow_clock_reads = true;
  EXPECT_FALSE(Has(LintFileContent("bench/bench_serving.cc", source, load_generator),
                   "banned-call/clock"));
  // examples/ disables the clock rule group entirely.
  Options example = bench;
  example.clock_rules = false;
  EXPECT_FALSE(Has(LintFileContent("examples/x.cpp", source, example), "banned-call/clock"));
}

TEST(RepoLintTest, FlagsStatementPositionStatusDiscards) {
  // Member call, free call and (void)-laundering, all in statement position.
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  service.Predict(request, &response);\n",
                                  LibraryOptions()),
                  "status-discard"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  ParseModelSnapshot(c, config, &out);\n",
                                  LibraryOptions()),
                  "status-discard"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  (void)manager->Save(container);\n",
                                  LibraryOptions()),
                  "status-discard"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  checkpoint::Container::Parse(bytes, &c);\n",
                                  LibraryOptions()),
                  "status-discard"));
}

TEST(RepoLintTest, DoesNotFlagConsumedOrDeclaredStatusCalls) {
  const std::vector<std::string> clean = {
      "  const Status status = service.Predict(request, &response);\n",
      "  if (!service.Predict(request, &response).ok()) return;\n",
      "  return manager.Save(container);\n",
      "  Status Save(const Container& container);\n",       // declaration
      "  virtual Status Predict(const R& r, P* p) const;\n",  // declaration
      "  EXPECT_TRUE(service.Predict(request, &response).ok());\n",
  };
  for (const std::string& source : clean) {
    EXPECT_FALSE(Has(LintFileContent("src/x.cc", source, LibraryOptions()), "status-discard"))
        << source;
  }
}

TEST(RepoLintTest, StatusDiscardSkipsContinuationLines) {
  // Line 2 starts with the call but continues the assignment on line 1.
  const auto findings = LintFileContent("src/x.cc",
                                        "  Status status =\n"
                                        "      FinishPrediction(request, out, &response);\n",
                                        LibraryOptions());
  EXPECT_FALSE(Has(findings, "status-discard"));
}

TEST(RepoLintTest, StatusDiscardRespectsGateAndSuppression) {
  Options tests_tree = LibraryOptions();
  tests_tree.status_rules = false;  // how LintTree configures tests/ and bench/
  EXPECT_FALSE(Has(LintFileContent("tests/x_test.cc", "  service.Predict(r, &p);\n",
                                   tests_tree),
                   "status-discard"));
  EXPECT_FALSE(Has(LintFileContent(
                       "src/x.cc",
                       "  service.Predict(r, &p);  // lint:allow(status-discard)\n",
                       LibraryOptions()),
                   "status-discard"));
}

TEST(RepoLintTest, ExecPoolAcquireFlagsDirectAcquisitions) {
  Options exec = LibraryOptions();
  exec.exec_arena_rules = true;  // how LintTree configures src/exec/
  EXPECT_TRUE(Has(LintFileContent("src/exec/x.cc",
                                  "  auto a = pool::BufferPool::Get().Acquire(n);\n", exec),
                  "exec-pool-acquire"));
  EXPECT_TRUE(Has(LintFileContent(
                      "src/exec/x.cc",
                      "  auto a = pool::BufferPool::Get().AcquireWithVersion(n, false);\n",
                      exec),
                  "exec-pool-acquire"));
  // The AcquireStorage funnel bypasses BufferPool::Get() syntactically but is
  // the same allocation path.
  EXPECT_TRUE(Has(LintFileContent("src/exec/x.cc", "  float* p = AcquireStorage(n);\n",
                                  exec),
                  "exec-pool-acquire"));
}

TEST(RepoLintTest, ExecPoolAcquireIgnoresLookalikesAndOtherTrees) {
  Options exec = LibraryOptions();
  exec.exec_arena_rules = true;
  const auto findings = LintFileContent(
      "src/exec/x.cc",
      "pool::BufferPool::Acquisition inner;\n"          // type mention
      "float* PlanArena::Acquire(int64_t count) {\n"    // the arena's own API
      "  bool p = pool::BufferPool::Get().poison_enabled();\n"
      "  return nullptr;\n"
      "}\n",
      exec);
  EXPECT_FALSE(Has(findings, "exec-pool-acquire")) << FormatFindings(findings);
  // Outside src/exec/ the rule is off: the pool is the allocator everywhere
  // else.
  EXPECT_FALSE(Has(LintFileContent("src/tensor/x.cc",
                                   "  auto a = pool::BufferPool::Get().Acquire(n);\n",
                                   LibraryOptions()),
                   "exec-pool-acquire"));
}

TEST(RepoLintTest, ExecPoolAcquireAllowsSameLineAndPrecedingLineSuppressions) {
  Options exec = LibraryOptions();
  exec.exec_arena_rules = true;
  const std::string same_line =
      "  base_ = pool::BufferPool::Get().AcquireWithVersion(  // lint:allow(exec-pool-acquire)\n"
      "      total, false);\n";
  EXPECT_FALSE(Has(LintFileContent("src/exec/arena.cc", same_line, exec), "exec-pool-acquire"));
  // arena.cc also places the marker alone on the line above the acquisition
  // (the call line itself has no room before the column limit).
  const std::string preceding_line =
      "  // lint:allow(exec-pool-acquire)\n"
      "  owner->inner = pool::BufferPool::Get().AcquireWithVersion(count, zero_fill);\n";
  EXPECT_FALSE(
      Has(LintFileContent("src/exec/arena.cc", preceding_line, exec), "exec-pool-acquire"));
  // The marker only reaches one line down: two lines above does not suppress.
  const std::string too_far =
      "  // lint:allow(exec-pool-acquire)\n"
      "  int unrelated = 0;\n"
      "  owner->inner = pool::BufferPool::Get().AcquireWithVersion(count, zero_fill);\n";
  EXPECT_TRUE(Has(LintFileContent("src/exec/arena.cc", too_far, exec), "exec-pool-acquire"));
}

TEST(RepoLintTest, ServeMetricsRegistryFlagsDirectUse) {
  Options serve = LibraryOptions();
  serve.serve_metrics_rules = true;  // how LintTree configures src/serve/
  EXPECT_TRUE(Has(LintFileContent(
                      "src/serve/x.cc",
                      "  obs::MetricsRegistry::Get().GetCounter(\"x\").Add(1);\n", serve),
                  "serve-metrics-registry"));
  // Any registry mention counts, not just .Get() — cached references and
  // aliases reintroduce the same hot-path lookup hazard.
  EXPECT_TRUE(Has(LintFileContent("src/serve/x.cc",
                                  "  auto& registry = obs::MetricsRegistry::Get();\n",
                                  serve),
                  "serve-metrics-registry"));
}

TEST(RepoLintTest, ServeMetricsRegistryIgnoresFacadeAndOtherTrees) {
  Options serve = LibraryOptions();
  serve.serve_metrics_rules = true;
  // The facade handles are the sanctioned route.
  const auto findings = LintFileContent(
      "src/serve/x.cc",
      "  obs::CounterHandle queries{\"urcl.serve.queries\"};\n"
      "  // MetricsRegistry is fine in a comment\n"
      "  Metrics().queries.Add();\n",
      serve);
  EXPECT_FALSE(Has(findings, "serve-metrics-registry")) << FormatFindings(findings);
  // Outside src/serve/ the registry is the normal init-time route.
  EXPECT_FALSE(Has(LintFileContent(
                       "src/core/x.cc",
                       "  obs::MetricsRegistry::Get().GetCounter(\"x\").Add(1);\n",
                       LibraryOptions()),
                   "serve-metrics-registry"));
}

TEST(RepoLintTest, ServeMetricsRegistryHonorsSuppressions) {
  Options serve = LibraryOptions();
  serve.serve_metrics_rules = true;
  const std::string same_line =
      "  auto& r = obs::MetricsRegistry::Get();  // lint:allow(serve-metrics-registry)\n";
  EXPECT_FALSE(
      Has(LintFileContent("src/serve/x.cc", same_line, serve), "serve-metrics-registry"));
  const std::string preceding_line =
      "  // lint:allow(serve-metrics-registry)\n"
      "  auto& r = obs::MetricsRegistry::Get();\n";
  EXPECT_FALSE(Has(LintFileContent("src/serve/x.cc", preceding_line, serve),
                   "serve-metrics-registry"));
}

TEST(RepoLintTest, SuppressionCommentSilencesOneRule) {
  const auto findings = LintFileContent(
      "src/x.cc", "int v = rand();  // lint:allow(banned-call/rand)\n", LibraryOptions());
  EXPECT_FALSE(Has(findings, "banned-call/rand")) << FormatFindings(findings);
}

TEST(RepoLintTest, StripsBlockCommentsAcrossLines) {
  const auto findings = LintFileContent("src/x.cc",
                                        "/* rand() is banned\n"
                                        "   printf(\"x\") too */\n"
                                        "int y = 0;\n",
                                        LibraryOptions());
  EXPECT_FALSE(Has(findings, "banned-call/rand")) << FormatFindings(findings);
  EXPECT_FALSE(Has(findings, "banned-call/printf")) << FormatFindings(findings);
}

TEST(RepoLintTest, FormatRulesFire) {
  const std::string long_line(120, 'x');
  const auto findings = LintFileContent("src/x.cc",
                                        "int a = 1; \n"
                                        "\tint b = 2;\n"
                                        "int c = 3;\r\n" +
                                            long_line + "\n" + "no final newline",
                                        LibraryOptions());
  EXPECT_TRUE(Has(findings, "format/trailing-whitespace"));
  EXPECT_TRUE(Has(findings, "format/tab"));
  EXPECT_TRUE(Has(findings, "format/crlf"));
  EXPECT_TRUE(Has(findings, "format/line-length"));
  EXPECT_TRUE(Has(findings, "format/final-newline"));
}

TEST(RepoLintTest, CleanFileHasNoFindings) {
  const auto findings = LintFileContent("src/x.cc",
                                        "#include \"tensor/tensor.h\"\n"
                                        "\n"
                                        "int Working() { return 1; }\n",
                                        LibraryOptions());
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(RepoLintTest, IncludeGuardMustMatchPath) {
  Options options = LibraryOptions();
  options.expected_guard = ExpectedGuard("tensor/pool.h");
  EXPECT_EQ(options.expected_guard, "URCL_TENSOR_POOL_H_");
  const std::string good =
      "#ifndef URCL_TENSOR_POOL_H_\n#define URCL_TENSOR_POOL_H_\n#endif\n";
  EXPECT_FALSE(Has(LintFileContent("src/tensor/pool.h", good, options), "include-guard"));
  const std::string bad = "#ifndef POOL_H\n#define POOL_H\n#endif\n";
  EXPECT_TRUE(Has(LintFileContent("src/tensor/pool.h", bad, options), "include-guard"));
  const std::string missing = "int x;\n";
  EXPECT_TRUE(Has(LintFileContent("src/tensor/pool.h", missing, options), "include-guard"));
}

TEST(RepoLintTest, LockRuleFlagsRawStdSynchronization) {
  Options lock = LibraryOptions();
  lock.lock_rules = true;  // how LintTree configures src/ (minus the wrapper header)
  EXPECT_TRUE(Has(LintFileContent("src/x.h", "  std::mutex mu_;\n", lock),
                  "lock/unannotated-mutex"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  std::lock_guard<std::mutex> g(mu_);\n",
                                  lock),
                  "lock/unannotated-mutex"));
  EXPECT_TRUE(Has(LintFileContent("src/x.h", "  std::condition_variable cv_;\n", lock),
                  "lock/unannotated-mutex"));
  EXPECT_TRUE(Has(LintFileContent("src/x.h", "  std::shared_mutex window_mu_;\n", lock),
                  "lock/unannotated-mutex"));
}

TEST(RepoLintTest, LockRuleAcceptsAnnotatedWrappers) {
  Options lock = LibraryOptions();
  lock.lock_rules = true;
  const auto findings = LintFileContent(
      "src/x.h",
      "  Mutex mu_;\n"
      "  CondVar cv_;\n"
      "  int64_t ticks_ URCL_GUARDED_BY(mu_) = 0;\n"
      "  void Tick() URCL_EXCLUDES(mu_) { MutexLock lock(mu_); ++ticks_; }\n",
      lock);
  EXPECT_FALSE(Has(findings, "lock/unannotated-mutex")) << FormatFindings(findings);
  EXPECT_FALSE(Has(findings, "lock/bare-lock")) << FormatFindings(findings);
}

TEST(RepoLintTest, LockRuleFlagsBareLockTransitions) {
  Options lock = LibraryOptions();
  lock.lock_rules = true;
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  mu_.Unlock();\n", lock), "lock/bare-lock"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  mu_.Lock();\n", lock), "lock/bare-lock"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  guard->unlock();\n", lock),
                  "lock/bare-lock"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  rw_.UnlockShared();\n", lock),
                  "lock/bare-lock"));
  EXPECT_TRUE(Has(LintFileContent("src/x.cc", "  cv_.wait(mu_.native());\n", lock),
                  "lock/bare-lock"));
}

TEST(RepoLintTest, LockRuleAcceptsWeakPtrLock) {
  Options lock = LibraryOptions();
  lock.lock_rules = true;
  const auto findings = LintFileContent(
      "src/x.cc",
      "  auto snapshot = plan_snapshot_.lock();\n",  // std::weak_ptr::lock()
      lock);
  EXPECT_FALSE(Has(findings, "lock/bare-lock")) << FormatFindings(findings);
}

TEST(RepoLintTest, LockRulesAreGatedOff) {
  // tests/, bench/, examples/ and the wrapper header itself run without the
  // lock group (Options default).
  const auto findings =
      LintFileContent("tests/x_test.cc", "  std::mutex mu;\n  mu.unlock();\n",
                      Options{.library_rules = false});
  EXPECT_FALSE(Has(findings, "lock/unannotated-mutex")) << FormatFindings(findings);
  EXPECT_FALSE(Has(findings, "lock/bare-lock")) << FormatFindings(findings);
}

SourceFile Src(const std::string& path, const std::string& content) {
  return AnalyzeSource(path, content);
}

TEST(RepoLintTest, LayeringAcceptsStrictlyDownwardIncludes) {
  const auto findings = CheckLayering({
      Src("src/tensor/pool.h", "#include \"common/status.h\"\n#include \"obs/metrics.h\"\n"),
      Src("src/serve/service.cc",
          "#include \"serve/service.h\"\n#include \"obs/facade.h\"\n"),
      Src("src/serve/service.h", "#include \"tensor/pool.h\"\n"),
  });
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(RepoLintTest, LayeringFlagsUpwardInclude) {
  // common is rank 0; reaching up into runtime is the seeded violation that
  // motivated moving ApplyRuntimeFlags into runtime/runtime_flags.h.
  const auto findings =
      CheckLayering({Src("src/common/flags.cc", "#include \"runtime/parallel.h\"\n")});
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"layering/upward-include"});
  EXPECT_NE(findings[0].detail.find("strictly downward"), std::string::npos)
      << findings[0].detail;
  // Same-rank cross-module edges are upward too: graph and autograd are peers.
  const auto peers =
      CheckLayering({Src("src/graph/window.h", "#include \"autograd/tape.h\"\n")});
  EXPECT_TRUE(Has(peers, "layering/upward-include")) << FormatFindings(peers);
}

TEST(RepoLintTest, LayeringFlagsIncludeCycle) {
  const auto findings = CheckLayering({
      Src("src/tensor/a.h", "#include \"tensor/b.h\"\n"),
      Src("src/tensor/b.h", "#include \"tensor/c.h\"\n"),
      Src("src/tensor/c.h", "#include \"tensor/a.h\"\n"),
  });
  EXPECT_TRUE(Has(findings, "layering/include-cycle")) << FormatFindings(findings);
  bool described = false;
  for (const Finding& finding : findings) {
    if (finding.rule == "layering/include-cycle" &&
        finding.detail.find("src/tensor/a.h") != std::string::npos &&
        finding.detail.find("->") != std::string::npos) {
      described = true;
    }
  }
  EXPECT_TRUE(described) << FormatFindings(findings);
}

TEST(RepoLintTest, LayeringFlagsServeBypassingObsFacade) {
  const auto bypass = CheckLayering(
      {Src("src/serve/service.cc", "#include \"serve/service.h\"\n"
                                   "#include \"obs/metrics.h\"\n"),
       Src("src/serve/service.h", "#include \"common/status.h\"\n")});
  EXPECT_TRUE(Has(bypass, "layering/obs-facade")) << FormatFindings(bypass);
  const auto facade = CheckLayering(
      {Src("src/serve/service.cc", "#include \"serve/service.h\"\n"
                                   "#include \"obs/facade.h\"\n"),
       Src("src/serve/service.h", "#include \"common/status.h\"\n")});
  EXPECT_FALSE(Has(facade, "layering/obs-facade")) << FormatFindings(facade);
}

TEST(RepoLintTest, LayeringFlagsSelfIncludeNotFirst) {
  const auto findings = CheckLayering({
      Src("src/tensor/pool.cc", "#include \"common/status.h\"\n"
                                "#include \"tensor/pool.h\"\n"),
      Src("src/tensor/pool.h", "#include \"common/status.h\"\n"),
  });
  EXPECT_TRUE(Has(findings, "layering/self-include-first")) << FormatFindings(findings);
  // With the own header first the same pair is clean.
  const auto clean = CheckLayering({
      Src("src/tensor/pool.cc", "#include \"tensor/pool.h\"\n"
                                "#include \"common/status.h\"\n"),
      Src("src/tensor/pool.h", "#include \"common/status.h\"\n"),
  });
  EXPECT_FALSE(Has(clean, "layering/self-include-first")) << FormatFindings(clean);
}

TEST(RepoLintTest, LayeringFlagsUnknownModule) {
  const auto findings = CheckLayering({Src("src/widgets/w.h", "int x;\n")});
  EXPECT_TRUE(Has(findings, "layering/unknown-module")) << FormatFindings(findings);
}

TEST(RepoLintTest, LayeringIgnoresCommentedAndSystemIncludes) {
  const auto findings = CheckLayering({
      Src("src/common/status.h",
          "#include <string>\n"
          "// #include \"serve/service.h\"\n"
          "/* #include \"core/learner.h\" */\n"),
  });
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(RepoLintTest, TestOnlyHeaderFlagsHeadersOnlyTestsInclude) {
  // The header's own .cc is not a caller, so a test is its only includer.
  std::vector<SourceFile> files = {
      Src("src/core/widget.h", "int Widget();\n"),
      Src("src/core/widget.cc", "#include \"core/widget.h\"\n"),
      Src("tests/widget_test.cc", "#include \"core/widget.h\"\n"),
  };
  const auto findings = CheckTestOnlyHeaders(files, {});
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"layering/test-only-header"})
      << FormatFindings(findings);
  EXPECT_EQ(findings[0].file, "src/core/widget.h");
  EXPECT_NE(findings[0].detail.find("tests/widget_test.cc"), std::string::npos)
      << findings[0].detail;
  // Listed as kept on purpose: exempt.
  EXPECT_TRUE(CheckTestOnlyHeaders(files, {"src/core/widget.h"}).empty());
  // A bench caller outside tests/ makes the header live.
  files.push_back(Src("bench/bench_widget.cc", "#include \"core/widget.h\"\n"));
  const auto live = CheckTestOnlyHeaders(files, {});
  EXPECT_TRUE(live.empty()) << FormatFindings(live);
}

TEST(RepoLintTest, LayerRankTableOrdersTheDag) {
  EXPECT_EQ(LayerRank("common"), 0);
  EXPECT_LT(LayerRank("obs"), LayerRank("runtime"));
  EXPECT_LT(LayerRank("runtime"), LayerRank("tensor"));
  EXPECT_EQ(LayerRank("graph"), LayerRank("autograd"));  // peers, mutually invisible
  EXPECT_LT(LayerRank("core"), LayerRank("baselines"));
  EXPECT_LT(LayerRank("baselines"), LayerRank("serve"));
  EXPECT_EQ(LayerRank("widgets"), -1);
}

TEST(RepoLintTest, FormatFindingsIncludesFileLineAndRule) {
  const auto findings = LintFileContent("src/x.cc", "int v = rand();\n", LibraryOptions());
  ASSERT_FALSE(findings.empty());
  const std::string report = FormatFindings(findings);
  EXPECT_NE(report.find("src/x.cc:1:"), std::string::npos) << report;
  EXPECT_NE(report.find("[banned-call/rand]"), std::string::npos) << report;
  EXPECT_EQ(Rules(findings)[0], "banned-call/rand");
}

}  // namespace
}  // namespace lint
}  // namespace urcl
