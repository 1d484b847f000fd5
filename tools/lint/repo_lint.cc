#include "tools/lint/repo_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/lint/layering.h"
#include "tools/lint/rules.h"
#include "tools/lint/source.h"

namespace urcl {
namespace lint {
namespace {

// Runs every registered rule pass over one tokenized file, then orders the
// findings by line so output is stable regardless of pass registration order.
std::vector<Finding> RunRulePasses(const SourceFile& file, const Options& options) {
  std::vector<Finding> findings;
  for (const RulePass pass : RulePasses()) pass(file, options, &findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

}  // namespace

std::string ExpectedGuard(const std::string& relative_path) {
  std::string guard = "URCL_";
  for (const char c : relative_path) {
    if (c == '/' || c == '.' || c == '-') {
      guard += '_';
    } else {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

std::vector<Finding> LintFileContent(const std::string& path, const std::string& content,
                                     const Options& options) {
  return RunRulePasses(AnalyzeSource(path, content), options);
}

std::vector<Finding> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<SourceFile> src_files;  // collected for the layering analyzer
  std::vector<SourceFile> all_files;  // every tree, for the test-only-header rule
  const std::vector<std::string> trees = {"src", "tests", "bench", "examples", "tools"};
  for (const std::string& tree : trees) {
    const fs::path tree_root = fs::path(root) / tree;
    if (!fs::exists(tree_root)) continue;
    std::vector<fs::path> files;
    for (auto it = fs::recursive_directory_iterator(tree_root);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "testdata") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      const std::string repo_relative =
          fs::relative(file, fs::path(root)).generic_string();
      Options options;
      // Banned calls and guard naming are library rules: src/ in full, plus
      // guard naming for tool headers (rooted at the repo top so
      // tools/lint/repo_lint.h includes as "tools/lint/repo_lint.h").
      options.library_rules = tree == "src" || tree == "tools";
      if (IsHeader(repo_relative) && options.library_rules) {
        const std::string include_relative =
            tree == "src" ? fs::relative(file, tree_root).generic_string() : repo_relative;
        options.expected_guard = ExpectedGuard(include_relative);
      }
      options.clock_rules = tree != "examples";
      // The discard rule is library-only: tests exercise discard behavior on
      // purpose (and gtest assertions consume the Status anyway).
      options.status_rules = tree == "src";
      options.allow_clock_reads = repo_relative == "src/common/stopwatch.h" ||
                                  repo_relative == "bench/bench_serving.cc";
      options.exec_arena_rules = repo_relative.rfind("src/exec/", 0) == 0;
      options.serve_metrics_rules = repo_relative.rfind("src/serve/", 0) == 0;
      // Lock discipline holds across src/; the annotations header is the one
      // place allowed to touch the raw std primitives it wraps.
      options.lock_rules =
          tree == "src" && repo_relative != "src/common/thread_annotations.h";
      std::ifstream in(file, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const SourceFile source = AnalyzeSource(repo_relative, buffer.str());
      std::vector<Finding> file_findings = RunRulePasses(source, options);
      findings.insert(findings.end(), file_findings.begin(), file_findings.end());
      if (tree == "src") src_files.push_back(source);
      all_files.push_back(source);
    }
  }
  std::vector<Finding> layering = CheckLayering(src_files);
  findings.insert(findings.end(), layering.begin(), layering.end());
  // Headers kept with only test callers: the loader for real METR-LA/PEMS CSV
  // exports, and the finite-difference reference the autograd tests check
  // gradients against.
  std::vector<Finding> test_only = CheckTestOnlyHeaders(
      all_files, {"src/autograd/grad_check.h", "src/data/csv_io.h"});
  findings.insert(findings.end(), test_only.begin(), test_only.end());
  return findings;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& finding : findings) {
    out << finding.file << ":";
    if (finding.line > 0) out << finding.line << ":";
    out << " [" << finding.rule << "] " << finding.detail << "\n";
  }
  return out.str();
}

}  // namespace lint
}  // namespace urcl
