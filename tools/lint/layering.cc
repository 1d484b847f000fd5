#include "tools/lint/layering.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace urcl {
namespace lint {
namespace {

struct LayerEntry {
  const char* module;
  int rank;
};

// The declared layer DAG. Ranks order the modules bottom-up; equal ranks mean
// "peers that must not know about each other" (graph/autograd are alternate
// IRs over tensor; augment/data/replay/checkpoint are sibling services that
// core composes). A module may include strictly lower ranks only. Adding a
// module means adding a row here — the unknown-module rule makes that
// impossible to forget — and documenting it in DESIGN.md §14.
constexpr LayerEntry kLayers[] = {
    {"common", 0},   {"obs", 1},     {"runtime", 2},    {"tensor", 3},
    {"graph", 4},    {"autograd", 4}, {"nn", 5},        {"augment", 6},
    {"data", 6},     {"replay", 6},  {"checkpoint", 6}, {"exec", 7},
    {"core", 8},     {"baselines", 9}, {"serve", 10},
};

// First path component after the "src/" prefix, or "" when there is none.
std::string ModuleOf(const std::string& repo_path) {
  std::string path = repo_path;
  if (path.rfind("src/", 0) == 0) path = path.substr(4);
  const size_t slash = path.find('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

struct Include {
  int line = 0;         // 1-based
  std::string target;   // the quoted path, e.g. "tensor/pool.h"
};

// Every `#include "..."` in the file. The stripped code line identifies the
// directive (a commented-out include never matches); the quoted path is
// re-read from the raw line because literal contents are blanked in `code`.
std::vector<Include> QuotedIncludes(const SourceFile& file) {
  std::vector<Include> includes;
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    if (line.code.find("#include") == std::string::npos) continue;
    const size_t open = line.raw.find('"');
    if (open == std::string::npos) continue;  // <system> include
    const size_t close = line.raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    includes.push_back(
        Include{static_cast<int>(i) + 1, line.raw.substr(open + 1, close - open - 1)});
  }
  return includes;
}

void Add(std::vector<Finding>* findings, const std::string& path, int line, std::string rule,
         std::string detail) {
  findings->push_back(Finding{path, line, std::move(rule), std::move(detail)});
}

// Depth-first search for include cycles. Nodes are repo-relative src/ paths;
// edges only exist where the include target resolves to a file in the set, so
// third-party and generated includes cannot produce false cycles.
struct CycleFinder {
  const std::map<std::string, const SourceFile*>* by_path = nullptr;
  std::map<std::string, std::vector<std::pair<std::string, int>>> edges;
  std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::vector<Finding>* findings = nullptr;

  void Visit(const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    for (const auto& [target, line] : edges[node]) {
      const int target_color = color[target];
      if (target_color == 2) continue;
      if (target_color == 1) {
        // Back edge: the cycle is the stack suffix from `target` to `node`.
        std::string chain;
        const auto begin = std::find(stack.begin(), stack.end(), target);
        for (auto it = begin; it != stack.end(); ++it) chain += *it + " -> ";
        chain += target;
        const SourceFile& owner = *by_path->at(node);
        if (!LineSuppressed(owner, line, "layering/include-cycle")) {
          Add(findings, node, line, "layering/include-cycle", "include cycle: " + chain);
        }
        continue;
      }
      Visit(target);
    }
    stack.pop_back();
    color[node] = 2;
  }
};

}  // namespace

std::vector<Finding> CheckTestOnlyHeaders(const std::vector<SourceFile>& files,
                                          const std::vector<std::string>& allowed) {
  // Every src/ header, mapped to the test files that include it and whether
  // anything outside tests/ (other than its own .cc) does.
  struct Callers {
    std::vector<std::string> tests;
    bool outside_tests = false;
  };
  std::map<std::string, Callers> headers;
  for (const SourceFile& file : files) {
    const std::string& path = file.path;
    if (path.rfind("src/", 0) == 0 && path.size() > 2 &&
        path.compare(path.size() - 2, 2, ".h") == 0) {
      headers.emplace(path, Callers{});
    }
  }
  for (const SourceFile& file : files) {
    const bool in_tests = file.path.rfind("tests/", 0) == 0;
    for (const Include& include : QuotedIncludes(file)) {
      const std::string header = "src/" + include.target;
      const auto it = headers.find(header);
      if (it == headers.end()) continue;
      if (file.path == header.substr(0, header.size() - 2) + ".cc") continue;
      if (in_tests) {
        it->second.tests.push_back(file.path);
      } else {
        it->second.outside_tests = true;
      }
    }
  }
  std::vector<Finding> findings;
  for (const auto& [header, callers] : headers) {
    if (callers.outside_tests ||
        std::find(allowed.begin(), allowed.end(), header) != allowed.end()) {
      continue;
    }
    std::string detail = "no file outside tests/ includes this header";
    if (!callers.tests.empty()) {
      detail += " (included from";
      for (const std::string& test : callers.tests) detail += " " + test;
      detail += ")";
    }
    Add(&findings, header, 0, "layering/test-only-header",
        detail + "; delete it with its tests, or give it a caller");
  }
  return findings;
}

int LayerRank(const std::string& module) {
  for (const LayerEntry& entry : kLayers) {
    if (module == entry.module) return entry.rank;
  }
  return -1;
}

std::vector<Finding> CheckLayering(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : files) by_path[file.path] = &file;

  CycleFinder cycles;
  cycles.by_path = &by_path;
  cycles.findings = &findings;

  for (const auto& [path, file_ptr] : by_path) {
    const SourceFile& file = *file_ptr;
    const std::string module = ModuleOf(path);
    const int rank = LayerRank(module);
    if (rank < 0) {
      Add(&findings, path, 0, "layering/unknown-module",
          "module '" + (module.empty() ? "<top-level>" : module) +
              "' is not in the declared layer DAG (tools/lint/layering.cc); add it with "
              "a rank before landing code");
      continue;
    }

    const std::vector<Include> includes = QuotedIncludes(file);

    // self-include-first: a .cc's first quoted include is its own header.
    const bool is_cc = path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0;
    if (is_cc) {
      const std::string own_header =
          path.substr(4, path.size() - 4 - 3) + ".h";  // drop "src/", swap ".cc"
      if (by_path.count("src/" + own_header) != 0) {
        if (includes.empty()) {
          Add(&findings, path, 1, "layering/self-include-first",
              "first include must be the file's own header \"" + own_header + "\"");
        } else if (includes.front().target != own_header &&
                   !LineSuppressed(file, includes.front().line,
                                   "layering/self-include-first")) {
          Add(&findings, path, includes.front().line, "layering/self-include-first",
              "first include is \"" + includes.front().target +
                  "\"; the file's own header \"" + own_header + "\" must come first");
        }
      }
    }

    for (const Include& include : includes) {
      const size_t slash = include.target.find('/');
      const std::string target_module =
          slash == std::string::npos ? "" : include.target.substr(0, slash);
      const int target_rank = LayerRank(target_module);
      if (target_rank < 0) continue;  // not a src/ module path (tools/, generated)

      if (target_module != module && target_rank >= rank &&
          !LineSuppressed(file, include.line, "layering/upward-include")) {
        Add(&findings, path, include.line, "layering/upward-include",
            module + " (rank " + std::to_string(rank) + ") includes \"" + include.target +
                "\" from " + target_module + " (rank " + std::to_string(target_rank) +
                "); dependencies must point strictly downward");
      }
      if (module == "serve" && target_module == "obs" && include.target != "obs/facade.h" &&
          !LineSuppressed(file, include.line, "layering/obs-facade")) {
        Add(&findings, path, include.line, "layering/obs-facade",
            "serve/ includes \"" + include.target +
                "\" directly; route all observability through obs/facade.h");
      }

      const std::string resolved = "src/" + include.target;
      if (by_path.count(resolved) != 0) {
        cycles.edges[path].push_back({resolved, include.line});
      }
    }
  }

  for (const auto& [path, file_ptr] : by_path) {
    (void)file_ptr;
    if (cycles.color[path] == 0) cycles.Visit(path);
  }

  std::stable_sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
  return findings;
}

}  // namespace lint
}  // namespace urcl
