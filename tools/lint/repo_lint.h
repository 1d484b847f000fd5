// Repo lint (`urcl::check`, DESIGN.md §9, §14): mechanical source checks run
// as a ctest (`repo_lint`, label `analysis`) so style and banned-construct
// drift fails the build instead of accumulating. The engine is a multi-pass
// pipeline: tools/lint/source.h tokenizes each file once (comment/string
// stripping, CRLF handling, unified suppressions), tools/lint/rules.h runs
// the per-file rule passes registered there, and tools/lint/layering.h checks
// the cross-file include-graph contracts. Rule groups:
//
//   library rules (src/ only)
//     banned-call/rand           rand()/srand() — the determinism contract
//                                requires seeded std::mt19937 engines;
//     banned-call/new-array      raw new[] — buffers come from the pool or
//                                std containers;
//     banned-call/printf         bare printf to stdout in library code —
//                                diagnostics go to stderr or the obs layer;
//     banned-call/getenv         environment reads in library code — each
//                                env switch is a hidden setting; the five
//                                kept (URCL_CHECK, URCL_FAULT, URCL_OBS,
//                                URCL_NUM_THREADS, URCL_BLACKBOX_DIR) carry
//                                lint:allow markers;
//     banned-call/clock          direct std::chrono clock reads outside
//                                common/stopwatch.h — timing goes through
//                                Stopwatch so tests can reason about it.
//                                Unlike the other banned calls this rule also
//                                covers tests/ and bench/ (a stray clock read
//                                there breaks timing determinism just as
//                                badly); the serving load generator
//                                bench/bench_serving.cc is the one named
//                                exemption (closed-loop pacing needs a real
//                                deadline clock);
//     include-guard              header guards must spell the repo-relative
//                                path (URCL_<PATH>_H_);
//     exec-pool-acquire          direct BufferPool acquisitions inside
//                                src/exec/ — compiled-plan execution is
//                                arena-only (the PlanArena's own base-buffer
//                                acquisition carries lint:allow markers; this
//                                rule honors them on the same OR the
//                                preceding line, matching arena.cc);
//     serve-metrics-registry     direct MetricsRegistry mentions inside
//                                src/serve/ — serving code publishes through
//                                the obs/facade.h handles (which cache the
//                                lookup and gate on MetricsEnabled) so the
//                                hot path never pays a registry mutex.
//
//   lock discipline (src/ only, except common/thread_annotations.h)
//     lock/unannotated-mutex     raw std synchronization vocabulary
//                                (std::mutex, std::lock_guard, ...) — only the
//                                capability-annotated wrappers in
//                                common/thread_annotations.h are visible to
//                                Clang -Wthread-safety, so raw primitives are
//                                unanalyzable holes;
//     lock/bare-lock             manual .Lock()/.Unlock()/.native() calls —
//                                locks are held through RAII guards, so no
//                                early return can leak a held mutex.
//
//   layering rules (src/ only, cross-file — tools/lint/layering.h)
//     layering/unknown-module, layering/upward-include,
//     layering/include-cycle, layering/obs-facade,
//     layering/self-include-first
//                                the include-graph architecture contracts: a
//                                declared layer DAG with strictly-downward
//                                dependencies; see layering.h for the rules
//                                and layering.cc for the ranks.
//     layering/test-only-header  (every tree's includes) a src/ header that
//                                nothing outside tests/ includes; the two
//                                headers kept on purpose are listed in
//                                repo_lint.cc.
//
//   format rules (src/, tests/, bench/, examples/, tools/)
//     format/line-length         lines over 100 columns;
//     format/tab, format/crlf, format/trailing-whitespace,
//     format/final-newline       mechanical whitespace hygiene (the subset of
//                                .clang-format enforceable without the binary).
//
// A `lint:allow(<rule>)` comment on the finding's line or the line directly
// above suppresses that rule there (one shared mechanism for every rule).
// First-party src/ code is expected to carry no suppressions for the lock and
// layering groups. Directories named `testdata` are skipped.
#ifndef URCL_TOOLS_LINT_REPO_LINT_H_
#define URCL_TOOLS_LINT_REPO_LINT_H_

#include <string>
#include <vector>

namespace urcl {
namespace lint {

struct Finding {
  std::string file;  // path as given (repo-relative when walking a tree)
  int line = 0;      // 1-based; 0 = whole-file finding
  std::string rule;
  std::string detail;
};

struct Options {
  // Banned calls + include-guard naming (library code only).
  bool library_rules = true;
  // Whitespace / line-length hygiene.
  bool format_rules = true;
  // Expected include-guard macro; empty disables the guard check. Derived
  // from the repo-relative path by LintTree.
  std::string expected_guard;
  // banned-call/clock applies beyond library code (src/, tools/, tests/,
  // bench/ — everything but examples/).
  bool clock_rules = true;
  // status-discard: statement-position calls of known Status-returning
  // functions whose result is dropped (or `(void)`-laundered). src/ only in
  // LintTree — tests discard on purpose.
  bool status_rules = true;
  // Exempts common/stopwatch.h and bench/bench_serving.cc (the serving load
  // generator) from banned-call/clock.
  bool allow_clock_reads = false;
  // exec-pool-acquire: bans direct BufferPool acquisitions (the arena is the
  // only allocator in compiled-plan code). Set for files under src/exec/.
  bool exec_arena_rules = false;
  // serve-metrics-registry: bans direct obs::MetricsRegistry access (the
  // obs/facade.h handles are the sanctioned route). Set for files under
  // src/serve/.
  bool serve_metrics_rules = false;
  // lock/unannotated-mutex + lock/bare-lock: bans raw std synchronization
  // primitives and manual lock transitions in favor of the annotated wrappers
  // in common/thread_annotations.h. Set for src/ except that header itself.
  bool lock_rules = false;
};

// Lints one file's contents. `path` is used only for diagnostics.
std::vector<Finding> LintFileContent(const std::string& path, const std::string& content,
                                     const Options& options);

// Walks `root`'s source trees (src, tests, bench, examples, tools) applying
// the rule groups described above. `root` is the repository root.
std::vector<Finding> LintTree(const std::string& root);

// One "path:line: [rule] detail" line per finding.
std::string FormatFindings(const std::vector<Finding>& findings);

// Include-guard macro expected for a header at `relative_path` (e.g.
// "tensor/pool.h" -> "URCL_TENSOR_POOL_H_"). Paths are taken relative to the
// directory that is on the include path: src/ itself, or the repo root for
// tools/ and tests/ headers.
std::string ExpectedGuard(const std::string& relative_path);

}  // namespace lint
}  // namespace urcl

#endif  // URCL_TOOLS_LINT_REPO_LINT_H_
