#include "tools/lint/rules.h"

#include <sstream>
#include <string>
#include <utility>

namespace urcl {
namespace lint {
namespace {

constexpr int kMaxLineLength = 100;

void Add(std::vector<Finding>* findings, const std::string& path, int line, std::string rule,
         std::string detail) {
  findings->push_back(Finding{path, line, std::move(rule), std::move(detail)});
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// --- format/* ---------------------------------------------------------------

void FormatPass(const SourceFile& file, const Options& options,
                std::vector<Finding>* findings) {
  if (!options.format_rules) return;
  if (!file.ends_with_newline) {
    Add(findings, file.path, 0, "format/final-newline", "file does not end with a newline");
  }
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    const int n = static_cast<int>(i) + 1;
    if (line.crlf && !LineSuppressed(file, n, "format/crlf")) {
      Add(findings, file.path, n, "format/crlf", "CRLF line ending");
    }
    if (line.raw.find('\t') != std::string::npos && !LineSuppressed(file, n, "format/tab")) {
      Add(findings, file.path, n, "format/tab", "tab character (indent with spaces)");
    }
    if (!line.raw.empty() && (line.raw.back() == ' ' || line.raw.back() == '\t') &&
        !LineSuppressed(file, n, "format/trailing-whitespace")) {
      Add(findings, file.path, n, "format/trailing-whitespace", "trailing whitespace");
    }
    if (line.raw.size() > static_cast<size_t>(kMaxLineLength) &&
        !LineSuppressed(file, n, "format/line-length")) {
      std::ostringstream detail;
      detail << "line is " << line.raw.size() << " columns (limit " << kMaxLineLength << ")";
      Add(findings, file.path, n, "format/line-length", detail.str());
    }
  }
}

// --- include-guard ----------------------------------------------------------

void IncludeGuardPass(const SourceFile& file, const Options& options,
                      std::vector<Finding>* findings) {
  if (!options.library_rules || options.expected_guard.empty() || !IsHeader(file.path)) {
    return;
  }
  for (const SourceLine& line : file.lines) {
    const size_t pos = line.raw.find("#ifndef");
    if (pos == std::string::npos) continue;
    std::istringstream fields(line.raw.substr(pos));
    std::string directive, guard;
    fields >> directive >> guard;
    if (guard != options.expected_guard) {
      Add(findings, file.path, 0, "include-guard",
          "guard '" + guard + "' does not match path (expected '" + options.expected_guard +
              "')");
    }
    return;
  }
  Add(findings, file.path, 0, "include-guard",
      "header has no include guard (expected '" + options.expected_guard + "')");
}

// --- banned-call/* ----------------------------------------------------------

// True for `new T[...]`-style raw array allocations.
bool HasNewArray(const std::string& code) {
  size_t pos = 0;
  while ((pos = code.find("new", pos)) != std::string::npos) {
    const bool starts_word = pos == 0 || !IsWordChar(code[pos - 1]);
    const size_t after = pos + 3;
    if (!starts_word || after >= code.size() || IsWordChar(code[after])) {
      pos = after;
      continue;
    }
    // Scan the type name that follows; an opening '[' before any terminator
    // means an array allocation.
    for (size_t i = after; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '[') return true;
      if (c == ';' || c == ',' || c == ')' || c == '(' || c == '{') break;
    }
    pos = after;
  }
  return false;
}

void BannedCallPass(const SourceFile& file, const Options& options,
                    std::vector<Finding>* findings) {
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    const int n = static_cast<int>(i) + 1;
    // The clock rule outlives the library_rules gate: tests and benches are
    // timing-sensitive too (see the repo_lint.h header comment).
    if (options.clock_rules && !options.allow_clock_reads &&
        (code.find("steady_clock::now") != std::string::npos ||
         code.find("system_clock::now") != std::string::npos ||
         code.find("high_resolution_clock::now") != std::string::npos) &&
        !LineSuppressed(file, n, "banned-call/clock")) {
      Add(findings, file.path, n, "banned-call/clock",
          "direct std::chrono clock read; go through common/stopwatch.h");
    }
    if (!options.library_rules) continue;
    if ((HasCall(code, "rand") || HasCall(code, "srand")) &&
        !LineSuppressed(file, n, "banned-call/rand")) {
      Add(findings, file.path, n, "banned-call/rand",
          "rand()/srand() break the determinism contract; use a seeded std::mt19937");
    }
    if (HasNewArray(code) && !LineSuppressed(file, n, "banned-call/new-array")) {
      Add(findings, file.path, n, "banned-call/new-array",
          "raw new[]; use the buffer pool or a std container");
    }
    if (HasCall(code, "printf") && !LineSuppressed(file, n, "banned-call/printf")) {
      Add(findings, file.path, n, "banned-call/printf",
          "bare printf in library code; write to stderr or use the obs layer");
    }
    if (HasCall(code, "getenv") && !LineSuppressed(file, n, "banned-call/getenv")) {
      Add(findings, file.path, n, "banned-call/getenv",
          "environment switch in library code; take a setting from the caller instead");
    }
  }
}

// --- status-discard ---------------------------------------------------------

// Status-returning functions in this repo (curated, not discovered — the
// linter is a single-file scanner with no type information). The discard rule
// flags statement-position calls of these names, where the returned Status is
// dropped on the floor, plus `(void)` laundering of the same calls.
// Expression-position uses (assignment, return, condition, argument) pass.
const char* const kStatusReturningNames[] = {
    "AdmitSnapshot", "AdmitSnapshotBytes",     "Deserialize",    "FinishPrediction",
    "Forecast",      "LoadNewestValid",        "LoadState",      "Parse",
    "ParseModelSnapshot", "ParseServeMeta",    "Predict",        "ReadFile",
    "RestoreFromCheckpointDir",                "Save",           "SaveFullCheckpoint",
    "TryImportSeriesCsv", "WriteChromeTrace",  "WriteFile"};

// True when `prefix` (the code before the called name on its line) can only
// be a receiver expression: identifier chars, member/scope accessors and
// whitespace. Anything else (operators, '(', '=', a `return` keyword) means
// the call's value is consumed.
bool IsReceiverOnly(const std::string& prefix) {
  bool pending_space = false;  // whitespace seen since the last word char
  bool any_word = false;
  for (const char c : prefix) {
    if (c == ' ' || c == '\t') {
      pending_space = any_word;
      continue;
    }
    if (IsWordChar(c)) {
      // Two identifiers separated by whitespace is a declaration
      // ("static Status Parse(...)"), not a receiver expression.
      if (pending_space) return false;
      any_word = true;
      continue;
    }
    if (c == '.' || c == ':' || c == '-' || c == '>') {
      pending_space = false;
      continue;
    }
    return false;
  }
  return prefix.find("return") == std::string::npos;
}

// Flags statement-position calls of kStatusReturningNames whose result is
// discarded. Heuristic on one stripped line: a receiver-only prefix, the
// call's parentheses balanced on the line, and nothing after them but `;`.
// Multi-line calls escape the net (the [[nodiscard]] compiler check is the
// backstop; this rule exists so discards are caught even where the result is
// laundered through `(void)`).
void CheckStatusDiscardLine(const SourceFile& file, int line_number, const std::string& code,
                            std::vector<Finding>* findings) {
  if (LineSuppressed(file, line_number, "status-discard")) return;
  for (const char* name_cstr : kStatusReturningNames) {
    const std::string name(name_cstr);
    size_t pos = 0;
    while ((pos = code.find(name, pos)) != std::string::npos) {
      const size_t name_start = pos;
      pos += name.size();
      const bool starts_word = name_start == 0 || !IsWordChar(code[name_start - 1]);
      size_t open = pos;
      while (open < code.size() && code[open] == ' ') ++open;
      if (!starts_word || open >= code.size() || code[open] != '(') continue;

      std::string prefix = code.substr(0, name_start);
      const size_t first = prefix.find_first_not_of(" \t");
      prefix = first == std::string::npos ? "" : prefix.substr(first);
      bool laundered = false;
      if (prefix.compare(0, 6, "(void)") == 0) {
        laundered = true;
        prefix = prefix.substr(6);
      }
      // A receiver expression abuts the name (`hub.`, `ns::`); an identifier
      // prefix ending in whitespace is a declaration ("Status Save(...)").
      if (!prefix.empty() && (prefix.back() == ' ' || prefix.back() == '\t')) continue;
      if (!IsReceiverOnly(prefix)) continue;

      int depth = 0;
      size_t i = open;
      for (; i < code.size(); ++i) {
        if (code[i] == '(') ++depth;
        if (code[i] == ')' && --depth == 0) break;
      }
      if (depth != 0) continue;  // call continues on the next line: give up
      ++i;
      while (i < code.size() && code[i] == ' ') ++i;
      if (i >= code.size() || code[i] != ';') continue;
      if (code.find_first_not_of(" \t", i + 1) != std::string::npos) continue;

      Add(findings, file.path, line_number, "status-discard",
          laundered ? "Status returned by " + name + "() is (void)-laundered; handle or "
                          "propagate it (Status is [[nodiscard]] for a reason)"
                    : "Status returned by " + name + "() is silently discarded; check "
                          "ok() or propagate it");
      return;  // one finding per line is enough
    }
  }
}

void StatusDiscardPass(const SourceFile& file, const Options& options,
                       std::vector<Finding>* findings) {
  if (!options.status_rules) return;
  char prev_code_tail = ';';  // last code char of the previous non-blank line
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    // A line can only open a new statement after `;`, `{` or `}` — anything
    // else means this line continues an expression (`status =` on the line
    // above) and its leading call is not a discard.
    if (prev_code_tail == ';' || prev_code_tail == '{' || prev_code_tail == '}') {
      CheckStatusDiscardLine(file, static_cast<int>(i) + 1, code, findings);
    }
    const size_t tail = code.find_last_not_of(" \t");
    if (tail != std::string::npos) prev_code_tail = code[tail];
  }
}

// --- exec-pool-acquire ------------------------------------------------------

// True when `code` performs a direct pool acquisition: `BufferPool::Get()`
// immediately followed by `.Acquire...` (catches Acquire and
// AcquireWithVersion but not `.poison_enabled()` etc.), or a call of the
// `AcquireStorage` funnel. Type mentions (`BufferPool::Acquisition`) and
// methods named Acquire on other classes (`PlanArena::Acquire`) do not match.
bool HasDirectPoolAcquire(const std::string& code) {
  static const std::string kGet = "BufferPool::Get()";
  size_t pos = 0;
  while ((pos = code.find(kGet, pos)) != std::string::npos) {
    if (code.compare(pos + kGet.size(), 8, ".Acquire") == 0) return true;
    pos += kGet.size();
  }
  return HasCall(code, "AcquireStorage");
}

void ExecArenaPass(const SourceFile& file, const Options& options,
                   std::vector<Finding>* findings) {
  if (!options.exec_arena_rules) return;
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const int n = static_cast<int>(i) + 1;
    if (HasDirectPoolAcquire(file.lines[i].code) &&
        !LineSuppressed(file, n, "exec-pool-acquire")) {
      Add(findings, file.path, n, "exec-pool-acquire",
          "direct BufferPool acquisition in src/exec/; compiled plans allocate "
          "through the PlanArena only");
    }
  }
}

// --- serve-metrics-registry -------------------------------------------------

void ServeMetricsPass(const SourceFile& file, const Options& options,
                      std::vector<Finding>* findings) {
  if (!options.serve_metrics_rules) return;
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const int n = static_cast<int>(i) + 1;
    // Any mention of the registry type (lookups, cached references, aliases)
    // is flagged, not just `.Get()` calls — the point is that serve/ holds no
    // registry handles at all.
    if (file.lines[i].code.find("MetricsRegistry") != std::string::npos &&
        !LineSuppressed(file, n, "serve-metrics-registry")) {
      Add(findings, file.path, n, "serve-metrics-registry",
          "direct MetricsRegistry use in src/serve/; publish through the "
          "obs/facade.h counter/gauge/histogram handles");
    }
  }
}

// --- lock/* -----------------------------------------------------------------

// Raw standard-library synchronization vocabulary. Inside src/ these may
// appear only in common/thread_annotations.h, which wraps them in
// capability-annotated types (urcl::Mutex, urcl::MutexLock, urcl::CondVar...)
// so Clang -Wthread-safety can check the locking discipline. Order within the
// table does not matter: the scan requires a non-word character after the
// token, so `std::condition_variable` does not fire inside
// `std::condition_variable_any`.
const char* const kRawSyncTokens[] = {
    "std::mutex",        "std::shared_mutex",  "std::recursive_mutex",
    "std::timed_mutex",  "std::condition_variable", "std::condition_variable_any",
    "std::lock_guard",   "std::unique_lock",   "std::shared_lock",
    "std::scoped_lock"};

bool HasToken(const std::string& code, const std::string& token) {
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool starts = pos == 0 || (!IsWordChar(code[pos - 1]) && code[pos - 1] != ':');
    const size_t after = pos + token.size();
    const bool ends = after >= code.size() || !IsWordChar(code[after]);
    if (starts && ends) return true;
    pos = after;
  }
  return false;
}

// Manual capability transitions on the annotated wrappers. RAII guards
// (MutexLock and friends) are the sanctioned form; a bare Unlock() on an
// early-return path is exactly the leak TSA exists to catch, so it may not
// appear outside thread_annotations.h either.
// Lowercase `.lock()` is deliberately NOT in this table: std::weak_ptr::lock()
// is common and unrelated. Raw std lockables are already banned wholesale by
// lock/unannotated-mutex, which covers their .lock()/.try_lock() too.
const char* const kManualLockCalls[] = {"Lock",   "Unlock",        "LockShared",
                                        "UnlockShared", "unlock",  "unlock_shared",
                                        "native"};

void LockDisciplinePass(const SourceFile& file, const Options& options,
                        std::vector<Finding>* findings) {
  if (!options.lock_rules) return;
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    const int n = static_cast<int>(i) + 1;
    for (const char* token : kRawSyncTokens) {
      if (HasToken(code, token) && !LineSuppressed(file, n, "lock/unannotated-mutex")) {
        Add(findings, file.path, n, "lock/unannotated-mutex",
            std::string(token) + " is invisible to thread-safety analysis; use the "
                "annotated urcl::Mutex/MutexLock/CondVar wrappers from "
                "common/thread_annotations.h and mark data URCL_GUARDED_BY");
        break;  // one finding per line is enough
      }
    }
    for (const char* call : kManualLockCalls) {
      if (HasMemberCall(code, call) && !LineSuppressed(file, n, "lock/bare-lock")) {
        Add(findings, file.path, n, "lock/bare-lock",
            std::string("manual .") + call + "() call; hold locks through RAII "
                "(MutexLock/WriterMutexLock/ReaderMutexLock)");
        break;
      }
    }
  }
}

}  // namespace

const std::vector<RulePass>& RulePasses() {
  static const std::vector<RulePass> kPasses = {
      FormatPass,    IncludeGuardPass, BannedCallPass,      StatusDiscardPass,
      ExecArenaPass, ServeMetricsPass, LockDisciplinePass};
  return kPasses;
}

}  // namespace lint
}  // namespace urcl
