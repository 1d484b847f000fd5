#include "obs/profiler.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/json.h"

namespace urcl {
namespace obs {
namespace {

// One per (thread, op type) pair: atomics only the owning thread writes (so
// updates are plain relaxed load+store pairs, no RMW) and only the
// snapshotting thread additionally reads, which keeps concurrent trainers
// TSan-clean with no mutex or locked instruction in the per-op hot loop (the
// mutex below guards only cell *registration*, once per op type per thread).
struct OpCell {
  std::string name;
  std::atomic<uint64_t> forward_calls{0};
  std::atomic<int64_t> forward_ns{0};
  std::atomic<uint64_t> forward_bytes{0};
  std::atomic<uint64_t> backward_calls{0};
  std::atomic<int64_t> backward_ns{0};
  std::atomic<uint64_t> backward_bytes{0};
};

struct ProfState {
  Mutex mu;
  // Every thread's cells; the shared_ptrs are copied out under mu and the
  // cells themselves are atomics (see OpCell).
  std::vector<std::shared_ptr<OpCell>> cells URCL_GUARDED_BY(mu);
};

ProfState& State() {
  static ProfState* state = new ProfState();
  return *state;
}

// FNV-1a over the (short) op name: cheaper than std::hash<std::string> on
// the record path, and integer-keyed map lookups beat string-keyed ones.
uint64_t NameHash(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Owner-only name -> cell lookup; the raw pointers stay valid after thread
// exit because the global list holds the owning shared_ptr. The fast map is
// keyed by the 64-bit name hash with an equality check on hit; the (in
// practice never populated) string-keyed map catches hash collisions so two
// colliding op names cannot silently merge.
OpCell& CellFor(std::string_view op_name) {
  thread_local std::unordered_map<uint64_t, OpCell*> tl_fast;
  thread_local std::unordered_map<std::string, OpCell*> tl_collided;
  const uint64_t key = NameHash(op_name);
  const auto it = tl_fast.find(key);
  if (it != tl_fast.end()) {
    if (it->second->name == op_name) return *it->second;
    const auto collided = tl_collided.find(std::string(op_name));
    if (collided != tl_collided.end()) return *collided->second;
  }
  auto cell = std::make_shared<OpCell>();
  cell->name = op_name;
  {
    ProfState& state = State();
    MutexLock lock(state.mu);
    state.cells.push_back(cell);
  }
  if (it == tl_fast.end()) {
    tl_fast.emplace(key, cell.get());
  } else {
    tl_collided.emplace(std::string(op_name), cell.get());
  }
  return *cell;
}

// Owner-only increment: the cell has exactly one writer, so a relaxed
// load+store pair replaces the locked fetch_add.
void Bump(std::atomic<uint64_t>& cell, uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}
void Bump(std::atomic<int64_t>& cell, int64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace

namespace internal {

#if defined(__x86_64__) || defined(_M_X64)
int64_t TicksToNs(int64_t ticks) {
  // One-time calibration: spin ~2ms against the monotonic clock so the
  // conversion error is dominated by TSC drift, not clock-read overhead.
  static const double ns_per_tick = [] {
    const int64_t ns0 = MonotonicNowNs();
    const int64_t t0 = ProfileTicksNow();
    while (MonotonicNowNs() - ns0 < 2000000) {
    }
    const int64_t ns1 = MonotonicNowNs();
    const int64_t t1 = ProfileTicksNow();
    return t1 > t0 ? static_cast<double>(ns1 - ns0) / static_cast<double>(t1 - t0) : 1.0;
  }();
  return static_cast<int64_t>(static_cast<double>(ticks) * ns_per_tick);
}
#else
int64_t TicksToNs(int64_t ticks) { return ticks; }
#endif

void RecordForward(std::string_view op_name, int64_t ns, uint64_t bytes) {
  OpCell& cell = CellFor(op_name);
  Bump(cell.forward_calls, 1);
  Bump(cell.forward_ns, ns);
  Bump(cell.forward_bytes, bytes);
}

void RecordBackward(std::string_view op_name, int64_t ns, uint64_t bytes) {
  OpCell& cell = CellFor(op_name);
  Bump(cell.backward_calls, 1);
  Bump(cell.backward_ns, ns);
  Bump(cell.backward_bytes, bytes);
}

}  // namespace internal

std::map<std::string, OpProfile> ProfilerSnapshot() {
  ProfState& state = State();
  std::vector<std::shared_ptr<OpCell>> cells;
  {
    MutexLock lock(state.mu);
    cells = state.cells;
  }
  std::map<std::string, OpProfile> merged;
  for (const auto& cell : cells) {
    const uint64_t forward_calls = cell->forward_calls.load(std::memory_order_relaxed);
    const uint64_t backward_calls = cell->backward_calls.load(std::memory_order_relaxed);
    // Cells survive ResetProfiler with zeroed counts; only touched op types
    // appear in the table.
    if (forward_calls == 0 && backward_calls == 0) continue;
    OpProfile& out = merged[cell->name];
    out.forward_calls += forward_calls;
    out.forward_ns += cell->forward_ns.load(std::memory_order_relaxed);
    out.forward_bytes += cell->forward_bytes.load(std::memory_order_relaxed);
    out.backward_calls += backward_calls;
    out.backward_ns += cell->backward_ns.load(std::memory_order_relaxed);
    out.backward_bytes += cell->backward_bytes.load(std::memory_order_relaxed);
  }
  return merged;
}

void ResetProfiler() {
  ProfState& state = State();
  std::vector<std::shared_ptr<OpCell>> cells;
  {
    MutexLock lock(state.mu);
    cells = state.cells;
  }
  for (const auto& cell : cells) {
    cell->forward_calls.store(0, std::memory_order_relaxed);
    cell->forward_ns.store(0, std::memory_order_relaxed);
    cell->forward_bytes.store(0, std::memory_order_relaxed);
    cell->backward_calls.store(0, std::memory_order_relaxed);
    cell->backward_ns.store(0, std::memory_order_relaxed);
    cell->backward_bytes.store(0, std::memory_order_relaxed);
  }
}

std::string ProfilerTable() {
  const std::map<std::string, OpProfile> snap = ProfilerSnapshot();
  std::ostringstream out;
  out << "op                    dir    calls     total ms    mean us        MB\n";
  char line[160];
  for (const auto& [name, p] : snap) {
    if (p.forward_calls > 0) {
      std::snprintf(line, sizeof(line), "%-20s  fwd  %8llu  %11.3f  %9.2f  %8.2f\n",
                    name.c_str(), static_cast<unsigned long long>(p.forward_calls),
                    static_cast<double>(p.forward_ns) / 1e6,
                    static_cast<double>(p.forward_ns) / 1e3 /
                        static_cast<double>(p.forward_calls),
                    static_cast<double>(p.forward_bytes) / 1e6);
      out << line;
    }
    if (p.backward_calls > 0) {
      std::snprintf(line, sizeof(line), "%-20s  bwd  %8llu  %11.3f  %9.2f  %8.2f\n",
                    name.c_str(), static_cast<unsigned long long>(p.backward_calls),
                    static_cast<double>(p.backward_ns) / 1e6,
                    static_cast<double>(p.backward_ns) / 1e3 /
                        static_cast<double>(p.backward_calls),
                    static_cast<double>(p.backward_bytes) / 1e6);
      out << line;
    }
  }
  return out.str();
}

std::string ProfilerJson() {
  const std::map<std::string, OpProfile> snap = ProfilerSnapshot();
  std::ostringstream out;
  out << "{\"ops\":{";
  bool first = true;
  for (const auto& [name, p] : snap) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":{\"forward\":{\"calls\":" << p.forward_calls
        << ",\"ns\":" << p.forward_ns << ",\"bytes\":" << p.forward_bytes
        << "},\"backward\":{\"calls\":" << p.backward_calls << ",\"ns\":" << p.backward_ns
        << ",\"bytes\":" << p.backward_bytes << "}}";
  }
  out << "}}";
  return out.str();
}

}  // namespace obs
}  // namespace urcl
