#include "support/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>

#include "support/text.h"

namespace pdt::trace {

namespace {

constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "lex.tokens",
    "lex.arena_bytes",
    "pp.includes",
    "pp.macro_expansions",
    "sema.class_instantiations",
    "sema.func_instantiations",
    "sema.bodies_instantiated",
    "sema.bodies_skipped",
    "il.items",
    "pdb.files_read",
    "pdb.items_read",
    "pdb.files_written",
    "pdb.items_written",
    "pdb.sections_skipped",
    "pdb.mmap.bytes_mapped",
    "merge.merges",
    "merge.duplicates_elided",
    "merge.shards",
    "merge.spills",
    "driver.tus",
    "diag.errors",
    "diag.warnings",
    "check.findings",
    "du.streams",
    "du.irregular",
    "dataflow.worklist_iterations",
};

/// One thread's event buffer. Owned by the session so events survive the
/// thread (pool workers are joined before the tool flushes).
struct Buffer {
  std::uint32_t tid = 0;
  std::string name;
  std::vector<Event> events;
};

/// Process-wide session state. Buffers are registered once per thread under
/// the mutex; after that, recording touches only thread-local storage.
struct Session {
  std::atomic<bool> collecting{false};
  std::atomic<std::uint64_t> generation{1};
  std::chrono::steady_clock::time_point epoch{};
  std::mutex mutex;  // guards buffers and global_counters
  std::vector<std::unique_ptr<Buffer>> buffers;
  CounterBlock global_counters;
};

Session& session() {
  static Session s;
  return s;
}

struct TlsState {
  Buffer* buffer = nullptr;
  std::uint64_t buffer_gen = 0;
  CounterBlock* block = nullptr;  // CounterScope target
  bool suppressed = false;        // CounterScope(nullptr) active
};

thread_local TlsState tls;

Buffer& localBuffer() {
  Session& s = session();
  const std::uint64_t gen = s.generation.load(std::memory_order_acquire);
  if (tls.buffer != nullptr && tls.buffer_gen == gen) return *tls.buffer;
  std::lock_guard lock(s.mutex);
  auto buf = std::make_unique<Buffer>();
  buf->tid = static_cast<std::uint32_t>(s.buffers.size());
  buf->name = "thread-" + std::to_string(buf->tid);
  tls.buffer = buf.get();
  tls.buffer_gen = gen;
  s.buffers.push_back(std::move(buf));
  return *tls.buffer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

std::string_view counterName(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

CounterBlock& CounterBlock::operator+=(const CounterBlock& o) {
  for (std::size_t i = 0; i < kNumCounters; ++i) values[i] += o.values[i];
  for (const auto& [dim, keys] : o.keyed) {
    auto& mine = keyed[dim];
    for (const auto& [key, n] : keys) mine[key] += n;
  }
  return *this;
}

std::string CounterBlock::serialize() const {
  std::string out;
  out.reserve(kNumCounters * 32);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out += "counter ";
    out += kCounterNames[i];
    out += ' ';
    out += std::to_string(values[i]);
    out += '\n';
  }
  for (const auto& [dim, keys] : keyed) {
    for (const auto& [key, n] : keys) {
      out += "keyed ";
      out += dim;
      out += '|';
      out += key;
      out += ' ';
      out += std::to_string(n);
      out += '\n';
    }
  }
  return out;
}

std::optional<CounterBlock> CounterBlock::deserialize(std::string_view text) {
  CounterBlock block;
  const auto parse_u64 = [](std::string_view t, std::uint64_t& out) {
    if (t.empty()) return false;
    out = 0;
    for (const char c : t) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
  };
  for (std::string_view line : split(text, '\n')) {
    if (line.empty()) continue;
    const auto sp1 = line.find(' ');
    const auto sp2 = line.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 <= sp1) return std::nullopt;
    const std::string_view tag = line.substr(0, sp1);
    const std::string_view name = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::uint64_t value = 0;
    if (!parse_u64(line.substr(sp2 + 1), value)) return std::nullopt;
    if (tag == "counter") {
      const auto it = std::find(kCounterNames.begin(), kCounterNames.end(), name);
      if (it == kCounterNames.end()) return std::nullopt;
      block.values[static_cast<std::size_t>(it - kCounterNames.begin())] = value;
    } else if (tag == "keyed") {
      const auto bar = name.find('|');
      if (bar == std::string_view::npos) return std::nullopt;
      block.keyed[std::string(name.substr(0, bar))]
                 [std::string(name.substr(bar + 1))] = value;
    } else {
      return std::nullopt;
    }
  }
  return block;
}

void count(Counter c, std::uint64_t n) {
  if (n == 0 || tls.suppressed) return;
  if (tls.block != nullptr) {
    tls.block->values[static_cast<std::size_t>(c)] += n;
    return;
  }
  Session& s = session();
  std::lock_guard lock(s.mutex);
  s.global_counters.values[static_cast<std::size_t>(c)] += n;
}

void countKey(std::string_view dim, std::string_view key, std::uint64_t n) {
  if (n == 0 || tls.suppressed) return;
  if (tls.block != nullptr) {
    tls.block->keyed[std::string(dim)][std::string(key)] += n;
    return;
  }
  Session& s = session();
  std::lock_guard lock(s.mutex);
  s.global_counters.keyed[std::string(dim)][std::string(key)] += n;
}

CounterScope::CounterScope(CounterBlock* block)
    : prev_(tls.block), prev_suppressed_(tls.suppressed) {
  tls.block = block;
  tls.suppressed = block == nullptr;
}

CounterScope::~CounterScope() {
  tls.block = prev_;
  tls.suppressed = prev_suppressed_;
}

CounterBlock globalCounters() {
  Session& s = session();
  std::lock_guard lock(s.mutex);
  return s.global_counters;
}

void resetGlobalCounters() {
  Session& s = session();
  std::lock_guard lock(s.mutex);
  s.global_counters = CounterBlock{};
}

// ---------------------------------------------------------------------------
// Timing events
// ---------------------------------------------------------------------------

bool collecting() {
  return session().collecting.load(std::memory_order_relaxed);
}

void setCollecting(bool on) {
  Session& s = session();
  if (on) s.epoch = std::chrono::steady_clock::now();
  s.collecting.store(on, std::memory_order_relaxed);
}

void resetEvents() {
  Session& s = session();
  std::lock_guard lock(s.mutex);
  // Invalidate every thread's cached buffer pointer before freeing.
  s.generation.fetch_add(1, std::memory_order_release);
  s.buffers.clear();
}

void setThreadName(std::string_view name) {
  localBuffer().name = std::string(name);
}

std::uint64_t nowUs() {
  if (!collecting()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - session().epoch)
          .count());
}

void emitComplete(const char* name, std::uint64_t start_us, std::uint64_t dur_us,
                  std::string_view detail) {
  if (!collecting()) return;
  Buffer& buf = localBuffer();
  Event e;
  e.name = name;
  e.detail = std::string(detail);
  e.ts_us = start_us;
  e.dur_us = dur_us;
  e.tid = buf.tid;
  e.kind = 'X';
  buf.events.push_back(std::move(e));
}

void counterSample(const char* track, std::int64_t value) {
  if (!collecting()) return;
  Buffer& buf = localBuffer();
  Event e;
  e.name = track;
  e.ts_us = nowUs();
  e.value = value;
  e.tid = buf.tid;
  e.kind = 'C';
  buf.events.push_back(std::move(e));
}

ScopedSpan::ScopedSpan(const char* name, std::string_view detail)
    : name_(collecting() ? name : nullptr) {
  if (name_ == nullptr) return;
  detail_ = std::string(detail);
  start_us_ = nowUs();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  const std::uint64_t end = nowUs();
  emitComplete(name_, start_us_, end >= start_us_ ? end - start_us_ : 0, detail_);
}

std::vector<Event> snapshotEvents() {
  Session& s = session();
  std::lock_guard lock(s.mutex);
  std::vector<Event> out;
  std::size_t total = 0;
  for (const auto& buf : s.buffers) total += buf->events.size();
  out.reserve(total);
  for (const auto& buf : s.buffers)
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  return out;
}

std::string threadName(std::uint32_t tid) {
  Session& s = session();
  std::lock_guard lock(s.mutex);
  if (tid < s.buffers.size()) return s.buffers[tid]->name;
  return "thread-" + std::to_string(tid);
}

void writeChromeTrace(std::ostream& os) {
  Session& s = session();
  std::lock_guard lock(s.mutex);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n  ";
  };
  for (const auto& buf : s.buffers) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << buf->tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << escapeJson(buf->name) << "\"}}";
  }
  for (const auto& buf : s.buffers) {
    for (const Event& e : buf->events) {
      sep();
      if (e.kind == 'C') {
        os << "{\"ph\": \"C\", \"pid\": 1, \"tid\": " << e.tid << ", \"name\": \""
           << escapeJson(e.name) << "\", \"ts\": " << e.ts_us
           << ", \"args\": {\"value\": " << e.value << "}}";
      } else {
        os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid << ", \"name\": \""
           << escapeJson(e.name) << "\", \"cat\": \"pdt\", \"ts\": " << e.ts_us
           << ", \"dur\": " << e.dur_us;
        if (!e.detail.empty())
          os << ", \"args\": {\"detail\": \"" << escapeJson(e.detail) << "\"}";
        os << "}";
      }
    }
  }
  os << "\n]}\n";
}

bool writeChromeTraceFile(const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  writeChromeTrace(os);
  return os.good();
}

// ---------------------------------------------------------------------------
// StatsReport
// ---------------------------------------------------------------------------

namespace {

/// Span names that form the per-TU phase rows: each is emitted with
/// detail = the TU's path, exactly once per TU (docs/OBSERVABILITY.md).
constexpr std::array<std::string_view, 8> kTuPhaseNames = {
    "tu.compile",  "cache.scan",     "cache.fetch", "cache.store",
    "frontend.lex", "frontend.parse", "sema.finalize", "il.analyze",
};

bool isTuPhase(std::string_view name) {
  return std::find(kTuPhaseNames.begin(), kTuPhaseNames.end(), name) !=
         kTuPhaseNames.end();
}

}  // namespace

StatsReport::StatsReport(std::string tool) : tool_(std::move(tool)) {}

void StatsReport::setCounters(CounterBlock counters) {
  counters_ = std::move(counters);
}

void StatsReport::addSection(std::string name,
                             std::vector<std::pair<std::string, std::uint64_t>> kv) {
  sections_.push_back({std::move(name), std::move(kv)});
}

void StatsReport::captureTimings() {
  const std::vector<Event> events = snapshotEvents();
  if (events.empty()) return;
  has_timings_ = true;

  // Phase aggregation by span name.
  std::map<std::string_view, SpanStats> by_name;
  // Per-TU rows: phase name -> us, grouped by span detail.
  std::map<std::string, std::map<std::string_view, std::uint64_t>> by_tu;
  // Per-thread interval lists for busy-time union.
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      intervals;
  std::map<std::uint32_t, std::uint64_t> span_counts;

  for (const Event& e : events) {
    if (e.kind != 'X') continue;
    wall_us_ = std::max(wall_us_, e.ts_us + e.dur_us);
    SpanStats& agg = by_name[e.name];
    if (agg.count == 0) {
      agg.name = e.name;
      agg.min_us = e.dur_us;
    }
    ++agg.count;
    agg.total_us += e.dur_us;
    agg.min_us = std::min(agg.min_us, e.dur_us);
    agg.max_us = std::max(agg.max_us, e.dur_us);
    if (!e.detail.empty() && isTuPhase(e.name))
      by_tu[e.detail][e.name] += e.dur_us;
    intervals[e.tid].emplace_back(e.ts_us, e.ts_us + e.dur_us);
    ++span_counts[e.tid];
  }

  phases_.reserve(by_name.size());
  for (auto& [name, agg] : by_name) phases_.push_back(std::move(agg));
  std::sort(phases_.begin(), phases_.end(),
            [](const SpanStats& a, const SpanStats& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });

  tus_.reserve(by_tu.size());
  for (auto& [file, phase_map] : by_tu) {
    TuRow row;
    row.file = file;
    for (const std::string_view name : kTuPhaseNames) {
      if (const auto it = phase_map.find(name); it != phase_map.end())
        row.phase_us.emplace_back(std::string(name), it->second);
    }
    tus_.push_back(std::move(row));
  }

  for (auto& [tid, ivs] : intervals) {
    // Busy time is the union of span intervals: nested spans (parse inside
    // tu.compile) must not double-count.
    std::sort(ivs.begin(), ivs.end());
    std::uint64_t busy = 0, cur_begin = 0, cur_end = 0;
    bool open = false;
    for (const auto& [b, e] : ivs) {
      if (!open || b > cur_end) {
        if (open) busy += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
        open = true;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (open) busy += cur_end - cur_begin;
    threads_.push_back({tid, threadName(tid), busy, span_counts[tid]});
  }
}

void StatsReport::renderText(std::ostream& os) const {
  os << "== " << tool_ << " stats ==\n";
  if (counters_) {
    os << "counters:\n";
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      os << "  " << std::left << std::setw(34) << kCounterNames[i]
         << counters_->values[i] << '\n';
    }
    for (const auto& [dim, keys] : counters_->keyed) {
      os << "  " << dim << ":\n";
      for (const auto& [key, n] : keys) {
        os << "    " << std::left << std::setw(40) << key << n << '\n';
      }
    }
  }
  for (const Section& sec : sections_) {
    os << sec.name << ":";
    for (std::size_t i = 0; i < sec.kv.size(); ++i) {
      os << (i == 0 ? " " : ", ") << sec.kv[i].first << "=" << sec.kv[i].second;
    }
    os << '\n';
  }
  if (!has_timings_) return;
  os << "phases (wall " << wall_us_ << " us):\n";
  os << "  " << std::left << std::setw(34) << "name" << std::right
     << std::setw(8) << "count" << std::setw(12) << "total_us" << std::setw(10)
     << "avg_us" << std::setw(10) << "max_us" << '\n';
  for (const SpanStats& p : phases_) {
    os << "  " << std::left << std::setw(34) << p.name << std::right
       << std::setw(8) << p.count << std::setw(12) << p.total_us
       << std::setw(10) << (p.count > 0 ? p.total_us / p.count : 0)
       << std::setw(10) << p.max_us << '\n';
  }
  if (!tus_.empty()) {
    os << "per-TU phases:\n";
    for (const TuRow& row : tus_) {
      os << "  " << row.file << ":";
      for (std::size_t i = 0; i < row.phase_us.size(); ++i) {
        os << (i == 0 ? " " : ", ") << row.phase_us[i].first << " "
           << row.phase_us[i].second << " us";
      }
      os << '\n';
    }
  }
  if (!threads_.empty()) {
    os << "threads:\n";
    for (const ThreadRow& t : threads_) {
      os << "  " << t.name << ": busy " << t.busy_us << " us, " << t.spans
         << " span" << (t.spans == 1 ? "" : "s") << '\n';
    }
  }
}

void StatsReport::renderJson(std::ostream& os) const {
  os << "{\n  \"tool\": \"" << escapeJson(tool_) << "\"";
  if (counters_) {
    // The counter object is the deterministic section: fixed slot order,
    // sorted keyed dimensions, always-present "keyed" — byte-identical
    // for any -j and for warm vs cold cache runs.
    os << ",\n  \"counters\": {";
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      os << (i == 0 ? "" : ",") << "\n    \"" << kCounterNames[i]
         << "\": " << counters_->values[i];
    }
    os << ",\n    \"keyed\": {";
    bool first_dim = true;
    for (const auto& [dim, keys] : counters_->keyed) {
      os << (first_dim ? "" : ",") << "\n      \"" << escapeJson(dim) << "\": {";
      first_dim = false;
      bool first_key = true;
      for (const auto& [key, n] : keys) {
        os << (first_key ? "" : ",") << "\n        \"" << escapeJson(key)
           << "\": " << n;
        first_key = false;
      }
      os << (first_key ? "}" : "\n      }");
    }
    os << (first_dim ? "}" : "\n    }");
    os << "\n  }";
  }
  for (const Section& sec : sections_) {
    os << ",\n  \"" << escapeJson(sec.name) << "\": {";
    for (std::size_t i = 0; i < sec.kv.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\n    \"" << escapeJson(sec.kv[i].first)
         << "\": " << sec.kv[i].second;
    }
    os << "\n  }";
  }
  if (has_timings_) {
    os << ",\n  \"timings\": {\n    \"wall_us\": " << wall_us_;
    os << ",\n    \"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      const SpanStats& p = phases_[i];
      os << (i == 0 ? "" : ",") << "\n      {\"name\": \"" << escapeJson(p.name)
         << "\", \"count\": " << p.count << ", \"total_us\": " << p.total_us
         << ", \"min_us\": " << p.min_us << ", \"max_us\": " << p.max_us << "}";
    }
    os << "\n    ],\n    \"tus\": [";
    for (std::size_t i = 0; i < tus_.size(); ++i) {
      const TuRow& row = tus_[i];
      os << (i == 0 ? "" : ",") << "\n      {\"file\": \"" << escapeJson(row.file)
         << "\", \"phases\": {";
      for (std::size_t j = 0; j < row.phase_us.size(); ++j) {
        os << (j == 0 ? "" : ", ") << "\"" << row.phase_us[j].first
           << "\": " << row.phase_us[j].second;
      }
      os << "}}";
    }
    os << "\n    ],\n    \"threads\": [";
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      const ThreadRow& t = threads_[i];
      os << (i == 0 ? "" : ",") << "\n      {\"tid\": " << t.tid
         << ", \"name\": \"" << escapeJson(t.name) << "\", \"busy_us\": "
         << t.busy_us << ", \"spans\": " << t.spans << "}";
    }
    os << "\n    ]\n  }";
  }
  os << "\n}\n";
}

// ---------------------------------------------------------------------------
// ToolObservability
// ---------------------------------------------------------------------------

bool ToolObservability::parseFlag(std::string_view arg, const char* next,
                                  bool& used_next, std::string& error) {
  used_next = false;
  if (arg == "--stats") {
    stats = true;
    return true;
  }
  if (arg.rfind("--stats=", 0) == 0) {
    const std::string_view fmt = arg.substr(8);
    if (fmt == "json") {
      stats = true;
      json = true;
    } else if (fmt == "text") {
      stats = true;
      json = false;
    } else {
      error = concat({"unknown stats format '", fmt, "' (expected text or json)"});
    }
    return true;
  }
  if (arg == "--stats-out") {
    if (next == nullptr) {
      error = "--stats-out requires a value";
      return true;
    }
    stats_out = next;
    used_next = true;
    return true;
  }
  if (arg.rfind("--stats-out=", 0) == 0) {
    stats_out = std::string(arg.substr(12));
    if (stats_out.empty()) error = "--stats-out requires a value";
    return true;
  }
  if (arg == "--trace-out") {
    if (next == nullptr) {
      error = "--trace-out requires a value";
      return true;
    }
    trace_out = next;
    used_next = true;
    return true;
  }
  if (arg.rfind("--trace-out=", 0) == 0) {
    trace_out = std::string(arg.substr(12));
    if (trace_out.empty()) error = "--trace-out requires a value";
    return true;
  }
  return false;
}

void ToolObservability::begin() const {
  if (!wanted()) return;
  setCollecting(true);
  setThreadName("main");
}

bool ToolObservability::finish(StatsReport& report) const {
  bool ok = true;
  if (stats || !stats_out.empty()) {
    report.captureTimings();
    if (!stats_out.empty()) {
      std::ofstream os(stats_out, std::ios::binary | std::ios::trunc);
      if (!os) {
        std::cerr << "cannot write stats file '" << stats_out << "'\n";
        ok = false;
      } else {
        json ? report.renderJson(os) : report.renderText(os);
        ok = os.good() && ok;
      }
    }
    if (stats) {
      json ? report.renderJson(std::cerr) : report.renderText(std::cerr);
    }
  }
  if (!trace_out.empty() && !writeChromeTraceFile(trace_out)) {
    std::cerr << "cannot write trace file '" << trace_out << "'\n";
    ok = false;
  }
  return ok;
}

}  // namespace pdt::trace
