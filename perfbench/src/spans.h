// In-memory spans for the traced run, and the self-time arithmetic that
// turns them into a per-layer table.
//
// The benchmark records its own spans around each public call it makes
// into a layer (name, start, end, parent). The program's existing spans
// (trace::setCollecting — tu.compile, frontend.lex, sema.instantiate,
// pdb.open, check.rule, ...) are merged in afterwards with their parent
// inferred by containment on the same thread. A span's self time is its
// duration minus the part of it that its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  int parent = -1;       // index into the span vector; -1 = root
  bool explicit_parent = false;  // recorded by the benchmark, not inferred
};

/// Fills `parent` of every span whose parent is not explicit: the
/// innermost span on the same thread whose interval contains it. Among
/// identical intervals, spans the benchmark recorded are the outer ones.
void inferParents(std::vector<Span>& spans);

/// Self time of each span (same indexing), in microseconds.
[[nodiscard]] std::vector<std::uint64_t> selfTimes(const std::vector<Span>& spans);

/// Name of the root span each span descends from ("" for none).
[[nodiscard]] std::vector<std::string> rootNames(const std::vector<Span>& spans);

/// The layer a span name belongs to (the names --stats uses); "other" for
/// the benchmark's own operation spans and anything unmapped.
[[nodiscard]] std::string layerOf(const std::string& span_name);

/// Records the benchmark's spans on any thread. Timestamps come from
/// trace::nowUs(), the clock the program's spans use.
class SpanRecorder {
 public:
  void setEnabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: records [construction, destruction) with the innermost
  /// open span of this thread as parent.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// This recorder's spans plus the program's collected events, parents
  /// filled in.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time summed per (root span name, layer), in milliseconds.
using LayerTable = std::map<std::string, std::map<std::string, double>>;
[[nodiscard]] LayerTable layerTable(const std::vector<Span>& spans);

}  // namespace perfbench
