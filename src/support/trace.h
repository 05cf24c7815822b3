// Pipeline-wide tracing and metrics (docs/OBSERVABILITY.md).
//
// Two independent facilities share this header:
//
//  * Counters — always-on, cheap monotonic tallies of *what* the pipeline
//    did (tokens lexed, templates instantiated, PDB items written...).
//    Counter values are deterministic: byte-identical for any -j and for
//    warm vs cold cache runs (the build cache replays the counters a TU
//    produced when it was compiled; see BuildCache). Counts route to the
//    thread's active CounterBlock when a CounterScope is open (the driver
//    opens one per TU) and to a process-global block otherwise.
//
//  * Timing events — spans and counter tracks collected only while
//    collecting() is on (a tool saw --trace-out or --stats). Each thread
//    appends to its own buffer, so recording is lock-free after the first
//    event; writeChromeTrace() flushes everything as Chrome trace_event
//    JSON loadable in chrome://tracing or https://ui.perfetto.dev.
//    When collection is off a span costs one relaxed atomic load.
//
// StatsReport turns both into the --stats output: a deterministic counter
// section plus (when timing events exist) an aggregated phase table,
// per-TU phase rows, and per-thread utilization.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pdt::trace {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every named counter in the toolchain. Values are totals; the fixed enum
/// order is the serialization order, which makes counter output
/// byte-comparable across runs. Names (counterName) form the glossary in
/// docs/OBSERVABILITY.md.
enum class Counter : std::size_t {
  LexTokens,             // lex.tokens — tokens delivered to the parser
  LexArenaBytes,         // lex.arena_bytes — TokenArena bytes backing synthesized spellings
  PpIncludes,            // pp.includes — #include directives entered
  PpMacroExpansions,     // pp.macro_expansions — macro uses expanded
  SemaClassInstantiations,  // sema.class_instantiations — new Class<args>
  SemaFuncInstantiations,   // sema.func_instantiations — new f<args>
  SemaBodiesInstantiated,   // sema.bodies_instantiated — used-mode bodies built
  SemaBodiesSkipped,        // sema.bodies_skipped — bodies never used (used-mode win)
  IlItems,               // il.items — PDB items emitted by the IL analyzer
  PdbFilesRead,          // pdb.files_read
  PdbItemsRead,          // pdb.items_read
  PdbFilesWritten,       // pdb.files_written
  PdbItemsWritten,       // pdb.items_written
  PdbSectionsSkipped,    // pdb.sections_skipped — sections a lazy read left unloaded
  PdbMmapBytesMapped,    // pdb.mmap.bytes_mapped — bytes served via mmap
  MergeMerges,           // merge.merges — units added to a Merger
  MergeDuplicatesElided, // merge.duplicates_elided — items deduplicated away
  MergeShards,           // merge.shards — shard workers of a sharded merge
  MergeSpills,           // merge.spills — partial merges spilled to disk
  DriverTus,             // driver.tus — translation units processed
  DiagErrors,            // diag.errors
  DiagWarnings,          // diag.warnings
  CheckFindings,         // check.findings — pdbcheck diagnostics produced
  DuStreams,             // du.streams — def-use streams a DefUseIndex built
  DuIrregular,           // du.irregular — of those, streams with irregular control flow
  DataflowWorklistIterations,  // dataflow.worklist_iterations — forward-solver worklist steps
  kCount
};

[[nodiscard]] std::string_view counterName(Counter c);

/// One block of counter values: the fixed slots above plus string-keyed
/// dimensions (e.g. "sema.instantiations.by_template" -> name -> count).
/// Blocks are plain data — the driver keeps one per TU and sums them in
/// input order, which is what makes the totals -j-independent.
struct CounterBlock {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)> values{};
  std::map<std::string, std::map<std::string, std::uint64_t>, std::less<>> keyed;

  [[nodiscard]] std::uint64_t get(Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
  CounterBlock& operator+=(const CounterBlock& o);
  friend bool operator==(const CounterBlock&, const CounterBlock&) = default;

  /// Stable text form ("name value" lines, keyed entries as "dim|key value");
  /// the build cache persists this next to each entry so warm runs replay
  /// the counters of the compile they skipped.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<CounterBlock> deserialize(std::string_view text);
};

/// Adds `n` to counter `c` in the thread's active block (see CounterScope),
/// or the process-global block when none is open.
void count(Counter c, std::uint64_t n = 1);

/// Adds `n` under keyed dimension `dim`, key `key`. No-op when n == 0, so
/// zero-valued keys never appear (and never differ between runs).
void countKey(std::string_view dim, std::string_view key, std::uint64_t n = 1);

/// Routes this thread's count()/countKey() calls into `block` for the
/// scope's lifetime. Pass nullptr to *suppress* counting (the build cache
/// scans/fetches under a null scope so bookkeeping work never pollutes the
/// deterministic totals). Scopes nest; the previous target is restored.
class CounterScope {
 public:
  explicit CounterScope(CounterBlock* block);
  ~CounterScope();
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

 private:
  CounterBlock* prev_;
  bool prev_suppressed_;
};

/// Snapshot of the process-global block (counts made outside any scope).
[[nodiscard]] CounterBlock globalCounters();
void resetGlobalCounters();

// ---------------------------------------------------------------------------
// Timing events
// ---------------------------------------------------------------------------

/// True while timing collection is on. Span constructors check this first;
/// the disabled path is one relaxed atomic load.
[[nodiscard]] bool collecting();

/// Turns collection on (stamping the session epoch — event timestamps are
/// microseconds since it) or off. Enabling does not clear prior events;
/// call resetEvents() for a fresh session.
void setCollecting(bool on);

/// Drops all buffered events (counters are unaffected).
void resetEvents();

/// Names the calling thread in trace output ("main", "worker-3", ...).
void setThreadName(std::string_view name);

/// One recorded event. kind 'X' = complete span (dur_us valid),
/// 'C' = counter-track sample (value valid).
struct Event {
  const char* name = nullptr;  // static string (macro/literal call sites)
  std::string detail;          // span argument: TU path, template name, ...
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::int64_t value = 0;
  std::uint32_t tid = 0;
  char kind = 'X';
};

/// Appends a complete span directly (the thread pool synthesizes
/// "pool.wait" spans from enqueue timestamps this way). `name` must be a
/// static string.
void emitComplete(const char* name, std::uint64_t start_us, std::uint64_t dur_us,
                  std::string_view detail = {});

/// Appends a counter-track sample (rendered as a ph:"C" event — e.g. the
/// thread pool's queue depth over time). `track` must be a static string.
void counterSample(const char* track, std::int64_t value);

/// Microseconds since the session epoch (0 when not collecting).
[[nodiscard]] std::uint64_t nowUs();

/// RAII span: records [construction, destruction) as one complete event on
/// the current thread. `name` must outlive the session (string literal).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::string_view detail = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;  // null = collection was off at entry: destructor no-op
  std::uint64_t start_us_ = 0;
  std::string detail_;
};

#define PDT_TRACE_CONCAT_IMPL(a, b) a##b
#define PDT_TRACE_CONCAT(a, b) PDT_TRACE_CONCAT_IMPL(a, b)
/// PDT_TRACE_SCOPE("sema.instantiate", name) — RAII span for the rest of
/// the enclosing block. The detail argument is optional.
#define PDT_TRACE_SCOPE(...) \
  const ::pdt::trace::ScopedSpan PDT_TRACE_CONCAT(pdt_trace_span_, __LINE__)(__VA_ARGS__)

/// Copies every buffered event (tests and StatsReport aggregate offline).
[[nodiscard]] std::vector<Event> snapshotEvents();

/// Name of thread `tid` as set via setThreadName ("thread-N" default).
[[nodiscard]] std::string threadName(std::uint32_t tid);

/// Writes all buffered events as Chrome trace_event JSON ({"traceEvents":
/// [...]} object form, ph "X"/"C" plus thread_name metadata). Loadable in
/// chrome://tracing and Perfetto.
void writeChromeTrace(std::ostream& os);
/// Returns false when the file cannot be written.
bool writeChromeTraceFile(const std::string& path);

// ---------------------------------------------------------------------------
// Stats reporting (--stats)
// ---------------------------------------------------------------------------

/// Aggregated view of one span name across the run.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t min_us = 0;
  std::uint64_t max_us = 0;
};

/// Builder + renderer for the --stats output of every tool. Sections are
/// rendered in insertion order; the counter section serializes in fixed
/// enum/key order, so its bytes are run-to-run comparable.
class StatsReport {
 public:
  explicit StatsReport(std::string tool);

  void setCounters(CounterBlock counters);

  /// Adds a named key/value section (e.g. "cache" hit/miss numbers —
  /// meaningful per run but deliberately outside the deterministic
  /// counter section).
  void addSection(std::string name,
                  std::vector<std::pair<std::string, std::uint64_t>> kv);

  /// Snapshots the event buffers into phase aggregates, per-TU phase rows,
  /// and per-thread busy time. No-op when no events were collected.
  void captureTimings();

  void renderText(std::ostream& os) const;
  void renderJson(std::ostream& os) const;

  [[nodiscard]] const std::vector<SpanStats>& phases() const { return phases_; }

 private:
  struct Section {
    std::string name;
    std::vector<std::pair<std::string, std::uint64_t>> kv;
  };
  struct TuRow {
    std::string file;
    // (phase name, total us) in fixed phase order; only phases seen.
    std::vector<std::pair<std::string, std::uint64_t>> phase_us;
  };
  struct ThreadRow {
    std::uint32_t tid = 0;
    std::string name;
    std::uint64_t busy_us = 0;  // sum of span durations on the thread
    std::uint64_t spans = 0;
  };

  std::string tool_;
  std::optional<CounterBlock> counters_;
  std::vector<Section> sections_;
  std::vector<SpanStats> phases_;
  std::vector<TuRow> tus_;
  std::vector<ThreadRow> threads_;
  std::uint64_t wall_us_ = 0;
  bool has_timings_ = false;
};

// ---------------------------------------------------------------------------
// Tool flag surface (--trace-out / --stats / --stats-out)
// ---------------------------------------------------------------------------

/// The uniform observability flags of cxxparse, pdbmerge, and pdbcheck.
/// Each main() routes unrecognized arguments through parseFlag() and calls
/// finish() on exit.
struct ToolObservability {
  bool stats = false;        // --stats[=text|json]
  bool json = false;         // --stats=json
  std::string stats_out;     // --stats-out FILE (empty = stderr)
  std::string trace_out;     // --trace-out FILE (empty = no trace)

  /// Returns true when `arg` (possibly consuming `next`, signalled via
  /// `used_next`) was one of the observability flags. Malformed values set
  /// `error` instead.
  bool parseFlag(std::string_view arg, const char* next, bool& used_next,
                 std::string& error);

  /// True when any collection (timing or trace output) is requested;
  /// call before the tool starts real work.
  [[nodiscard]] bool wanted() const {
    return stats || !stats_out.empty() || !trace_out.empty();
  }

  /// Enables timing collection and names the calling thread "main".
  void begin() const;

  /// Renders `report` (text to stderr or --stats-out file; json with
  /// --stats=json) and writes the trace file. Returns false if an output
  /// file could not be written (the caller should exit non-zero).
  bool finish(StatsReport& report) const;
};

}  // namespace pdt::trace
