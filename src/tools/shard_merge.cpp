#include "tools/shard_merge.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <future>
#include <system_error>
#include <utility>

#include "ductape/merger.h"
#include "pdb/format.h"
#include "pdb/validate.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace pdt::tools {
namespace {

namespace fs = std::filesystem;

/// One partial merge: either resident (pdb engaged) or spilled to disk.
struct Partial {
  std::optional<pdb::PdbFile> pdb;
  std::string spill_path;
};

/// Run-scoped spill directory, recursively removed on destruction — a
/// failed or interrupted merge cleans up exactly like a successful one.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  ~TempDir() {
    if (!created_) return;
    std::error_code ec;
    fs::remove_all(path_, ec);  // best-effort: never throw from a dtor
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] bool create() {
    std::error_code ec;
    fs::create_directories(path_, ec);
    created_ = !ec;
    return created_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool created_ = false;
};

std::uint64_t fileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Mirrors pdbmerge's input checks: readable, no dangling item references
/// and no repeated ids (merging those would silently corrupt the combined
/// database). Failure messages append to `lines`.
bool checkInput(const ductape::PDB& pdb, const std::string& path,
                std::vector<std::string>& lines) {
  if (!pdb.valid()) {
    lines.push_back(pdb.errorMessage());
    return false;
  }
  const std::vector<std::string> errors = pdb::validate(pdb.raw());
  if (!errors.empty()) {
    for (const std::string& e : errors) lines.push_back(path + ": " + e);
    lines.push_back("'" + path + "' fails validation; refusing to merge");
    return false;
  }
  return true;
}

/// Spill machinery shared by the shard workers.
struct SpillSink {
  TempDir& dir;
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> spills{0};

  explicit SpillSink(TempDir& d) : dir(d) {}

  /// Writes `pdb` to a fresh spill file; empty string on write failure.
  /// Spill I/O is bookkeeping: counted via merge.spills, not pdb.files_*.
  std::string spill(const pdb::PdbFile& pdb) {
    const std::string path =
        dir.path() + "/part_" + std::to_string(seq.fetch_add(1)) + ".pdb";
    PDT_TRACE_SCOPE("merge.spill", path);
    const trace::CounterScope mute(nullptr);
    if (!pdb::writeFile(pdb, path, pdb::Format::Binary)) return {};
    spills.fetch_add(1);
    trace::count(trace::Counter::MergeSpills);
    return path;
  }
};

/// Materializes a partial; reloads spilled ones (reload is bookkeeping
/// I/O, suppressed from the deterministic counters like the build cache's
/// fetches). Sets `error` on reload failure.
pdb::PdbFile loadPartial(Partial&& p, std::string& error) {
  if (p.pdb) return std::move(*p.pdb);
  const trace::CounterScope mute(nullptr);
  ductape::PDB pdb = ductape::PDB::read(p.spill_path);
  if (!pdb.valid())
    error = "cannot reload spill file '" + p.spill_path +
            "': " + pdb.errorMessage();
  return std::move(pdb).release();
}

struct ShardOutput {
  std::vector<Partial> partials;                 // in fold order
  // (input index, messages) — index restores global input order later.
  std::vector<std::pair<std::size_t, std::vector<std::string>>> errors;
};

/// Folds inputs [begin, end) left to right, reading one input at a time
/// and spilling the accumulator whenever its estimate exceeds
/// `threshold` (0 = never). The ordered fold keeps the shard's combined
/// result identical to the serial merge of the same slice.
ShardOutput mergeShard(const std::vector<std::string>& inputs,
                       std::size_t begin, std::size_t end,
                       std::uint64_t threshold, SpillSink& sink) {
  PDT_TRACE_SCOPE("merge.shard", inputs[begin]);
  ShardOutput out;
  std::optional<ductape::Merger> acc;
  std::uint64_t acc_estimate = 0;
  std::size_t acc_inputs = 0;

  for (std::size_t i = begin; i < end; ++i) {
    ductape::PDB input = ductape::PDB::read(inputs[i]);
    std::vector<std::string> lines;
    if (!checkInput(input, inputs[i], lines)) {
      // Keep scanning so the caller can report every bad input at once.
      out.errors.emplace_back(i, std::move(lines));
      continue;
    }
    if (!acc) {
      acc.emplace(std::move(input).release());
    } else {
      acc->add(std::move(input).release());
    }
    acc_estimate += fileSize(inputs[i]);
    ++acc_inputs;
    // Spill only after at least two inputs: re-serializing a single input
    // would be a pure round-trip, and forward progress stays guaranteed
    // under arbitrarily small budgets.
    if (threshold != 0 && acc_estimate > threshold && acc_inputs >= 2 &&
        i + 1 < end) {
      std::string path = sink.spill(acc->merged());
      if (path.empty()) {
        out.errors.emplace_back(
            i, std::vector<std::string>{"cannot write spill file in '" +
                                        sink.dir.path() + "'"});
        return out;
      }
      out.partials.push_back({std::nullopt, std::move(path)});
      acc.reset();
      acc_estimate = 0;
      acc_inputs = 0;
    }
  }
  if (acc) out.partials.push_back({std::move(*acc).release(), {}});
  return out;
}

}  // namespace

ShardedMergeResult shardedMergeFiles(const std::vector<std::string>& inputs,
                                     const ShardedMergeOptions& opts) {
  ShardedMergeResult result;
  if (inputs.empty()) {
    result.errors.emplace_back("no input files");
    return result;
  }
  const std::size_t jobs = std::max<std::size_t>(opts.jobs, 1);
  // Each worker folds within its slice of the budget; 0 = unlimited.
  const std::uint64_t threshold =
      opts.mem_budget_bytes == 0
          ? 0
          : std::max<std::uint64_t>(opts.mem_budget_bytes / jobs, 1);

  TempDir spill_dir(opts.temp_dir);
  if (threshold != 0 && !spill_dir.create()) {
    result.errors.emplace_back("cannot create spill directory '" +
                               opts.temp_dir + "'");
    return result;
  }
  SpillSink sink(spill_dir);

  // Phase 1: contiguous shards, folded concurrently. Contiguity +
  // in-order folds mean concatenating the shard outputs in shard order
  // reproduces the input order of the serial merge.
  const std::size_t shard_count = std::min(inputs.size(), jobs);
  trace::count(trace::Counter::MergeShards, shard_count);
  result.stats.shards = shard_count;

  ThreadPool pool(jobs);
  std::vector<std::future<ShardOutput>> shard_futures;
  shard_futures.reserve(shard_count);
  const std::size_t base = inputs.size() / shard_count;
  const std::size_t extra = inputs.size() % shard_count;
  std::size_t next = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t begin = next;
    const std::size_t end = begin + base + (s < extra ? 1 : 0);
    next = end;
    shard_futures.push_back(pool.submit([&inputs, begin, end, threshold,
                                         &sink] {
      return mergeShard(inputs, begin, end, threshold, sink);
    }));
  }

  std::vector<Partial> partials;
  std::vector<std::pair<std::size_t, std::vector<std::string>>> input_errors;
  for (auto& f : shard_futures) {
    ShardOutput out = f.get();
    for (Partial& p : out.partials) partials.push_back(std::move(p));
    for (auto& e : out.errors) input_errors.push_back(std::move(e));
  }
  result.stats.spills = sink.spills.load();
  if (!input_errors.empty()) {
    std::sort(input_errors.begin(), input_errors.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [index, lines] : input_errors)
      for (std::string& line : lines) result.errors.push_back(std::move(line));
    return result;  // spill_dir cleans up on this path too
  }

  // Phase 2: one in-order fold of the partials, loading each (spilled or
  // resident) only when its turn comes. Shards are contiguous and each was
  // folded in order, so this replays the serial fold of the inputs.
  std::optional<ductape::Merger> merger;
  for (Partial& p : partials) {
    std::string error;
    pdb::PdbFile part = loadPartial(std::move(p), error);
    if (!error.empty()) {
      result.errors.push_back(std::move(error));
      return result;
    }
    if (!merger) {
      merger.emplace(std::move(part));
    } else {
      merger->add(std::move(part));
    }
  }
  result.merged.emplace(
      ductape::PDB::fromPdbFile(std::move(*merger).release()));
  return result;
  // ~TempDir removes the spill files; the merged database stays valid
  // because spilled buffers it still references are held alive by the
  // adopted mmap/heap backings (POSIX keeps unlinked mappings readable).
}

}  // namespace pdt::tools
