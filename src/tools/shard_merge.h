// pdbmerge's merge of files, for corpora of any size.
//
// shardedMergeFiles() partitions the input list into contiguous shards,
// folds each shard into a ductape::Merger in a worker that reads one
// input at a time (the zero-copy reader keeps the working set at
// "accumulator + current input"), spills a partial merge to a temp
// binary-v2 file whenever its estimated footprint exceeds the worker's
// slice of --merge-mem-mb (0 = never), and finally folds the ordered
// partials into one Merger. Every fold preserves input order, so the
// output is byte-identical to the serial fold at any job count and any
// budget (asserted by tests/integration/sharded_merge_test and the
// scripts/ci.sh gate).
//
// Spill files live in a run-scoped temp directory that is removed on
// success *and* failure — an interrupted merge leaves no orphaned *.tmp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ductape/ductape.h"

namespace pdt::tools {

struct ShardedMergeOptions {
  std::size_t jobs = 1;
  /// Soft memory budget for partial merges, in bytes; 0 = unlimited
  /// (never spill). Each worker gets budget/jobs; a partial whose
  /// estimated footprint (sum of its constituent inputs' on-disk bytes)
  /// exceeds that slice is spilled.
  std::uint64_t mem_budget_bytes = 0;
  /// Run-scoped directory for spill files. Created on demand, removed
  /// (recursively) when the merge finishes, successfully or not.
  std::string temp_dir = "pdbmerge.tmp";
};

struct ShardedMergeStats {
  std::uint64_t shards = 0;
  std::uint64_t spills = 0;
};

struct ShardedMergeResult {
  /// Engaged on success.
  std::optional<ductape::PDB> merged;
  /// Read/validation failures, in input order ("path: message").
  std::vector<std::string> errors;
  ShardedMergeStats stats;
  [[nodiscard]] bool ok() const { return merged.has_value(); }
};

[[nodiscard]] ShardedMergeResult shardedMergeFiles(
    const std::vector<std::string>& inputs, const ShardedMergeOptions& opts);

}  // namespace pdt::tools
