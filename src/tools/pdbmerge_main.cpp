// pdbmerge: merges PDB files from separate compilations into one PDB
// file, eliminating duplicate template instantiations in the process
// (paper Table 2).
//
// Every run goes through tools::shardedMergeFiles: -j N folds N
// contiguous shards of the inputs concurrently, reading one input at a
// time, and then folds the shard results in order; --merge-mem-mb bounds
// the partials kept in memory. The output is byte-identical at any -j and
// any budget.
#include <charconv>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "pdb/format.h"
#include "support/trace.h"
#include "tools/shard_merge.h"

namespace {

constexpr const char* kUsage =
    "usage: pdbmerge <in1.pdb> <in2.pdb>... -o <out.pdb> [-j N]\n"
    "                [--format=ascii|bin] [--merge-mem-mb=N] [--mmap=MODE]\n"
    "                [--stats[=json]] [--stats-out FILE] [--trace-out FILE]\n"
    "  -j N, --jobs N    read and fold N contiguous shards of the inputs\n"
    "                    on N worker threads (N >= 1)\n"
    "  --format=FORMAT   storage format of the output (default ascii);\n"
    "                    input formats are auto-detected\n"
    "  --merge-mem-mb=N  soft memory budget: spill a worker's partial\n"
    "                    merge to a temp file when it exceeds its slice\n"
    "                    of N MiB (0 or absent = never spill; the output\n"
    "                    bytes are identical either way)\n"
    "  --mmap=MODE       binary input mapping: auto (default), off\n"
    "  --stats[=json]    merge counter + phase timing report on stderr\n"
    "  --stats-out FILE  write the stats report to FILE\n"
    "  --trace-out FILE  write a Chrome trace_event JSON timeline to FILE\n";

std::size_t parseJobs(const std::string& value) {
  std::size_t jobs = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), jobs);
  if (ec != std::errc{} || ptr != value.data() + value.size() || jobs == 0) {
    std::cerr << "pdbmerge: invalid jobs value '" << value
              << "' (expected a positive integer)\n";
    std::exit(2);
  }
  return jobs;
}

std::uint64_t parseMemMb(const std::string& value) {
  std::uint64_t mb = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), mb);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    std::cerr << "pdbmerge: invalid --merge-mem-mb value '" << value
              << "' (expected a non-negative integer)\n";
    std::exit(2);
  }
  return mb;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string output;
  std::size_t jobs = 1;
  std::uint64_t merge_mem_mb = 0;
  pdt::pdb::Format format = pdt::pdb::Format::Ascii;
  pdt::trace::ToolObservability obs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg.starts_with("--format=")) {
      const auto parsed = pdt::pdb::formatFromName(arg.substr(9));
      if (!parsed) {
        std::cerr << "pdbmerge: unknown format '" << arg.substr(9)
                  << "' (expected ascii or bin)\n";
        return 2;
      }
      format = *parsed;
    } else if ((arg == "-j" || arg == "--jobs") && i + 1 < argc) {
      jobs = parseJobs(argv[++i]);
    } else if (arg.starts_with("-j") && arg != "-j") {
      jobs = parseJobs(arg.substr(2));
    } else if (arg.starts_with("--merge-mem-mb=")) {
      merge_mem_mb = parseMemMb(arg.substr(15));
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbmerge: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-")) {
      paths.push_back(arg);
    } else {
      bool used_next = false;
      std::string error;
      if (obs.parseFlag(arg, i + 1 < argc ? argv[i + 1] : nullptr, used_next,
                        error)) {
        if (!error.empty()) {
          std::cerr << "pdbmerge: " << error << '\n';
          return 2;
        }
        if (used_next) ++i;
        continue;
      }
      std::cerr << kUsage;
      return 2;
    }
  }
  if (paths.empty() || output.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  obs.begin();

  pdt::tools::ShardedMergeOptions sopts;
  sopts.jobs = jobs;
  sopts.mem_budget_bytes = merge_mem_mb * 1024ull * 1024ull;
  sopts.temp_dir = output + ".merge-tmp";
  pdt::tools::ShardedMergeResult sharded =
      pdt::tools::shardedMergeFiles(paths, sopts);
  if (!sharded.ok()) {
    for (const std::string& e : sharded.errors)
      std::cerr << "pdbmerge: " << e << '\n';
    return 1;
  }
  if (!sharded.merged->write(output, format)) {
    std::cerr << "pdbmerge: cannot write '" << output << "'\n";
    return 1;
  }
  std::cout << "wrote " << output << '\n';
  if (obs.wanted()) {
    pdt::trace::StatsReport report("pdbmerge");
    report.setCounters(pdt::trace::globalCounters());
    report.addSection("sharded merge", {{"shards", sharded.stats.shards},
                                        {"spills", sharded.stats.spills}});
    if (!obs.finish(report)) return 1;
  }
  return 0;
}
