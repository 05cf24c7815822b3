// pdbmerge scaling: number of translation units and duplicate ratio.
//
// The paper's claim (Table 2): merging eliminates duplicate template
// instantiations across compilations. The dedup_ratio counter reports
// how much of the input volume the merge collapsed.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "ductape/ductape.h"
#include "ductape/merger.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/format.h"
#include "tools/shard_merge.h"
#include "tools/synth.h"

namespace {

pdt::ductape::PDB makeUnit(int unit, int shared, int unique) {
  pdt::SourceManager sm;
  pdt::DiagnosticEngine diags;
  pdt::frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("tu" + std::to_string(unit) + ".cpp",
                                 pdt::bench::mergeUnit(unit, shared, unique));
  return pdt::ductape::PDB::fromPdbFile(pdt::ilanalyzer::analyze(result, sm));
}

void BM_MergeUnits(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const int shared = static_cast<int>(state.range(1));
  const int unique = static_cast<int>(state.range(2));

  std::vector<pdt::ductape::PDB> inputs;
  std::size_t input_items = 0;
  for (int u = 0; u < units; ++u) {
    inputs.push_back(makeUnit(u, shared, unique));
    input_items += inputs.back().getItemVec().size();
  }

  std::size_t merged_items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // merge() mutates; re-clone the first unit via its raw representation.
    pdt::ductape::PDB merged =
        pdt::ductape::PDB::fromPdbFile(inputs[0].raw());
    state.ResumeTiming();
    for (int u = 1; u < units; ++u) merged.merge(inputs[u]);
    merged_items = merged.getItemVec().size();
    benchmark::DoNotOptimize(merged);
  }
  state.counters["input_items"] = static_cast<double>(input_items);
  state.counters["merged_items"] = static_cast<double>(merged_items);
  state.counters["dedup_ratio"] =
      input_items == 0 ? 0.0
                       : 1.0 - static_cast<double>(merged_items) /
                                   static_cast<double>(input_items);
}
// All shared (high duplication), mixed, all unique (no duplication).
BENCHMARK(BM_MergeUnits)
    ->Args({4, 20, 0})
    ->Args({4, 10, 10})
    ->Args({4, 0, 20})
    ->Args({16, 10, 2});

/// The Merger's fold over synthetic units, the shape of a cxxparse or
/// pdbmerge run: the first unit adopted, every further one added by move
/// right after it is made (copied from the corpus, untimed — add()
/// consumes it). Reports ns_per_added_unit, which stays flat as the
/// merged database grows: add() touches only the incoming unit's items,
/// never the accumulated ones.
void BM_MergerFold(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int units = static_cast<int>(state.range(0));
  std::vector<pdt::pdb::PdbFile> corpus;
  for (int u = 0; u < units; ++u) corpus.push_back(pdt::tools::synthUnit(u));

  double add_ns = 0;
  std::size_t merged_items = 0;
  for (auto _ : state) {
    pdt::pdb::PdbFile first = corpus.front();
    Clock::time_point start = Clock::now();
    pdt::ductape::Merger merger(std::move(first));
    std::chrono::duration<double> took = Clock::now() - start;
    const std::chrono::duration<double> adopt = took;
    for (int u = 1; u < units; ++u) {
      pdt::pdb::PdbFile unit = corpus[static_cast<std::size_t>(u)];
      start = Clock::now();
      merger.add(std::move(unit));
      took += Clock::now() - start;
    }
    state.SetIterationTime(took.count());
    add_ns += (took - adopt).count() * 1e9;
    merged_items = merger.merged().itemCount();
    benchmark::DoNotOptimize(merger);
  }
  state.counters["merged_items"] = static_cast<double>(merged_items);
  state.counters["ns_per_added_unit"] =
      add_ns / static_cast<double>(state.iterations()) / (units - 1);
}
// Units: 32 to 1000 — the "merge time per TU stays flat" sweep.
BENCHMARK(BM_MergerFold)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// A synthetic on-disk corpus of `units` binary databases (written once
/// per size and reused across iterations and configurations).
const std::vector<std::string>& corpusFiles(int units) {
  static std::map<int, std::vector<std::string>> cache;
  auto it = cache.find(units);
  if (it != cache.end()) return it->second;

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("pdt_bench_merge_" + std::to_string(units));
  fs::create_directories(dir);
  std::vector<std::string> files;
  for (int u = 0; u < units; ++u) {
    const fs::path path = dir / ("tu" + std::to_string(u) + ".pdb");
    pdt::pdb::writeFile(pdt::tools::synthUnit(u), path.string(),
                        pdt::pdb::Format::Binary);
    files.push_back(path.string());
  }
  return cache.emplace(units, std::move(files)).first->second;
}

/// External sharded merge at 100-1000x krylov scale: units x jobs x
/// memory budget. budget_mb=0 never spills; small budgets exercise the
/// spill round trip. merge.shards / merge.spills are exported so the
/// BENCH_pr6.json snapshot records how hard each configuration worked.
void BM_ShardedMergeFiles(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  const auto budget_mb = static_cast<std::uint64_t>(state.range(2));
  const std::vector<std::string>& files = corpusFiles(units);

  pdt::tools::ShardedMergeStats stats;
  std::size_t merged_items = 0;
  for (auto _ : state) {
    pdt::tools::ShardedMergeOptions opts;
    opts.jobs = jobs;
    opts.mem_budget_bytes = budget_mb * 1024 * 1024;
    opts.temp_dir = (std::filesystem::temp_directory_path() /
                     "pdt_bench_merge_spill")
                        .string();
    auto result = pdt::tools::shardedMergeFiles(files, opts);
    if (!result.ok()) {
      state.SkipWithError("sharded merge failed");
      break;
    }
    stats = result.stats;
    merged_items = result.merged->getItemVec().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["merged_items"] = static_cast<double>(merged_items);
  state.counters["shards"] = static_cast<double>(stats.shards);
  state.counters["spills"] = static_cast<double>(stats.spills);
  state.SetItemsProcessed(state.iterations() * units);
}
// units x jobs x budget_mb: serial vs parallel, unlimited vs tight.
BENCHMARK(BM_ShardedMergeFiles)
    ->Args({64, 1, 0})
    ->Args({64, 8, 0})
    ->Args({64, 8, 4})
    ->Args({256, 8, 0})
    ->Args({256, 8, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench/bench_main.h"
PDT_BENCH_MAIN()
