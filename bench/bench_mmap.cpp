// Zero-copy read path: mmap vs buffered full reads of a large synthetic
// binary database, and lazy masked reads that fault in only the
// requested sections. Counters: the pdb.mmap.bytes_mapped delta per read
// is exported so BENCH_pr6.json records how much of the file was served
// straight from the page cache without a copy.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "pdb/pdb.h"
#include "pdb/snapshot.h"
#include "support/trace.h"
#include "tools/synth.h"

namespace {

namespace fs = std::filesystem;

/// A single large on-disk binary database, scaled by `factor` (written
/// once per factor and reused across benchmark iterations). factor=1 is
/// roughly one string-heavy TU; the sweep goes far past krylov scale.
const std::string& corpusFile(int factor) {
  static std::map<int, std::string> cache;
  auto it = cache.find(factor);
  if (it != cache.end()) return it->second;

  pdt::tools::SynthOptions opts;
  opts.shared_classes = 24 * factor;
  opts.unique_classes = 24 * factor;
  opts.routines = 64 * factor;
  // Expression-template instantiation spellings (the paper's §4 domain)
  // routinely run to kilobytes; the read path is bound by string volume.
  opts.name_bytes = 4096;
  const fs::path path =
      fs::temp_directory_path() /
      ("pdt_bench_mmap_" + std::to_string(factor) + ".pdb");
  pdt::pdb::writeFile(pdt::tools::synthUnit(0, opts), path.string(),
                      pdt::pdb::Format::Binary);
  return cache.emplace(factor, path.string()).first->second;
}

void readBench(benchmark::State& state, pdt::pdb::MmapMode mode,
               pdt::pdb::Sections sections) {
  const std::string& path = corpusFile(static_cast<int>(state.range(0)));
  const auto file_bytes = static_cast<std::int64_t>(fs::file_size(path));
  pdt::pdb::setMmapMode(mode);

  pdt::trace::resetGlobalCounters();
  std::size_t items = 0;
  for (auto _ : state) {
    auto result = pdt::pdb::open(path, sections);
    if (!result.ok()) {
      state.SkipWithError("read failed");
      break;
    }
    items = result.snapshot->pdb().classes().size() +
            result.snapshot->pdb().routines().size();
    benchmark::DoNotOptimize(result);
  }
  pdt::pdb::setMmapMode(pdt::pdb::MmapMode::Auto);

  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          file_bytes);
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.counters["items"] = static_cast<double>(items);
  const auto mapped =
      pdt::trace::globalCounters().get(pdt::trace::Counter::PdbMmapBytesMapped);
  state.counters["mapped_bytes_per_read"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(mapped) /
                static_cast<double>(state.iterations());
}

/// Full materialization of every section.
void BM_FullRead_Mmap(benchmark::State& state) {
  readBench(state, pdt::pdb::MmapMode::Auto, pdt::pdb::Sections::All);
}
void BM_FullRead_Buffered(benchmark::State& state) {
  readBench(state, pdt::pdb::MmapMode::Off, pdt::pdb::Sections::All);
}

/// Lazy masked read: only the source-file section is materialized (an
/// include-tree query's working set); under mmap the class/routine/name
/// payloads are never faulted in.
void BM_MaskedRead_Mmap(benchmark::State& state) {
  readBench(state, pdt::pdb::MmapMode::Auto, pdt::pdb::Sections::SourceFiles);
}
void BM_MaskedRead_Buffered(benchmark::State& state) {
  readBench(state, pdt::pdb::MmapMode::Off, pdt::pdb::Sections::SourceFiles);
}

BENCHMARK(BM_FullRead_Mmap)->Arg(1)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_FullRead_Buffered)->Arg(1)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_MaskedRead_Mmap)->Arg(64)->Arg(256);
BENCHMARK(BM_MaskedRead_Buffered)->Arg(64)->Arg(256);

}  // namespace

#include "bench/bench_main.h"
PDT_BENCH_MAIN()
