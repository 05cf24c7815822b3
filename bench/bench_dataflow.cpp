// Dataflow costs: du-stream extraction in the IL analyzer, CFG-lite
// reconstruction, the reaching-definitions fixed point, the whole
// DefUseIndex (build plus teardown, per stream), and the three dataflow
// rules end-to-end over loop-heavy synthetic routines.
#include <benchmark/benchmark.h>

#include <string>

#include "analysis/checker.h"
#include "analysis/dataflow.h"
#include "analysis/du_index.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"

namespace {

/// One routine with `n` sequential condition/loop regions over a handful
/// of locals: the shape that stresses block count and fixed-point
/// iteration rather than variable count.
std::string branchyRoutine(int n) {
  std::string src = "int work(int n, int seed) {\n"
                    "  int acc = seed;\n"
                    "  int t = 0;\n";
  for (int i = 0; i < n; ++i) {
    const std::string idx = std::to_string(i);
    src += "  for (int i" + idx + " = 0; i" + idx + " < n; ++i" + idx +
           ") {\n"
           "    if (acc > " + idx + ") { t = acc + i" + idx + "; }\n"
           "    else { t = acc - " + idx + "; }\n"
           "    acc = acc + t;\n"
           "  }\n";
  }
  src += "  return acc;\n}\n";
  return src;
}

/// `n` small routines, each one du stream with a loop and a branch: the
/// shape of a real database, where per-stream overhead dominates.
std::string manyRoutines(int n) {
  std::string src;
  for (int i = 0; i < n; ++i) {
    const std::string idx = std::to_string(i);
    src += "int r" + idx + "(int n) {\n"
           "  int s = 0;\n"
           "  for (int i = 0; i < n; ++i) {\n"
           "    if (i > " + idx + ") { s = s + i; } else { s = s - 1; }\n"
           "  }\n"
           "  return s;\n"
           "}\n";
  }
  return src;
}

pdt::pdb::PdbFile compileRaw(const std::string& src) {
  pdt::SourceManager sm;
  pdt::DiagnosticEngine diags;
  pdt::frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("bench.cpp", src);
  return pdt::ilanalyzer::analyze(result, sm);
}

void BM_EmitDefUse(benchmark::State& state) {
  // Frontend work re-done per iteration is constant; the growth with
  // range(0) isolates the du-stream extraction walk.
  pdt::SourceManager sm;
  pdt::DiagnosticEngine diags;
  pdt::frontend::Frontend fe(sm, diags);
  auto result =
      fe.compileSource("bench.cpp", branchyRoutine(static_cast<int>(state.range(0))));
  std::int64_t events = 0;
  for (auto _ : state) {
    pdt::pdb::PdbFile pdb = pdt::ilanalyzer::analyze(result, sm);
    events = 0;
    for (const auto& item : pdb.defUses())
      events += static_cast<std::int64_t>(item.events.size());
    benchmark::DoNotOptimize(pdb);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EmitDefUse)->Arg(8)->Arg(32);

void BM_CfgBuild(benchmark::State& state) {
  const pdt::pdb::PdbFile pdb =
      compileRaw(branchyRoutine(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    for (const auto& item : pdb.defUses()) {
      auto cfg = pdt::analysis::dataflow::Cfg::build(item);
      benchmark::DoNotOptimize(cfg);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CfgBuild)->Arg(8)->Arg(32);

void BM_ReachingDefs(benchmark::State& state) {
  const pdt::pdb::PdbFile pdb =
      compileRaw(branchyRoutine(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    for (const auto& item : pdb.defUses()) {
      const auto cfg = pdt::analysis::dataflow::Cfg::build(item);
      pdt::analysis::dataflow::ReachingDefs rd(cfg);
      benchmark::DoNotOptimize(rd);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReachingDefs)->Arg(8)->Arg(32);

void BM_DefUseIndex(benchmark::State& state) {
  // Build plus teardown of the index over range(0) streams. The
  // per_stream counter is that cost per stream, which stays flat when
  // the index allocates per database rather than per stream.
  const auto pdb = pdt::ductape::PDB::fromPdbFile(
      compileRaw(manyRoutines(static_cast<int>(state.range(0)))));
  (void)pdb.getFileVec();
  for (auto _ : state) {
    auto index = pdt::analysis::DefUseIndex::build(pdb);
    benchmark::DoNotOptimize(index);
  }
  const auto streams = static_cast<double>(pdb.raw().defUses().size());
  state.counters["per_stream"] = benchmark::Counter(
      streams, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_DefUseIndex)->Arg(200)->Arg(2000);

void BM_DataflowRules(benchmark::State& state) {
  const auto pdb = pdt::ductape::PDB::fromPdbFile(
      compileRaw(branchyRoutine(static_cast<int>(state.range(0)))));
  pdt::analysis::CheckOptions options;
  options.checks = "uninitialized-read,dead-store,null-deref-candidate";
  for (auto _ : state) {
    auto result = pdt::analysis::runChecks(pdb, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataflowRules)->Arg(8)->Arg(32);

}  // namespace

#include "bench/bench_main.h"
PDT_BENCH_MAIN()
