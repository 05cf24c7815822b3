// DUCTAPE object-graph construction and traversal costs.
#include <benchmark/benchmark.h>

#include <sstream>

#include "bench/workloads.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "tools/tools.h"

namespace {

pdt::pdb::PdbFile compileRaw(const std::string& src) {
  pdt::SourceManager sm;
  pdt::DiagnosticEngine diags;
  pdt::frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("bench.cpp", src);
  return pdt::ilanalyzer::analyze(result, sm);
}

void BM_BuildObjectGraph(benchmark::State& state) {
  const auto raw = compileRaw(pdt::bench::plainClasses(static_cast<int>(state.range(0))));
  pdt::ductape::PDB pdb;
  for (auto _ : state) {
    // Untimed: drop the previous graph and copy the records in.
    state.PauseTiming();
    pdb = pdt::ductape::PDB{};
    pdt::pdb::PdbFile records = raw;
    state.ResumeTiming();
    // fromPdbFile only adopts the records; the first accessor builds.
    pdb = pdt::ductape::PDB::fromPdbFile(std::move(records));
    benchmark::DoNotOptimize(pdb.getFileVec().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(raw.itemCount()));
}
BENCHMARK(BM_BuildObjectGraph)->Arg(50)->Arg(200);

void BM_CallTreeWalk(benchmark::State& state) {
  const auto raw = compileRaw(pdt::bench::callChain(static_cast<int>(state.range(0))));
  const auto pdb = pdt::ductape::PDB::fromPdbFile(raw);
  for (auto _ : state) {
    std::ostringstream os;
    pdt::tools::pdbtree(pdb, pdt::tools::TreeKind::CallGraph, os);
    benchmark::DoNotOptimize(os);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CallTreeWalk)->Arg(50)->Arg(500);

void BM_ClassHierarchyWalk(benchmark::State& state) {
  // A deep single-inheritance chain.
  std::string src = "class D0 { public: int x; };\n";
  for (int i = 1; i < state.range(0); ++i) {
    src += "class D" + std::to_string(i) + " : public D" +
           std::to_string(i - 1) + " { public: int y" + std::to_string(i) +
           "; };\n";
  }
  const auto pdb = pdt::ductape::PDB::fromPdbFile(compileRaw(src));
  for (auto _ : state) {
    std::ostringstream os;
    pdt::tools::pdbtree(pdb, pdt::tools::TreeKind::ClassHierarchy, os);
    benchmark::DoNotOptimize(os);
  }
}
BENCHMARK(BM_ClassHierarchyWalk)->Arg(50)->Arg(200);

void BM_PdbconvRender(benchmark::State& state) {
  const auto pdb = pdt::ductape::PDB::fromPdbFile(
      compileRaw(pdt::bench::manyInstantiations(static_cast<int>(state.range(0)))));
  for (auto _ : state) {
    std::ostringstream os;
    pdt::tools::pdbconv(pdb, os);
    benchmark::DoNotOptimize(os);
  }
}
BENCHMARK(BM_PdbconvRender)->Arg(50);

void BM_PdbhtmlRender(benchmark::State& state) {
  const auto pdb = pdt::ductape::PDB::fromPdbFile(
      compileRaw(pdt::bench::manyInstantiations(static_cast<int>(state.range(0)))));
  for (auto _ : state) {
    std::ostringstream os;
    pdt::tools::pdbhtml(pdb, os);
    benchmark::DoNotOptimize(os);
  }
}
BENCHMARK(BM_PdbhtmlRender)->Arg(50);

}  // namespace

#include "bench/bench_main.h"
PDT_BENCH_MAIN()
