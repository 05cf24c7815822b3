// The observability counters' hard invariant (ISSUE PR4): --stats counter
// totals are byte-identical for any -j and for warm vs cold cache runs.
// Exercised over the pooma_mini template workload through the library
// driver (same entry point cxxparse uses), comparing CounterBlock
// serializations — the exact bytes the cache sidecars persist.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "common/temp_dir.h"
#include "pdt/pdt_paths.h"
#include "support/trace.h"
#include "tools/driver.h"

namespace pdt {
namespace {

namespace fs = std::filesystem;

class StatsDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::create_directories(dir_ / "cache");
    writeTU("tu_vectors.cpp", R"cpp(
#include "Array.h"
#include "BLAS1.h"
double useVectors() {
  Array<double> a(8);
  Array<double> b(8);
  a.fill(1.5);
  b.fill(2.5);
  axpy(2.0, a, b);
  return dot(a, b) + norm2(b);
}
)cpp");
    writeTU("tu_stencil.cpp", R"cpp(
#include "Array.h"
#include "Stencil.h"
double useStencil() {
  Array<double> grid(16);
  Array<double> out(16);
  grid.fill(0.5);
  Laplace1D<double> laplace(16);
  laplace.apply(grid, out);
  return out(8);
}
)cpp");
    writeTU("tu_mixed.cpp", R"cpp(
#include "Array.h"
#include "BLAS1.h"
#define PDT_TAG(x) #x
const char* kMixedTag = PDT_TAG(mixed workload);
double useMixed() {
  Array<double> a(4);
  Array<float> c(4);
  a.fill(3.0);
  c.fill(1.0f);
  return dot(a, a) + norm2(c);
}
)cpp");
    cached_.frontend.include_dirs.push_back(std::string(paths::kInputDir) +
                                            "/pooma_mini");
    cached_.cache.dir = (dir_ / "cache").string();
    uncached_ = cached_;
    uncached_.cache = {};
  }

  void writeTU(const std::string& name, const std::string& text) {
    std::ofstream os(dir_ / name);
    os << text;
    inputs_.push_back((dir_ / name).string());
  }

  /// Runs the driver and returns the serialized counter totals (the byte
  /// form --stats derives its counter section from).
  [[nodiscard]] std::string runCounters(tools::DriverOptions options,
                                        std::size_t jobs) {
    options.jobs = jobs;
    const tools::DriverResult result = tools::compileAndMerge(inputs_, options);
    EXPECT_TRUE(result.success) << result.diagnostics;
    last_ = result.counters;
    return result.counters.serialize();
  }

  testutil::TempDir dir_{"pdt_stats_det_"};
  std::vector<std::string> inputs_;
  tools::DriverOptions cached_;
  tools::DriverOptions uncached_;
  trace::CounterBlock last_;
};

TEST_F(StatsDeterminismTest, CountersIdenticalAcrossJobCounts) {
  const std::string j1 = runCounters(uncached_, 1);
  const trace::CounterBlock j1_block = last_;
  const std::string j4 = runCounters(uncached_, 4);
  EXPECT_EQ(j1, j4);

  // And they actually measured the compile: the workload lexes tokens,
  // enters includes, and instantiates templates.
  EXPECT_GT(j1_block.get(trace::Counter::LexTokens), 0u);
  // The workload's macros synthesize spellings, so the arena is in use —
  // and being inside the serialized block, its byte count is covered by
  // the j1 == j4 and warm == cold equalities above/below.
  EXPECT_GT(j1_block.get(trace::Counter::LexArenaBytes), 0u);
  EXPECT_GT(j1_block.get(trace::Counter::PpIncludes), 0u);
  EXPECT_GT(j1_block.get(trace::Counter::SemaClassInstantiations), 0u);
  EXPECT_GT(j1_block.get(trace::Counter::SemaBodiesInstantiated), 0u);
  EXPECT_GT(j1_block.get(trace::Counter::IlItems), 0u);
  EXPECT_EQ(j1_block.get(trace::Counter::DriverTus), inputs_.size());
  EXPECT_EQ(j1_block.get(trace::Counter::DiagErrors), 0u);
  // Per-template keyed dimension: Array<T> instantiates in every TU.
  const auto by_template =
      j1_block.keyed.find("sema.instantiations.by_template");
  ASSERT_NE(by_template, j1_block.keyed.end());
  EXPECT_GT(by_template->second.count("Array"), 0u);
}

TEST_F(StatsDeterminismTest, CountersIdenticalAcrossWarmAndColdCache) {
  const std::string baseline = runCounters(uncached_, 1);

  // Cold: every TU compiles and stores its counter sidecar. The cache
  // scan/fetch/store bookkeeping runs under a suppressing scope, so the
  // totals match the uncached run exactly.
  const std::string cold = runCounters(cached_, 1);
  EXPECT_EQ(baseline, cold);

  // Warm: every TU replays its sidecar instead of compiling.
  const std::string warm = runCounters(cached_, 1);
  EXPECT_EQ(baseline, warm);

  // Warm at a different -j still matches.
  const std::string warm_j4 = runCounters(cached_, 4);
  EXPECT_EQ(baseline, warm_j4);
}

TEST_F(StatsDeterminismTest, MixedHitMissRunMatchesToo) {
  const std::string baseline = runCounters(uncached_, 1);
  (void)runCounters(cached_, 1);  // populate the cache

  // Touch one TU: its key changes, the siblings still hit.
  {
    std::ofstream os(dir_ / "tu_mixed.cpp", std::ios::app);
    os << "double useMore() { return norm2(Array<double>(2)); }\n";
  }
  const std::string mixed = runCounters(cached_, 2);
  const std::string remeasured = runCounters(uncached_, 1);
  EXPECT_EQ(mixed, remeasured);
  EXPECT_NE(mixed, baseline);  // the edit really changed the counters
}

TEST_F(StatsDeterminismTest, DiagnosticTotalsAreCounted) {
  writeTU("tu_warn.cpp", R"cpp(
#warning count me
int useW() { return 1; }
)cpp");
  tools::DriverOptions options = uncached_;
  options.jobs = 1;
  const tools::DriverResult result = tools::compileAndMerge(inputs_, options);
  ASSERT_TRUE(result.success) << result.diagnostics;
  EXPECT_EQ(result.counters.get(trace::Counter::DiagWarnings), 1u);
  EXPECT_EQ(result.counters.get(trace::Counter::DiagErrors), 0u);
  const auto by_tu = result.counters.keyed.find("diag.warnings.by_tu");
  ASSERT_NE(by_tu, result.counters.keyed.end());
  EXPECT_EQ(by_tu->second.at((dir_ / "tu_warn.cpp").string()), 1u);
}

TEST_F(StatsDeterminismTest, CheckCountersIdenticalAcrossJobCounts) {
  const tools::DriverResult built = tools::compileAndMerge(inputs_, uncached_);
  ASSERT_TRUE(built.success) << built.diagnostics;
  const auto counters = [&](std::size_t jobs) {
    trace::CounterBlock block;
    {
      const trace::CounterScope scope(&block);
      analysis::CheckOptions options;
      options.jobs = jobs;
      EXPECT_TRUE(analysis::runChecks(*built.pdb, options).ok());
    }
    return block;
  };
  const trace::CounterBlock j1 = counters(1);
  EXPECT_EQ(j1.serialize(), counters(4).serialize());
  // The du index counts once per build: every stream of the database.
  EXPECT_EQ(j1.get(trace::Counter::DuStreams),
            built.pdb->raw().defUses().size());
  EXPECT_GT(j1.get(trace::Counter::DuStreams), 0u);
  EXPECT_GT(j1.get(trace::Counter::DataflowWorklistIterations),
            j1.get(trace::Counter::DuStreams));
}

}  // namespace
}  // namespace pdt
