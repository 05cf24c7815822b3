// The build cache's hard invariant (ISSUE: cached, uncached, and mixed
// hit/miss runs at any -j produce byte-identical merged PDB output),
// exercised over the pooma_mini template workload at -j 1 and -j 4.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "pdb/writer.h"
#include "pdt/pdt_paths.h"
#include "tools/driver.h"

namespace pdt {
namespace {

namespace fs = std::filesystem;

/// The parallel-determinism scratch project (several TUs over the
/// pooma_mini headers) plus a cache directory.
class CacheDeterminismTest : public ::testing::Test {
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
    writeTU("tu_solver.cpp", R"cpp(
#include "Array.h"
#include "CG.h"
int useSolver() {
  Array<float> x(4);
  Array<float> rhs(4);
  rhs.fill(1.0f);
  Laplace1D<float> laplace(4);
  CGSolver<float> solver(10, 0.001f);
  return solver.solve(laplace, x, rhs);
}
)cpp");
    writeTU("tu_mixed.cpp", R"cpp(
#include "Array.h"
#include "BLAS1.h"
double useMixed() {
  Array<double> a(4);
  Array<double> b(4);
  a.fill(3.0);
  b.fill(4.0);
  return dot(a, b);
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

  [[nodiscard]] std::string run(tools::DriverOptions options, std::size_t jobs,
                                tools::CacheStats* stats = nullptr) {
    options.jobs = jobs;
    const tools::DriverResult result = tools::compileAndMerge(inputs_, options);
    EXPECT_TRUE(result.success) << result.diagnostics;
    if (stats != nullptr) *stats = result.cache_stats;
    return result.pdb ? pdb::writeToString(result.pdb->raw()) : std::string();
  }

  testutil::TempDir dir_{"pdt_cache_det_"};
  std::vector<std::string> inputs_;
  tools::DriverOptions cached_;
  tools::DriverOptions uncached_;
};

TEST_F(CacheDeterminismTest, ColdWarmAndUncachedAgreeAtJ1) {
  const std::string baseline = run(uncached_, 1);
  ASSERT_FALSE(baseline.empty());

  tools::CacheStats cold_stats;
  const std::string cold = run(cached_, 1, &cold_stats);
  EXPECT_EQ(cold_stats.misses, 4u);
  EXPECT_EQ(cold_stats.stores, 4u);
  EXPECT_EQ(baseline, cold);

  tools::CacheStats warm_stats;
  const std::string warm = run(cached_, 1, &warm_stats);
  EXPECT_EQ(warm_stats.hits, 4u);
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(baseline, warm);
}

TEST_F(CacheDeterminismTest, ConcurrentWritersAtJ4StayByteIdentical) {
  // Cold at -j 4: the four workers compute, store, and publish
  // concurrently into one directory. Warm at -j 4 reads those entries
  // back. Both must equal the serial uncached run byte for byte.
  const std::string baseline = run(uncached_, 1);
  ASSERT_FALSE(baseline.empty());

  tools::CacheStats cold_stats;
  const std::string cold = run(cached_, 4, &cold_stats);
  EXPECT_EQ(cold_stats.stores, 4u);
  EXPECT_EQ(baseline, cold);

  tools::CacheStats warm_stats;
  const std::string warm = run(cached_, 4, &warm_stats);
  EXPECT_EQ(warm_stats.hits, 4u);
  EXPECT_EQ(baseline, warm);
}

TEST_F(CacheDeterminismTest, MixedHitMissRunMatchesUncached) {
  (void)run(cached_, 4);  // populate

  // Dirty one TU (a trailing comment: content changes, code does not).
  {
    std::ofstream os(fs::path(inputs_[2]), std::ios::app);
    os << "// solver tweaked\n";
  }
  const std::string baseline = run(uncached_, 1);
  ASSERT_FALSE(baseline.empty());

  tools::CacheStats mixed_stats;
  const std::string mixed_j1 = run(cached_, 1, &mixed_stats);
  EXPECT_EQ(mixed_stats.hits, 3u);
  EXPECT_EQ(mixed_stats.misses, 1u);
  EXPECT_EQ(mixed_stats.stores, 1u);
  EXPECT_EQ(baseline, mixed_j1);

  const std::string warm_j4 = run(cached_, 4);
  EXPECT_EQ(baseline, warm_j4);
}

TEST_F(CacheDeterminismTest, CorruptEntryUnderParallelRunStaysCorrect) {
  (void)run(cached_, 4);  // populate

  // Truncate every cached value; the -j 4 rerun must evict, recompile,
  // and still match the uncached serial output.
  for (const auto& entry : fs::directory_iterator(dir_ / "cache"))
    if (entry.path().extension() == ".pdb") {
      std::ofstream os(entry.path(), std::ios::binary | std::ios::trunc);
      os << "garbage";
    }
  const std::string baseline = run(uncached_, 1);
  tools::CacheStats stats;
  const std::string recovered = run(cached_, 4, &stats);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(baseline, recovered);
}

}  // namespace
}  // namespace pdt
