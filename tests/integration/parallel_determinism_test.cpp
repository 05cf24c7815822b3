// Determinism tests for the parallel compilation pipeline: a multi-TU
// compile at -j 4 and a tree-reduction pdbmerge must produce output that
// is byte-identical to the serial run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "ductape/ductape.h"
#include "pdb/writer.h"
#include "pdt/pdt_paths.h"
#include "tools/driver.h"
#include "tools/tools.h"

namespace pdt {
namespace {

namespace fs = std::filesystem;

/// A scratch project of several TUs sharing the pooma_mini headers, so the
/// merged database contains duplicate template instantiations for the
/// merge to eliminate — the workload the paper's pdbmerge exists for.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
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
template <class T>
T tripleDot(const Array<T>& a, const Array<T>& b) {
  return dot(a, b) + dot(b, a) + dot(a, a);
}
double useMixed() {
  Array<double> a(4);
  Array<double> b(4);
  a.fill(3.0);
  b.fill(4.0);
  return tripleDot(a, b);
}
)cpp");
    options_.frontend.include_dirs.push_back(std::string(paths::kInputDir) +
                                             "/pooma_mini");
  }

  void writeTU(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream os(path);
    os << text;
    inputs_.push_back(path.string());
  }

  testutil::TempDir dir_{"pdt_par_det_"};
  std::vector<std::string> inputs_;
  tools::DriverOptions options_;
};

TEST_F(ParallelDeterminismTest, CompileAndMergeIsByteIdenticalAcrossJobs) {
  tools::DriverOptions serial = options_;
  serial.jobs = 1;
  const tools::DriverResult one = tools::compileAndMerge(inputs_, serial);
  ASSERT_TRUE(one.success) << one.diagnostics;

  tools::DriverOptions parallel = options_;
  parallel.jobs = 4;
  const tools::DriverResult four = tools::compileAndMerge(inputs_, parallel);
  ASSERT_TRUE(four.success) << four.diagnostics;

  EXPECT_EQ(one.diagnostics, four.diagnostics);
  const std::string serial_bytes = pdb::writeToString(one.pdb->raw());
  const std::string parallel_bytes = pdb::writeToString(four.pdb->raw());
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST_F(ParallelDeterminismTest, TreeReductionMergeMatchesLeftFold) {
  // Compile each TU to its own PDB, then merge the set serially (left
  // fold) and with the parallel tree reduction; the results must agree
  // byte for byte.
  tools::DriverOptions unit_options = options_;
  unit_options.jobs = 1;
  std::vector<ductape::PDB> fold_inputs;
  std::vector<ductape::PDB> tree_inputs;
  for (const std::string& input : inputs_) {
    // PDB is move-only, so compile each TU once per input set.
    tools::DriverResult fold_unit = tools::compileAndMerge({input}, unit_options);
    ASSERT_TRUE(fold_unit.success) << fold_unit.diagnostics;
    fold_inputs.push_back(std::move(*fold_unit.pdb));
    tools::DriverResult tree_unit = tools::compileAndMerge({input}, unit_options);
    ASSERT_TRUE(tree_unit.success) << tree_unit.diagnostics;
    tree_inputs.push_back(std::move(*tree_unit.pdb));
  }

  const ductape::PDB fold = tools::pdbmerge(std::move(fold_inputs), 1);
  const ductape::PDB tree = tools::pdbmerge(std::move(tree_inputs), 4);
  const std::string fold_bytes = pdb::writeToString(fold.raw());
  const std::string tree_bytes = pdb::writeToString(tree.raw());
  ASSERT_FALSE(fold_bytes.empty());
  EXPECT_EQ(fold_bytes, tree_bytes);
}

TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAreStable) {
  // Two -j 4 runs over the same inputs must agree with each other: no
  // dependence on scheduling, interning order, or allocator state.
  tools::DriverOptions parallel = options_;
  parallel.jobs = 4;
  const tools::DriverResult first = tools::compileAndMerge(inputs_, parallel);
  ASSERT_TRUE(first.success) << first.diagnostics;
  const tools::DriverResult second = tools::compileAndMerge(inputs_, parallel);
  ASSERT_TRUE(second.success) << second.diagnostics;
  EXPECT_EQ(pdb::writeToString(first.pdb->raw()),
            pdb::writeToString(second.pdb->raw()));
}

}  // namespace
}  // namespace pdt
