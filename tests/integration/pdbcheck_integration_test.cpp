// pdbcheck integration tests: the whole-program analyzer over merged
// multi-TU databases built from the real pooma_mini/krylov inputs.
//
//  - a clean merged program produces zero findings (no false positives),
//  - seeded true positives (a known-dead routine, a known include cycle)
//    are found,
//  - -j N output is byte-identical to -j 1,
//  - the installed pdbcheck/pdbmerge binaries reject databases with
//    dangling item references with a clear message and non-zero exit.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "common/temp_dir.h"
#include "ductape/ductape.h"
#include "pdb/writer.h"
#include "pdt/pdt_paths.h"
#include "tools/driver.h"
#include "tools/tools.h"

namespace pdt {
namespace {

namespace fs = std::filesystem;

class PdbcheckIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.frontend.include_dirs.push_back(std::string(paths::kInputDir) +
                                             "/pooma_mini");
    options_.frontend.include_dirs.push_back(std::string(paths::kRuntimeDir) +
                                             "/pdt_stl");
    options_.frontend.include_dirs.push_back(dir_.string());
    krylov_ = std::string(paths::kInputDir) + "/pooma_mini/krylov.cpp";
  }

  std::string writeFile(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream os(path);
    os << text;
    return path.string();
  }

  /// Compiles and merges `inputs`, failing the test on any diagnostic.
  ductape::PDB compile(const std::vector<std::string>& inputs) {
    tools::DriverResult result = tools::compileAndMerge(inputs, options_);
    EXPECT_TRUE(result.success) << result.diagnostics;
    return std::move(*result.pdb);
  }

  /// A TU with two seeded defects: orphanHelper is called by nobody, and
  /// ring_a.h/ring_b.h include each other.
  std::string writeSeededTU() {
    writeFile("ring_a.h",
              "#pragma once\n#include \"ring_b.h\"\nextern \"C\" int ringEntry();\n");
    writeFile("ring_b.h",
              "#pragma once\n#include \"ring_a.h\"\nint ringSpoke();\n");
    // ringEntry is extern "C" — part of the exported surface, so it is a
    // reachability root and NOT dead; orphanHelper is the one dead routine.
    return writeFile("seeded.cpp", R"cpp(
#include "ring_a.h"
extern "C" int ringEntry() { return 1; }
int orphanHelper(int v) { return v * 2; }
)cpp");
  }

  int runBinary(const std::string& tool, const std::string& args,
                std::string* output = nullptr) {
    const fs::path out = dir_ / (tool + ".out");
    const std::string cmd = std::string(paths::kBinaryDir) + "/src/tools/" +
                            tool + " " + args + " > " + out.string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (output != nullptr) {
      std::ifstream is(out);
      std::stringstream ss;
      ss << is.rdbuf();
      *output = ss.str();
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  testutil::TempDir dir_{"pdt_pdbcheck_"};
  std::string krylov_;
  tools::DriverOptions options_;
};

TEST_F(PdbcheckIntegrationTest, CleanMergedProgramHasNoFindings) {
  // The pooma_mini conjugate-gradient program is correct code: every
  // routine is reachable from main, every include is used, there are no
  // cycles. Anything pdbcheck reports here is a false positive.
  const ductape::PDB pdb = compile({krylov_});
  const analysis::CheckResult result = analysis::runChecks(pdb, {});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.warnings, 0) << [&] {
    std::ostringstream os;
    analysis::renderText(result, os);
    return os.str();
  }();
  EXPECT_FALSE(result.hasFindings());
}

TEST_F(PdbcheckIntegrationTest, SeededDefectsAreFoundWithoutFalsePositives) {
  const ductape::PDB pdb = compile({krylov_, writeSeededTU()});
  const analysis::CheckResult result = analysis::runChecks(pdb, {});
  ASSERT_TRUE(result.ok()) << result.error;

  bool found_dead = false;
  bool found_cycle = false;
  for (const analysis::Diag& d : result.diags) {
    if (d.severity != analysis::Severity::Warning) continue;
    if (d.message.find("'orphanHelper' is unreachable") != std::string::npos) {
      found_dead = true;
    } else if (d.message.find("include cycle") != std::string::npos &&
               d.message.find("ring_a.h") != std::string::npos &&
               d.message.find("ring_b.h") != std::string::npos) {
      found_cycle = true;
    } else {
      ADD_FAILURE() << "false positive: " << d.message;
    }
  }
  EXPECT_TRUE(found_dead);
  EXPECT_TRUE(found_cycle);
}

TEST_F(PdbcheckIntegrationTest, ParallelRuleRunsAreByteIdentical) {
  const ductape::PDB pdb = compile({krylov_, writeSeededTU()});
  analysis::CheckOptions serial;
  analysis::CheckOptions parallel;
  parallel.jobs = 4;
  for (const auto format : {analysis::CheckOptions::Format::Text,
                            analysis::CheckOptions::Format::Json}) {
    serial.format = parallel.format = format;
    std::ostringstream one, four;
    analysis::render(analysis::runChecks(pdb, serial), serial, one);
    analysis::render(analysis::runChecks(pdb, parallel), parallel, four);
    ASSERT_FALSE(one.str().empty());
    EXPECT_EQ(one.str(), four.str());
  }
}

TEST_F(PdbcheckIntegrationTest, BinaryExitCodesAndCorruptInputRejection) {
  // Build one clean and one corrupt database on disk.
  const ductape::PDB pdb = compile({krylov_});
  const std::string clean = (dir_ / "clean.pdb").string();
  ASSERT_TRUE(pdb.write(clean));

  pdb::PdbFile corrupt_raw = pdb.raw();
  ASSERT_FALSE(corrupt_raw.routines().empty());
  pdb::RoutineItem::Call dangling;
  dangling.routine = 424242;
  corrupt_raw.routines()[0].calls.push_back(dangling);
  const std::string corrupt = writeFile("corrupt.pdb",
                                        pdb::writeToString(corrupt_raw));

  std::string output;
  // Clean program: exit 0.
  EXPECT_EQ(runBinary("pdbcheck", clean, &output), 0) << output;
  // Corrupt input: exit 3 with a clear refusal naming the dangling id.
  EXPECT_EQ(runBinary("pdbcheck", corrupt, &output), 3);
  EXPECT_NE(output.find("undefined ro#424242"), std::string::npos) << output;
  EXPECT_NE(output.find("refusing to analyze"), std::string::npos) << output;
  // Usage error: exit 2.
  EXPECT_EQ(runBinary("pdbcheck", "--no-such-flag", &output), 2);
  // pdbmerge refuses the same corrupt database non-zero (satellite of the
  // same referential-integrity guarantee).
  const std::string merged = (dir_ / "merged.pdb").string();
  EXPECT_EQ(runBinary("pdbmerge", corrupt + " " + clean + " -o " + merged,
                      &output),
            1);
  EXPECT_NE(output.find("refusing to merge"), std::string::npos) << output;
  EXPECT_FALSE(fs::exists(merged));
}

TEST_F(PdbcheckIntegrationTest, BinaryFindingsExitOneWithSortedOutput) {
  const ductape::PDB pdb = compile({krylov_, writeSeededTU()});
  const std::string seeded = (dir_ / "seeded.pdb").string();
  ASSERT_TRUE(pdb.write(seeded));

  std::string one, four;
  EXPECT_EQ(runBinary("pdbcheck", seeded + " -j 1", &one), 1);
  EXPECT_EQ(runBinary("pdbcheck", seeded + " -j 4", &four), 1);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("[dead-code]"), std::string::npos) << one;
  EXPECT_NE(one.find("[include-graph]"), std::string::npos) << one;

  std::string json;
  EXPECT_EQ(runBinary("pdbcheck", seeded + " --format=json", &json), 1);
  EXPECT_NE(json.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(json.find("\"ruleId\": \"dead-code\""), std::string::npos);
}

}  // namespace
}  // namespace pdt
