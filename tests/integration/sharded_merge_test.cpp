// The external sharded merge must be invisible: whatever the job count
// and however small the memory budget (i.e. however many spill round
// trips happen), shardedMergeFiles produces a database byte-identical to
// the in-memory tools::pdbmerge over the same inputs, and its run-scoped
// spill directory is gone afterward — on failure too.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "ductape/ductape.h"
#include "pdb/format.h"
#include "pdb/writer.h"
#include "tools/shard_merge.h"
#include "tools/synth.h"
#include "tools/tools.h"

namespace pdt::tools {
namespace {

namespace fs = std::filesystem;

class ShardedMergeTest : public ::testing::Test {
 protected:
  static constexpr int kUnits = 24;

  void SetUp() override {
    for (int i = 0; i < kUnits; ++i) {
      const fs::path path = dir_ / ("tu" + std::to_string(i) + ".pdb");
      ASSERT_TRUE(pdb::writeFile(synthUnit(i), path.string(),
                                 pdb::Format::Binary));
      inputs_.push_back(path.string());
      total_input_bytes_ += fs::file_size(path);
    }
  }

  /// The in-memory merge's canonical serialization — the byte-identity
  /// reference for every sharded configuration.
  [[nodiscard]] std::string inMemoryAscii() const {
    std::vector<ductape::PDB> loaded;
    for (const std::string& path : inputs_) {
      loaded.push_back(ductape::PDB::read(path));
      EXPECT_TRUE(loaded.back().valid()) << loaded.back().errorMessage();
    }
    return pdb::writeToString(pdbmerge(std::move(loaded)).raw());
  }

  [[nodiscard]] std::string tempDir() const {
    return (dir_ / "merge.tmp").string();
  }

  testutil::TempDir dir_{"pdt_shard_"};
  std::vector<std::string> inputs_;
  std::uint64_t total_input_bytes_ = 0;
};

TEST_F(ShardedMergeTest, ByteIdenticalAcrossJobsAndBudgets) {
  const std::string reference = inMemoryAscii();
  // Budgets: unlimited, roomy, and one well below the total input size
  // (so partials must spill to stay under it).
  const std::uint64_t budgets[] = {0, total_input_bytes_ * 4,
                                   total_input_bytes_ / 6};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{5}, std::size_t{8}}) {
    for (const std::uint64_t budget : budgets) {
      ShardedMergeOptions opts;
      opts.jobs = jobs;
      opts.mem_budget_bytes = budget;
      opts.temp_dir = tempDir();
      const ShardedMergeResult result = shardedMergeFiles(inputs_, opts);
      ASSERT_TRUE(result.ok())
          << "jobs=" << jobs << " budget=" << budget << ": "
          << (result.errors.empty() ? "?" : result.errors.front());
      EXPECT_EQ(pdb::writeToString(result.merged->raw()), reference)
          << "jobs=" << jobs << " budget=" << budget;
      EXPECT_EQ(result.stats.shards, std::min<std::uint64_t>(jobs, kUnits));
      EXPECT_FALSE(fs::exists(tempDir()))
          << "spill dir survived jobs=" << jobs << " budget=" << budget;
    }
  }
}

TEST_F(ShardedMergeTest, TinyBudgetForcesSpillsWithoutChangingBytes) {
  const std::string reference = inMemoryAscii();
  ShardedMergeOptions opts;
  opts.jobs = 2;
  // Each worker's slice is smaller than any two inputs combined, so
  // every shard fold has to spill repeatedly.
  opts.mem_budget_bytes = (total_input_bytes_ / kUnits) * 3;
  opts.temp_dir = tempDir();
  const ShardedMergeResult result = shardedMergeFiles(inputs_, opts);
  ASSERT_TRUE(result.ok())
      << (result.errors.empty() ? "?" : result.errors.front());
  EXPECT_GT(result.stats.spills, 0u);
  EXPECT_EQ(pdb::writeToString(result.merged->raw()), reference);
  EXPECT_FALSE(fs::exists(tempDir()));
}

TEST_F(ShardedMergeTest, UnlimitedBudgetNeverSpills) {
  ShardedMergeOptions opts;
  opts.jobs = 4;
  opts.temp_dir = tempDir();
  const ShardedMergeResult result = shardedMergeFiles(inputs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.stats.spills, 0u);
  EXPECT_FALSE(fs::exists(tempDir()));
}

TEST_F(ShardedMergeTest, BadInputIsReportedInOrderAndTempDirIsCleaned) {
  // Corrupt the middle input; keep a second, later bad input to check
  // the errors come back in input order even across shards.
  {
    std::ofstream os(inputs_[kUnits / 2], std::ios::binary | std::ios::trunc);
    os << "not a database";
  }
  {
    std::ofstream os(inputs_[kUnits - 1],
                     std::ios::binary | std::ios::trunc);
    os << "also not a database";
  }
  ShardedMergeOptions opts;
  opts.jobs = 3;
  opts.mem_budget_bytes = total_input_bytes_ / 6;  // spill dir gets created
  opts.temp_dir = tempDir();
  const ShardedMergeResult result = shardedMergeFiles(inputs_, opts);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_NE(result.errors[0].find("tu" + std::to_string(kUnits / 2)),
            std::string::npos)
      << result.errors[0];
  EXPECT_NE(result.errors[1].find("tu" + std::to_string(kUnits - 1)),
            std::string::npos)
      << result.errors[1];
  EXPECT_FALSE(fs::exists(tempDir())) << "spill dir survived failed merge";
}

}  // namespace
}  // namespace pdt::tools
