// Unit tests for the content-addressed per-TU build cache: key
// derivation (content + options), hit/miss/store accounting through the
// driver, corruption fallback, and the size-capped LRU sweep.
#include "common/temp_dir.h"
#include "tools/build_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pdb/writer.h"
#include "tools/driver.h"

namespace pdt {
namespace {

namespace fs = std::filesystem;

/// A self-contained scratch project (its own header, no fixture inputs)
/// plus a cache directory, torn down per test.
class BuildCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::create_directories(dir_ / "cache");
    write("util.h", R"cpp(
#pragma once
template <class T>
T twice(T v) { return v + v; }
)cpp");
    writeTU("a.cpp", R"cpp(
#include "util.h"
int useA() { return twice(21); }
)cpp");
    writeTU("b.cpp", R"cpp(
#include "util.h"
double useB() { return twice(1.5); }
)cpp");
    options_.frontend.include_dirs.push_back(dir_.string());
    options_.cache.dir = (dir_ / "cache").string();
  }

  void write(const std::string& name, const std::string& text) {
    std::ofstream os(dir_ / name);
    os << text;
  }

  void writeTU(const std::string& name, const std::string& text) {
    write(name, text);
    inputs_.push_back((dir_ / name).string());
  }

  [[nodiscard]] std::string compileBytes(tools::DriverResult& out) {
    out = tools::compileAndMerge(inputs_, options_);
    EXPECT_TRUE(out.success) << out.diagnostics;
    return out.pdb ? pdb::writeToString(out.pdb->raw()) : std::string();
  }

  [[nodiscard]] std::vector<fs::path> cacheFiles(const std::string& ext) const {
    std::vector<fs::path> found;
    for (const auto& entry : fs::directory_iterator(dir_ / "cache"))
      if (entry.path().extension() == ext) found.push_back(entry.path());
    return found;
  }

  testutil::TempDir dir_{"pdt_cache_"};
  std::vector<std::string> inputs_;
  tools::DriverOptions options_;
};

TEST_F(BuildCacheTest, ColdRunMissesAndStoresWarmRunHits) {
  tools::DriverResult cold;
  const std::string cold_bytes = compileBytes(cold);
  EXPECT_EQ(cold.cache_stats.hits, 0u);
  EXPECT_EQ(cold.cache_stats.misses, 2u);
  EXPECT_EQ(cold.cache_stats.stores, 2u);
  EXPECT_EQ(cacheFiles(".pdb").size(), 2u);
  EXPECT_EQ(cacheFiles(".manifest").size(), 2u);
  // Every entry carries its counter sidecar (replayed on hit so --stats
  // matches across warm and cold runs).
  EXPECT_EQ(cacheFiles(".stats").size(), 2u);

  tools::DriverResult warm;
  const std::string warm_bytes = compileBytes(warm);
  EXPECT_EQ(warm.cache_stats.hits, 2u);
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  EXPECT_EQ(warm.cache_stats.stores, 0u);
  ASSERT_FALSE(cold_bytes.empty());
  EXPECT_EQ(cold_bytes, warm_bytes);
}

TEST_F(BuildCacheTest, DisabledCacheCountsNothing) {
  options_.cache = {};
  tools::DriverResult out;
  (void)compileBytes(out);
  EXPECT_EQ(out.cache_stats.hits, 0u);
  EXPECT_EQ(out.cache_stats.misses, 0u);
  EXPECT_EQ(out.cache_stats.stores, 0u);
}

TEST_F(BuildCacheTest, HeaderEditInvalidatesEveryIncluder) {
  tools::DriverResult cold;
  (void)compileBytes(cold);

  // Appending a line to the shared header changes both TUs' include
  // closures, so both keys change and both recompile.
  {
    std::ofstream os(dir_ / "util.h", std::ios::app);
    os << "template <class T> T thrice(T v) { return v + v + v; }\n";
  }
  tools::DriverResult dirty;
  (void)compileBytes(dirty);
  EXPECT_EQ(dirty.cache_stats.hits, 0u);
  EXPECT_EQ(dirty.cache_stats.misses, 2u);
  EXPECT_EQ(dirty.cache_stats.stores, 2u);

  // The edited tree now hits; the old entries stay (different keys).
  tools::DriverResult warm;
  (void)compileBytes(warm);
  EXPECT_EQ(warm.cache_stats.hits, 2u);
  EXPECT_EQ(cacheFiles(".pdb").size(), 4u);
}

TEST_F(BuildCacheTest, SingleTuEditLeavesSiblingCached) {
  tools::DriverResult cold;
  (void)compileBytes(cold);

  {
    std::ofstream os(dir_ / "a.cpp", std::ios::app);
    os << "int useA2() { return twice(2); }\n";
  }
  tools::DriverResult mixed;
  (void)compileBytes(mixed);
  EXPECT_EQ(mixed.cache_stats.hits, 1u);
  EXPECT_EQ(mixed.cache_stats.misses, 1u);
  EXPECT_EQ(mixed.cache_stats.stores, 1u);
}

TEST_F(BuildCacheTest, OptionsChangeInvalidates) {
  tools::DriverResult cold;
  (void)compileBytes(cold);

  // A new -D changes the canonical options text, hence every key — even
  // though no source file changed.
  options_.frontend.defines.emplace_back("EXTRA", "1");
  tools::DriverResult redefined;
  (void)compileBytes(redefined);
  EXPECT_EQ(redefined.cache_stats.hits, 0u);
  EXPECT_EQ(redefined.cache_stats.misses, 2u);
}

TEST_F(BuildCacheTest, CanonicalOptionsTextCoversOptions) {
  frontend::FrontendOptions fo;
  ilanalyzer::AnalyzerOptions ao;
  const std::string base = tools::canonicalOptionsText(fo, ao);

  frontend::FrontendOptions with_define = fo;
  with_define.defines.emplace_back("X", "2");
  EXPECT_NE(base, tools::canonicalOptionsText(with_define, ao));

  frontend::FrontendOptions with_dir = fo;
  with_dir.include_dirs.push_back("/some/dir");
  EXPECT_NE(base, tools::canonicalOptionsText(with_dir, ao));

  ilanalyzer::AnalyzerOptions flipped = ao;
  flipped.emit_uninstantiated_templates = !flipped.emit_uninstantiated_templates;
  EXPECT_NE(base, tools::canonicalOptionsText(fo, flipped));
}

TEST_F(BuildCacheTest, CacheKeyListsIncludeClosure) {
  SourceManager sm;
  const auto key = tools::computeCacheKey(sm, inputs_[0], options_.frontend,
                                          options_.analyzer);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->hex.size(), 32u);
  EXPECT_EQ(key->source, inputs_[0]);
  ASSERT_EQ(key->deps.size(), 2u);  // a.cpp + util.h
}

TEST_F(BuildCacheTest, ScanDiagnosticMakesTuUnkeyed) {
  // #warning succeeds compilation but emits a diagnostic; a cache hit
  // would skip the compile that re-emits it, so the TU must stay unkeyed
  // (never cached) and the warning must survive warm reruns.
  writeTU("warny.cpp", R"cpp(
#warning heads up
int useW() { return 1; }
)cpp");
  tools::DriverResult cold;
  (void)compileBytes(cold);
  EXPECT_EQ(cold.cache_stats.unkeyed, 1u);
  EXPECT_EQ(cold.cache_stats.stores, 2u);
  EXPECT_NE(cold.diagnostics.find("heads up"), std::string::npos);

  tools::DriverResult warm;
  (void)compileBytes(warm);
  EXPECT_EQ(warm.cache_stats.hits, 2u);
  EXPECT_EQ(warm.cache_stats.unkeyed, 1u);
  EXPECT_EQ(warm.diagnostics, cold.diagnostics);
}

TEST_F(BuildCacheTest, TruncatedPdbEntryIsEvictedAndRecompiled) {
  tools::DriverResult cold;
  const std::string cold_bytes = compileBytes(cold);

  for (const fs::path& pdb_file : cacheFiles(".pdb")) {
    std::ofstream os(pdb_file, std::ios::binary | std::ios::trunc);
    os << "PDB 1.0\n";  // valid-looking prefix, truncated body
  }
  tools::DriverResult rerun;
  const std::string rerun_bytes = compileBytes(rerun);
  EXPECT_EQ(rerun.cache_stats.hits, 0u);
  EXPECT_EQ(rerun.cache_stats.evictions, 2u);
  EXPECT_EQ(rerun.cache_stats.misses, 2u);
  EXPECT_EQ(rerun.cache_stats.stores, 2u);
  EXPECT_EQ(cold_bytes, rerun_bytes);
}

TEST_F(BuildCacheTest, UnmappableEntryIsEvictedAndRecompiled) {
  tools::DriverResult cold;
  const std::string cold_bytes = compileBytes(cold);

  // A torn entry whose bytes cannot even be opened/mapped (here: the
  // value path is not a regular file at all) must route to the same
  // evict-and-recompile fallback as a corrupt-but-readable one.
  for (const fs::path& pdb_file : cacheFiles(".pdb")) {
    fs::remove(pdb_file);
    fs::create_directory(pdb_file);
  }
  tools::DriverResult rerun;
  const std::string rerun_bytes = compileBytes(rerun);
  EXPECT_EQ(rerun.cache_stats.hits, 0u);
  EXPECT_EQ(rerun.cache_stats.evictions, 2u);
  EXPECT_EQ(rerun.cache_stats.misses, 2u);
  EXPECT_EQ(cold_bytes, rerun_bytes);
}

TEST_F(BuildCacheTest, GarbageManifestIsEvictedAndRecompiled) {
  tools::DriverResult cold;
  const std::string cold_bytes = compileBytes(cold);

  for (const fs::path& manifest : cacheFiles(".manifest")) {
    std::ofstream os(manifest, std::ios::binary | std::ios::trunc);
    os << "not|a|manifest\n";
  }
  tools::DriverResult rerun;
  const std::string rerun_bytes = compileBytes(rerun);
  EXPECT_EQ(rerun.cache_stats.hits, 0u);
  EXPECT_EQ(rerun.cache_stats.evictions, 2u);
  EXPECT_EQ(cold_bytes, rerun_bytes);

  tools::DriverResult warm;
  (void)compileBytes(warm);
  EXPECT_EQ(warm.cache_stats.hits, 2u);
}

TEST_F(BuildCacheTest, MissingCounterSidecarIsEvictedAndRecompiled) {
  tools::DriverResult cold;
  const std::string cold_bytes = compileBytes(cold);

  // Without its sidecar an entry cannot replay the compile's counters, so
  // it is treated like any other corrupt entry: evict and recompile.
  for (const fs::path& stats_file : cacheFiles(".stats"))
    fs::remove(stats_file);
  tools::DriverResult rerun;
  const std::string rerun_bytes = compileBytes(rerun);
  EXPECT_EQ(rerun.cache_stats.hits, 0u);
  EXPECT_EQ(rerun.cache_stats.evictions, 2u);
  EXPECT_EQ(rerun.cache_stats.misses, 2u);
  EXPECT_EQ(rerun.cache_stats.stores, 2u);
  EXPECT_EQ(cold_bytes, rerun_bytes);
  // Counters of the recompiled run match the cold run (evict path counts
  // nothing of its own).
  EXPECT_EQ(cold.counters.serialize(), rerun.counters.serialize());

  tools::DriverResult warm;
  (void)compileBytes(warm);
  EXPECT_EQ(warm.cache_stats.hits, 2u);
  EXPECT_EQ(warm.cache_stats.revalidations, 2u);
  EXPECT_EQ(warm.counters.serialize(), cold.counters.serialize());
}

TEST_F(BuildCacheTest, SweepEvictsOldestStampFirst) {
  // Hand-craft three 900 KiB entries with distinct stamps; a 2 MiB cap
  // must evict exactly the oldest (2700 KiB over, 1800 KiB after).
  const fs::path cache_dir = dir_ / "cache";
  const std::string payload(900u << 10, 'x');
  const auto make_entry = [&](const std::string& key, std::uint64_t stamp) {
    std::ofstream pdb(cache_dir / (key + ".pdb"), std::ios::binary);
    pdb << payload;
    std::ofstream manifest(cache_dir / (key + ".manifest"));
    manifest << key << '|' << stamp << '|' << payload.size() << "|src.cpp|src.cpp\n";
  };
  make_entry("aaaa", 100);
  make_entry("bbbb", 300);
  make_entry("cccc", 200);

  tools::CacheOptions capped;
  capped.dir = cache_dir.string();
  capped.limit_mb = 2;
  const tools::BuildCache cache(capped);
  EXPECT_GT(cache.totalSizeBytes(), 2u << 20);
  EXPECT_EQ(cache.sweep(), 1u);
  EXPECT_FALSE(fs::exists(cache_dir / "aaaa.pdb"));
  EXPECT_FALSE(fs::exists(cache_dir / "aaaa.manifest"));
  EXPECT_TRUE(fs::exists(cache_dir / "bbbb.pdb"));
  EXPECT_TRUE(fs::exists(cache_dir / "cccc.pdb"));
  EXPECT_LE(cache.totalSizeBytes(), 2u << 20);
}

TEST_F(BuildCacheTest, SweepIsNoOpWithoutLimit) {
  tools::DriverResult cold;
  (void)compileBytes(cold);
  const tools::BuildCache cache(options_.cache);  // limit_mb == 0
  EXPECT_EQ(cache.sweep(), 0u);
  EXPECT_EQ(cacheFiles(".pdb").size(), 2u);
}

}  // namespace
}  // namespace pdt
