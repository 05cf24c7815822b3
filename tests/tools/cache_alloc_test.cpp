// Allocation test for a build-cache hit: fetch() must hand back the
// records its read of the entry produced, not a copy of them. A counting
// global operator new tallies the allocations of exactly the byte size of
// one section's record array; a hit may make no more of them than opening
// the entry file alone does (the read's own array), where a copy would
// add one per section.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "common/temp_dir.h"
#include "pdb/pdb.h"
#include "pdb/snapshot.h"
#include "support/trace.h"
#include "tools/build_cache.h"
#include "tools/synth.h"

namespace {

std::atomic<std::size_t> g_watched_bytes{0};  // 0: count nothing
std::atomic<std::size_t> g_watched_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (size != 0 && size == g_watched_bytes.load(std::memory_order_relaxed))
    g_watched_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pdt::tools {
namespace {

/// Allocations of exactly `bytes` bytes made while `run` executes.
template <typename Fn>
std::size_t allocationsOf(std::size_t bytes, Fn&& run) {
  g_watched_allocations.store(0);
  g_watched_bytes.store(bytes);
  run();
  g_watched_bytes.store(0);
  return g_watched_allocations.load();
}

TEST(BuildCacheAlloc, HitReturnsTheEntrysRecordsWithoutACopy) {
  const testutil::TempDir dir{"pdt_cache_alloc_"};
  const BuildCache cache(CacheOptions{dir.string(), 0});
  CacheKey key;
  key.hex = "00112233445566778899aabbccddeeff";
  key.source = "unit.cpp";
  CacheStats stats;
  const pdb::PdbFile unit = synthUnit(0);
  cache.store(key, unit, trace::CounterBlock{}, stats);
  ASSERT_EQ(stats.stores, 1u);
  const std::string entry = (dir / (key.hex + ".pdb")).string();

  ASSERT_GT(unit.routines().size(), 1u);
  ASSERT_GT(unit.classes().size(), 1u);
  ASSERT_GT(unit.templates().size(), 1u);
  const std::size_t sections[] = {
      unit.routines().size() * sizeof(pdb::RoutineItem),
      unit.classes().size() * sizeof(pdb::ClassItem),
      unit.templates().size() * sizeof(pdb::TemplateItem),
  };
  for (const std::size_t bytes : sections) {
    const std::size_t by_open =
        allocationsOf(bytes, [&] { (void)pdb::open(entry); });
    std::optional<pdb::PdbFile> fetched;
    const std::size_t by_hit =
        allocationsOf(bytes, [&] { fetched = cache.fetch(key, stats); });
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(by_hit, by_open) << "record array of " << bytes << " bytes";
  }
  EXPECT_EQ(stats.hits, 3u);
}

}  // namespace
}  // namespace pdt::tools
