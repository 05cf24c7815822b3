// Allocation test for the DUCTAPE graph build: call edges live in one
// array sized up front, not in a heap object each. A counting global
// operator new tallies the allocations of exactly sizeof(pdbCall) bytes
// while the graph is built over a database with many call edges per
// routine; a build that allocated per edge would make at least one per
// edge.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "ductape/ductape.h"

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

namespace pdt::ductape {
namespace {

constexpr std::uint32_t kRoutines = 64;
constexpr std::uint32_t kCallsEach = 16;

/// Routine i calls the kCallsEach routines after it (wrapping), so every
/// routine has kCallsEach callees and as many callers.
pdb::PdbFile ringOfCalls() {
  pdb::PdbFile raw;
  for (std::uint32_t i = 0; i < kRoutines; ++i) {
    pdb::RoutineItem r;
    r.name = pdb::PdbFile::intern("r" + std::to_string(i));
    for (std::uint32_t k = 1; k <= kCallsEach; ++k)
      r.calls.push_back({(i + k) % kRoutines + 1, false, {}});
    raw.addRoutine(std::move(r));
  }
  return raw;
}

TEST(GraphAlloc, CallEdgesAreNotHeapObjects) {
  pdb::PdbFile raw = ringOfCalls();
  g_watched_allocations.store(0);
  g_watched_bytes.store(sizeof(pdbCall));
  const PDB pdb = PDB::fromPdbFile(std::move(raw));
  const PDB::routinevec& routines = pdb.getRoutineVec();
  g_watched_bytes.store(0);

  ASSERT_EQ(routines.size(), kRoutines);
  for (const pdbRoutine* r : routines) {
    ASSERT_EQ(r->callees().size(), kCallsEach);
    ASSERT_EQ(r->callers().size(), kCallsEach);
  }
  // A routine's callers vector may pass through one block of this size
  // as it grows; a per-edge allocation would add kCallsEach per routine.
  EXPECT_LE(g_watched_allocations.load(), kRoutines)
      << "edges: " << kRoutines * kCallsEach;
}

}  // namespace
}  // namespace pdt::ductape
