// Allocation regression test for DefUseIndex: building (and tearing down)
// the index over a database must allocate per database, not per stream.
// A counting global operator new tallies every heap allocation in this
// binary; the index is built over synthetic databases of 200 and 2,000
// streams of the same shapes, and the larger one may only add the
// reallocations of amortized vector growth, not a few per stream.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

#include "analysis/du_index.h"
#include "ductape/ductape.h"
#include "pdb/pdb.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pdt::analysis {
namespace {

using pdb::DefUseItem;
using pdb::DuOp;

DefUseItem::Event ev(DuOp op, std::string_view name, std::uint8_t flags = 0) {
  return {op, flags, name, {1, 1, 1}};
}
DefUseItem::Event def(std::string_view v) { return ev(DuOp::Def, v); }
DefUseItem::Event use(std::string_view v) { return ev(DuOp::Use, v); }
DefUseItem::Event mark(std::string_view m) { return ev(DuOp::Marker, m); }

/// A few routine shapes covering branches, loops, switches and an
/// irregular stream; database i uses shape i % size.
std::vector<std::vector<DefUseItem::Event>> shapes() {
  return {
      {ev(DuOp::Def, "x", pdb::du::kUninit), use("c"), mark("then"), def("x"),
       mark("else"), def("x"), mark("endif"), use("x"), mark("ret")},
      {def("i"), mark("loop"), use("i"), use("n"), mark("body"), use("s"),
       use("i"), def("s"), mark("break"), def("i"), mark("endloop"), use("s")},
      {use("k"), mark("switch"), mark("case"), def("y"), mark("break"),
       mark("case"), def("y"), mark("default"), def("z"), mark("endswitch"),
       use("y"), use("z")},
      {def("p"), mark("doloop"), mark("body"), use("p"), def("p"),
       mark("continue"), use("p"), mark("endloop"), use("p")},
      {def("x"), mark("irregular"), use("x")},
  };
}

pdb::PdbFile syntheticDb(int streams) {
  const auto kinds = shapes();
  pdb::PdbFile file;
  for (int i = 0; i < streams; ++i) {
    DefUseItem item;
    item.events = kinds[static_cast<std::size_t>(i) % kinds.size()];
    file.addDefUse(std::move(item));
  }
  return file;
}

/// Heap allocations made by building the index over `pdb` and dropping it.
std::size_t allocationsToBuild(const ductape::PDB& pdb) {
  (void)pdb.getFileVec();  // the object graph is not the index's cost
  const std::size_t before = g_allocations.load();
  {
    const auto index = DefUseIndex::build(pdb);
    EXPECT_EQ(index->streams().size(), pdb.raw().defUses().size());
  }
  return g_allocations.load() - before;
}

TEST(DefUseIndexAllocations, DoNotGrowWithTheStreamCount) {
  const ductape::PDB small = ductape::PDB::fromPdbFile(syntheticDb(200));
  const ductape::PDB large = ductape::PDB::fromPdbFile(syntheticDb(2000));
  const std::size_t small_allocs = allocationsToBuild(small);
  const std::size_t large_allocs = allocationsToBuild(large);
  RecordProperty("allocations_200", static_cast<int>(small_allocs));
  RecordProperty("allocations_2000", static_cast<int>(large_allocs));
  // Ten times the data costs each of the index's ~20 flat arrays at most
  // four more doublings; one allocation per stream would add 1,800.
  EXPECT_LE(large_allocs, small_allocs + 80)
      << "200 streams: " << small_allocs << " allocations, 2000 streams: "
      << large_allocs;
}

}  // namespace
}  // namespace pdt::analysis
