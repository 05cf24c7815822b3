#include "pdb/snapshot.h"

#include <atomic>
#include <utility>

#include "support/mmap_buffer.h"
#include "support/trace.h"

namespace pdt::pdb {
namespace {

// Generations are process-unique and monotone; 0 never appears, so it can
// serve as "no snapshot yet" in consumers.
std::atomic<std::uint64_t> g_generation{0};

std::uint64_t nextGeneration() {
  return g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

OpenResult open(const std::string& path, Sections sections) {
  PDT_TRACE_SCOPE("pdb.open", path);
  OpenResult result;
  const bool allow_mmap = mmapMode() != MmapMode::Off;
  // Full reads touch every byte (whole-file checksum + all sections), so
  // pre-fault the mapping; masked reads stay lazy.
  auto buffer =
      support::MmapBuffer::open(path, allow_mmap, sections == Sections::All);
  if (!buffer) return result;
  result.opened = true;
  auto backing = std::make_shared<const support::MmapBuffer>(std::move(*buffer));
  const std::string_view bytes = backing->view();
  ReadResult read = readBuffer(bytes, sections);
  if (!read.ok()) {
    result.errors = std::move(read.errors);
    return result;
  }
  auto snap = std::shared_ptr<Snapshot>(new Snapshot);
  snap->pdb_ = std::move(read.pdb);
  snap->pdb_.adoptBacking(std::move(backing));
  snap->generation_ = nextGeneration();
  snap->byte_size_ = bytes.size();
  result.snapshot = std::move(snap);
  return result;
}

PdbFile releasePdb(SnapshotPtr&& snapshot) {
  const SnapshotPtr held = std::move(snapshot);
  // Another holder still reads the records: copy them (the string
  // backings are shared, not duplicated).
  if (held.use_count() != 1) return held->pdb_;
  // Sole owner: nobody can observe the snapshot any more, and it was
  // created non-const by open(), so its records can be taken.
  return std::move(const_cast<Snapshot&>(*held).pdb_);
}

}  // namespace pdt::pdb
