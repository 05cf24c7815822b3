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
  snap->pdb_.adoptBacking(backing);
  snap->loaded_ = read.loaded;
  snap->generation_ = nextGeneration();
  snap->path_ = path;
  snap->format_ = detectFormat(bytes);
  snap->bytes_ = bytes;
  snap->buffer_ = std::move(backing);
  result.snapshot = std::move(snap);
  return result;
}

PdbFile releasePdb(SnapshotPtr&& snapshot) {
  const SnapshotPtr held = std::move(snapshot);
  if (held.use_count() != 1) return held->clonePdb();
  // Sole owner: nobody can observe the snapshot any more, and it was
  // created non-const by open()/widen(), so its records can be taken.
  return std::move(const_cast<Snapshot&>(*held).pdb_);
}

OpenResult widen(const SnapshotPtr& snapshot, Sections extra) {
  OpenResult result;
  if (snapshot == nullptr) {
    result.errors.emplace_back("null snapshot");
    return result;
  }
  result.opened = true;
  if (hasSections(snapshot->loaded(), extra)) {
    // Already covered: the existing snapshot is the answer.
    result.snapshot = snapshot;
    return result;
  }
  PDT_TRACE_SCOPE("pdb.widen", snapshot->path());
  // Parse only the sections the snapshot skipped, from the bytes it
  // retained — no file I/O. Readers assign item ids by file order no
  // matter which mask is active, so sections parsed now line up with the
  // ones parsed at open().
  const Sections missing = static_cast<Sections>(
      static_cast<std::uint16_t>(extra) &
      ~static_cast<std::uint16_t>(snapshot->loaded()));
  ReadResult read = readBuffer(snapshot->bytes_, missing);
  if (!read.ok()) {
    result.errors = std::move(read.errors);
    return result;
  }
  auto snap = std::shared_ptr<Snapshot>(new Snapshot);
  // Flat copy shares the existing backings (including the retained read
  // buffer, which the freshly-parsed sections alias too).
  snap->pdb_ = snapshot->clonePdb();
  snap->pdb_.adoptSections(std::move(read.pdb), missing);
  snap->loaded_ = snapshot->loaded() | read.loaded;
  snap->generation_ = snapshot->generation();  // same DB image, same gen
  snap->path_ = snapshot->path();
  snap->format_ = snapshot->format();
  snap->bytes_ = snapshot->bytes_;
  snap->buffer_ = snapshot->buffer_;
  result.snapshot = std::move(snap);
  return result;
}

}  // namespace pdt::pdb
