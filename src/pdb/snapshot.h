// Immutable database snapshots: the shared ownership model every reader
// of a PDB on disk goes through (docs/PDBD.md §"Snapshots").
//
// pdb::open() loads a database (any storage format, any section mask)
// and publishes it as a Snapshot: the typed PdbFile, which adopts the
// mmap/heap backing its string_views alias, plus a process-unique
// generation number. A Snapshot is deeply immutable and handed around as
// shared_ptr<const Snapshot>, so any number of concurrent readers can
// share one loaded database with no copies and no locks.
//
// A consumer that builds its own structure over the records (the DUCTAPE
// object graph, query::Index, the build cache, tauprof) takes them with
// releasePdb(): moved out when it holds the only reference, copied only
// when someone else still holds the snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pdb/format.h"
#include "pdb/pdb.h"

namespace pdt::pdb {

class Snapshot;
/// How snapshots travel: immutable and shared. Copying the pointer is the
/// only "copy" concurrent readers ever make.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

struct OpenResult;

/// One loaded database generation. Immutable after open() returns it;
/// safe to read from any number of threads concurrently.
class Snapshot {
 public:
  /// The typed database. Sections outside the open() mask were skipped
  /// and their vectors are empty.
  [[nodiscard]] const PdbFile& pdb() const { return pdb_; }

  /// Process-unique generation number, assigned at open(). pdbd stamps
  /// every response with the generation of the snapshot that answered it.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Size in bytes of the on-disk image the snapshot was read from.
  [[nodiscard]] std::size_t byteSize() const { return byte_size_; }

 private:
  Snapshot() = default;
  friend OpenResult open(const std::string& path, Sections sections);
  friend PdbFile releasePdb(SnapshotPtr&& snapshot);

  PdbFile pdb_;
  std::uint64_t generation_ = 0;
  std::size_t byte_size_ = 0;
};

/// What open() hands back. `snapshot` is null on any failure; `opened`
/// distinguishes "file not found/readable" (false) from "file read but
/// malformed" (true, with the reader's errors).
struct OpenResult {
  SnapshotPtr snapshot;
  std::vector<std::string> errors;  // reader diagnostics ("line N: ...")
  bool opened = false;

  [[nodiscard]] bool ok() const { return snapshot != nullptr; }
};

/// Opens a database file as an immutable snapshot. Auto-detects the
/// storage format; acquires bytes per the process-wide mmap mode
/// (--mmap=auto|off); materializes at most `sections`. This is the
/// single file-read entry point every tool and the DUCTAPE loader use.
[[nodiscard]] OpenResult open(const std::string& path,
                              Sections sections = Sections::All);

/// The typed database of a non-null snapshot, for a caller that is done
/// with the snapshot itself: moved out when `snapshot` is the only
/// reference to it (as right after open()), copied otherwise. Either way
/// the result keeps the string backings alive.
[[nodiscard]] PdbFile releasePdb(SnapshotPtr&& snapshot);

}  // namespace pdt::pdb
