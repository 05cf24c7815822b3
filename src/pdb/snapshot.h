// Immutable database snapshots: the shared ownership model every reader
// of a PDB on disk goes through (docs/PDBD.md §"Snapshots").
//
// pdb::open() loads a database (any storage format, any section mask)
// and publishes it as a Snapshot: the typed PdbFile, the mmap/heap
// backing its string_views alias, the mask of sections actually
// materialized, and a process-unique generation number. A Snapshot is
// deeply immutable and handed around as shared_ptr<const Snapshot>, so
// any number of concurrent readers — tool pipelines, pdbcheck worker
// threads, pdbd client connections — can share one loaded database with
// no copies and no locks.
//
// Lazily-skipped sections can be re-opened later with widen(): the
// retained read buffer is re-parsed for exactly the missing sections and
// combined with the already-materialized ones into a new Snapshot of the
// same generation. Nothing loaded is re-read, re-parsed, or re-interned —
// item records are flat-copied views over the same shared backing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pdb/format.h"
#include "pdb/pdb.h"

namespace pdt::pdb {

class Snapshot;
/// How snapshots travel: immutable and shared. Copying the pointer is the
/// only "copy" concurrent readers ever make.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

struct OpenResult;

/// One loaded database generation. Immutable after open()/widen() returns
/// it; safe to read from any number of threads concurrently.
class Snapshot {
 public:
  /// The typed database. Items outside loaded() were skipped and their
  /// vectors are empty (widen() can materialize them later).
  [[nodiscard]] const PdbFile& pdb() const { return pdb_; }

  /// Sections actually materialized.
  [[nodiscard]] Sections loaded() const { return loaded_; }

  /// Process-unique generation number, assigned at open() and preserved
  /// by widen(). pdbd stamps every response with the generation of the
  /// snapshot that answered it.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] Format format() const { return format_; }

  /// Size in bytes of the retained on-disk image.
  [[nodiscard]] std::size_t byteSize() const { return bytes_.size(); }

  /// Mutable flat copy for the writers' side of the world (tauprof
  /// attaching a dp section, pdbmerge folding). Shares the zero-copy
  /// string backings with the snapshot; item records are copied.
  [[nodiscard]] PdbFile clonePdb() const { return pdb_; }

 private:
  Snapshot() = default;
  friend OpenResult open(const std::string& path, Sections sections);
  friend OpenResult widen(const SnapshotPtr& snapshot, Sections extra);
  friend PdbFile releasePdb(SnapshotPtr&& snapshot);

  PdbFile pdb_;
  Sections loaded_ = Sections::All;
  std::uint64_t generation_ = 0;
  std::string path_;
  Format format_ = Format::Ascii;

  // The raw on-disk image, retained so widen() can materialize skipped
  // sections without touching the filesystem again. The buffer is also
  // adopted by pdb_, so views stay valid for the snapshot's lifetime.
  std::shared_ptr<const void> buffer_;
  std::string_view bytes_;
};

/// What open()/widen() hand back. `snapshot` is null on any failure;
/// `opened` distinguishes "file not found/readable" (false) from "file
/// read but malformed" (true, with the reader's errors).
struct OpenResult {
  SnapshotPtr snapshot;
  std::vector<std::string> errors;  // reader diagnostics ("line N: ...")
  bool opened = false;

  [[nodiscard]] bool ok() const { return snapshot != nullptr; }
};

/// Opens a database file as an immutable snapshot. Auto-detects the
/// storage format; acquires bytes per the process-wide mmap mode
/// (--mmap=on|off|auto); materializes at most `sections`. This is the
/// single file-read entry point every tool and the DUCTAPE loader use.
[[nodiscard]] OpenResult open(const std::string& path,
                              Sections sections = Sections::All);

/// The typed database of a snapshot, for a caller that is done with the
/// snapshot itself: moved out when `snapshot` is the only reference to it
/// (as right after open()), a clonePdb() copy otherwise. Either way the
/// result keeps the string backings alive.
[[nodiscard]] PdbFile releasePdb(SnapshotPtr&& snapshot);

/// Re-opens lazily-skipped sections into the same snapshot generation.
/// Returns `snapshot` itself when `extra` is already covered; otherwise a
/// new Snapshot whose mask is loaded()|extra. Only the missing sections
/// are parsed (from the retained buffer — no file I/O); everything
/// already loaded is shared, not copied.
[[nodiscard]] OpenResult widen(const SnapshotPtr& snapshot, Sections extra);

}  // namespace pdt::pdb
