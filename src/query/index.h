// query::Index — the shared, memoized query surface over one database.
//
// Before this layer, every consumer rebuilt its own indexes: pdbtree
// recomputed tree roots per invocation, pdbduct built a private
// id-resolution World, the pdbcheck dataflow rules each re-solved
// reaching definitions per stream, and AnalysisContext derived its call
// graph with no way to share any of it. An Index owns (or borrows) one
// DUCTAPE object graph and memoizes every derived structure behind it:
//
//   roots()     include-tree / class-hierarchy / call-tree roots
//   names()     name -> entity lookup lines (plain and qualified names)
//   defUse()    per-stream CFG + reaching-defs (analysis::DefUseIndex)
//   analysis()  the full AnalysisContext pdbcheck rules run over
//
// Each sub-index is built lazily on first use, at most once
// (std::call_once), and is immutable afterwards — thread-safe once
// published. The object graph's own lazy state (the deferred graph
// build and the per-item qualified-name caches) is written outside any
// once_flag, so for concurrent readers (pdbd) call prewarm() once before
// sharing: it forces exactly that state, through roots() and names().
// defUse() and analysis() stay lazy: the first reader to need one builds
// it under its once_flag while any concurrent first reader waits.
//
// An owned graph takes its records by move — from a PdbFile, or from a
// snapshot through pdb::releasePdb — so building an Index copies them
// only when the caller still holds the snapshot it was given.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/context.h"
#include "analysis/du_index.h"
#include "ductape/ductape.h"
#include "pdb/snapshot.h"

namespace pdt::query {

class Index {
 public:
  /// Over a non-null snapshot (pdbd's path). The records are taken
  /// through pdb::releasePdb: moved when this is the only reference (pass
  /// it with std::move), copied when the caller still holds the snapshot.
  explicit Index(pdb::SnapshotPtr snapshot);

  /// Over an in-memory database (pipelines that built or merged one);
  /// its records are moved into the object graph.
  explicit Index(pdb::PdbFile pdb);

  /// Over a caller-owned object graph (one-shot tools). Borrows `pdb`;
  /// the caller keeps it alive and thread-confined.
  explicit Index(const ductape::PDB& pdb);

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  [[nodiscard]] const ductape::PDB& pdb() const { return *pdb_; }

  struct Roots {
    ductape::PDB::filevec includes;
    ductape::PDB::classvec classes;
    ductape::PDB::routinevec calls;
  };
  [[nodiscard]] const Roots& roots() const;

  [[nodiscard]] const analysis::DefUseIndex& defUse() const;
  [[nodiscard]] std::shared_ptr<const analysis::DefUseIndex> defUsePtr() const;

  [[nodiscard]] const analysis::AnalysisContext& analysis() const;

  /// Entities matching a plain or qualified name: one line per match,
  /// "<prefix>#<id> <qualified name>[ @ <location>]", in section order.
  /// Empty when nothing matches.
  [[nodiscard]] std::vector<std::string> lookup(const std::string& name) const;

  /// Forces the lazy state a first reader would otherwise write without
  /// synchronization: the object graph build and its qualified-name
  /// caches (via roots() and names()). Call once (single-threaded)
  /// before sharing the Index across concurrent readers; afterwards
  /// every query path is a pure read or a call_once-guarded first build.
  void prewarm() const;

 private:
  void graphOnce() const;  // forces the DUCTAPE lazy graph build, once
  const std::unordered_map<std::string, std::vector<std::string>>& names()
      const;

  std::optional<ductape::PDB> owned_;
  const ductape::PDB* pdb_ = nullptr;

  mutable std::once_flag graph_once_, roots_once_, names_once_, du_once_,
      ctx_once_;
  mutable Roots roots_;
  mutable std::unordered_map<std::string, std::vector<std::string>> names_;
  mutable std::shared_ptr<const analysis::DefUseIndex> du_;
  mutable std::optional<analysis::AnalysisContext> ctx_;
};

}  // namespace pdt::query
