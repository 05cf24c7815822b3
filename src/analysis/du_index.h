// DefUseIndex: the shared def-use scaffolding every du consumer used to
// rebuild privately. pdbduct's World, the du rules' DuWorld, and pdbd's
// defuse verb all need the same things over a database: file/routine id
// resolution for rendering positions and owning routines, and — per du
// stream — the CFG-lite plus its reaching-defs solution. Each stream is
// built and solved exactly once and shared read-only.
//
// Layout: one dataflow::FlowTables holds every stream's blocks, edges,
// variable lists and reaching/reached lists in flat CSR arrays, filled by
// one FlowBuilder whose scratch buffers are reused from stream to stream;
// each Stream carries Cfg/ReachingDefs views into those arrays. Building
// and tearing down an index costs a fixed number of allocations plus
// amortized vector growth, whatever the stream count. Files and routines
// resolve through the database's own id index, so the index builds no
// lookup tables of its own; each stream's routine is resolved once, at
// build.
//
// Immutable after build(); safe to share across the checker's rule
// worker threads and pdbd's concurrent client connections.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "ductape/ductape.h"

namespace pdt::analysis {

class DefUseIndex {
 public:
  /// One du stream with its flow analysis prebuilt. `rd` is empty when
  /// the CFG is irregular (goto/label/try) — flow-sensitive consumers
  /// skip those streams.
  struct Stream {
    const pdb::DefUseItem* item = nullptr;
    /// The owning routine, resolved once at build; null when unresolvable.
    const ductape::pdbRoutine* routine = nullptr;
    dataflow::Cfg cfg;
    std::optional<dataflow::ReachingDefs> rd;
  };

  /// Builds over a database whose object graph supplies the routine
  /// names. The index borrows `pdb`; it must outlive the result. Counts
  /// du.streams, du.irregular and dataflow.worklist_iterations once.
  [[nodiscard]] static std::shared_ptr<const DefUseIndex> build(
      const ductape::PDB& pdb);

  explicit DefUseIndex(const ductape::PDB& pdb) : pdb_(&pdb) {}
  // The streams' views point into tables_: the index never moves.
  DefUseIndex(const DefUseIndex&) = delete;
  DefUseIndex& operator=(const DefUseIndex&) = delete;

  /// One entry per du item, in section order.
  [[nodiscard]] const std::vector<Stream>& streams() const {
    return streams_;
  }

  [[nodiscard]] const ductape::pdbFile* file(std::uint32_t id) const {
    return pdb_->fileById(id);
  }
  [[nodiscard]] const ductape::pdbRoutine* routine(std::uint32_t id) const {
    return pdb_->routineById(id);
  }

  /// Diagnostic location of a stream position (rules' reporting form).
  [[nodiscard]] ductape::pdbLoc loc(const pdb::Pos& pos) const;

  /// "file:line:col" with "<generated>" / "<unknown file>" fallbacks —
  /// pdbduct's rendering form.
  [[nodiscard]] std::string posText(const pdb::Pos& pos) const;

  /// The stream's qualified routine name, "<unknown routine>" when
  /// unresolvable.
  [[nodiscard]] std::string routineName(const Stream& stream) const;

  /// True when the stream routine's plain or qualified name equals `name`.
  [[nodiscard]] bool routineMatches(const Stream& stream,
                                    const std::string& name) const;

 private:
  const ductape::PDB* pdb_;
  dataflow::FlowTables tables_;
  std::vector<Stream> streams_;
};

}  // namespace pdt::analysis
