// AnalysisContext: the shared whole-program indexes pdbcheck rules run
// over. Built once per database, then handed read-only to every rule (the
// checker runs independent rules on worker threads, so nothing here may
// mutate after build()).
//
// The call graph is built from pdbRoutine::callees()/callers() with
// template-instantiation edges collapsed onto their origin templates:
// corresponding member routines of Stack<int> and Stack<double> (both
// back-mapped to template Stack by the paper's used-mode recovery) share
// one node, so analyses see the program the way its author wrote it, not
// the way the instantiator expanded it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/du_index.h"
#include "ductape/ductape.h"

namespace pdt::analysis {

/// One call-graph node: a routine, or the family of routines instantiated
/// from the same template member (collapsed).
struct CallNode {
  /// Lowest-id member; supplies the display name and source location.
  const ductape::pdbRoutine* rep = nullptr;
  /// Every routine collapsed into this node, in id order.
  std::vector<const ductape::pdbRoutine*> members;
  /// The template the members were instantiated from (null for plain
  /// routines and for specializations without a template back-link).
  const ductape::pdbTemplate* origin = nullptr;
  std::vector<int> succ;  // callee nodes, sorted, unique
  std::vector<int> pred;  // caller nodes, sorted, unique
};

struct AnalysisContext {
  const ductape::PDB* pdb = nullptr;

  // --- Collapsed call graph -----------------------------------------------
  std::vector<CallNode> nodes;

  /// Entry points for reachability: main() plus defined extern "C"
  /// routines (the exported surface of a library). Node indices, sorted.
  std::vector<int> roots;

  // --- Def-use streams ------------------------------------------------------
  /// Shared per-stream CFG + reaching-defs (never null after build). The
  /// du rules consume this instead of re-solving per rule; callers that
  /// already hold one (query::Index) pass it in to avoid the rebuild.
  std::shared_ptr<const DefUseIndex> du;

  [[nodiscard]] static AnalysisContext build(const ductape::PDB& pdb);
  [[nodiscard]] static AnalysisContext build(
      const ductape::PDB& pdb, std::shared_ptr<const DefUseIndex> du);

  /// Call-graph node of a routine of `pdb`.
  [[nodiscard]] int nodeOf(const ductape::pdbRoutine* r) const {
    return node_of_[r->ordinal()];
  }

  /// Class hierarchy index: routines in derived classes that override the
  /// virtual routine `v` (same name, compatible arity), sorted by id.
  [[nodiscard]] std::span<const ductape::pdbRoutine* const> overridesOf(
      const ductape::pdbRoutine* v) const {
    return dataflow::csrRow(override_off_, overrides_, v->ordinal());
  }

  /// Include graph usage: files whose entities the entities of `f`
  /// reference (call targets, base classes, member/signature class types,
  /// template origins), sorted by id, unique. Empty when `f`'s entities
  /// refer to no other file. Used by the unused-include check.
  [[nodiscard]] std::span<const ductape::pdbFile* const> usesOf(
      const ductape::pdbFile* f) const {
    return dataflow::csrRow(use_off_, uses_, f->ordinal());
  }

  /// Display name of a node: the representative's qualified name, plus the
  /// origin template and instantiation count when collapsed.
  [[nodiscard]] std::string nodeName(int node) const;

 private:
  // Side tables indexed by routine / file ordinal (dense, unlike ids).
  std::vector<int> node_of_;
  std::vector<std::uint32_t> override_off_;  // CSR by routine ordinal
  std::vector<const ductape::pdbRoutine*> overrides_;
  std::vector<std::uint32_t> use_off_;  // CSR by file ordinal
  std::vector<const ductape::pdbFile*> uses_;
};

/// All transitive base classes of `c`, visited depth-first in declaration
/// order (each class once; virtual bases deduplicated).
[[nodiscard]] std::vector<const ductape::pdbClass*> collectAncestors(
    const ductape::pdbClass* c);

/// Parameter count of a routine's signature, -1 when unknown.
[[nodiscard]] int routineArity(const ductape::pdbRoutine* r);

/// Whether two routines "correspond" (hierarchy override, or the same
/// member across instantiations): names are compared by the caller; this
/// checks arity compatibility, with unknown arity matching anything.
[[nodiscard]] bool aritiesCompatible(const ductape::pdbRoutine* a,
                                     const ductape::pdbRoutine* b);

/// Stricter check used by the hierarchy rules: same arity AND matching
/// parameter type names position by position ('f(int)' does not override
/// 'f(double)'). Unknown signatures fall back to arity compatibility.
[[nodiscard]] bool signaturesCompatible(const ductape::pdbRoutine* a,
                                        const ductape::pdbRoutine* b);

}  // namespace pdt::analysis
